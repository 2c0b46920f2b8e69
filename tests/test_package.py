import ast
from pathlib import Path

import ankerrank
from ankerrank import baselines, cli, data, evaluate, kernel, ranker, svm

# Public names removed together with the code they named: the second
# implementations of preference pairs and score-to-ranking steps, model
# persistence, the scalar and test-only kernel and SVM helpers, and the
# reusable normalization statistics.
REMOVED = ("PairInstance", "pairs_to_arrays", "rank_from_theta", "err_rank", "ranksvm_rank",
           "decision_value", "save_model", "load_model", "normalize_query_with_stats",
           "scalar_kernel", "pair_kernel", "is_psd", "principal_minors_nonneg", "average_ranks",
           "dual_objective", "NormalizationStats", "minmax_fit_apply", "zscore_fit_apply")

PUBLIC = (
    "AnkerModel", "BtlParams", "DataFormatError", "DEFAULT_C_GRID", "ExperimentResult",
    "FeatureKind", "FeatureSchema", "KernelVariant", "KsDecision", "LinearModel", "METHOD_NAMES",
    "MethodConfig", "NormalizationMode", "NormalizationScope", "PlattParams",
    "RankPrediction", "RankedDataset", "RankedQuery", "SvmModel", "able2rank_lite", "anker_fit",
    "anker_predict", "anker_rank", "boolean_proportion", "btl_fit", "btl_log_likelihood",
    "build_pair_instances", "choose_normalization_scope", "competition_ranks", "decision_values",
    "err_fit", "err_predict", "format_results_table", "gram_matrix", "kernel_matrix",
    "ks_two_sample", "load_dataset", "normalize_train_test", "platt_fit", "platt_prob",
    "preference_matrix", "proportion_degree",
    "ranking_from_scores", "ranking_loss", "ranksvm_fit", "reciprocal_preferences",
    "results_to_csv", "run_experiment", "save_dataset", "score_external_orderings", "select_c",
    "smo_train",
)

# Imports a module keeps without using them, with the reason.
UNUSED_IMPORTS_ALLOWED = {
    ("baselines", "select_c"): "perfbench's tracer wraps this name at this module",
    ("baselines", "smo_train"): "perfbench's tracer wraps this name at this module",
}


def test_every_exported_name_resolves():
    assert [name for name in ankerrank.__all__ if not hasattr(ankerrank, name)] == []
    assert len(set(ankerrank.__all__)) == len(ankerrank.__all__)


def test_public_surface_is_pinned():
    assert tuple(ankerrank.__all__) == PUBLIC


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in ankerrank.__all__
        for module in (ankerrank, data, ranker, baselines, svm, kernel, evaluate):
            assert not hasattr(module, name), f"{module.__name__}.{name} still exists"
    assert not hasattr(baselines, "_training_preferences")
    assert not hasattr(ranker, "_stats_to_dict") and not hasattr(ranker, "_stats_from_dict")
    assert "stats" not in ranker.AnkerModel.__dataclass_fields__
    assert "tol" not in svm.SvmModel.__dataclass_fields__
    assert "variant" not in svm.SvmModel.__dataclass_fields__
    assert not hasattr(kernel, "_as_pair_arrays")
    assert not hasattr(data, "_as_matrix")
    assert not hasattr(svm.SvmModel, "with_variant") and not hasattr(svm.SvmModel, "with_platt")
    # The kernel-check command, its tolerance option and the CLI-only variant parser.
    assert not hasattr(cli, "cmd_kernel_check") and not hasattr(cli, "_tolerance")
    assert not hasattr(kernel.KernelVariant, "from_string")


def test_model_fields_are_pinned():
    # A model carries its support pairs only, as differences.
    assert tuple(ranker.AnkerModel.__dataclass_fields__) == ("svm", "variant", "support_diffs")


def test_svm_does_not_depend_on_the_kernel():
    tree = ast.parse(Path(svm.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "kernel" not in imported


def test_only_the_newton_driver_names_the_line_search_constants():
    # One damped Newton loop serves Platt, BTL and RankSVM.
    naming = set()
    for path in sorted(Path(ankerrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [node.id] if isinstance(node, ast.Name) else \
                [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            if {"_ARMIJO", "_MIN_STEP"} & set(names):
                naming.add(path.name)
    assert naming == {"svm.py"}


def test_only_the_kernel_names_its_range_check():
    # ``kernel.pair_differences`` is the one step from items to kernel pairs.
    naming = set()
    for path in sorted(Path(ankerrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [node.id] if isinstance(node, ast.Name) else \
                [node.attr] if isinstance(node, ast.Attribute) else \
                [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            if "_check_within" in names:
                naming.add(path.name)
    assert naming == {"kernel.py"}


def test_only_one_function_states_the_query_rule():
    # ``ranker._check_query`` owns the rule that a query to rank is a 2-D
    # array of two or more items of the training width; every ranker calls
    # it.  ``ranking_loss`` raises its own two-item rule, on positions.
    phrases = ("two items", "training items have", "(items, features)")
    stating = set()
    for path in sorted(Path(ankerrank.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and any(
                        isinstance(c, ast.Constant) and isinstance(c.value, str)
                        and any(phrase in c.value for phrase in phrases) for c in ast.walk(node)):
                    stating.add((path.name, func.name))
    assert stating == {("ranker.py", "_check_query"), ("evaluate.py", "ranking_loss")}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(Path(ankerrank.__file__).parent.glob("*.py")):
        for name in _unused_imports(path):
            if (path.stem, name) not in UNUSED_IMPORTS_ALLOWED:
                unused.append(f"{path.stem}: {name}")
    assert unused == []
