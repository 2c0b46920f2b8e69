import ast
import inspect
import re
from pathlib import Path

import ankerrank
from ankerrank import baselines, cli, data, evaluate, kernel, ranker, svm
from synthetic import make_linear_dataset

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


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    # README's snippets run as a reader would run them: one after another,
    # in one session, next to a train.csv and a query.csv.
    ankerrank.save_dataset(make_linear_dataset(3, 6, 2, seed=1), tmp_path / "train.csv")
    ankerrank.save_dataset(make_linear_dataset(1, 5, 2, seed=2), tmp_path / "query.csv")
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["prediction"].ordering.size == 5


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
    # One damped Newton loop serves Platt, BTL and RankSVM, and it alone
    # knows the line search and the stopping rule; no fit hands it either.
    naming = set()
    for path in sorted(Path(ankerrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [node.id] if isinstance(node, ast.Name) else \
                [node.attr] if isinstance(node, ast.Attribute) else \
                [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            if {"_ARMIJO", "_MIN_STEP", "_NEWTON_TOL", "_NEWTON_MAX_STEPS"} & set(names):
                naming.add(path.name)
    assert naming == {"svm.py"}
    assert list(inspect.signature(svm._newton_minimize).parameters) == ["x", "local", "what"]


def test_every_newton_fit_takes_the_shared_stopping_rule_and_btl_states_one_likelihood():
    # No fit has a tolerance or step cap of its own: each Newton fit stops
    # by the Newton driver's rule, and SMO by its own update cap.  SMO keeps
    # ``tol``, which production sets to two values: 1e-3 for the final fit
    # and ``svm._CV_TOL`` for the cost search's solves.
    for fit, allowed in ((svm.platt_fit, []), (ranker.btl_fit, []), (baselines.ranksvm_fit, []),
                         (baselines._squared_hinge_newton, []), (svm.smo_train, ["tol"])):
        knobs = [name for name in inspect.signature(fit).parameters if any(k in name for k in ("tol", "iter", "step"))]
        assert knobs == allowed, fit.__name__
    assert list(inspect.signature(svm.smo_train).parameters) == ["kernel", "labels", "C", "tol"]
    # One expression scores a BTL log-likelihood: the path's first point and
    # btl_log_likelihood call it, and a fit calls it once, at its one start.
    tree = ast.parse(Path(ranker.__file__).read_text(encoding="utf-8"))
    holding = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               and any(isinstance(node, ast.Attribute) and node.attr == "logaddexp" for node in ast.walk(func))}
    assert holding == {"_log_likelihood"}
    btl_fit = next(func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef) and func.name == "btl_fit")
    calls = [node for node in ast.walk(btl_fit) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_log_likelihood"]
    assert len(calls) == 1


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


def _functions_raising(*phrases) -> set[tuple[str, str]]:
    """(file, function) of every package function with a raise whose string holds one of ``phrases``."""
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
    return stating


def test_only_one_function_states_the_query_rule():
    # ``ranker._check_query`` owns the rule that a query to rank is a 2-D
    # array of two or more items of the training width; every ranker calls
    # it.  ``ranking_loss`` raises its own two-item rule, on positions.
    assert _functions_raising("two items", "training items have", "(items, features)") == {
        ("ranker.py", "_check_query"), ("evaluate.py", "ranking_loss")}


def test_only_one_function_states_the_variant_rule():
    # ``kernel._check_variant`` owns the rule that a variant is a
    # ``KernelVariant``; kernel_matrix, AnkerModel and MethodConfig call it.
    assert _functions_raising("must be a KernelVariant") == {("kernel.py", "_check_variant")}


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
