import ankerrank
from ankerrank import baselines, kernel, ranker, svm

# Public names removed together with the code they named, so that each
# preference pair and each score-to-ranking step has one implementation.
REMOVED = ("PairInstance", "pairs_to_arrays", "rank_from_theta", "err_rank", "ranksvm_rank",
           "decision_value")


def test_every_exported_name_resolves():
    assert [name for name in ankerrank.__all__ if not hasattr(ankerrank, name)] == []
    assert len(set(ankerrank.__all__)) == len(ankerrank.__all__)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in ankerrank.__all__
        for module in (ankerrank, ranker, baselines, svm, kernel):
            assert not hasattr(module, name), f"{module.__name__}.{name} still exists"
    assert not hasattr(baselines, "_training_preferences")
