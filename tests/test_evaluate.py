import csv
import io
from itertools import permutations

import numpy as np
import pytest

from ankerrank import evaluate
from ankerrank.data import DataFormatError, NormalizationScope, RankedDataset, RankedQuery
from ankerrank.evaluate import (
    METHOD_NAMES,
    ExperimentResult,
    MethodConfig,
    competition_ranks,
    format_results_table,
    ranking_loss,
    results_to_csv,
    run_experiment,
    score_external_orderings,
)
from oracles import brute_force_ranking_loss
from synthetic import make_linear_dataset


# ---------------------------------------------------------------------------
# Ranking loss

def test_loss_of_identical_rankings_is_zero():
    pi = np.array([2, 0, 1, 3])
    assert ranking_loss(pi, pi) == 0.0


def test_loss_of_reversed_ranking_is_one():
    pi = np.array([0, 1, 2, 3])
    assert ranking_loss(pi, pi[::-1]) == 1.0


def test_single_adjacent_swap_at_three_items():
    assert ranking_loss(np.array([0, 1, 2]), np.array([1, 0, 2])) == pytest.approx(1 / 3)


def test_loss_is_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        pi, pi_star = rng.permutation(n), rng.permutation(n)
        assert ranking_loss(pi, pi_star) == ranking_loss(pi_star, pi)


def test_loss_is_invariant_under_common_relabeling():
    rng = np.random.default_rng(1)
    n = 8
    pi, pi_star = rng.permutation(n), rng.permutation(n)
    relabel = rng.permutation(n)
    assert ranking_loss(pi[relabel], pi_star[relabel]) == ranking_loss(pi, pi_star)


def test_loss_numerator_is_integral():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        loss = ranking_loss(rng.permutation(n), rng.permutation(n))
        assert 0.0 <= loss <= 1.0
        scaled = loss * n * (n - 1) / 2
        assert scaled == pytest.approx(round(scaled), abs=1e-9)


def test_loss_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        pi, pi_star = rng.permutation(n), rng.permutation(n)
        assert ranking_loss(pi, pi_star) == pytest.approx(brute_force_ranking_loss(pi, pi_star))


def test_loss_input_validation():
    with pytest.raises(ValueError):
        ranking_loss(np.array([0, 1]), np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        ranking_loss(np.array([0]), np.array([0]))


def test_a_tie_counts_half_a_discordant_pair():
    assert ranking_loss([0, 0, 0], [0, 1, 2]) == 0.5
    assert ranking_loss([0.5, 0.5, 2.0], [1, 0, 2]) == pytest.approx(1 / 6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loss_rejects_non_finite_positions(bad):
    with pytest.raises(ValueError, match="finite"):
        ranking_loss(np.array([0.0, bad, 1.0]), np.array([0, 1, 2]))


def test_loss_with_ties_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        pi = 0.25 * rng.integers(0, max(1, n // 2), size=n)  # real positions, many ties
        pi_star = rng.permutation(n)
        assert ranking_loss(pi, pi_star) == pytest.approx(brute_force_ranking_loss(pi, pi_star))


def test_loss_with_ties_is_the_mean_over_tie_breakings():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pi = rng.integers(0, 3, size=n)
        pi_star = rng.permutation(n)
        # every strict ranking that keeps the order pi already fixes
        refinements = [np.array(p) for p in permutations(range(n))
                       if all(p[i] < p[j] for i in range(n) for j in range(n) if pi[i] < pi[j])]
        expected = np.mean([ranking_loss(p, pi_star) for p in refinements])
        assert ranking_loss(pi, pi_star) == pytest.approx(expected)



@pytest.mark.parametrize("pi_star", [[0.2, 0.9], [0, 0], [1, 2], [0.0, 1.5], [True, False], [False, True],
                                     [True, 0], [0, np.True_], np.array(["0", 1], dtype=object), [0, [1]]])
def test_loss_needs_a_permutation_as_the_true_ranking(pi_star):
    with pytest.raises(DataFormatError, match="not a permutation of 0..1"):
        ranking_loss([0, 1], pi_star)


def test_loss_reads_an_integral_float_true_ranking_as_integers():
    assert ranking_loss([0, 1], [1.0, 0.0]) == ranking_loss([0, 1], [1, 0]) == 1.0


# ---------------------------------------------------------------------------
# Rank bookkeeping

def test_competition_ranks_share_lower_rank_on_ties():
    assert np.array_equal(competition_ranks([0.05, 0.02, 0.02]), [3, 1, 1])
    assert np.array_equal(competition_ranks([0.1, 0.2, 0.3]), [1, 2, 3])
    assert np.array_equal(competition_ranks([0.5]), [1])


# ---------------------------------------------------------------------------
# Benchmark protocol

@pytest.fixture(scope="module")
def small_problem():
    train = make_linear_dataset(3, 8, 3, seed=4)
    test = make_linear_dataset(2, 8, 3, seed=5)
    return train, test


def test_deterministic_method_has_zero_std(small_problem):
    train, test = small_problem
    results = run_experiment(train, test, ["err"], repeats=5, seed=6)
    assert results[0].std_loss == 0.0
    assert np.all(results[0].losses == results[0].losses[0])


def test_run_experiment_stores_one_loss_per_repeat(small_problem):
    train, test = small_problem
    results = run_experiment(train, test, ["err", "able2rank"], repeats=20, seed=7)
    for result in results:
        assert result.losses.shape == (20,)
        assert result.mean_loss == pytest.approx(float(result.losses.mean()))
        assert result.std_loss == pytest.approx(float(result.losses.std(ddof=1)))


def test_run_experiment_runs_a_method_that_ignores_its_seed_once(small_problem, monkeypatch):
    train, test = small_problem
    calls = {"able2rank_lite": 0, "err_fit": 0, "ranksvm_fit": 0}

    def counted(name):
        original = getattr(evaluate.bl, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(evaluate.bl, name, counted(name))
    results = run_experiment(train, test, ["able2rank", "err", "ranksvm"], repeats=3, seed=7,
                             config=MethodConfig(C=1.0))
    assert calls == {"able2rank_lite": len(test.queries), "err_fit": 1, "ranksvm_fit": 3}
    assert all(r.losses.shape == (3,) for r in results)
    assert all(np.all(r.losses == r.losses[0]) and r.std_loss == 0.0 for r in results[:2])


def test_run_experiment_assigns_competition_ranks(small_problem):
    train, test = small_problem
    results = run_experiment(train, test, ["err", "able2rank"], repeats=2, seed=8)
    means = [r.mean_loss for r in results]
    assert [r.rank for r in results] == competition_ranks(means).tolist()


def test_run_experiment_is_reproducible(small_problem):
    train, test = small_problem
    config = MethodConfig(C=1.0)
    a = run_experiment(train, test, ["anker", "ranksvm"], repeats=2, seed=9, config=config)
    b = run_experiment(train, test, ["anker", "ranksvm"], repeats=2, seed=9, config=config)
    assert all(np.array_equal(x.losses, y.losses) for x, y in zip(a, b))
    assert results_to_csv(a, "p") == results_to_csv(b, "p")


def test_run_experiment_method_order_does_not_leak_randomness(small_problem):
    # each method draws from its own spawned stream, so adding a method in
    # front must not change another method's losses
    train, test = small_problem
    config = MethodConfig(C=1.0)
    alone = run_experiment(train, test, ["ranksvm"], repeats=2, seed=10, config=config)
    # spawn order is by position, so keep ranksvm in the same slot
    paired = run_experiment(train, test, ["ranksvm", "err"], repeats=2, seed=10, config=config)
    assert np.array_equal(alone[0].losses, paired[0].losses)


@pytest.mark.parametrize("method", ["anker", "ranksvm"])
def test_run_experiment_refuses_a_cost_outside_the_positive_reals_for_both_svms(small_problem, method):
    train, test = small_problem
    with pytest.raises(ValueError, match="C must be a finite positive number"):
        run_experiment(train, test, [method], repeats=1, seed=0, config=MethodConfig(C=0.0))


@pytest.mark.parametrize("field, value, message", [
    ("C", 0.0, "C must be a finite positive number"),
    ("C", np.nan, "C must be a finite positive number"),
    ("able2rank_k", 0, "able2rank_k must be at least 1"),
    ("able2rank_k", 1.5, "able2rank_k must be an integer, not 1.5"),
    ("pair_cap", 0, "pair_cap must be at least 1"),
    ("pair_cap", True, "pair_cap must be an integer, not True"),
    ("variant", "poly2", "variant must be a KernelVariant, not 'poly2'"),
], ids=["C-zero", "C-nan", "k-zero", "k-fraction", "cap-zero", "cap-bool", "variant-name"])
def test_method_config_refuses_a_bad_field_when_it_is_built(field, value, message):
    # Not after the methods before the one that reads the field have run.
    with pytest.raises(ValueError, match=message):
        MethodConfig(**{field: value})


def test_run_experiment_rejects_unknown_method(small_problem):
    train, test = small_problem
    with pytest.raises(ValueError, match="unsupported method"):
        run_experiment(train, test, ["ranknet"], repeats=1, seed=0)


def test_run_experiment_needs_a_repeat(small_problem):
    train, test = small_problem
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        run_experiment(train, test, ["err"], repeats=0, seed=0)


@pytest.mark.parametrize("methods,external,message", [
    (["err", "err"], None, "more than once"),
    (["err", "anker"], "anker", "name of a built-in method"),
    (["err"], "ranksvm", "name of a built-in method"),
    (["err"], "mine", "external method mine is not in the method list"),
])
def test_run_experiment_gives_each_method_name_one_meaning(small_problem, methods, external, message):
    train, test = small_problem
    externals = {external: [q.ordering.tolist()[::-1] for q in test.queries]} if external else None
    with pytest.raises(DataFormatError, match=message):
        run_experiment(train, test, methods, repeats=1, seed=0, externals=externals)


@pytest.mark.parametrize("scope,expected", [
    (None, {"scope": 1, "normalize": 2}),
    (NormalizationScope.TEST_ONLY, {"scope": 0, "normalize": 2}),
])
def test_run_experiment_normalizes_once_per_problem(small_problem, monkeypatch, scope, expected):
    train, test = small_problem
    calls = {"scope": 0, "normalize": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evaluate, "choose_normalization_scope",
                        counted("scope", evaluate.choose_normalization_scope))
    monkeypatch.setattr(evaluate, "normalize_train_test",
                        counted("normalize", evaluate.normalize_train_test))
    run_experiment(train, test, METHOD_NAMES, repeats=3, seed=14, config=MethodConfig(C=1.0, scope=scope))
    assert calls == expected


@pytest.mark.parametrize("scope", [None, NormalizationScope.TEST_ONLY, NormalizationScope.TRAIN_PLUS_TEST],
                         ids=["gate", "test-only", "train+test"])
def test_run_experiment_refuses_a_test_set_of_another_width_before_any_method_runs(
        small_problem, monkeypatch, scope):
    train, _ = small_problem
    test = make_linear_dataset(2, 6, train.n_features + 1, seed=15)

    def not_reached(*args, **kwargs):
        raise AssertionError("ran before the test queries were checked")

    for name, (mode, _) in evaluate._RUNNERS.items():
        monkeypatch.setitem(evaluate._RUNNERS, name, (mode, not_reached))
    monkeypatch.setattr(evaluate, "choose_normalization_scope", not_reached)
    monkeypatch.setattr(evaluate, "normalize_train_test", not_reached)
    with pytest.raises(DataFormatError, match=f"test query 'q0' has items of {train.n_features + 1} features"):
        run_experiment(train, test, METHOD_NAMES, repeats=1, seed=0, config=MethodConfig(C=1.0, scope=scope))


def test_run_experiment_refuses_a_one_item_training_query_before_any_method_runs_when_anker_does(
        small_problem, monkeypatch):
    train, test = small_problem
    lone = RankedQuery("lone", train.queries[0].items[:1], np.array([0]))
    train = RankedDataset(train.schema, train.queries + (lone,))
    # The baselines train on such a query; only anker refuses it.
    assert len(run_experiment(train, test, ["err", "ranksvm", "able2rank"], repeats=1, seed=0)) == 3

    def not_reached(*args, **kwargs):
        raise AssertionError("ran before the training queries were checked")

    for name, (mode, _) in evaluate._RUNNERS.items():
        monkeypatch.setitem(evaluate._RUNNERS, name, (mode, not_reached))
    with pytest.raises(DataFormatError, match="training query 'lone' has fewer than two items"):
        run_experiment(train, test, ["err", "ranksvm", "able2rank", "anker"], repeats=3, seed=0)


def test_results_csv_format(small_problem):
    train, test = small_problem
    results = run_experiment(train, test, ["err"], repeats=2, seed=11)
    text = results_to_csv(results, "train->test")
    lines = text.strip().split("\n")
    assert lines[0] == "problem,method,mean,std,rank"
    fields = lines[1].split(",")
    assert fields[0] == "train->test" and fields[1] == "err"
    float(fields[2]), float(fields[3]), int(fields[4])


def test_results_csv_bytes_and_quoting():
    results = [ExperimentResult("err", 0.25, 0.125, [0.25], rank=1),
               ExperimentResult("anker", 0.5, 0.0, [0.5], rank=2)]
    assert results_to_csv(results, "d1->d2") == (
        "problem,method,mean,std,rank\n"
        "d1->d2,err,0.250000,0.125000,1\n"
        "d1->d2,anker,0.500000,0.000000,2\n"
    )
    rows = list(csv.reader(io.StringIO(results_to_csv(results, 'a,"b"'))))
    assert [len(row) for row in rows] == [5, 5, 5]
    assert [row[0] for row in rows[1:]] == ['a,"b"', 'a,"b"']
    assert rows[1][1:] == ["err", "0.250000", "0.125000", "1"]


def test_format_results_table_mentions_all_methods(small_problem):
    train, test = small_problem
    results = run_experiment(train, test, ["err", "able2rank"], repeats=2, seed=12)
    table = format_results_table(results, "train->test")
    assert "err" in table and "able2rank" in table and "+-" in table


# ---------------------------------------------------------------------------
# Externally produced rankings

def test_score_external_orderings_against_truth(small_problem):
    _, test = small_problem
    perfect = [q.ordering.tolist() for q in test.queries]
    assert score_external_orderings(test, perfect) == 0.0
    reversed_all = [q.ordering.tolist()[::-1] for q in test.queries]
    assert score_external_orderings(test, reversed_all) == 1.0


def test_score_external_orderings_validation(small_problem):
    _, test = small_problem
    with pytest.raises(ValueError, match="test queries"):
        score_external_orderings(test, [[0, 1]])
    bad = [q.ordering.tolist() for q in test.queries]
    bad[0][0] = bad[0][1]
    with pytest.raises(ValueError, match="not a permutation"):
        score_external_orderings(test, bad)


@pytest.fixture(scope="module")
def two_item_query():
    return make_linear_dataset(1, 2, 3, seed=9)


@pytest.mark.parametrize("make", [list, lambda o: [float(k) for k in o], tuple, np.array],
                         ids=["list", "integral-floats", "tuple", "int-array"])
def test_score_external_orderings_take_integral_numbers(two_item_query, make):
    truth = two_item_query.queries[0].ordering.tolist()
    assert score_external_orderings(two_item_query, [make(truth)]) == 0.0
    assert score_external_orderings(two_item_query, [make(truth[::-1])]) == 1.0


@pytest.mark.parametrize("ordering", ["01", 0, [np.True_, 0], [True, 0], [1.5, 0.0], [0, [1]],
                                      np.array(["0", 1], dtype=object), np.array([[0], [1]])],
                         ids=["string", "scalar", "numpy-boolean", "boolean", "fraction", "nested",
                              "object-array", "2-d-array"])
def test_score_external_orderings_refuse_anything_else(two_item_query, ordering):
    with pytest.raises(DataFormatError, match="external ordering for query .* is not a permutation of 0..1"):
        score_external_orderings(two_item_query, [ordering])


def test_external_method_joins_the_ranking(small_problem):
    train, test = small_problem
    perfect = [q.ordering.tolist() for q in test.queries]
    results = run_experiment(train, test, ["err", "oracle"], repeats=3, seed=13,
                             externals={"oracle": perfect})
    by_name = {r.method: r for r in results}
    assert by_name["oracle"].mean_loss == 0.0
    assert by_name["oracle"].std_loss == 0.0
    assert by_name["oracle"].rank == 1
    assert by_name["oracle"].losses.shape == (3,)


def test_external_orderings_are_checked_before_any_method_runs(small_problem, monkeypatch):
    train, test = small_problem

    def too_early(*args, **kwargs):
        raise AssertionError("ran before the external orderings were checked")

    monkeypatch.setattr(evaluate, "anker_fit", too_early)
    monkeypatch.setattr(evaluate, "choose_normalization_scope", too_early)
    malformed = [[0, 0]] * len(test.queries)
    with pytest.raises(DataFormatError, match="not a permutation"):
        run_experiment(train, test, ["anker", "ext"], repeats=3, seed=0, externals={"ext": malformed})
