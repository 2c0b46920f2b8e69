import logging
import tracemalloc

import numpy as np
import pytest

from ankerrank import baselines
from ankerrank.baselines import (
    LinearModel,
    _difference_vectors,
    _squared_hinge_newton,
    able2rank_lite,
    err_fit,
    err_predict,
    ranksvm_fit,
)
from ankerrank.data import RankedDataset, RankedQuery, normalize_train_test
from ankerrank.data import NormalizationMode, NormalizationScope
from ankerrank.evaluate import ranking_loss
from ankerrank.kernel import _prepare_side, kernel_matrix
from ankerrank.ranker import build_pair_instances, ranking_from_scores, reciprocal_preferences
from ankerrank.svm import DEFAULT_C_GRID
from oracles import squared_hinge_lbfgs, squared_hinge_objective
from synthetic import make_linear_dataset, numeric_schema


def single_query_dataset(items, ranking, d=None):
    items = np.asarray(items, dtype=float)
    return RankedDataset(numeric_schema(items.shape[1]),
                         (RankedQuery("q0", items, np.asarray(ranking)),))


def _minmax(items):
    """``items`` min-max normalized on their own rows."""
    normalized, _ = normalize_train_test(items, items, NormalizationMode.MINMAX,
                                         NormalizationScope.TEST_ONLY)
    return normalized


# ---------------------------------------------------------------------------
# Expected rank regression

def test_err_targets_for_three_items():
    # positions 0,1,2 with n=3 give targets 1/4, 2/4, 3/4
    data = single_query_dataset(np.array([[1.0], [2.0], [3.0]]), [0, 1, 2])
    model = err_fit(data)
    # features equal the rank, so the fit is exact and recovers the targets
    assert np.allclose(err_predict(model, data.queries[0].items), [0.25, 0.5, 0.75])


def test_err_single_item_query_target():
    data = single_query_dataset(np.array([[7.0]]), [0])
    model = err_fit(data)
    assert err_predict(model, data.queries[0].items)[0] == pytest.approx(0.5)


def test_err_recovers_training_order_when_features_equal_the_rank():
    # with the feature equal to the rank value and equally sized queries the
    # target is an exact linear function, so least squares recovers the
    # training order exactly
    queries = []
    for qid in range(3):
        items = np.arange(10, dtype=float)[:, None] + 2.0
        queries.append(RankedQuery(f"q{qid}", items, np.arange(10)))
    data = RankedDataset(numeric_schema(1), tuple(queries))
    model = err_fit(data)
    for query in data.queries:
        assert np.array_equal(ranking_from_scores(-err_predict(model, query.items)), query.ranking)


def test_err_targets_lie_strictly_inside_unit_interval():
    for n in (1, 2, 5, 40):
        targets = [(pos + 1) / (n + 1) for pos in range(n)]
        assert all(0.0 < t < 1.0 for t in targets)


def test_err_handles_rank_deficient_design():
    # two identical feature columns: least squares falls back to the
    # minimum-norm solution without raising
    items = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    model = err_fit(single_query_dataset(items, [0, 1, 2]))
    assert np.all(np.isfinite(model.weights))


def test_linear_model_requires_finite_coefficients():
    with pytest.raises(ValueError, match="finite"):
        LinearModel(np.array([np.inf]), 0.0)


# ---------------------------------------------------------------------------
# Ranking SVM

def test_ranksvm_recovers_sign_in_one_dimension():
    items = np.array([[0.9], [0.7], [0.4], [0.1]])
    data = single_query_dataset(items, ranking_from_scores(items[:, 0]))
    model = ranksvm_fit(data, C=1.0, seed=0)
    assert model.weights[0] > 0.0
    assert model.intercept == 0.0


def test_ranksvm_skips_zero_difference_pairs():
    items = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 1.0]])
    data = single_query_dataset(items, [0, 1, 2])
    diffs = _difference_vectors(data)
    # the duplicate pair is dropped; the rest are preferred minus other
    assert np.array_equal(diffs, [[-2.0, 1.0], [-2.0, 1.0]])


def conflicting_dataset():
    """Two queries ranked by one utility and one by another: not separable."""
    agree = make_linear_dataset(2, 8, 4, seed=17)
    disagree = make_linear_dataset(1, 8, 4, seed=18, weights=np.array([2.0, -1.0, 0.5, 1.0]),
                                   prefix="r")
    return RankedDataset(agree.schema, agree.queries + disagree.queries)


@pytest.mark.parametrize("C", [2.0**-6, 1.0, 2.0**6])
def test_ranksvm_matches_the_lbfgs_oracle_on_the_squared_hinge(C):
    train = conflicting_dataset()
    model = ranksvm_fit(train, C=C)
    diffs = _difference_vectors(train)
    _, grad = squared_hinge_objective(diffs, C, model.weights)
    assert np.max(np.abs(grad)) <= 1e-8
    assert np.max(np.abs(model.weights - squared_hinge_lbfgs(diffs, C))) <= 1e-6


def test_ranksvm_cost_ties_go_to_the_smallest():
    # every difference is positive in one dimension, so every cost
    # validates without error
    items = np.linspace(1.0, 0.0, 12)[:, None]
    data = single_query_dataset(items, np.arange(12))
    chosen = ranksvm_fit(data, C=None, seed=1)
    assert np.array_equal(chosen.weights, ranksvm_fit(data, C=min(DEFAULT_C_GRID)).weights)


def test_ranksvm_breaks_an_exact_cost_tie_toward_the_smallest():
    # C = 4 and C = 64 both err on 7/3 of a split in all; summed as floats,
    # the rates of C = 64 came out one ulp lower.
    data = make_linear_dataset(2, 3, 2, seed=26)
    chosen = ranksvm_fit(data, C=None, seed=26)
    assert np.array_equal(chosen.weights, ranksvm_fit(data, C=4.0).weights)
    assert not np.array_equal(chosen.weights, ranksvm_fit(data, C=64.0).weights)


@pytest.mark.parametrize("C", [0.0, -1.0, np.inf, np.nan])
def test_ranksvm_refuses_the_costs_smo_refuses(C, caplog):
    data = make_linear_dataset(2, 4, 2, seed=1)
    with caplog.at_level(logging.WARNING), pytest.raises(ValueError, match="C must be a finite positive number"):
        ranksvm_fit(data, C=C)
    assert caplog.text == ""


def test_ranksvm_newton_warns_when_it_stops_unconverged(caplog, monkeypatch):
    diffs = _difference_vectors(conflicting_dataset())
    monkeypatch.setattr(baselines, "_NEWTON_MAX_STEPS", 1)
    with caplog.at_level(logging.WARNING, logger="ankerrank.svm"):
        _squared_hinge_newton(diffs, 1.0)
    assert "RankSVM fit stopped unconverged after 1 Newton steps" in caplog.text
    assert "gradient max-norm" in caplog.text


def test_ranksvm_low_loss_on_held_out_linear_data():
    weights = np.linspace(1.0, 2.0, 6)
    train = make_linear_dataset(4, 15, 6, seed=2, weights=weights)
    test = make_linear_dataset(3, 15, 6, seed=3, weights=weights)
    train_n, test_n = normalize_train_test(
        train.all_items(), test.all_items(), NormalizationMode.ZSCORE,
        NormalizationScope.TRAIN_PLUS_TEST,
    )
    model = ranksvm_fit(train.with_items(train_n), C=None, seed=4)
    losses = []
    offset = 0
    for query in test.queries:
        items = test_n[offset : offset + query.n_items]
        offset += query.n_items
        losses.append(ranking_loss(ranking_from_scores(items @ model.weights), query.ranking))
    assert float(np.mean(losses)) <= 0.05


def test_ranksvm_invariant_to_constant_shift_within_a_query():
    # shifting every item of a query leaves the difference vectors unchanged
    # up to rounding, so the produced permutations are identical
    rng = np.random.default_rng(5)
    train = make_linear_dataset(2, 8, 3, seed=6)
    shifted_queries = []
    for query in train.queries:
        shifted_queries.append(RankedQuery(query.query_id, query.items + 3.7, query.ranking))
    shifted = RankedDataset(train.schema, tuple(shifted_queries))
    base_model = ranksvm_fit(train, C=1.0, seed=7)
    shifted_model = ranksvm_fit(shifted, C=1.0, seed=7)
    query = rng.random((6, 3))
    assert np.array_equal(ranking_from_scores(query @ shifted_model.weights),
                          ranking_from_scores(query @ base_model.weights))
    assert np.array_equal(ranking_from_scores((query + 11.0) @ base_model.weights),
                          ranking_from_scores(query @ base_model.weights))


def test_ranksvm_is_deterministic_given_seed():
    train = make_linear_dataset(2, 10, 4, seed=8)
    a = ranksvm_fit(train, C=2.0, seed=9)
    b = ranksvm_fit(train, C=2.0, seed=9)
    assert np.array_equal(a.weights, b.weights)
    # cost selection shuffles its folds by the seed
    a = ranksvm_fit(conflicting_dataset(), C=None, seed=9)
    b = ranksvm_fit(conflicting_dataset(), C=None, seed=9)
    assert np.array_equal(a.weights, b.weights)


# ---------------------------------------------------------------------------
# able2rank (lite)

def test_able2rank_transfers_an_identical_pair():
    # the training preference equals the query pair, so the proportion degree
    # is exactly 1 and the preference is transferred
    items = np.array([[0.9, 0.8], [0.2, 0.1], [0.5, 0.4]])
    train = single_query_dataset(items, [0, 2, 1])  # item0 > item2 > item1
    normalized = _minmax(train.all_items())
    train_n = train.with_items(normalized)
    query = np.vstack([normalized[0], normalized[1]])
    prediction = able2rank_lite(train_n, query, k=3)
    assert prediction.preference[0, 1] > 0.5
    assert np.array_equal(prediction.ordering, [0, 1])


def test_able2rank_defaults_to_half_without_evidence():
    # every feature moves in the same direction in training but in the
    # opposite direction in the query, so no sign ever agrees
    train_items = np.array([[1.0, 0.0], [0.0, 1.0]])
    train = single_query_dataset(train_items, [0, 1])
    query = np.array([[0.0, 0.0], [1.0, 1.0]])
    prediction = able2rank_lite(train, query, k=5)
    assert prediction.preference[0, 1] == 0.5


def test_able2rank_matches_exhaustive_hand_aggregation():
    rng = np.random.default_rng(10)
    train = make_linear_dataset(1, 3, 2, seed=11)  # 3 training preferences
    normalized = _minmax(train.all_items())
    train_n = train.with_items(normalized)
    query = rng.random((2, 2))
    prediction = able2rank_lite(train_n, query, k=3)

    # brute force: walk every training preference and accumulate both sides,
    # each degree scored like able2rank's evidence, against a float32 side
    fwd, bwd = [], []
    q = train_n.queries[0]
    ordering = q.ordering
    for a in range(2):
        for b in range(a + 1, 3):
            pref_side = _prepare_side(q.items[ordering[a:a + 1]] - q.items[ordering[b:b + 1]])
            fwd.append(float(kernel_matrix(query[0:1] - query[1:2], pref_side)[0, 0]))
            bwd.append(float(kernel_matrix(query[1:2] - query[0:1], pref_side)[0, 0]))
    s_fwd, s_bwd = sum(sorted(fwd)[-3:]), sum(sorted(bwd)[-3:])
    expected = s_fwd / (s_fwd + s_bwd) if s_fwd + s_bwd > 0 else 0.5
    assert prediction.preference[0, 1] == pytest.approx(expected, abs=1e-12)


def test_able2rank_preference_matrix_is_reciprocal():
    train = make_linear_dataset(2, 6, 3, seed=12)
    normalized = _minmax(train.all_items())
    train_n = train.with_items(normalized)
    query = np.random.default_rng(13).random((5, 3))
    pref = able2rank_lite(train_n, query, k=10).preference
    off = ~np.eye(5, dtype=bool)
    assert np.all(pref[off] + pref.T[off] == 1.0)


def test_able2rank_is_deterministic():
    train = make_linear_dataset(2, 6, 3, seed=14)
    normalized = _minmax(train.all_items())
    train_n = train.with_items(normalized)
    query = np.random.default_rng(15).random((4, 3))
    a = able2rank_lite(train_n, query, k=4)
    b = able2rank_lite(train_n, query, k=4)
    assert np.array_equal(a.ranking, b.ranking)


def _one_block_preference(train_n, query, k):
    """able2rank's preference matrix from one kernel block of all query pairs.

    The forward and the negated query pairs are the rows of one kernel
    block against the training preferences' float32 side; each row's top k
    is summed in float64.
    """
    pairs = build_pair_instances(train_n)
    n_prefs = len(pairs)
    pref_diffs = train_n.all_items()[pairs[:, 0]] - train_n.all_items()[pairs[:, 1]]
    rows, cols = np.triu_indices(len(query), k=1)
    forward = query[rows] - query[cols]
    evidence = kernel_matrix(np.concatenate([forward, -forward]), _prepare_side(pref_diffs))
    if k < n_prefs:
        evidence = np.partition(evidence, n_prefs - k, axis=1)[:, n_prefs - k:]
    sum_fwd, sum_bwd = np.split(evidence.sum(axis=1), 2)
    total = sum_fwd + sum_bwd
    upper = np.where(total > 0.0, sum_fwd / np.where(total > 0.0, total, 1.0), 0.5)
    return reciprocal_preferences(upper, len(query))


@pytest.mark.parametrize("k", [1, 7, 29, 30, 100])
@pytest.mark.parametrize("n_items", [2, 7])
def test_able2rank_equals_one_kernel_call_on_both_orientations_bit_for_bit(n_items, k):
    train = make_linear_dataset(2, 6, 3, seed=17)  # 30 training preferences
    train_n = train.with_items(_minmax(train.all_items()))
    query = np.random.default_rng(18).random((n_items, 3))
    query[-1, 0] = query[0, 0]  # a zero difference
    expected = _one_block_preference(train_n, query, k)
    assert able2rank_lite(train_n, query, k=k).preference.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [3, 10, 20])
@pytest.mark.parametrize("n_items", [23, 24, 511])
def test_able2rank_scores_its_query_pairs_in_chunks_with_the_one_block_bytes(n_items, k):
    # 23 items give 253 pairs, one chunk of 256 or fewer; 24 items give 276,
    # a last chunk of 20; 511 items give 130 305, a last chunk of one pair,
    # scored alone as one row like every other pair.
    train = make_linear_dataset(1, 6, 2, seed=2)  # 15 training preferences
    train_n = train.with_items(_minmax(train.all_items()))
    query = np.random.default_rng(n_items).random((n_items, 2))
    expected = _one_block_preference(train_n, query, k)
    assert able2rank_lite(train_n, query, k=k).preference.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_items", [23, 24, 46])
def test_able2rank_preferences_do_not_depend_on_the_chunk_width(monkeypatch, n_items):
    # Each query pair's top k is one row of its chunk's evidence, so neither
    # a chunk of one pair nor the seams between chunks change its sum.
    train = make_linear_dataset(2, 6, 3, seed=19)  # 30 training preferences
    train_n = train.with_items(_minmax(train.all_items()))
    query = np.random.default_rng(n_items).random((n_items, 3))
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return kernel_matrix(*args, **kwargs)

    monkeypatch.setattr(baselines, "kernel_matrix", counted)
    results = []
    for width in (1, 7, 256):
        monkeypatch.setattr("ankerrank.ranker._QUERY_CHUNK", width)
        calls.clear()
        results.append(able2rank_lite(train_n, query, k=20).preference.tobytes())
        assert max(calls) == 2 * min(width, n_items * (n_items - 1) // 2)
    assert results[0] == results[1] == results[2]


def test_able2rank_prepares_its_training_preferences_once_per_call(monkeypatch):
    train = make_linear_dataset(2, 6, 3, seed=19)
    prepared = []

    def counted(diffs):
        prepared.append(len(diffs))
        return _prepare_side(diffs)

    monkeypatch.setattr("ankerrank.ranker._QUERY_CHUNK", 7)
    monkeypatch.setattr(baselines, "_prepare_side", counted)
    able2rank_lite(train, np.random.default_rng(20).random((9, 3)))  # 36 query pairs, 6 chunks
    assert prepared == [30]


def test_able2rank_traced_peak_stays_below_one_query_evidence_block():
    train = make_linear_dataset(10, 20, 10, seed=43)  # 1 900 training preferences
    query = np.random.default_rng(44).random((100, 10))
    n_pairs = 100 * 99 // 2
    tracemalloc.start()
    try:
        prediction = able2rank_lite(train, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(prediction.ordering.tolist()) == list(range(100))
    assert peak < n_pairs * 1900 * 8


def test_able2rank_rejects_bad_k():
    train = make_linear_dataset(1, 3, 2, seed=16)
    with pytest.raises(ValueError, match="k must be"):
        able2rank_lite(train, np.zeros((2, 2)), k=0)


def test_able2rank_rejects_training_without_preferences():
    train = single_query_dataset(np.array([[0.3, 0.6]]), [0])
    with pytest.raises(ValueError, match="no training preferences"):
        able2rank_lite(train, np.array([[0.1, 0.2], [0.4, 0.3]]))
