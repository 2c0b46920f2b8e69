import logging

import numpy as np
import pytest

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
from ankerrank.kernel import kernel_matrix
from ankerrank.ranker import ranking_from_scores
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


def test_ranksvm_newton_warns_when_it_stops_unconverged(caplog):
    diffs = _difference_vectors(conflicting_dataset())
    with caplog.at_level(logging.WARNING, logger="ankerrank.baselines"):
        _squared_hinge_newton(diffs, 1.0, max_steps=1)
    assert "unconverged after 1 steps" in caplog.text
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

    # brute force: walk every training preference and accumulate both sides
    fwd, bwd = [], []
    q = train_n.queries[0]
    ordering = q.ordering
    for a in range(2):
        for b in range(a + 1, 3):
            pref_diff = q.items[ordering[a:a + 1]] - q.items[ordering[b:b + 1]]
            fwd.append(kernel_matrix(pref_diff, query[0:1] - query[1:2])[0, 0])
            bwd.append(kernel_matrix(pref_diff, query[1:2] - query[0:1])[0, 0])
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


def test_able2rank_rejects_bad_k():
    train = make_linear_dataset(1, 3, 2, seed=16)
    with pytest.raises(ValueError, match="k must be"):
        able2rank_lite(train, np.zeros((2, 2)), k=0)


def test_able2rank_rejects_training_without_preferences():
    train = single_query_dataset(np.array([[0.3, 0.6]]), [0])
    with pytest.raises(ValueError, match="no training preferences"):
        able2rank_lite(train, np.array([[0.1, 0.2], [0.4, 0.3]]))
