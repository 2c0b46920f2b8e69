import numpy as np
import pytest

from ankerrank.baselines import able2rank_lite
from ankerrank.data import (
    DataFormatError,
    NormalizationMode,
    NormalizationScope,
    RankedDataset,
    RankedQuery,
    normalize_train_test,
)
from ankerrank.kernel import KernelVariant, gram_matrix
from ankerrank.ranker import (
    AnkerModel,
    RankPrediction,
    anker_fit,
    anker_predict,
    anker_rank,
    btl_fit,
    btl_log_likelihood,
    PREFERENCE_CLIP,
    build_pair_instances,
    preference_matrix,
    ranking_from_scores,
    reciprocal_preferences,
)
from ankerrank.svm import PlattParams, SvmModel, platt_prob, smo_train
from oracles import btl_grid_argmax, coin_flip_pairs
from synthetic import make_linear_dataset, numeric_schema


# ---------------------------------------------------------------------------
# Pair extraction

def test_pair_count_for_three_items():
    data = make_linear_dataset(1, 3, 2, seed=0)
    assert build_pair_instances(data).shape == (3, 2)


def test_pair_count_sums_over_queries():
    data = make_linear_dataset(3, 5, 2, seed=0)
    assert len(build_pair_instances(data)) == 3 * 10


def test_pair_labels_are_roughly_balanced():
    data = make_linear_dataset(4, 25, 3, seed=2)
    labels = anker_fit(data, C=1.0, seed=3).svm.labels
    assert labels.size == 4 * 300
    assert abs(float(np.mean(labels == 1.0)) - 0.5) < 0.05


def test_pair_label_orientation_matches_the_ranking():
    # queries of different sizes; the one-item query contributes no pairs
    rng = np.random.default_rng(4)
    sizes = (6, 1, 3, 5)
    queries = tuple(RankedQuery(f"q{k}", rng.random((n, 2)), rng.permutation(n))
                    for k, n in enumerate(sizes))
    pairs = build_pair_instances(RankedDataset(numeric_schema(2), queries))
    assert pairs.shape == (15 + 0 + 3 + 10, 2)
    query_of = np.repeat(np.arange(len(sizes)), sizes)
    position = np.concatenate([q.ranking for q in queries])
    assert np.all(query_of[pairs[:, 0]] == query_of[pairs[:, 1]])
    assert np.all(position[pairs[:, 0]] < position[pairs[:, 1]])
    assert len({frozenset(p) for p in pairs.tolist()}) == len(pairs)
    assert not np.any(pairs == 6)  # the row of the one-item query

    # anker_fit's label +1 means the pair's difference is preferred - other,
    # which raises the utility the dataset is ranked by
    data = make_linear_dataset(2, 6, 2, seed=4)
    model = anker_fit(data, C=1.0, seed=5)
    assert model.svm.support.size > 0
    utility_gain = model.support_diffs @ np.linspace(1.0, 2.0, 2)
    assert np.array_equal(utility_gain > 0, model.svm.labels[model.svm.support] == 1.0)


@pytest.mark.parametrize("cap", [None, 25])
def test_anker_fit_pairs_match_the_coin_loop_oracle(cap):
    data = make_linear_dataset(3, 7, 3, seed=37)
    first, second, labels = coin_flip_pairs(data, seed=38, cap=cap)
    model = anker_fit(data, C=1.0, seed=38, cap=cap)
    assert np.array_equal(model.svm.labels, labels)
    assert np.array_equal(model.support_diffs, (first - second)[model.svm.support])
    # alpha depends on every pair's orientation through the Gram matrix
    reference = smo_train(gram_matrix(first - second, KernelVariant.POLY2), labels, 1.0)
    assert np.array_equal(model.svm.alpha, reference.alpha)


def test_pair_extraction_is_deterministic():
    data = make_linear_dataset(2, 8, 3, seed=6)
    assert np.array_equal(build_pair_instances(data), build_pair_instances(data))
    a = anker_fit(data, C=1.0, seed=7)
    b = anker_fit(data, C=1.0, seed=7)
    assert np.array_equal(a.support_diffs, b.support_diffs)
    assert np.array_equal(a.svm.labels, b.svm.labels)


def test_pair_cap_subsamples():
    data = make_linear_dataset(2, 10, 2, seed=8)
    capped = anker_fit(data, C=1.0, seed=9, cap=30)
    assert capped.svm.labels.size == 30 and capped.svm.alpha.size == 30
    assert capped.support_diffs.shape == (capped.svm.support.size, 2)
    again = anker_fit(data, C=1.0, seed=9, cap=30)
    assert np.array_equal(capped.support_diffs, again.support_diffs)


def test_pair_extraction_rejects_singleton_queries():
    ds = RankedDataset(numeric_schema(2), (RankedQuery("q", np.zeros((1, 2)), np.array([0])),))
    assert build_pair_instances(ds).shape == (0, 2)
    with pytest.raises(DataFormatError, match="fewer than two"):
        anker_fit(ds, C=1.0)


# ---------------------------------------------------------------------------
# Preference matrix

def test_reciprocal_preferences_formula():
    # one pair (0, 1): support 1.0 for, 0.0 against
    pref = reciprocal_preferences(np.array([1.0]), 2)
    assert pref[0, 1] == 1.0 and pref[1, 0] == 0.0
    sym = reciprocal_preferences(np.array([0.5]), 2)
    assert sym[0, 1] == 0.5 and sym[1, 0] == 0.5
    assert sym[0, 0] == 0.5 and sym[1, 1] == 0.5


def test_reciprocal_preferences_sum_is_exactly_one():
    rng = np.random.default_rng(10)
    n = 9
    m = n * (n - 1) // 2
    pref = reciprocal_preferences(rng.random(m), n)
    off = ~np.eye(n, dtype=bool)
    assert np.all(pref[off] + pref.T[off] == 1.0)


def _trained_toy_model(seed=11):
    data = make_linear_dataset(2, 8, 3, seed=seed)
    items = data.all_items()
    normalized, _ = normalize_train_test(items, items, NormalizationMode.MINMAX,
                                         NormalizationScope.TEST_ONLY)
    return anker_fit(data.with_items(normalized), variant=KernelVariant.MEAN, C=1.0, seed=seed)


def test_preference_matrix_is_reciprocal_end_to_end():
    model = _trained_toy_model()
    rng = np.random.default_rng(12)
    query = rng.random((6, 3))
    pref = preference_matrix(model, query)
    off = ~np.eye(6, dtype=bool)
    assert np.all(pref[off] + pref.T[off] == 1.0)
    assert np.all(np.diag(pref) == 0.5)
    assert np.all((pref >= 0.0) & (pref <= 1.0))


def test_preference_matrix_with_empty_support_is_uninformative():
    svm = SvmModel(alpha=np.zeros(1), labels=np.ones(1), support=np.zeros(0, dtype=int),
                   bias=0.0, C=1.0, platt=PlattParams(-1.0, 0.0))
    model = AnkerModel(svm=svm, variant=KernelVariant.MEAN, support_diffs=np.zeros((0, 2)))
    pref = preference_matrix(model, np.random.default_rng(0).random((4, 2)))
    assert np.all(pref == 0.5)


def test_preference_matrix_backward_block_is_the_reversed_pairs():
    # The backward block negates the forward differences; it must give the
    # same supports as kernel rows of the pairs (x_j, x_i) built directly.
    model = _trained_toy_model()
    query = np.random.default_rng(19).random((5, 3))
    query[3] = query[1]  # duplicate items give zero differences
    rows, cols = np.triu_indices(5, k=1)
    svm = model.svm

    def support(diffs):
        kernel = gram_matrix(np.vstack([diffs, model.support_diffs]), model.variant)
        coef = svm.alpha[svm.support] * svm.labels[svm.support]
        return platt_prob(svm.platt, kernel[: len(diffs), len(diffs):] @ coef + svm.bias)

    upper = (1.0 + (support(query[rows] - query[cols]) - support(query[cols] - query[rows]))) / 2.0
    expected = reciprocal_preferences(upper, 5)
    assert np.max(np.abs(preference_matrix(model, query) - expected)) <= 1e-12


@pytest.mark.parametrize("bad", [1.5, -0.25])
def test_items_outside_the_unit_interval_are_rejected(bad):
    data = make_linear_dataset(2, 5, 2, seed=20)
    model = anker_fit(data, C=1.0, seed=21)
    items = data.all_items().copy()
    items[3, 1] = bad
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        anker_fit(data.with_items(items), C=1.0, seed=21)
    query = np.random.default_rng(22).random((4, 2))
    query[2, 0] = bad
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        anker_predict(model, query)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        preference_matrix(model, query)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        able2rank_lite(data.with_items(items), query[[0, 1, 3]])
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        able2rank_lite(data, query)


# ---------------------------------------------------------------------------
# Bradley-Terry-Luce

def test_btl_two_items_even_split():
    params = btl_fit(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(params.theta, [0.5, 0.5])


@pytest.mark.parametrize("p", [0.55, 0.75, 0.9])
def test_btl_two_items_closed_form(p):
    pref = np.array([[0.5, p], [1.0 - p, 0.5]])
    params = btl_fit(pref, tol=1e-14, max_iter=10_000)
    assert params.theta[0] / params.theta[1] == pytest.approx(p / (1.0 - p), abs=1e-6)


def test_btl_three_items_consistent_ordering():
    pref = np.array([
        [0.5, 0.7, 0.8],
        [0.3, 0.5, 0.6],
        [0.2, 0.4, 0.5],
    ])
    params = btl_fit(pref)
    assert params.theta[0] > params.theta[1] > params.theta[2]


def test_btl_matches_grid_search_oracle():
    pref = np.array([
        [0.5, 0.62, 0.71],
        [0.38, 0.5, 0.55],
        [0.29, 0.45, 0.5],
    ])
    params = btl_fit(pref, tol=1e-12, max_iter=10_000)
    oracle = btl_grid_argmax(pref, resolution=1e-3)
    assert np.max(np.abs(params.theta - oracle)) < 1e-2


def test_btl_likelihood_is_monotone():
    rng = np.random.default_rng(13)
    n = 7
    upper = 0.1 + 0.8 * rng.random((n, n))
    pref = np.full((n, n), 0.5)
    rows, cols = np.triu_indices(n, k=1)
    pref[rows, cols] = upper[rows, cols]
    pref[cols, rows] = 1.0 - upper[rows, cols]
    params = btl_fit(pref)
    assert np.all(np.diff(params.log_likelihood_path) >= -1e-9)
    # the recorded path ends at the likelihood of the returned utilities
    assert params.log_likelihood_path[-1] == pytest.approx(btl_log_likelihood(pref, params.theta))


def _random_reciprocal(rng, n):
    """Reciprocal matrix whose upper entries include values the clip moves."""
    upper = rng.random((n, n))
    extreme = rng.random((n, n)) < 0.2
    upper[extreme] = rng.choice([0.0, 1e-9, 1e-7, 1.0 - 1e-7, 1.0 - 1e-9, 1.0], size=int(extreme.sum()))
    pref = np.full((n, n), 0.5)
    rows, cols = np.triu_indices(n, k=1)
    pref[rows, cols] = upper[rows, cols]
    pref[cols, rows] = 1.0 - upper[rows, cols]
    return pref


@pytest.mark.parametrize("n", [10, 50, 100])
def test_btl_converges_on_random_reciprocal_matrices(n):
    rng = np.random.default_rng(40 + n)
    pref = _random_reciprocal(rng, n)
    params = btl_fit(pref)
    assert params.converged
    # gradient of the log-likelihood in beta = log(theta) at the clipped input
    off = ~np.eye(n, dtype=bool)
    p = np.where(off, np.clip(pref, PREFERENCE_CLIP, 1.0 - PREFERENCE_CLIP), 0.0)
    theta = params.theta
    share = theta[:, None] / (theta[:, None] + theta[None, :])
    grad = p.sum(axis=1) - ((p + p.T) * share).sum(axis=1)
    assert np.max(np.abs(grad)) <= 1e-8
    assert np.all(np.diff(params.log_likelihood_path) >= 0.0)
    assert params.log_likelihood_path.size == params.iterations + 1
    assert params.log_likelihood_path[-1] == pytest.approx(btl_log_likelihood(p, theta))


def test_btl_warns_when_it_stops_unconverged(caplog):
    pref = _random_reciprocal(np.random.default_rng(41), 10)
    with caplog.at_level("WARNING", logger="ankerrank.svm"):
        params = btl_fit(pref, max_iter=1)
    assert not params.converged and params.iterations == 1
    assert "after 1 Newton steps" in caplog.text and "gradient max-norm" in caplog.text


def test_btl_rejects_non_reciprocal_input():
    with pytest.raises(ValueError, match="reciprocal"):
        btl_fit(np.array([[0.5, 0.9], [0.4, 0.5]]))


def test_btl_scale_invariance_at_the_ranking_level():
    rng = np.random.default_rng(14)
    theta = rng.random(6) + 0.1
    assert np.array_equal(ranking_from_scores(theta), ranking_from_scores(13.7 * theta))


def test_btl_elementwise_dominance_orders_theta():
    rng = np.random.default_rng(15)
    n = 5
    for _ in range(10):
        upper = 0.2 + 0.6 * rng.random((n, n))
        pref = np.full((n, n), 0.5)
        rows, cols = np.triu_indices(n, k=1)
        pref[rows, cols] = upper[rows, cols]
        pref[cols, rows] = 1.0 - upper[rows, cols]
        # force row 0 to dominate row 1 against every opponent
        pref[0, 1] = max(pref[0, 1], 0.6)
        pref[1, 0] = 1.0 - pref[0, 1]
        for k in range(2, n):
            hi = max(pref[0, k], pref[1, k]) + 0.05
            lo = min(pref[0, k], pref[1, k])
            pref[0, k], pref[k, 0] = hi, 1.0 - hi
            pref[1, k], pref[k, 1] = lo, 1.0 - lo
        params = btl_fit(pref)
        assert params.theta[0] > params.theta[1]


# ---------------------------------------------------------------------------
# Ranking from scores

def test_ranking_from_scores_example():
    ranking = ranking_from_scores(np.array([0.2, 0.5, 0.3]))
    assert np.array_equal(ranking, [2, 0, 1])


def test_ranking_from_scores_ties_are_stable():
    assert np.array_equal(ranking_from_scores(np.array([0.25, 0.25, 0.25])), [0, 1, 2])
    assert np.array_equal(ranking_from_scores(np.array([1.0, 3.0, 1.0, 3.0])), [2, 0, 3, 1])


def test_ranking_from_scores_sorted_input_is_identity():
    assert np.array_equal(ranking_from_scores(np.array([0.5, 0.3, 0.2])), [0, 1, 2])


@pytest.mark.parametrize("theta", [[0.2, 0.5, 0.3], [0.1, 0.4, 0.1, 0.4]])
def test_rank_prediction_derives_positions_and_ordering_from_theta(theta):
    theta = np.array(theta)
    prediction = RankPrediction(theta, np.full((theta.size, theta.size), 0.5))
    assert np.array_equal(prediction.ranking, ranking_from_scores(theta))
    assert np.array_equal(prediction.ordering[prediction.ranking], np.arange(theta.size))


def test_predictions_order_items_by_their_utilities():
    train = make_linear_dataset(2, 6, 3, seed=22)
    query = np.random.default_rng(23).random((5, 3))
    for prediction in (anker_predict(anker_fit(train, C=1.0, seed=24), query), able2rank_lite(train, query)):
        assert np.array_equal(prediction.ranking, ranking_from_scores(prediction.theta))
        assert np.array_equal(prediction.ordering, np.argsort(prediction.ranking, kind="stable"))


# ---------------------------------------------------------------------------
# End-to-end pipeline

def test_anker_rank_two_item_query_follows_the_preference_sign():
    train = make_linear_dataset(3, 10, 4, seed=16)
    rng = np.random.default_rng(17)
    query = rng.random((2, 4))
    prediction = anker_rank(train, query, variant=KernelVariant.MEAN, C=1.0, seed=18)
    expected_first = 0 if prediction.preference[0, 1] > 0.5 else 1
    if prediction.preference[0, 1] == 0.5:
        expected_first = 0
    assert prediction.ordering[0] == expected_first


def test_anker_rank_self_consistency_on_training_items():
    weights = np.array([3.0, 1.0])
    train = make_linear_dataset(4, 8, 2, seed=19, weights=weights)
    query = train.queries[0].items
    prediction = anker_rank(train, query, C=4.0, seed=20)
    assert np.array_equal(prediction.ranking, train.queries[0].ranking)


def test_anker_rank_is_deterministic():
    train = make_linear_dataset(2, 6, 3, seed=21)
    query = np.random.default_rng(22).random((5, 3))
    a = anker_rank(train, query, C=1.0, seed=23)
    b = anker_rank(train, query, C=1.0, seed=23)
    assert np.array_equal(a.ranking, b.ranking)
    assert np.array_equal(a.theta, b.theta)


def test_anker_rank_is_equivariant_under_query_relabeling():
    train = make_linear_dataset(3, 8, 3, seed=24)
    rng = np.random.default_rng(25)
    query = rng.random((6, 3))
    perm = rng.permutation(6)
    base = anker_rank(train, query, C=2.0, seed=26)
    shuffled = anker_rank(train, query[perm], C=2.0, seed=26)
    assert np.array_equal(shuffled.ranking, base.ranking[perm])


def test_anker_rank_scope_override_and_validation():
    train = make_linear_dataset(2, 6, 3, seed=27)
    query = np.random.default_rng(28).random((4, 3))
    prediction = anker_rank(train, query, C=1.0, seed=29, scope=NormalizationScope.TEST_ONLY)
    assert sorted(prediction.ranking.tolist()) == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="query items"):
        anker_rank(train, np.zeros((4, 2)), C=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_queries_are_rejected(bad):
    train = make_linear_dataset(2, 6, 3, seed=34)
    query = np.random.default_rng(35).random((4, 3))
    query[2, 1] = bad
    model = _trained_toy_model(seed=36)
    with pytest.raises(ValueError, match="finite"):
        anker_predict(model, query)
    with pytest.raises(ValueError, match="finite"):
        anker_rank(train, query, C=1.0)


def test_anker_rank_rejects_a_one_item_query_before_fitting(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("anker_fit must not run for a one-item query")

    monkeypatch.setattr("ankerrank.ranker.anker_fit", no_fit)
    train = make_linear_dataset(2, 6, 3, seed=37)
    with pytest.raises(DataFormatError, match="at least two items"):
        anker_rank(train, np.full((1, 3), 0.5), C=1.0)
