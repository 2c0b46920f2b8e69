import tracemalloc
from dataclasses import replace

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
from ankerrank.evaluate import run_experiment
from ankerrank.kernel import KernelVariant, _prepare_side, gram_matrix, kernel_matrix
from ankerrank.ranker import (
    AnkerModel,
    BtlParams,
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
from ankerrank.svm import PlattParams, SvmModel, decision_values, platt_prob, smo_train
from oracles import btl_fit_cold, btl_grid_argmax, coin_flip_pairs
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


def test_the_model_kept_after_the_cost_search_is_solved_to_the_default_tolerance():
    # The cost search solves at svm._CV_TOL; the final fit at the chosen C
    # is smo_train at its default 1e-3.
    data = make_linear_dataset(3, 7, 3, seed=39)
    first, second, labels = coin_flip_pairs(data, seed=40, cap=None)
    model = anker_fit(data, C=None, seed=40)
    assert model.svm.converged and model.svm.kkt_violation <= 1e-3
    reference = smo_train(gram_matrix(first - second, KernelVariant.POLY2), labels, model.svm.C)
    assert model.svm.alpha.tobytes() == reference.alpha.tobytes()
    assert model.svm.kkt_violation == reference.kkt_violation


@pytest.mark.parametrize("variant", ["poly2", "mean"])
def test_a_variant_that_is_not_a_kernel_variant_is_refused(variant):
    diffs = np.array([[0.25, -0.5], [0.0, 1.0]])
    message = f"variant must be a KernelVariant, not '{variant}'"
    with pytest.raises(ValueError, match=message):
        kernel_matrix(diffs, diffs[::-1], variant)
    with pytest.raises(ValueError, match=message):
        anker_fit(make_linear_dataset(2, 5, 2, seed=4), variant=variant, C=1.0)


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


def test_a_3800_pair_fit_converges_under_the_default_cap(caplog):
    # 20 queries of 20 items give 3 800 pairs; this solve needs more than
    # 10 000 updates, so a fixed cap of 10 000 stopped it unconverged.
    with caplog.at_level("WARNING", logger="ankerrank.svm"):
        model = anker_fit(make_linear_dataset(20, 20, 5, seed=3), C=16.0, seed=0)
    assert model.svm.labels.size == 3800
    assert model.svm.converged and model.svm.iterations > 10_000
    assert not caplog.records


@pytest.mark.parametrize("C", [0.0, -1.0, np.nan, np.inf])
def test_a_bad_cost_is_refused_before_the_gram_is_built(C, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("the Gram was built for a cost that smo_train refuses")

    monkeypatch.setattr("ankerrank.ranker.gram_matrix", not_reached)
    with pytest.raises(ValueError, match="C must be a finite positive number"):
        anker_fit(make_linear_dataset(2, 6, 3, seed=3), C=C)


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


def test_reciprocal_preferences_need_one_value_per_item_pair():
    with pytest.raises(ValueError, match="number of item pairs"):
        reciprocal_preferences(np.full(2, 0.5), 3)


def test_reciprocal_preferences_take_a_list():
    assert np.array_equal(reciprocal_preferences([0.7, 0.0, 1.0], 3),
                          reciprocal_preferences(np.array([0.7, 0.0, 1.0]), 3))


@pytest.mark.parametrize("upper", [1.5, -0.5, np.nan, np.inf])
def test_reciprocal_preferences_must_lie_in_the_unit_interval(upper):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        reciprocal_preferences(np.array([0.5, upper, 0.5]), 3)


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


def test_preference_matrix_needs_a_calibrated_model():
    model = _trained_toy_model()
    uncalibrated = replace(model, svm=replace(model.svm, platt=None))
    with pytest.raises(ValueError, match="calibration parameters"):
        preference_matrix(uncalibrated, np.random.default_rng(0).random((4, 3)))


@pytest.mark.parametrize("query, message", [
    (np.full((1, 3), 0.5), "query has fewer than two items"),
    (np.full(3, 0.5), r"query must be a 2-D \(items, features\) array, got shape \(3,\)"),
], ids=["one-item", "1-D"])
def test_anker_predict_rejects_a_query_without_two_item_rows(query, message):
    with pytest.raises(DataFormatError, match=message):
        anker_predict(_trained_toy_model(), query)


@pytest.mark.parametrize("width", [2, 0])
def test_anker_predict_rejects_a_query_of_another_width(width):
    query = np.full((4, width), 0.5)
    with pytest.raises(DataFormatError, match=f"query has items of {width} features; training items have 3"):
        anker_predict(_trained_toy_model(), query)


_RANKERS = {
    "anker_rank": lambda train, model, query: anker_rank(train, query, C=1.0),
    "anker_predict": lambda train, model, query: anker_predict(model, query),
    "preference_matrix": lambda train, model, query: preference_matrix(model, query),
    "able2rank_lite": lambda train, model, query: able2rank_lite(train, query),
}


@pytest.mark.parametrize("query, message", [
    (np.full((1, 3), 0.5), "query has fewer than two items"),
    (np.full(3, 0.5), r"query must be a 2-D \(items, features\) array"),
    (np.full((4, 2), 0.5), "query has items of 2 features; training items have 3"),
], ids=["one-item", "1-D", "another-width"])
@pytest.mark.parametrize("ranker", _RANKERS)
def test_every_ranker_refuses_a_query_that_breaks_the_query_rule(monkeypatch, ranker, query, message):
    train = make_linear_dataset(2, 8, 3, seed=11)
    model = _trained_toy_model()

    def not_reached(*args, **kwargs):
        raise AssertionError("a malformed query must be refused before any fit")

    monkeypatch.setattr("ankerrank.ranker.choose_normalization_scope", not_reached)
    monkeypatch.setattr("ankerrank.ranker.anker_fit", not_reached)
    with pytest.raises(DataFormatError, match=message):
        _RANKERS[ranker](train, model, query)


def test_preference_matrix_backward_block_is_the_reversed_pairs():
    # The backward block negates the forward differences; it must give the
    # same supports as kernel rows of the pairs (x_j, x_i) built directly,
    # to the byte against the model's float32 support side.
    model = _trained_toy_model()
    query = np.random.default_rng(19).random((5, 3))
    query[3] = query[1]  # duplicate items give zero differences
    rows, cols = np.triu_indices(5, k=1)
    svm = model.svm
    side = _prepare_side(model.support_diffs)

    def support(diffs):
        return platt_prob(svm.platt, decision_values(svm, kernel_matrix(diffs, side, model.variant)))

    upper = (1.0 + (support(query[rows] - query[cols]) - support(query[cols] - query[rows]))) / 2.0
    assert preference_matrix(model, query).tobytes() == reciprocal_preferences(upper, 5).tobytes()

    # The float64 Gram rows of the same pairs agree within the float32 bound
    # that preference_matrix states, with c(d) = d/2 + 3 for MEAN at d = 3.
    def support64(diffs):
        kernel = gram_matrix(np.vstack([diffs, model.support_diffs]), model.variant)
        coef = svm.alpha[svm.support] * svm.labels[svm.support]
        return platt_prob(svm.platt, kernel[: len(diffs), len(diffs):] @ coef + svm.bias)

    upper = (1.0 + (support64(query[rows] - query[cols]) - support64(query[cols] - query[rows]))) / 2.0
    weight = np.sum(np.abs(svm.alpha[svm.support] * svm.labels[svm.support]))
    bound = abs(svm.platt.a) / 4.0 * weight * ((3 / 2 + 3) * 2.0**-24 + svm.support.size * 2.0**-52) + 2.0**-50
    assert np.max(np.abs(preference_matrix(model, query) - reciprocal_preferences(upper, 5))) <= bound


@pytest.mark.parametrize("bad", [1.5, -0.25, -1e-15, 1.0 + 1e-15])
def test_items_outside_the_unit_interval_are_rejected(bad):
    data = make_linear_dataset(2, 5, 2, seed=20)
    model = anker_fit(data, C=1.0, seed=21)
    items = data.all_items().copy()
    items[3, 1] = bad
    with pytest.raises(DataFormatError, match=r"outside \[0, 1\]"):
        anker_fit(data.with_items(items), C=1.0, seed=21)
    query = np.random.default_rng(22).random((4, 2))
    query[2, 0] = bad
    with pytest.raises(DataFormatError, match=r"^query items has values outside \[0, 1\]"):
        anker_predict(model, query)
    with pytest.raises(DataFormatError, match=r"outside \[0, 1\]"):
        preference_matrix(model, query)
    with pytest.raises(DataFormatError, match=r"outside \[0, 1\]"):
        able2rank_lite(data.with_items(items), query[[0, 1, 3]])
    with pytest.raises(DataFormatError, match=r"outside \[0, 1\]"):
        able2rank_lite(data, query)


def _random_model(n_support, n_features, seed):
    """A calibrated POLY2 model on random support pairs with exact zero and +-1 differences."""
    rng = np.random.default_rng(seed)
    diffs = rng.random((n_support, n_features)) - rng.random((n_support, n_features))
    kind = rng.integers(0, 6, size=diffs.shape)
    diffs[kind == 0], diffs[kind == 1], diffs[kind == 2] = 0.0, 1.0, -1.0
    labels = np.where(rng.random(n_support) < 0.5, 1.0, -1.0)
    svm = SvmModel(alpha=rng.uniform(0.1, 1.0, n_support), labels=labels, support=np.arange(n_support),
                   bias=0.1, C=1.0, platt=PlattParams(-3.0, 0.2))
    return AnkerModel(svm=svm, variant=KernelVariant.POLY2, support_diffs=diffs)


def _random_query(n_items, n_features, seed):
    """Items in [0, 1] with both ends of the interval and a duplicate item."""
    rng = np.random.default_rng(seed)
    query = rng.random((n_items, n_features))
    query[rng.random(query.shape) < 0.1] = 0.0
    query[rng.random(query.shape) < 0.1] = 1.0
    query[-1] = query[0]
    return query


def test_preference_matrix_is_the_two_call_formula_bit_for_bit(monkeypatch):
    """preference_matrix, byte for byte, from one whole kernel block per orientation.

    The query sizes give 1, 45, 253, 276, 1035 and 4950 pairs, on both sides
    of multiples of the chunk widths, so neither the seams between chunks
    nor a chunk of one pair may change a row's decision value.  The 9 001
    support model's rows are longer than the 8 192 entries that np.einsum
    sums in one pass.
    """
    for model, sizes in ((_random_model(700, 5, seed=40), (2, 10, 23, 24, 46, 100)),
                         (_random_model(9001, 5, seed=43), (10, 23))):
        svm, side = model.svm, _prepare_side(model.support_diffs)
        for n_items in sizes:
            query = _random_query(n_items, 5, seed=n_items)
            rows, cols = np.triu_indices(n_items, k=1)
            forward = query[rows] - query[cols]
            kernels = (kernel_matrix(diffs, side, model.variant) for diffs in (forward, -forward))
            fwd, bwd = (platt_prob(svm.platt, decision_values(svm, kernel)) for kernel in kernels)
            expected = reciprocal_preferences((1.0 + (fwd - bwd)) / 2.0, n_items).tobytes()
            for width in (1, 7, 256):
                monkeypatch.setattr("ankerrank.ranker._QUERY_CHUNK", width)
                assert preference_matrix(model, query).tobytes() == expected, (svm.support.size, n_items, width)



@pytest.mark.parametrize("bad", [np.nan, 1.5, -1.0 - 1e-15])
def test_preference_matrix_refuses_supports_outside_the_kernel_range(bad):
    model = _random_model(20, 3, seed=50)
    diffs = np.array(model.support_diffs)
    diffs[4, 1] = bad
    broken = AnkerModel(svm=model.svm, variant=model.variant, support_diffs=diffs)
    query = _random_query(5, 3, seed=51)
    for _ in range(2):  # a side that failed its checks is not kept
        with pytest.raises(DataFormatError, match=r"^support_diffs has values outside \[-1, 1\] or not finite"):
            preference_matrix(broken, query)


@pytest.mark.parametrize("diffs", [np.zeros(3), np.zeros((3, 2))], ids=["1-d", "a-row-per-pair"])
def test_a_model_refuses_supports_that_are_not_a_row_per_support(diffs):
    svm = SvmModel(alpha=np.array([0.5, 0.5, 0.0]), labels=np.array([1.0, -1.0, 1.0]),
                   support=np.array([0, 1]), bias=0.0, C=1.0, platt=PlattParams(-1.0, 0.0))
    with pytest.raises(DataFormatError, match=r"^support_diffs must be a 2-D array of one row per support \(2\)"):
        AnkerModel(svm=svm, variant=KernelVariant.MEAN, support_diffs=diffs)


def test_a_model_keeps_a_read_only_copy_of_its_supports():
    diffs = _random_model(20, 3, seed=52).support_diffs.copy()
    model = replace(_random_model(20, 3, seed=52), support_diffs=diffs)
    query = _random_query(6, 3, seed=53)
    before = preference_matrix(model, query)
    with pytest.raises(ValueError, match="read-only"):
        model.support_diffs[0, 0] = 0.5
    diffs[:] = 0.0  # the caller's array, not the model's
    assert preference_matrix(model, query).tobytes() == before.tobytes()


def test_the_support_side_is_built_once_per_model_and_not_by_the_fit(monkeypatch):
    built = []

    def counted(diffs, what):
        built.append(diffs)
        return _prepare_side(diffs, what)

    monkeypatch.setattr("ankerrank.ranker._prepare_side", counted)
    model = anker_fit(make_linear_dataset(2, 6, 3, seed=54), C=1.0, seed=55)
    assert built == []
    for seed in (56, 57):  # 30 items, so two chunks of query pairs per call
        preference_matrix(model, np.random.default_rng(seed).random((30, 3)))
    assert len(built) == 1 and built[0] is model.support_diffs

def test_anker_predict_traced_peak_stays_below_one_query_kernel_block():
    model = _random_model(700, 10, seed=41)
    query = _random_query(100, 10, seed=42)
    n_pairs = 100 * 99 // 2
    tracemalloc.start()
    try:
        prediction = anker_predict(model, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(prediction.ordering.tolist()) == list(range(100))
    assert peak < n_pairs * 700 * 8


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


def test_btl_log_likelihood_takes_lists():
    # sum over i != j of p_ij log(theta_i / (theta_i + theta_j)), with theta summing to 1
    assert btl_log_likelihood([[0.5, 0.8], [0.2, 0.5]], [0.6, 0.4]) == pytest.approx(
        0.8 * np.log(0.6) + 0.2 * np.log(0.4))


@pytest.mark.parametrize("pref_shape,theta_shape", [((3, 3), (2,)), ((2, 3), (2,)), ((2,), (2,)), ((2, 2), (2, 1))],
                         ids=["3x3-for-2", "2x3", "1-d", "2-d-theta"])
def test_btl_log_likelihood_needs_an_n_by_n_matrix_for_n_utilities(pref_shape, theta_shape):
    with pytest.raises(ValueError, match=r"\(n, n\) matrix"):
        btl_log_likelihood(np.full(pref_shape, 0.5), np.full(theta_shape, 0.5))


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


def test_btl_default_fit_converges_well_inside_its_step_cap_on_all_extreme_preferences():
    # p_ij = 1 for every i < j: each entry sits at the clip.
    pref = np.triu(np.ones((100, 100)), k=1)
    params = btl_fit(pref)
    assert params.converged and params.iterations <= 20
    assert np.array_equal(ranking_from_scores(params.theta), np.arange(100))


def test_btl_warns_when_it_stops_unconverged(caplog):
    pref = _random_reciprocal(np.random.default_rng(41), 10)
    with caplog.at_level("WARNING", logger="ankerrank.svm"):
        params = btl_fit(pref, max_iter=1)
    assert not params.converged and params.iterations == 1
    assert "after 1 Newton steps" in caplog.text and "gradient max-norm" in caplog.text


@pytest.mark.parametrize("max_iter", [0, -1])
def test_btl_rejects_a_step_cap_below_one(max_iter):
    pref = _random_reciprocal(np.random.default_rng(3), 3)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        btl_fit(pref, tol=0.0, max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [1.5, 2.0])
def test_btl_rejects_a_step_cap_that_is_not_an_integer(max_iter):
    pref = _random_reciprocal(np.random.default_rng(3), 3)
    with pytest.raises(ValueError, match=f"max_iter must be an integer, not {max_iter}"):
        btl_fit(pref, tol=0.0, max_iter=max_iter)


@pytest.mark.parametrize("call, message", [
    (lambda train: anker_fit(train, C=1.0, cap=0), "cap must be at least 1"),
    (lambda train: anker_fit(train, C=1.0, cap=-1), "cap must be at least 1"),
    (lambda train: anker_fit(train, C=1.0, cap=1.5), "cap must be an integer, not 1.5"),
    (lambda train: anker_fit(train, C=1.0, cap=2.0), "cap must be an integer, not 2.0"),
    (lambda train: anker_fit(train, C=1.0, cap=True), "cap must be an integer, not True"),
    (lambda train: able2rank_lite(train, np.full((3, 3), 0.5), k=-1), "k must be at least 1"),
    (lambda train: able2rank_lite(train, np.full((3, 3), 0.5), k=1.5), "k must be an integer, not 1.5"),
    (lambda train: able2rank_lite(train, np.full((3, 3), 0.5), k=20.0), "k must be an integer, not 20.0"),
    (lambda train: run_experiment(train, train, ["err"], repeats=1.5), "repeats must be an integer, not 1.5"),
], ids=["cap-zero", "cap-negative", "cap-fraction", "cap-float", "cap-bool", "k-negative", "k-fraction",
        "k-float", "repeats-fraction"])
def test_count_arguments_are_checked_like_the_step_caps(call, message):
    with pytest.raises(ValueError, match=message):
        call(make_linear_dataset(2, 6, 3, seed=3))


def test_btl_accepts_a_numpy_integer_cap():
    pref = _random_reciprocal(np.random.default_rng(3), 3)
    assert btl_fit(pref, tol=0.0, max_iter=np.int64(2)).iterations <= 2


@pytest.mark.parametrize("pref", [np.float64(0.5), np.full(3, 0.5), np.full((2, 3), 0.5)])
def test_btl_rejects_a_preference_array_that_is_not_a_square_matrix(pref):
    with pytest.raises(ValueError, match="preference matrix must be square"):
        btl_fit(pref)


def test_btl_rejects_an_empty_preference_matrix():
    with pytest.raises(ValueError, match="at least one item"):
        btl_fit(np.zeros((0, 0)))


def test_btl_rejects_non_reciprocal_input():
    with pytest.raises(ValueError, match="reciprocal"):
        btl_fit(np.array([[0.5, 0.9], [0.4, 0.5]]))


@pytest.mark.parametrize("upper", [1.5, -0.5, 1.0 + 5e-10, -1e-300])
def test_btl_refuses_reciprocal_entries_outside_the_unit_interval(upper):
    # Reciprocal (within 1e-9) but not preferences, as reciprocal_preferences refuses them too.
    pref = np.full((3, 3), 0.5)
    pref[0, 1], pref[1, 0] = upper, 1.0 - upper
    with pytest.raises(ValueError, match=r"preferences must lie in \[0, 1\]"):
        btl_fit(pref)
    with pytest.raises(ValueError, match=r"preferences must lie in \[0, 1\]"):
        reciprocal_preferences([upper, 0.5, 0.5], 3)
    # The entries at the ends of the interval are preferences.
    pref[0, 1], pref[1, 0] = 1.0, 0.0
    theta = btl_fit(pref).theta
    assert theta[0] > theta[1]


@pytest.mark.parametrize("upper, lower", [(np.nan, 0.5), (np.nan, np.nan), (np.inf, -np.inf)])
def test_btl_rejects_non_finite_preferences(upper, lower):
    pref = np.full((3, 3), 0.5)
    pref[0, 1], pref[1, 0] = upper, lower
    with pytest.raises(ValueError, match="reciprocal and finite"):
        btl_fit(pref)


@pytest.mark.parametrize("tol", [np.nan, -1.0])
def test_btl_rejects_a_nan_or_negative_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        btl_fit(np.array([[0.5, 0.7], [0.3, 0.5]]), tol=tol)


def test_btl_params_reject_nan_theta():
    with pytest.raises(ValueError, match="positive"):
        BtlParams(np.array([np.nan, np.nan]), 0, True, np.zeros(1))


def test_btl_one_item_goes_through_the_newton_driver_unchanged():
    params = btl_fit(np.array([[0.5]]))
    assert params.theta.tolist() == [1.0] and params.iterations == 0 and params.converged
    assert params.log_likelihood_path.tolist() == [0.0]


@pytest.mark.parametrize("n", [2, 5, 10])
def test_btl_starts_at_the_exact_fit_of_a_consistent_matrix(n):
    # p_ij = theta_i / (theta_i + theta_j): the HodgeRank start is the maximizer.
    theta = np.random.default_rng(60 + n).random(n) + 0.1
    theta /= theta.sum()
    pref = theta[:, None] / (theta[:, None] + theta[None, :])
    params = btl_fit(pref)
    assert params.converged and params.iterations == 0 and params.log_likelihood_path.size == 1
    assert np.max(np.abs(params.theta - theta) / theta) <= 1e-15
    assert btl_fit_cold(pref).iterations > 0


def test_btl_zero_start_is_the_cold_fit_byte_for_byte():
    pref = _random_reciprocal(np.random.default_rng(41), 10)
    clipped = np.where(~np.eye(10, dtype=bool), np.clip(pref, PREFERENCE_CLIP, 1.0 - PREFERENCE_CLIP), 0.0)
    params, cold = btl_fit(pref), btl_fit_cold(pref)
    # Zero has the higher likelihood here, so the fit starts there.
    assert params.log_likelihood_path[0] == btl_log_likelihood(clipped, np.full(10, 0.1))
    assert params.theta.tobytes() == cold.theta.tobytes()
    assert params.iterations == cold.iterations
    assert params.log_likelihood_path.tobytes() == cold.log_likelihood_path.tobytes()


def test_btl_start_rule_keeps_model_orderings_and_saves_steps():
    model = anker_fit(make_linear_dataset(4, 10, 3, seed=61), C=1.0, seed=62)
    rng = np.random.default_rng(63)
    steps, cold_steps = 0, 0
    for n in (3, 5, 10, 10, 20):
        pref = preference_matrix(model, rng.random((n, 3)))
        params, cold = btl_fit(pref), btl_fit_cold(pref)
        assert np.array_equal(ranking_from_scores(params.theta), ranking_from_scores(cold.theta))
        assert params.converged and params.iterations <= cold.iterations
        assert params.log_likelihood_path[0] >= cold.log_likelihood_path[0]
        steps, cold_steps = steps + params.iterations, cold_steps + cold.iterations
    assert steps < cold_steps


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
    with pytest.raises(DataFormatError, match="query has items of 2 features; training items have 3"):
        anker_rank(train, np.zeros((4, 2)), C=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_queries_are_rejected(bad):
    train = make_linear_dataset(2, 6, 3, seed=34)
    query = np.random.default_rng(35).random((4, 3))
    query[2, 1] = bad
    model = _trained_toy_model(seed=36)
    for ranker in _RANKERS.values():
        with pytest.raises(DataFormatError, match="^query has non-finite feature values$"):
            ranker(train, model, query)


def test_anker_rank_rejects_a_one_item_query_before_fitting(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("anker_fit must not run for a one-item query")

    monkeypatch.setattr("ankerrank.ranker.anker_fit", no_fit)
    train = make_linear_dataset(2, 6, 3, seed=37)
    with pytest.raises(DataFormatError, match="query has fewer than two items"):
        anker_rank(train, np.full((1, 3), 0.5), C=1.0)
