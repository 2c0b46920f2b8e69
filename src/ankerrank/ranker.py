"""The analogy-kernel ranking pipeline.

Training rankings are decomposed into labeled ordered item pairs, each
carried as its difference vector; an SVM with the analogy kernel learns the
pairwise preference direction, calibrated outputs are combined into a
reciprocal preference matrix, and a Bradley-Terry-Luce fit turns that matrix
into a total order.  The BTL fit is the shared damped Newton loop of ``svm``
on log-utilities, stopped on the gradient norm; its result says whether it
converged, and a fit that did not converge logs a warning.

``build_pair_instances`` is the one enumerator of training preferences and
``_pair_preferences`` the one path from a query to its reciprocal preference
matrix (able2rank uses both); a ``RankPrediction`` holds BTL utilities and
their preference matrix and derives its positions through ``ranking_from_scores``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import (
    DataFormatError,
    NormalizationMode,
    NormalizationScope,
    RankedDataset,
    choose_normalization_scope,
    normalize_train_test,
)
from .kernel import KernelVariant, _prepare_side, _PreparedSide, gram_matrix, kernel_matrix, pair_differences
from .svm import (
    _NEWTON_MAX_STEPS,
    _NEWTON_TOL,
    SvmModel,
    _check_cap,
    _check_cost,
    _newton_minimize,
    _sigmoid,
    decision_values,
    platt_fit,
    platt_prob,
    select_c,
    smo_train,
)

logger = logging.getLogger(__name__)

PREFERENCE_CLIP = 1e-6

# Query pairs per score call in _pair_preferences, 512 kernel rows with their
# negations.  It only bounds the kernel block to 512 x |S| floats whatever the
# query size: each rule scores a pair from its own kernel rows, so the width
# does not change the preferences.
_QUERY_CHUNK = 256


@dataclass(frozen=True)
class BtlParams:
    """Fitted Bradley-Terry-Luce utilities on the simplex (sum 1, all positive)."""

    theta: np.ndarray
    iterations: int
    converged: bool
    log_likelihood_path: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        # Written so that NaN fails the test: every comparison with NaN is False.
        if not (np.all(theta > 0) and abs(theta.sum() - 1.0) <= 1e-9):
            raise ValueError("theta must be positive and sum to 1")


@dataclass(frozen=True)
class RankPrediction:
    """Predicted order of a query from its utilities and preference matrix.

    ``ranking`` holds the positions ``ranking_from_scores(theta)`` (0 = best,
    ties keep index order) and ``ordering`` the item indices best to worst,
    its inverse.
    """

    theta: np.ndarray
    preference: np.ndarray
    ranking: np.ndarray = field(init=False)
    ordering: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        ranking = ranking_from_scores(self.theta)
        object.__setattr__(self, "ranking", ranking)
        object.__setattr__(self, "ordering", np.argsort(ranking, kind="stable"))


@dataclass(frozen=True)
class AnkerModel:
    """A trained preference SVM, its kernel variant and its support pairs.

    ``support_diffs`` holds the support pairs' differences, in ``svm.support``
    order, as a read-only copy of the array the model was built with; one
    that is not 2-D with one row per support raises ``DataFormatError``.  The
    first prediction checks them and builds their float32 side of the
    kernel's product once (see ``kernel_matrix`` for its precision); it
    stays with the model, read-only, and takes 24 d |S| bytes for |S|
    supports of d features (173 KiB at 738 supports and d = 10).  Queries
    passed to ``anker_predict`` must be normalized like the training items;
    ``anker_rank`` does both in one call.
    """

    svm: SvmModel
    variant: KernelVariant
    support_diffs: np.ndarray

    def __post_init__(self) -> None:
        # A read-only copy, so the side built from it cannot go stale.
        diffs = np.array(self.support_diffs, dtype=float)
        if diffs.ndim != 2 or len(diffs) != self.svm.support.size:
            raise DataFormatError(f"support_diffs must be a 2-D array of one row per support "
                                  f"({self.svm.support.size}), got shape {diffs.shape}")
        diffs.flags.writeable = False
        object.__setattr__(self, "support_diffs", diffs)

    @cached_property
    def _support_side(self) -> _PreparedSide:
        return _prepare_side(self.support_diffs, "support_diffs")


def _check_query(items, n_features: int, what: str) -> np.ndarray:
    """``items`` as a float array; ``DataFormatError``, naming ``what``, unless they form a query.

    A query to rank is a 2-D array of two or more items of ``n_features`` finite features.
    """
    items = np.asarray(items, dtype=float)
    if items.ndim != 2:
        raise DataFormatError(f"{what} must be a 2-D (items, features) array, got shape {items.shape}")
    if len(items) < 2:
        raise DataFormatError(f"{what} has fewer than two items")
    if items.shape[1] != n_features:
        raise DataFormatError(f"{what} has items of {items.shape[1]} features; training items have {n_features}")
    if not np.isfinite(items).all():
        raise DataFormatError(f"{what} has non-finite feature values")
    return items


def build_pair_instances(data: RankedDataset) -> np.ndarray:
    """Every ordered preference of the training rankings, as item row indices.

    Returns an (m, 2) int array of indices into ``data.all_items()`` with the
    preferred item first.  Pairs follow the queries in order and, within a
    query, the positions a < b of its ordering in row-major order.  A one-item
    query contributes no pairs.
    """
    blocks = [np.empty((0, 2), dtype=int)]
    offset = 0
    for query in data.queries:
        a, b = np.triu_indices(query.n_items, k=1)
        rows = query.ordering + offset
        blocks.append(np.column_stack((rows[a], rows[b])))
        offset += query.n_items
    return np.concatenate(blocks)


def _check_preferences(values: np.ndarray) -> None:
    # Written so that NaN fails the test: every comparison with NaN is False.
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError("preferences must lie in [0, 1]")


def reciprocal_preferences(upper: np.ndarray, n_items: int) -> np.ndarray:
    """The reciprocal preference matrix with a given upper triangle.

    ``upper[m]`` is the preference of item i over item j for the m-th pair
    (i, j) with i < j in row-major order, a number in [0, 1]; the opposite
    entry is its exact complement and the diagonal is 0.5.
    """
    upper = np.asarray(upper, dtype=float)
    rows, cols = np.triu_indices(n_items, k=1)
    if upper.shape != rows.shape:
        raise ValueError("preferences do not match the number of item pairs")
    _check_preferences(upper)
    pref = np.full((n_items, n_items), 0.5)
    pref[rows, cols] = upper
    pref[cols, rows] = 1.0 - upper
    return pref


def _pair_preferences(query, n_features: int, score) -> np.ndarray:
    """A query's reciprocal preference matrix.

    ``score`` maps a chunk's rows x_i - x_j of pairs i < j, followed by their
    negations x_j - x_i, to p_ij.
    """
    query = _check_query(query, n_features, "query")
    forward = pair_differences(query, *np.triu_indices(len(query), k=1), "query items")
    upper = np.empty(len(forward))
    for start in range(0, len(forward), _QUERY_CHUNK):
        chunk = forward[start:start + _QUERY_CHUNK]
        upper[start:start + _QUERY_CHUNK] = score(np.concatenate([chunk, -chunk]))
    return reciprocal_preferences(upper, len(query))


def preference_matrix(model: AnkerModel, query: np.ndarray) -> np.ndarray:
    """Reciprocal pairwise preference estimates for a query item set in [0, 1].

    For each ordered query pair the calibrated model output is a degree of
    support; opposite orientations are combined via
    p_ij = (1 + q_ij - q_ji) / 2, which makes the matrix reciprocal.  The
    backward differences are the forward ones negated, exactly, so each
    chunk of query pairs scores both orientations as the rows of one
    ``kernel_matrix`` call, with the bytes of two calls.

    The kernel rows are scored against the model's float32 support side, so
    each entry is within ``kernel_matrix``'s bound c(d) 2**-24 of the
    float64 kernel, and a decision value moves by at most
    sum_s |alpha_s y_s| c(d) 2**-24, plus the float64 rounding of the two
    sums, at most |S| 2**-52 sum_s |alpha_s y_s|.  Platt's sigmoid has slope
    at most |a|/4 and the clip is 1-Lipschitz, so p_ij moves by at most |a|/4
    times the larger decision change of its two orientations, plus a few
    units of 2**-53 from the float64 steps.
    """
    if model.svm.platt is None:
        raise ValueError("model must carry calibration parameters")

    def score(pairs: np.ndarray) -> np.ndarray:
        kernels = kernel_matrix(pairs, model._support_side, model.variant)
        fwd, bwd = platt_prob(model.svm.platt, decision_values(model.svm, kernels)).reshape(2, -1)
        # Grouping the difference first makes equal support yield exactly 0.5.
        return (1.0 + (fwd - bwd)) / 2.0

    return _pair_preferences(query, model.support_diffs.shape[1], score)


def btl_log_likelihood(pref: np.ndarray, theta: np.ndarray) -> float:
    """Log-likelihood of n utilities under an (n, n) matrix of pairwise preference weights."""
    pref, theta = np.asarray(pref, dtype=float), np.asarray(theta, dtype=float)
    n = theta.size
    if theta.ndim != 1 or pref.shape != (n, n):
        raise ValueError("preferences must form an (n, n) matrix for n utilities")
    off = ~np.eye(n, dtype=bool)
    pairwise = np.log(theta[:, None]) - np.log(theta[:, None] + theta[None, :])
    return float(np.sum(pref[off] * pairwise[off]))


def btl_fit(pref: np.ndarray, tol: float = _NEWTON_TOL, max_iter: int = _NEWTON_MAX_STEPS) -> BtlParams:
    """Maximum-likelihood Bradley-Terry-Luce utilities by Newton's method on log-utilities.

    Off-diagonal entries must lie in [0, 1] with p_ij + p_ji = 1 (within
    1e-9), as ``reciprocal_preferences`` builds them, and are clipped away
    from {0, 1} so the maximizer stays finite.  The log-likelihood
    sum_ij p_ij log sigma(beta_i - beta_j) is concave in beta = log theta;
    its negative is minimized by ``svm._newton_minimize``.  Each step solves
    (L + 11'/n) delta = g, where g is the gradient of the log-likelihood and
    L, the negative Hessian, is the Laplacian of the weights
    (p_ij + p_ji) sigma_ij sigma_ji; the 11'/n term removes the shift null
    space, and because g sums to 0, delta does too.  A step changes
    log sigma_ij by -log1p(sigma_ji expm1(-d_ij)), exact to rounding even
    when the step is tiny, so the recorded likelihood path never decreases.

    The fit starts at whichever of beta = 0 and the HodgeRank point
    beta_i = (1/n) sum_j log(w_ij / w_ji) over the clipped weights (Jiang,
    Lim, Yao & Ye, Math. Program. 2011) has the higher likelihood; a tie
    keeps 0.  The HodgeRank point is the maximizer when the matrix is
    BTL-consistent.  A fit that starts at 0 is the plain zero-start fit, to
    the byte.  ``log_likelihood_path`` starts at the chosen point.

    ``tol`` >= 0 bounds the max-norm of the gradient with respect to beta:
    ``converged`` is True when that bound is met.  The fit stops unconverged,
    with a warning, after ``max_iter`` Newton steps (an integer >= 1) or when
    no step raises the likelihood.  Both default to the shared Newton rule,
    ``svm._NEWTON_TOL`` and ``_NEWTON_MAX_STEPS``.  Returns softmax(beta).
    """
    pref = np.asarray(pref, dtype=float)
    if pref.ndim != 2 or pref.shape[0] != pref.shape[1]:
        raise ValueError("preference matrix must be square")
    n = pref.shape[0]
    if n == 0:
        raise ValueError("preference matrix must have at least one item")
    if not tol >= 0.0:
        raise ValueError("tol must be a non-negative number")
    _check_cap(max_iter, "max_iter")
    off = ~np.eye(n, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf + -inf
        recip_gap = np.max(np.abs(pref[off] + pref.T[off] - 1.0), initial=0.0)
    # NaN fails this test, and a NaN or infinite entry makes the gap NaN or inf.
    if not recip_gap <= 1e-9:
        raise ValueError(f"preference matrix is not reciprocal and finite (max gap {recip_gap:.3e})")
    _check_preferences(pref[off])
    wins_matrix = np.where(off, np.clip(pref, PREFERENCE_CLIP, 1.0 - PREFERENCE_CLIP), 0.0)
    wins = wins_matrix.sum(axis=1)
    pair_weight = wins_matrix + wins_matrix.T

    def log_likelihood(beta: np.ndarray) -> float:  # log sigma(x) = -logaddexp(0, -x)
        return -float(np.sum(wins_matrix * np.logaddexp(0.0, beta[None, :] - beta[:, None])))

    # The HodgeRank point: the least-squares fit of beta_i - beta_j to the
    # log-odds, on a complete graph the row means of log(w_ij / w_ji).  Both
    # candidates are scored by one expression, so a HodgeRank point equal to
    # 0 ties; the zero start records btl_log_likelihood at uniform theta.
    log_odds = np.log(np.divide(wins_matrix, wins_matrix.T, out=np.ones((n, n)), where=off))
    start = log_odds.sum(axis=1) / n
    start_likelihood = log_likelihood(start)
    if not start_likelihood > log_likelihood(np.zeros(n)):
        start, start_likelihood = np.zeros(n), btl_log_likelihood(wins_matrix, np.full(n, 1.0 / n))

    def local(beta: np.ndarray):
        sigma = _sigmoid(beta[:, None] - beta[None, :])
        weighted = pair_weight * sigma
        grad = wins - weighted.sum(axis=1)

        def newton():
            h = weighted * sigma.T
            degrees = h.sum(axis=1)
            # The Laplacian plus 1/n in every entry (the 11'/n term), built in h;
            # h has a zero diagonal, so the degrees go there unchanged.
            system = np.subtract(1.0 / n, h, out=h)
            system.flat[::n + 1] += degrees
            step = np.linalg.solve(system, grad)
            spread = step[:, None] - step[None, :]

            def change(t: float) -> float:  # of the negative log-likelihood
                return float(np.sum(wins_matrix * np.log1p(sigma.T * np.expm1(-(t * spread)))))

            return step, change

        return -grad, newton

    beta, iterations, converged, changes = _newton_minimize(start, local, tol, max_iter, "BTL fit")
    path = np.cumsum([start_likelihood, *(-c for c in changes)])
    theta = np.exp(beta - beta.max())
    return BtlParams(theta / theta.sum(), iterations, converged, path)


def ranking_from_scores(scores) -> np.ndarray:
    """Positions by descending score (0 = best); ties keep index order."""
    scores = np.asarray(scores, dtype=float)
    ordering = np.lexsort((np.arange(scores.size), -scores))
    ranking = np.empty(scores.size, dtype=int)
    ranking[ordering] = np.arange(scores.size)
    return ranking


def anker_fit(train: RankedDataset, *, variant: KernelVariant = KernelVariant.POLY2,
              C: float | None = None, seed: int = 0, cap: int | None = None) -> AnkerModel:
    """Train the preference SVM on a dataset whose items lie in [0, 1].

    Each training preference becomes one labeled pair difference: a seeded
    fair coin per pair, drawn in pair order, keeps preferred - other with
    label +1 or negates it (other - preferred) with label -1, so labels stay
    balanced.  An optional integer ``cap`` >= 1 then subsamples the pairs
    uniformly; pairs that do not hold both labels raise ``DataFormatError``.
    The cost is picked from ``DEFAULT_C_GRID`` by repeated internal
    cross-validation when ``C`` is None, and a given ``C`` is checked
    before any kernel is built; the SVM is trained by SMO and its
    decision values are calibrated on the training pairs.
    """
    if cap is not None:
        _check_cap(cap, "cap")
    if C is not None:
        _check_cost(C)
    for query in train.queries:
        _check_query(query.items, train.n_features, f"training query {query.query_id!r}")
    rng = np.random.default_rng(seed)
    pairs = build_pair_instances(train)
    labels = np.where(rng.random(len(pairs)) < 0.5, 1.0, -1.0)
    if cap is not None and cap < len(pairs):
        chosen = np.sort(rng.choice(len(pairs), size=cap, replace=False))
        pairs, labels = pairs[chosen], labels[chosen]
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise DataFormatError(f"too few training pairs: {len(labels)} pair(s) do not hold both labels")
    diffs = pair_differences(train.all_items(), *pairs.T, "training items") * labels[:, None]
    gram = gram_matrix(diffs, variant)
    if C is None:
        C = select_c(gram, labels, seed=seed)
        logger.debug("selected C=%g by cross-validation", C)
    model = smo_train(gram, labels, C)
    train_decisions = decision_values(model, gram[:, model.support])
    model = replace(model, platt=platt_fit(train_decisions, labels))
    return AnkerModel(svm=model, variant=variant, support_diffs=diffs[model.support])


def anker_predict(model: AnkerModel, query: np.ndarray) -> RankPrediction:
    """Rank an already-normalized query item set with a trained model."""
    pref = preference_matrix(model, query)  # refuses a malformed query and values outside [0, 1]
    return RankPrediction(btl_fit(pref).theta, pref)


def anker_rank(train: RankedDataset, query: np.ndarray, *,
               variant: KernelVariant = KernelVariant.POLY2, C: float | None = None,
               seed: int = 0, cap: int | None = None,
               scope: NormalizationScope | None = None) -> RankPrediction:
    """Rank a query item set given training rankings (the full pipeline).

    Normalization to the unit cube follows the distribution gate unless
    ``scope`` fixes it: features are min-max rescaled on the pooled
    train-plus-query rows unless a per-feature KS test (level 0.05,
    Bonferroni corrected) rejects distributional equality, in which case the
    query is rescaled on its own.
    """
    query = _check_query(query, train.n_features, "query")
    if scope is None:
        scope = choose_normalization_scope(train.all_items(), query)
    train_norm, query_norm = normalize_train_test(
        train.all_items(), query, NormalizationMode.MINMAX, scope
    )
    model = anker_fit(train.with_items(train_norm), variant=variant, C=C, seed=seed, cap=cap)
    return anker_predict(model, query_norm)
