"""The analogy-kernel ranking pipeline.

Training rankings are decomposed into labeled ordered item pairs, each
carried as its difference vector; an SVM with the analogy kernel learns the
pairwise preference direction, calibrated outputs are combined into a
reciprocal preference matrix, and a Bradley-Terry-Luce fit turns that matrix
into a total order.  The BTL fit is the shared damped Newton loop of ``svm``
on log-utilities, stopped on the gradient norm; its result says whether it
converged, and a fit that did not converge logs a warning.

``build_pair_instances`` is the one enumerator of training preferences and
``reciprocal_preferences`` the one builder of a preference matrix (the
baselines use both); a ``RankPrediction`` holds BTL utilities and their
preference matrix and derives its positions through ``ranking_from_scores``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    DataFormatError,
    NormalizationMode,
    NormalizationScope,
    RankedDataset,
    choose_normalization_scope,
    normalize_train_test,
)
from .kernel import KernelVariant, _check_within, gram_matrix, kernel_matrix
from .svm import (
    SvmModel,
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
        if np.any(theta <= 0) or abs(theta.sum() - 1.0) > 1e-9:
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
    order.  Queries passed to ``anker_predict`` must be normalized like the
    training items; ``anker_rank`` does both in one call.
    """

    svm: SvmModel
    variant: KernelVariant
    support_diffs: np.ndarray


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


def reciprocal_preferences(upper: np.ndarray, n_items: int) -> np.ndarray:
    """The reciprocal preference matrix with a given upper triangle.

    ``upper[m]`` is the preference of item i over item j for the m-th pair
    (i, j) with i < j in row-major order; the opposite entry is its exact
    complement and the diagonal is 0.5.
    """
    rows, cols = np.triu_indices(n_items, k=1)
    if upper.shape != rows.shape:
        raise ValueError("preferences do not match the number of item pairs")
    pref = np.full((n_items, n_items), 0.5)
    pref[rows, cols] = upper
    pref[cols, rows] = 1.0 - upper
    return pref


def preference_matrix(model: AnkerModel, query: np.ndarray) -> np.ndarray:
    """Reciprocal pairwise preference estimates for a query item set in [0, 1].

    For each ordered query pair the calibrated model output is a degree of
    support; opposite orientations are combined via
    p_ij = (1 + q_ij - q_ji) / 2, which makes the matrix reciprocal.  The
    backward differences are the forward ones negated, exactly.
    """
    svm = model.svm
    if svm.platt is None:
        raise ValueError("model must carry calibration parameters")
    query = np.asarray(query, dtype=float)
    _check_within(query, 0.0, 1.0, "query items")
    rows, cols = np.triu_indices(query.shape[0], k=1)
    forward = query[rows] - query[cols]

    def support(diffs: np.ndarray) -> np.ndarray:
        kernel = kernel_matrix(diffs, model.support_diffs, model.variant)
        return platt_prob(svm.platt, decision_values(svm, kernel))

    # Grouping the difference first makes equal support yield exactly 0.5.
    upper = (1.0 + (support(forward) - support(-forward))) / 2.0
    return reciprocal_preferences(upper, query.shape[0])


def btl_log_likelihood(pref: np.ndarray, theta: np.ndarray) -> float:
    """Log-likelihood of utilities under the pairwise preference weights."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    off = ~np.eye(n, dtype=bool)
    pairwise = np.log(theta[:, None]) - np.log(theta[:, None] + theta[None, :])
    return float(np.sum(pref[off] * pairwise[off]))


def btl_fit(pref: np.ndarray, tol: float = 1e-10, max_iter: int = 1000) -> BtlParams:
    """Maximum-likelihood Bradley-Terry-Luce utilities by Newton's method on log-utilities.

    Entries are clipped away from {0, 1} so the maximizer stays finite.  The
    log-likelihood sum_ij p_ij log sigma(beta_i - beta_j) is concave in
    beta = log theta; its negative is minimized by ``svm._newton_minimize``.
    Each step solves (L + 11'/n) delta = g, where g is the gradient of the
    log-likelihood and L, the negative Hessian, is the Laplacian of the
    weights (p_ij + p_ji) sigma_ij sigma_ji; the 11'/n term removes the shift
    null space, and because g sums to 0, delta does too.  A step changes
    log sigma_ij by -log1p(sigma_ji expm1(-d_ij)), exact to rounding even
    when the step is tiny, so the recorded likelihood path never decreases.

    ``tol`` bounds the max-norm of the gradient with respect to beta:
    ``converged`` is True when that bound is met.  The fit stops unconverged,
    with a warning, after ``max_iter`` Newton steps or when no step along the
    Newton direction raises the likelihood.  Returns theta = softmax(beta).
    """
    pref = np.asarray(pref, dtype=float)
    n = pref.shape[0]
    if pref.ndim != 2 or pref.shape != (n, n):
        raise ValueError("preference matrix must be square")
    off = ~np.eye(n, dtype=bool)
    recip_gap = np.max(np.abs(pref[off] + pref.T[off] - 1.0)) if n > 1 else 0.0
    if recip_gap > 1e-9:
        raise ValueError(f"preference matrix is not reciprocal (max gap {recip_gap:.3e})")
    p = pref.copy()
    p[off] = np.clip(p[off], PREFERENCE_CLIP, 1.0 - PREFERENCE_CLIP)
    if n == 1:
        return BtlParams(np.ones(1), 0, True, np.zeros(1))

    wins_matrix = np.where(off, p, 0.0)
    wins = wins_matrix.sum(axis=1)
    pair_weight = wins_matrix + wins_matrix.T

    def local(beta: np.ndarray):
        sigma = _sigmoid(beta[:, None] - beta[None, :])
        grad = wins - (pair_weight * sigma).sum(axis=1)

        def newton():
            h = pair_weight * sigma * sigma.T
            laplacian = np.diag(h.sum(axis=1)) - h
            # Adding 1/n to every entry is the 11'/n term.
            step = np.linalg.solve(laplacian + 1.0 / n, grad)

            def change(t: float) -> float:  # of the negative log-likelihood
                d = t * (step[:, None] - step[None, :])
                with np.errstate(over="ignore", invalid="ignore"):
                    return float(np.sum(wins_matrix * np.log1p(sigma.T * np.expm1(-d))))

            return step, change

        return -grad, newton

    beta, iterations, converged, changes = _newton_minimize(np.zeros(n), local, tol, max_iter, "BTL fit")
    path = np.cumsum([btl_log_likelihood(p, np.full(n, 1.0 / n)), *(-c for c in changes)])
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
    balanced.  An optional ``cap`` then subsamples the pairs uniformly; pairs
    that do not hold both labels raise ``DataFormatError``.  The cost is
    picked from ``DEFAULT_C_GRID`` by repeated internal cross-validation
    when ``C`` is None; the SVM is trained by SMO and its decision values
    are calibrated on the training pairs.
    """
    for query in train.queries:
        if query.n_items < 2:
            raise DataFormatError(f"training query {query.query_id!r} has fewer than two items")
    rng = np.random.default_rng(seed)
    pairs = build_pair_instances(train)
    labels = np.where(rng.random(len(pairs)) < 0.5, 1.0, -1.0)
    if cap is not None and cap < len(pairs):
        chosen = np.sort(rng.choice(len(pairs), size=cap, replace=False))
        pairs, labels = pairs[chosen], labels[chosen]
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise DataFormatError(f"too few training pairs: {len(labels)} pair(s) do not hold both labels")
    items = train.all_items()
    _check_within(items, 0.0, 1.0, "training items")
    diffs = (items[pairs[:, 0]] - items[pairs[:, 1]]) * labels[:, None]
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
    query = np.asarray(query, dtype=float)
    if query.ndim != 2 or query.shape[0] < 2:
        raise DataFormatError("a query needs at least two items")
    if not np.isfinite(query).all():
        raise ValueError("query features must be finite")
    pref = preference_matrix(model, query)
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
    query = np.asarray(query, dtype=float)
    if query.ndim != 2 or query.shape[1] != train.n_features:
        raise ValueError(
            f"query items must be (n, {train.n_features}), got {query.shape}"
        )
    if query.shape[0] < 2:
        raise DataFormatError("a query needs at least two items")
    if not np.isfinite(query).all():
        raise ValueError("query features must be finite")
    if scope is None:
        scope = choose_normalization_scope(train.all_items(), query)
    train_norm, query_norm = normalize_train_test(
        train.all_items(), query, NormalizationMode.MINMAX, scope
    )
    model = anker_fit(train.with_items(train_norm), variant=variant, C=C, seed=seed, cap=cap)
    return anker_predict(model, query_norm)
