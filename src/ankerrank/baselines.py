"""Reference rankers: expected rank regression, a linear ranking SVM, and an
approximate analogy-transfer ranker.

The analogy-transfer baseline is deliberately "-lite": it scores each query
pair by the top-k graded proportions against observed training preferences
and converts the two evidence sums into odds, which approximates (but does
not reproduce exactly) the original evidence-accumulation scheme.

RankSVM and able2rank take their training preferences from the same pair
enumerator as the analogy-kernel ranker (``build_pair_instances``).  RankSVM
is a linear model without a bias, fitted on the squared hinge in the primal
by the damped Newton loop that ``svm`` shares; it builds no Gram matrix and
runs no SMO.  The linear models score items: RankSVM by the utility
``items @ weights`` (larger is better), expected rank regression by
``err_predict`` (smaller is better).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataFormatError, RankedDataset
from .kernel import KernelVariant, _check_within, kernel_matrix
from .ranker import RankPrediction, btl_fit, build_pair_instances, reciprocal_preferences
from .svm import DEFAULT_C_GRID, _cv_splits, _newton_minimize
# Not called here; perfbench's tracer wraps these names at this module.
from .svm import select_c, smo_train  # noqa: F401

# RankSVM's Newton fit: the gradient max-norm that counts as converged, and
# the step cap.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class LinearModel:
    """A linear utility: score(x) = weights . x + intercept."""

    weights: np.ndarray
    intercept: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if not (np.all(np.isfinite(weights)) and np.isfinite(self.intercept)):
            raise ValueError("linear model coefficients must be finite")


def err_fit(train: RankedDataset) -> LinearModel:
    """Least-squares fit of expected-rank targets.

    Every item of a query of size n gets the target (position + 1) / (n + 1),
    the expected normalized rank under a uniform distribution over completions.
    Rank-deficient designs fall back to the minimum-norm solution.
    """
    items = train.all_items()
    design = np.hstack([items, np.ones((items.shape[0], 1))])
    targets = np.concatenate([(q.ranking + 1) / (q.n_items + 1) for q in train.queries])
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return LinearModel(weights=solution[:-1], intercept=float(solution[-1]))


def err_predict(model: LinearModel, items: np.ndarray) -> np.ndarray:
    """Predicted expected-rank targets (smaller = better)."""
    return np.asarray(items, dtype=float) @ model.weights + model.intercept


def _difference_vectors(train: RankedDataset) -> np.ndarray:
    """Difference vectors x - x', one per preference x > x'.

    Pairs with identical feature vectors are dropped: a zero difference
    carries no direction and would only force margin violations.
    """
    pairs = build_pair_instances(train)
    items = train.all_items()
    diffs = items[pairs[:, 0]] - items[pairs[:, 1]]
    diffs = diffs[np.any(diffs != 0.0, axis=1)]
    if not len(diffs):
        raise DataFormatError("no usable preference pairs in the training data")
    return diffs


def _squared_hinge_newton(diffs: np.ndarray, C: float,
                          max_steps: int = _NEWTON_MAX_STEPS) -> np.ndarray:
    """Minimizer of 1/2 |w|^2 + C sum_i max(0, 1 - w . d_i)^2 by Newton's method.

    Each step of ``svm._newton_minimize`` solves (I + 2C X_A' X_A) s = -g,
    where X_A holds the rows with slack 1 - w . d > 0 and g is the gradient.
    The objective is piecewise quadratic, so a full step lands on the
    minimizer once the active rows settle.  A fit that stops after
    ``max_steps`` steps, or when no step along the Newton direction lowers
    the objective, logs a warning.
    """
    def local(w: np.ndarray):
        slack = 1.0 - diffs @ w
        active = slack > 0.0
        grad = w - 2.0 * C * (slack[active] @ diffs[active])

        def newton():
            step = -np.linalg.solve(np.eye(w.size) + 2.0 * C * (diffs[active].T @ diffs[active]), grad)
            along = diffs @ step

            def change(t: float) -> float:
                # Change of each squared-hinge term, formed without cancellation.
                moved = np.where(active, -np.minimum(slack, t * along), np.maximum(slack - t * along, 0.0))
                return (t * (w @ step) + 0.5 * t * t * (step @ step)
                        + C * (moved @ (2.0 * slack * active + moved)))

            return step, change

        return grad, newton

    w, *_ = _newton_minimize(np.zeros(diffs.shape[1]), local, _NEWTON_TOL, max_steps, "RankSVM fit")
    return w


def ranksvm_fit(train: RankedDataset, C: float | None = None, seed: int = 0) -> LinearModel:
    """Linear ranking SVM on preference difference vectors, without a bias.

    Minimizes 1/2 |w|^2 + C sum_i max(0, 1 - w . d_i)^2, the squared hinge
    over the non-zero differences d = x - x' of the preferences x > x', by
    Newton's method in the primal (Chapelle & Keerthi, Inf. Retr. 2010).
    The weight vector scores items directly.  With ``C=None`` the cost is
    chosen from ``DEFAULT_C_GRID`` (ascending) on the fold scheme of
    ``select_c`` (2-fold x 3, shuffled by ``seed``): the validation error is
    the share of held-out differences with w . d <= 0, and ties go to the
    smallest cost.
    """
    diffs = _difference_vectors(train)
    if C is None:
        errors = np.zeros(len(DEFAULT_C_GRID))
        for fit, val in _cv_splits(np.ones(len(diffs)), seed=seed):
            for g, cost in enumerate(DEFAULT_C_GRID):
                errors[g] += np.mean(diffs[val] @ _squared_hinge_newton(diffs[fit], cost) <= 0.0)
        C = DEFAULT_C_GRID[int(np.argmin(errors))]
    return LinearModel(weights=_squared_hinge_newton(diffs, C), intercept=0.0)


def able2rank_lite(train: RankedDataset, query: np.ndarray, k: int = 20) -> RankPrediction:
    """Rank by transferring training preferences through graded proportions.

    For each query pair (x_i, x_j), every training preference z > z' provides
    the proportion degree of (z, z', x_i, x_j) as evidence for i over j (and
    of (z, z', x_j, x_i) for the opposite).  The top-k degrees on each side
    are summed and converted into a preference p_ij = S_ij / (S_ij + S_ji)
    (0.5 when there is no evidence at all), then aggregated like the main
    pipeline.  Expects data normalized to [0, 1].
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    query = np.asarray(query, dtype=float)
    n = query.shape[0]
    pairs = build_pair_instances(train)
    n_prefs = len(pairs)
    if n_prefs == 0:
        raise DataFormatError("no training preferences: every training query has a single item")
    items = train.all_items()
    _check_within(items, 0.0, 1.0, "training items")
    _check_within(query, 0.0, 1.0, "query items")
    pref_diffs = items[pairs[:, 0]] - items[pairs[:, 1]]
    top = min(k, n_prefs)
    rows, cols = np.triu_indices(n, k=1)
    forward = query[rows] - query[cols]
    evidence_fwd = kernel_matrix(pref_diffs, forward, KernelVariant.MEAN)
    evidence_bwd = kernel_matrix(pref_diffs, -forward, KernelVariant.MEAN)

    def top_k_sums(evidence: np.ndarray) -> np.ndarray:
        if top >= evidence.shape[0]:
            return evidence.sum(axis=0)
        part = np.partition(evidence, n_prefs - top, axis=0)
        return part[n_prefs - top:, :].sum(axis=0)

    sum_fwd = top_k_sums(evidence_fwd)
    sum_bwd = top_k_sums(evidence_bwd)
    total = sum_fwd + sum_bwd
    upper = np.where(total > 0.0, sum_fwd / np.where(total > 0.0, total, 1.0), 0.5)
    pref = reciprocal_preferences(upper, n)
    return RankPrediction(btl_fit(pref).theta, pref)
