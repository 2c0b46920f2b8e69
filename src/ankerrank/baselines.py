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
from .kernel import KernelVariant, _prepare_side, kernel_matrix, pair_differences
from .ranker import RankPrediction, _pair_preferences, btl_fit, build_pair_instances
from .svm import DEFAULT_C_GRID, _check_cap, _check_cost, _choose_cost, _newton_minimize
# Not called here; perfbench's tracer wraps these names at this module.
from .svm import select_c, smo_train  # noqa: F401


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


def _squared_hinge_newton(diffs: np.ndarray, C: float) -> np.ndarray:
    """Minimizer of 1/2 |w|^2 + C sum_i max(0, 1 - w . d_i)^2 by Newton's method.

    Each step of ``svm._newton_minimize`` solves (I + 2C X_A' X_A) s = -g,
    where X_A holds the rows with slack 1 - w . d > 0 and g is the gradient.
    The objective is piecewise quadratic, so a full step lands on the
    minimizer once the active rows settle.  It stops by the driver's rule,
    with a warning when it stops at the cap or on a step that cannot lower
    the objective.
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

    w, *_ = _newton_minimize(np.zeros(diffs.shape[1]), local, "RankSVM fit")
    return w


def ranksvm_fit(train: RankedDataset, C: float | None = None, seed: int = 0) -> LinearModel:
    """Linear ranking SVM on preference difference vectors, without a bias.

    Minimizes 1/2 |w|^2 + C sum_i max(0, 1 - w . d_i)^2, the squared hinge
    over the non-zero differences d = x - x' of the preferences x > x', by
    Newton's method in the primal (Chapelle & Keerthi, Inf. Retr. 2010).
    The weight vector scores items directly.  With ``C=None`` the cost is
    chosen from ``DEFAULT_C_GRID`` by the cost search that ``select_c`` runs
    (``svm._choose_cost``: 2-fold x 3, shuffled by ``seed``).  The
    validation error is the share of held-out differences with w . d <= 0;
    errors are compared exactly, so ties go to the smallest cost.  A given
    ``C`` must be finite and positive, as ``smo_train`` requires.
    """
    if C is not None:
        _check_cost(C)
    diffs = _difference_vectors(train)
    if C is None:
        C = _choose_cost(np.ones(len(diffs)), seed, lambda fit, val: [
            np.count_nonzero(diffs[val] @ _squared_hinge_newton(diffs[fit], cost) <= 0.0)
            for cost in DEFAULT_C_GRID])
    return LinearModel(weights=_squared_hinge_newton(diffs, C), intercept=0.0)


def able2rank_lite(train: RankedDataset, query: np.ndarray, k: int = 20) -> RankPrediction:
    """Rank by transferring training preferences through graded proportions.

    For each query pair (x_i, x_j), every training preference z > z' provides
    the proportion degree of (z, z', x_i, x_j) as evidence for i over j (and
    of (z, z', x_j, x_i) for the opposite).  The top-k degrees on each side
    are summed and converted into a preference p_ij = S_ij / (S_ij + S_ji)
    (0.5 when there is no evidence at all), then aggregated like the main
    pipeline.  Expects data normalized to [0, 1] and an integer ``k`` >= 1.
    Query pairs are the rows of the evidence, a chunk at a time from
    ``ranker._pair_preferences``, so each pair's top k lies in one row.  The
    evidence is scored against the training preferences' float32 side,
    prepared once per call (see ``kernel_matrix`` for its precision).
    """
    _check_cap(k, "k")
    pref_diffs = pair_differences(train.all_items(), *build_pair_instances(train).T, "training items")
    n_prefs = len(pref_diffs)
    if n_prefs == 0:
        raise DataFormatError("no training preferences: every training query has a single item")

    pref_side = _prepare_side(pref_diffs)

    def score(pairs: np.ndarray) -> np.ndarray:
        evidence = kernel_matrix(pairs, pref_side, KernelVariant.MEAN)
        if k < n_prefs:
            evidence.partition(n_prefs - k, axis=1)
            evidence = evidence[:, n_prefs - k:]
        sum_fwd, sum_bwd = evidence.sum(axis=1).reshape(2, -1)
        total = sum_fwd + sum_bwd
        return np.where(total > 0.0, sum_fwd / np.where(total > 0.0, total, 1.0), 0.5)

    pref = _pair_preferences(query, train.n_features, score)
    return RankPrediction(btl_fit(pref).theta, pref)
