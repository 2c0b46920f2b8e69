"""Reference rankers: expected rank regression, linear ranking SVM, and an
approximate analogy-transfer ranker.

The analogy-transfer baseline is deliberately "-lite": it scores each query
pair by the top-k graded proportions against observed training preferences
and converts the two evidence sums into odds, which approximates (but does
not reproduce exactly) the original evidence-accumulation scheme.

RankSVM and able2rank take their training preferences from the same pair
enumerator as the analogy-kernel ranker (``build_pair_instances``).  The
linear models rank a query with ``ranking_from_scores``: RankSVM on the
utility ``items @ weights``, expected rank regression on ``-err_predict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RankedDataset
from .kernel import KernelVariant, kernel_matrix
from .ranker import (
    RankPrediction,
    btl_fit,
    build_pair_instances,
    ordering_from_ranking,
    ranking_from_scores,
)
from .svm import DEFAULT_C_GRID, select_c, smo_train


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


def _difference_vectors(train: RankedDataset, rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-preference difference vectors with coin-flipped sign balancing.

    Pairs with identical feature vectors are dropped before the coins are
    drawn: a zero difference carries no direction and would only force
    margin violations.
    """
    pairs = build_pair_instances(train)
    items = train.all_items()
    diffs = items[pairs[:, 0]] - items[pairs[:, 1]]
    diffs = diffs[np.any(diffs != 0.0, axis=1)]
    if not len(diffs):
        raise ValueError("no usable preference pairs in the training data")
    labels = np.where(rng.random(len(diffs)) < 0.5, 1.0, -1.0)
    return diffs * labels[:, None], labels


def ranksvm_fit(train: RankedDataset, C: float | None = None, grid=DEFAULT_C_GRID,
                seed: int = 0, smo_tol: float = 1e-3) -> LinearModel:
    """Linear SVM on preference difference vectors.

    Trains on z = x - x' for each preference x > x' (sign-balanced by a
    seeded coin) with a linear kernel; the learned weight vector scores items
    directly and the decision rule w.z > 0 carries no intercept.
    """
    rng = np.random.default_rng(seed)
    diffs, labels = _difference_vectors(train, rng)
    gram = diffs @ diffs.T
    if C is None:
        C = select_c(gram, labels, grid=grid, seed=seed, tol=smo_tol)
    model = smo_train(gram, labels, C, tol=smo_tol)
    weights = (model.alpha * model.labels) @ diffs
    return LinearModel(weights=weights, intercept=0.0)


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
        raise ValueError("no training preferences: every training query has a single item")
    items = train.all_items()
    pref_first, pref_second = items[pairs[:, 0]], items[pairs[:, 1]]
    top = min(k, n_prefs)
    rows, cols = np.triu_indices(n, k=1)
    evidence_fwd = kernel_matrix((pref_first, pref_second), (query[rows], query[cols]),
                                 KernelVariant.MEAN)
    evidence_bwd = kernel_matrix((pref_first, pref_second), (query[cols], query[rows]),
                                 KernelVariant.MEAN)

    def top_k_sums(evidence: np.ndarray) -> np.ndarray:
        if top >= evidence.shape[0]:
            return evidence.sum(axis=0)
        part = np.partition(evidence, n_prefs - top, axis=0)
        return part[n_prefs - top:, :].sum(axis=0)

    sum_fwd = top_k_sums(evidence_fwd)
    sum_bwd = top_k_sums(evidence_bwd)
    total = sum_fwd + sum_bwd
    upper = np.where(total > 0.0, sum_fwd / np.where(total > 0.0, total, 1.0), 0.5)
    pref = np.full((n, n), 0.5)
    pref[rows, cols] = upper
    pref[cols, rows] = 1.0 - upper
    params = btl_fit(pref)
    ranking = ranking_from_scores(params.theta)
    return RankPrediction(
        ranking=ranking,
        ordering=ordering_from_ranking(ranking),
        theta=params.theta,
        preference=pref,
    )
