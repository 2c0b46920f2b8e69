"""Synthetic ranked datasets with a known ground truth: a linear utility or a pairwise rule."""

from __future__ import annotations

import numpy as np

from ankerrank.data import FeatureKind, FeatureSchema, RankedDataset, RankedQuery
from ankerrank.ranker import ranking_from_scores


def numeric_schema(d: int) -> FeatureSchema:
    return FeatureSchema(
        names=tuple(f"f{k}" for k in range(d)),
        kinds=tuple([FeatureKind.NUMERIC] * d),
        levels=tuple([None] * d),
    )


def make_linear_dataset(n_queries: int, n_items: int, d: int, seed: int,
                        weights: np.ndarray | None = None,
                        prefix: str = "q") -> RankedDataset:
    """Items uniform in [0, 1]^d, each query ranked by a fixed linear utility."""
    rng = np.random.default_rng(seed)
    if weights is None:
        weights = np.linspace(1.0, 2.0, d)
    queries = []
    for qi in range(n_queries):
        items = rng.random((n_items, d))
        queries.append(RankedQuery(f"{prefix}{qi}", items, ranking_from_scores(items @ weights)))
    return RankedDataset(numeric_schema(d), tuple(queries))


# Pairwise rules h(u) over the last axis of a difference u = x_i - x_j; the
# nonlinear ones depend on the sign pattern of u.

def linear_rule(u: np.ndarray) -> np.ndarray:
    """h(u) = w . u with weights w evenly spaced from 1 to 2, as ``make_linear_dataset``."""
    return u @ np.linspace(1.0, 2.0, u.shape[-1])


def threshold_rule(u: np.ndarray) -> np.ndarray:
    """h(u) = sign u_1 if |u_1| > 0.3, else sign u_0, over the last axis of ``u``."""
    return np.where(np.abs(u[..., 1]) > 0.3, np.sign(u[..., 1]), np.sign(u[..., 0]))


def first_threshold_rule(u: np.ndarray) -> np.ndarray:
    """h(u) = sign u_0 if |u_0| > 0.2, else sign u_1."""
    return np.where(np.abs(u[..., 0]) > 0.2, np.sign(u[..., 0]), np.sign(u[..., 1]))


def majority_rule(u: np.ndarray) -> np.ndarray:
    """h(u) = sign of sum_k sign u_k: i beats j on most features (intransitive)."""
    return np.sign(np.sign(u).sum(axis=-1))


def make_rule_dataset(n_queries: int, n_items: int, d: int, seed: int, rule,
                      prefix: str = "q") -> RankedDataset:
    """Items uniform in [0, 1]^d, each query in the Copeland order of a pairwise rule.

    ``rule`` maps difference vectors x_i - x_j (last axis d) to a value that
    is positive where i is preferred to j.  Item i scores the number of j
    with rule(x_i - x_j) > 0; ties go to the larger x_0, then to the lower
    index.
    """
    rng = np.random.default_rng(seed)
    queries = []
    for qi in range(n_queries):
        items = rng.random((n_items, d))
        wins = (rule(items[:, None, :] - items[None, :, :]) > 0).sum(axis=1)
        ordering = np.lexsort((np.arange(n_items), -items[:, 0], -wins))
        queries.append(RankedQuery(f"{prefix}{qi}", items, np.argsort(ordering)))
    return RankedDataset(numeric_schema(d), tuple(queries))
