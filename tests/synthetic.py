"""Synthetic ranked datasets with a known linear utility (the ground-truth oracle)."""

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
