"""Item tables, ranked datasets, CSV ingestion, and feature normalization.

The dataset file format is CSV with header ``query_id,rank,<f1>,<f2>,...``:
one row per item, rank 1 = most preferred within its query.  Every feature
header cell reads ``name[:kind[{l1<l2<...}]]`` (``price:numeric``,
``flag:binary{no<yes}``, ``stars:ordinal{1<2<3<4<5}``), and listed levels
are coded in their listed order.  Unsuffixed columns are numeric when every
value parses as a float, binary when exactly two distinct raw values occur;
a binary column that lists no levels takes its two values in sorted order.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """An input file, schema, or value violates the dataset contract."""


class FeatureKind(Enum):
    NUMERIC = "numeric"
    BINARY = "binary"
    ORDINAL = "ordinal"


class NormalizationMode(Enum):
    MINMAX = "minmax"
    ZSCORE = "zscore"


class NormalizationScope(Enum):
    TEST_ONLY = "test-only"
    TRAIN_PLUS_TEST = "train+test"


@dataclass(frozen=True)
class FeatureSchema:
    """Names, kinds, and (for binary/ordinal features) ordered raw levels.

    ``levels[k]`` is None for numeric features, the two raw values mapped to
    0 and 1 for binary features, and the full ordered level list for ordinal
    features (encoded as index / (len(levels) - 1)).  Names must be unique
    and non-empty, and there is at least one; a level may be empty.
    """

    names: tuple[str, ...]
    kinds: tuple[FeatureKind, ...]
    levels: tuple[tuple[str, ...] | None, ...]

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.kinds) == len(self.levels)):
            raise DataFormatError("schema names, kinds, and levels must have equal length")
        if not self.names:
            raise DataFormatError("a schema needs at least one feature")
        for k, (name, kind, lev) in enumerate(zip(self.names, self.kinds, self.levels)):
            if not name:
                raise DataFormatError("a feature has an empty name")
            if name in self.names[:k]:
                raise DataFormatError(f"duplicate feature name {name!r}")
            if kind is FeatureKind.NUMERIC and lev is not None:
                raise DataFormatError(f"numeric feature {name!r} must not declare levels")
            if kind is FeatureKind.BINARY and len(lev or ()) != 2:
                raise DataFormatError(f"binary feature {name!r} must take exactly two raw values, "
                                      f"found {len(lev or ())}")
            if kind is FeatureKind.ORDINAL and (lev is None or len(lev) < 2):
                raise DataFormatError(f"ordinal feature {name!r} needs an ordered level list")
            if lev is not None and len(set(lev)) != len(lev):
                raise DataFormatError(f"feature {name!r} has duplicate levels")

    @property
    def n_features(self) -> int:
        return len(self.names)

    def encode(self, index: int, raw: str) -> float:
        """Numeric code of one raw cell value for feature ``index``."""
        kind = self.kinds[index]
        if kind is FeatureKind.NUMERIC:
            try:
                return float(raw)
            except ValueError:
                raise DataFormatError(
                    f"non-numeric value {raw!r} in numeric column {self.names[index]!r}"
                ) from None
        levels = self.levels[index]
        assert levels is not None
        try:
            pos = levels.index(raw)
        except ValueError:
            raise DataFormatError(
                f"unknown {kind.value} level {raw!r} in column {self.names[index]!r}"
            ) from None
        return pos / (len(levels) - 1)

    def decode(self, index: int, code: float) -> str:
        """Raw cell string that ``encode`` maps to ``code``; a code of no level raises ``DataFormatError``."""
        kind = self.kinds[index]
        if kind is FeatureKind.NUMERIC:
            return repr(code)
        levels = self.levels[index]
        # Only the level nearest to code can have it as its code; encode says whether it does.
        nearest = levels[round(min(max(code, 0.0), 1.0) * (len(levels) - 1))]
        if self.encode(index, nearest) != code:
            raise DataFormatError(f"{code!r} is not the code of a level of {kind.value} feature "
                                  f"{self.names[index]!r}")
        return nearest


def _as_permutation(values, n: int, what: str) -> np.ndarray:
    """``values`` as an int array if it is a permutation of 0..n-1, else ``DataFormatError``.

    ``values`` is a list, tuple or 1-D array, and each entry is checked before any
    cast: 1.0 counts, and 1.5 (it would truncate), a boolean, a string or a list does not.
    """
    entries = values.tolist() if isinstance(values, np.ndarray) and values.ndim == 1 else values
    if not (isinstance(entries, (list, tuple))
            and all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
                    for v in entries)
            and sorted(entries) == list(range(n))):
        raise DataFormatError(f"{what} is not a permutation of 0..{n - 1}")
    return np.asarray(values, dtype=int)


@dataclass(frozen=True)
class RankedQuery:
    """A query set of items with its ranking.

    ``ranking[k]`` is the 0-based position of item k (0 = most preferred);
    it is a permutation of 0..n-1.
    """

    query_id: str
    items: np.ndarray
    ranking: np.ndarray

    def __post_init__(self) -> None:
        items = np.asarray(self.items, dtype=float)
        object.__setattr__(self, "items", items)
        if items.ndim != 2:
            raise DataFormatError("query items must form a 2-D (n, d) array")
        n = items.shape[0]
        if n < 1:
            raise DataFormatError("a query needs at least one item")
        if not np.isfinite(items).all():
            raise DataFormatError(f"query {self.query_id!r} has non-finite feature values")
        ranking = _as_permutation(self.ranking, n, f"ranking of query {self.query_id!r}")
        object.__setattr__(self, "ranking", ranking)

    @property
    def n_items(self) -> int:
        return int(self.items.shape[0])

    @property
    def ordering(self) -> np.ndarray:
        """Item indices from most to least preferred (inverse of ranking)."""
        return np.argsort(self.ranking, kind="stable")


@dataclass(frozen=True)
class RankedDataset:
    """A feature schema plus one or more ranked queries sharing it; query ids are unique."""

    schema: FeatureSchema
    queries: tuple[RankedQuery, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        if not self.queries:
            raise DataFormatError("a dataset needs at least one query")
        d = self.schema.n_features
        ids: set[str] = set()
        for q in self.queries:
            if q.items.shape[1] != d:
                raise DataFormatError(
                    f"query {q.query_id!r} has {q.items.shape[1]} features, schema expects {d}"
                )
            if q.query_id in ids:
                raise DataFormatError(f"duplicate query id {q.query_id!r}")
            ids.add(q.query_id)

    @property
    def n_features(self) -> int:
        return self.schema.n_features

    def all_items(self) -> np.ndarray:
        """All item rows stacked across queries, (sum n_l, d)."""
        return np.vstack([q.items for q in self.queries])

    def with_items(self, matrix: np.ndarray) -> "RankedDataset":
        """Copy of the dataset with item rows replaced by ``matrix`` (same stacking order)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (sum(q.n_items for q in self.queries), self.n_features):
            raise ValueError("replacement matrix shape does not match the dataset")
        out = []
        offset = 0
        for q in self.queries:
            out.append(replace(q, items=matrix[offset : offset + q.n_items]))
            offset += q.n_items
        return RankedDataset(self.schema, tuple(out))


# ---------------------------------------------------------------------------
# CSV ingestion

# Every header cell is name[:kind[{l1<l2<...}]]; the pattern matches any cell.
_HEADER_CELL = re.compile(r"(?P<name>[^:]*)(?::(?P<kind>.*?)(?:\{(?P<levels>[^}]*)\})?)?", re.DOTALL)


def _parse_header_cell(cell: str) -> tuple[str, FeatureKind | None, tuple[str, ...] | None]:
    """Name, declared kind and declared levels of one cell; ``FeatureSchema`` checks the levels."""
    cell = cell.strip()
    name, kind, listed = _HEADER_CELL.fullmatch(cell).group("name", "kind", "levels")
    try:
        kind = None if kind is None else FeatureKind(kind.strip())
    except ValueError:
        raise DataFormatError(f"unknown feature kind {kind.strip()!r} in header cell {cell!r}") from None
    levels = None if listed is None else tuple(part.strip() for part in listed.split("<"))
    return name.strip(), kind, levels


def _infer_column(name: str, declared: FeatureKind | None, levels: tuple[str, ...] | None,
                  raw: tuple[str, ...]) -> tuple[FeatureKind, tuple[str, ...] | None]:
    """Resolve the kind and level list of one column from header info and raw values."""
    # Only a binary column that lists no levels sorts the ones it finds.
    if levels is not None or declared in (FeatureKind.NUMERIC, FeatureKind.ORDINAL):
        return declared, levels
    if declared is None:
        # Undeclared: numeric when everything parses, two-valued text is binary.
        try:
            for value in raw:
                float(value)
            return FeatureKind.NUMERIC, None
        except ValueError:
            pass
    distinct = tuple(sorted(set(raw)))
    if declared is None and len(distinct) != 2:
        raise DataFormatError(
            f"cannot infer a kind for column {name!r}: non-numeric with {len(distinct)} distinct values; "
            "annotate it in the header"
        )
    return FeatureKind.BINARY, distinct


def _check_against_schema(schema: FeatureSchema, names: list[str],
                          declared: list[FeatureKind | None],
                          declared_levels: list[tuple[str, ...] | None]) -> None:
    if len(names) != schema.n_features:
        raise DataFormatError(
            f"expected {schema.n_features} feature columns {list(schema.names)}, found {len(names)}"
        )
    for k, name in enumerate(names):
        if name != schema.names[k]:
            raise DataFormatError(f"feature column {k + 1} is {name!r}, schema expects {schema.names[k]!r}")
        if declared[k] is not None and declared[k] is not schema.kinds[k]:
            raise DataFormatError(
                f"column {name!r} declared as {declared[k].value}, schema expects {schema.kinds[k].value}"
            )
        if declared_levels[k] is not None and declared_levels[k] != schema.levels[k]:
            raise DataFormatError(f"column {name!r} declares levels that differ from the schema")


def load_dataset(path: str | Path, schema: FeatureSchema | None = None) -> RankedDataset:
    """Load a ranked dataset from CSV.

    Args:
        path: CSV file following the dataset contract, in UTF-8 with or
            without a byte-order mark.
        schema: Optional schema from a previously loaded file; header names
            and kinds must match, so must any level list the header declares,
            and binary/ordinal encodings are taken from it so that separately
            loaded files encode identically.

    Raises:
        DataFormatError: On a file that cannot be read or decoded, ragged
            rows, duplicate or non-contiguous ranks, unknown levels or kinds,
            a schema that ``FeatureSchema`` refuses (an empty or repeated
            feature name, a bad level list), or a header that contradicts
            ``schema``.  The message starts with the file's path.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            rows = [row for row in csv.reader(handle) if row]  # tolerate blank lines
        return _parse_rows(rows, schema)
    except (DataFormatError, OSError, UnicodeDecodeError, csv.Error) as exc:
        # An OSError's full text repeats the file name; its strerror does not.
        raise DataFormatError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _parse_rows(rows: list[list[str]], schema: FeatureSchema | None) -> RankedDataset:
    """The dataset held by a file's non-blank CSV rows (see ``load_dataset``)."""
    if not rows:
        raise DataFormatError("empty file")
    header = rows[0]
    if len(header) < 3 or header[0].strip() != "query_id" or header[1].strip() != "rank":
        raise DataFormatError("header must start with query_id,rank and have at least one feature")

    names: list[str] = []
    declared: list[FeatureKind | None] = []
    declared_levels: list[tuple[str, ...] | None] = []
    for cell in header[2:]:
        name, kind, levels = _parse_header_cell(cell)
        names.append(name)
        declared.append(kind)
        declared_levels.append(levels)

    body = rows[1:]
    if not body:
        raise DataFormatError("no data rows")
    width = len(header)
    for line_no, row in enumerate(body, start=2):
        if len(row) != width:
            raise DataFormatError(f"row {line_no} has {len(row)} fields, expected {width}")
    cells = [[cell.strip() for cell in row[2:]] for row in body]

    if schema is not None:
        _check_against_schema(schema, names, declared, declared_levels)
        resolved = schema
    else:
        kinds, levels = zip(*[_infer_column(name, kind, lev, column) for name, kind, lev, column
                              in zip(names, declared, declared_levels, zip(*cells))])
        resolved = FeatureSchema(tuple(names), kinds, levels)

    # Group rows by query_id in first-appearance order.
    groups: dict[str, list[tuple[int, list[str]]]] = {}
    for line_no, (row, features) in enumerate(zip(body, cells), start=2):
        try:
            rank = int(row[1])
        except ValueError:
            raise DataFormatError(f"row {line_no} has non-integer rank {row[1]!r}") from None
        groups.setdefault(row[0].strip(), []).append((rank, features))

    queries = []
    for qid, members in groups.items():
        n = len(members)
        seen: set[int] = set()
        for rank, _ in members:
            if rank in seen:
                raise DataFormatError(f"duplicate rank {rank} in query {qid!r}")
            seen.add(rank)
        if seen != set(range(1, n + 1)):
            raise DataFormatError(f"ranks of query {qid!r} must be exactly 1..{n}, got {sorted(seen)}")
        items = [[resolved.encode(k, cell) for k, cell in enumerate(features)] for _, features in members]
        queries.append(RankedQuery(qid, items, [rank - 1 for rank, _ in members]))
    return RankedDataset(resolved, tuple(queries))


def _check_field(field: str, text: str, reserved: str) -> None:
    """Raise ``DataFormatError`` unless ``text`` loads back from a saved file as itself.

    The loader strips every cell, Python 3.11's ``csv.writer`` leaves a lone
    carriage return unquoted, and ``reserved`` holds the characters that the
    header grammar gives a meaning to in this field.
    """
    reason = ("surrounding whitespace" if text != text.strip() else
              "a lone carriage return" if re.search("\r(?!\n)", text) else
              next((repr(char) for char in reserved if char in text), None))
    if reason:
        raise DataFormatError(f"{field} {text!r} would not load back as itself: it has {reason}")


def save_dataset(dataset: RankedDataset, path: str | Path) -> None:
    """Write a dataset in canonical CSV form (kinds and levels annotated, rows in rank order).

    Fields holding a comma, a double quote or a line feed are quoted per RFC
    4180.  Loading the file gives back the schema and items that were saved,
    and saving that again reproduces the file byte for byte.  A query id,
    feature name or level with surrounding whitespace or a lone carriage
    return, a ``:`` in a name, a ``<`` or ``}`` in a level, or an item value
    that is not the code of a level raises ``DataFormatError`` before
    anything is written.
    """
    schema = dataset.schema
    for query in dataset.queries:
        _check_field("query id", query.query_id, "")
    for name, levels in zip(schema.names, schema.levels):
        _check_field("feature name", name, ":")
        for level in levels or ():
            _check_field(f"level of feature {name!r}", level, "<}")
    header = ["query_id", "rank"]
    for name, kind, levels in zip(schema.names, schema.kinds, schema.levels):
        listed = "" if levels is None else f"{{{'<'.join(levels)}}}"
        header.append(f"{name}:{kind.value}{listed}")
    rows = [header]
    for query in dataset.queries:
        try:
            rows += [[query.query_id, position + 1,
                      *(schema.decode(k, float(v)) for k, v in enumerate(query.items[item_idx]))]
                     for position, item_idx in enumerate(query.ordering)]
        except DataFormatError as exc:
            raise DataFormatError(f"query {query.query_id!r}: {exc}") from None
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov gate

@dataclass(frozen=True)
class KsDecision:
    """Two-sample KS outcome: sup ECDF gap, asymptotic p-value, and the verdict."""

    statistic: float
    p_value: float
    alpha: float
    rejected: bool


def _kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Uses the alternating series 2 sum (-1)^(j-1) exp(-2 j^2 t^2) for t >= 1
    and the complementary Jacobi theta expansion for small t.
    """
    if t <= 0.0:
        return 1.0
    if t < 1.0:
        total = 0.0
        for j in range(1, 40):
            term = math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8.0 * t * t))
            total += term
            if term <= 1e-20 * total:
                break
        cdf = math.sqrt(2.0 * math.pi) / t * total
        return min(1.0, max(0.0, 1.0 - cdf))
    total = 0.0
    sign = 1.0
    for j in range(1, 200):
        term = math.exp(-2.0 * j * j * t * t)
        total += sign * term
        if term <= 1e-20:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a, b, alpha: float = 0.05) -> KsDecision:
    """Two-sample Kolmogorov-Smirnov test at significance level ``alpha``.

    The statistic is the supremum gap between the two empirical CDFs; the
    p-value uses the asymptotic Kolmogorov distribution with effective sample
    size n*m/(n+m).  Empty samples, NaN or infinite values and an ``alpha``
    outside (0, 1), NaN included, raise ``ValueError``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, not {alpha!r}")
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample requires non-empty samples")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("ks_two_sample requires finite samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = math.sqrt(a.size * b.size / (a.size + b.size))
    p_value = _kolmogorov_sf(effective * statistic)
    return KsDecision(statistic, p_value, alpha, p_value < alpha)


SCOPE_ALPHA = 0.05  # family-wise significance level of the scope gate


def choose_normalization_scope(train: np.ndarray, test: np.ndarray) -> NormalizationScope:
    """Decide whether the test matrix must be normalized on its own.

    Takes the train and test item matrices, (n, d) and (m, d).  Runs a
    per-feature two-sample KS test at the Bonferroni-corrected level
    ``SCOPE_ALPHA``/d = 0.05/d; any rejection means the distributions
    differ, so normalization statistics for the test side come from the
    test data alone.  Otherwise the training data is pooled in.  A NaN or
    infinite value in either matrix raises ``DataFormatError``, whichever
    feature holds it.
    """
    train = np.asarray(train, dtype=float)
    test = np.asarray(test, dtype=float)
    if train.ndim != 2 or test.ndim != 2 or train.shape[1] != test.shape[1]:
        raise DataFormatError(
            f"schema mismatch: train has {train.shape[1:]} features, test has {test.shape[1:]}"
        )
    d = train.shape[1]
    if d == 0:
        raise DataFormatError("items have no features to test")
    # Checked before the loop, which stops at the first feature that differs.
    for matrix, what in ((train, "train"), (test, "test")):
        if not np.isfinite(matrix).all():
            raise DataFormatError(f"{what} items have non-finite feature values")
    per_feature_alpha = SCOPE_ALPHA / d
    for k in range(d):
        if ks_two_sample(train[:, k], test[:, k], per_feature_alpha).rejected:
            return NormalizationScope.TEST_ONLY
    return NormalizationScope.TRAIN_PLUS_TEST


# ---------------------------------------------------------------------------
# Normalization

def _rescale(rows: np.ndarray, fit: np.ndarray, mode: NormalizationMode) -> np.ndarray:
    """``rows`` rescaled per feature with statistics fitted on ``fit``."""
    with np.errstate(over="ignore", invalid="ignore"):
        if mode is NormalizationMode.MINMAX:
            shift = fit.min(axis=0)
            span = fit.max(axis=0) - shift
        elif fit.shape[0] < 2:
            raise DataFormatError("fitting a zscore normalization needs at least two rows")
        else:
            shift = fit.mean(axis=0)
            span = fit.std(axis=0, ddof=1)
    overflow = np.flatnonzero(~np.isfinite(span))  # a non-finite mean makes the std non-finite
    if overflow.size:
        raise DataFormatError(f"feature column {overflow[0] + 1} cannot be {mode.value}-normalized: "
                              "its fitted shift or span is not finite")
    safe = np.where(span > 0.0, span, 1.0)
    return np.where(span > 0.0, (rows - shift) / safe, 0.0)


def normalize_train_test(train: np.ndarray, test: np.ndarray, mode: NormalizationMode,
                         scope: NormalizationScope) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a train and a test matrix according to the scope rule.

    MINMAX maps each feature x to (x - min) / (max - min), which lies in
    [0, 1] on the rows the statistics were fitted on; ZSCORE maps it to
    (x - mean) / std with the sample standard deviation (ddof=1).  A feature
    that is constant on the fitted rows maps to 0.  Under TRAIN_PLUS_TEST
    both sides use statistics fitted on the pooled rows; under TEST_ONLY each
    side is normalized with its own.  Both matrices need at least one row
    and the same number of features, and a ZSCORE fit needs at least two
    rows.  ``mode`` and ``scope`` must be members of their enums, not their
    string values.  A feature whose fitted span overflows raises
    ``DataFormatError``.  Returns the normalized train and test matrices.
    """
    if not isinstance(mode, NormalizationMode):
        raise ValueError(f"mode must be a NormalizationMode, not {mode!r}")
    if not isinstance(scope, NormalizationScope):
        raise ValueError(f"scope must be a NormalizationScope, not {scope!r}")
    train = np.asarray(train, dtype=float)
    test = np.asarray(test, dtype=float)
    if train.ndim != 2 or test.ndim != 2 or min(train.shape[0], test.shape[0]) < 1:
        raise ValueError("normalize_train_test expects two non-empty (n, d) matrices")
    if train.shape[1] != test.shape[1]:
        raise ValueError(f"train has {train.shape[1]} features and test has {test.shape[1]}")
    if scope is NormalizationScope.TRAIN_PLUS_TEST:
        pooled = np.vstack([train, test])
        return _rescale(train, pooled, mode), _rescale(test, pooled, mode)
    return _rescale(train, train, mode), _rescale(test, test, mode)
