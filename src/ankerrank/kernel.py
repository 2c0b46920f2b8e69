"""Analogical proportions and the analogy kernel on pairs of item pairs.

A quadruple (a, b, c, d) of values in [0, 1] is in analogical proportion to
the degree 1 - |(a - b) - (c - d)| when the two differences agree in sign,
and to degree 0 otherwise.  Read as a similarity of the signed differences
u = a - b and v = c - d in [-1, 1], the same formula is a kernel g(u, v);
averaging it per feature dimension extends it to pairs of feature vectors,
and squaring the average gives a degree-2 polynomial variant.  So the kernel
sees an ordered pair (x, x') only through its difference x - x', and
``kernel_matrix`` and ``gram_matrix`` take (m, d) arrays of differences,
which ``pair_differences`` builds from items in [0, 1].

Why g is positive semi-definite: when u and v share a sign,
|u - v| = ||u| - |v||, so

    g(u, v) = [sign u = sign v] * (min(|u|, |v|) + min(1 - |u|, 1 - |v|)).

The indicator of equal sign classes is PSD (a sum of outer products of
class indicators), and min(s, t) on s, t >= 0 is PSD (the histogram
intersection kernel), so the sum of the two minima is PSD.  By the Schur
product theorem the elementwise product is PSD too, and so are its average
over features (MEAN) and that average squared (POLY2).

Reversing a pair negates its difference, which moves every feature to the
opposite sign class and keeps |u|, so K(a, -b) and K(-a, b) are the same
bytes: a caller scores reversed pairs as negated rows of the same call.

A collection scored again and again, such as a model's support pairs, is
checked and turned into the product's right operand once by
``_prepare_side``; ``kernel_matrix`` accepts the result in place of
``diffs_b``.  Every block is float64.  A float32 side gives entries that are
float32 values within the bound derived in ``kernel_matrix``; a float64 side
gives the bytes of its array.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import DataFormatError

# kernel_matrix runs one product per _PRODUCT_ROWS rows of its output, whose
# terms (a row per feature and output row) stay in cache until summed.
_PRODUCT_ROWS = 8
_CLASSES = np.arange(3)


class KernelVariant(Enum):
    """How per-feature proportion degrees are aggregated into one kernel value."""

    MEAN = "mean"
    POLY2 = "poly2"


def boolean_proportion(a: int, b: int, c: int, d: int) -> int:
    """Exact analogical proportion on bits: 1 when a - b = c - d, else 0."""
    quad = (a, b, c, d)
    if any(x not in (0, 1) for x in quad):
        raise ValueError(f"boolean_proportion expects bits in {{0, 1}}, got {quad}")
    return int(a - b == c - d)


def proportion_degree(a: float, b: float, c: float, d: float) -> float:
    """Graded analogical proportion of four values in [0, 1].

    Returns 1 - |(a - b) - (c - d)| when the differences a - b and c - d have
    the same sign (zero counts as its own sign class), and 0.0 otherwise.
    """
    for name, x in zip("abcd", (a, b, c, d)):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"proportion_degree argument {name}={x} outside [0, 1]")
    left = a - b
    right = c - d
    if np.sign(left) != np.sign(right):
        return 0.0
    return 1.0 - abs(left - right)


def _check_within(arr: np.ndarray, low: float, high: float, what: str) -> None:
    # Written so that NaN fails the test: every comparison with NaN is False.
    if arr.size and not (arr.min() >= low and arr.max() <= high):
        raise DataFormatError(f"{what} has values outside [{low:g}, {high:g}] or not finite; "
                              "normalize items to [0, 1] before applying the kernel")


def pair_differences(items, first, second, what: str) -> np.ndarray:
    """Kernel pairs items[first] - items[second].

    Items outside [0, 1] or not finite raise ``DataFormatError``, naming ``what``.
    """
    items = np.asarray(items, dtype=float)
    _check_within(items, 0.0, 1.0, what)
    return items[first] - items[second]


def _left_operand(diffs: np.ndarray, dtype) -> np.ndarray:
    """u's rows of the product: row i holds (|u_i|, 1) in u_i's sign class and zeros elsewhere.

    The class comes from the float64 u; only |u| is rounded to ``dtype``.
    """
    u = np.ascontiguousarray(diffs.T)
    left = np.empty((len(u), len(diffs), 3, 2), dtype)
    np.equal(np.sign(u)[:, :, None] + 1.0, _CLASSES, out=left[..., 1])
    np.multiply(left[..., 1], np.abs(u)[:, :, None], out=left[..., 0])
    return left.reshape(len(u), -1, 6)


@dataclass(frozen=True)
class _PreparedSide:
    """The read-only (d, 6, n) right operand of n checked differences of d features."""

    right: np.ndarray


def _checked_diffs(diffs, what: str) -> np.ndarray:
    diffs = np.asarray(diffs, dtype=float)
    if diffs.ndim != 2:
        raise ValueError(f"{what} must be a 2-D array of difference vectors")
    _check_within(diffs, -1.0, 1.0, what)
    return diffs


def _prepare_side(diffs, what: str = "diffs_b", dtype=np.float32) -> _PreparedSide:
    """``diffs`` checked as ``kernel_matrix`` checks ``diffs_b``, with v's columns of the product.

    Column j holds ([v in c], v in c ? -|v| : 1) for c = 0, 1, 2 and each
    feature's v = diffs[j, k], in ``dtype``; the class comes from the float64
    v and only |v| is rounded.  The float32 operand, which the prediction
    side uses, takes 24 d n bytes; ``kernel_matrix`` builds a float64 one
    (48 d n bytes) for a plain ``diffs_b``.  Passing the result as
    ``diffs_b`` skips the checks and this build, O(d n) work per call.
    """
    diffs = _checked_diffs(diffs, what)
    right = np.empty((diffs.shape[1], 3, 2, len(diffs)), dtype)
    in_class, gate = right[:, :, 0], right[:, :, 1]
    np.equal(np.sign(diffs.T)[:, None] + 1.0, _CLASSES[:, None], out=in_class)
    np.subtract(1.0, in_class, out=gate)
    gate -= in_class * np.abs(diffs.T)[:, None]
    right.flags.writeable = False
    return _PreparedSide(right.reshape(diffs.shape[1], 6, len(diffs)))


def kernel_matrix(diffs_a, diffs_b, variant: KernelVariant = KernelVariant.MEAN) -> np.ndarray:
    """Kernel values between two collections of ordered item pairs.

    ``diffs_a`` and ``diffs_b`` are (m, d) arrays of the pairs' differences
    x - x' of items in [0, 1], so with values in [-1, 1].  Returns a
    (len(diffs_a), len(diffs_b)) array with values in [0, 1]: the mean of
    the per-feature degrees (MEAN) or its square (POLY2).  When
    ``diffs_a is diffs_b`` only the upper triangle is computed and mirrored,
    which gives the same bytes.  ``diffs_b`` may also be a side built once
    by ``_prepare_side``, which was checked when it was built.

    Entry (i, j) sums 1 - |x| over the features in order, where x = |u| - |v|
    for u = diffs_a[i, k] and v = diffs_b[j, k] of one sign class (negative,
    zero, positive), else 1.  One product per block of rows gives x: v's
    column holds ([v in c], v in c ? -|v| : 1) for each class c, u's row
    (|u|, 1) in its own class's places and zeros elsewhere.  The inputs are
    finite, so every product is exact and every other summand an exact zero:
    x is fl(|u| - |v|) or exactly 1 at any BLAS summation order or thread
    count.

    Precision.  The block is float64 for every side.  Against a side
    prepared in float32, u's operand, the terms and the sums are float32,
    and each entry is a float32 value widened exactly.  Each operand takes
    its sign classes from the float64 inputs and rounds only the magnitudes,
    so the classes are those of the float64 kernel (1e-300 stays positive,
    although its magnitude rounds to 0).  The exactness argument above holds
    in float32 unchanged, so such a block, too, is the same bytes at any
    chunk width, BLAS order or thread count.

    The float32 bound.  Let e = 2**-24 and a = |u|, b = |v| <= 1 for one
    feature of one class.  Rounding to float32 moves a and b by at most e/2
    each (half an ulp below 1, and 1 is exact); fl(a - b) adds at most e/2,
    as |a - b| <= 1; fl(1 - |x|) adds at most e/2, being exact (Sterbenz)
    when |x| >= 1/2 and else a result in [1/2, 1].  So each term is within
    2e of the exact 1 - |a - b|, and a term of unequal classes is exactly 0
    on both paths.  The j-th in-order addition gives a result in [0, j] and
    errs by at most j e, and dividing by d errs by at most e/2, so the MEAN
    entry is within (d/2 + 3 - 1/d) e of the exact mean.  The float64 kernel
    errs by less than the same expression in 2**-53, which fits in the 1/d
    for d <= 30 000, so |K32 - K64| <= (d/2 + 3) e for MEAN.  POLY2 squares
    means in [0, 1]: |s32^2 - s64^2| <= 2 |s32 - s64|, plus e/2 for the
    square's rounding, so |K32 - K64| <= (d + 6.5) e.  At d = 10 these are
    4.8e-7 and 1.0e-6.
    """
    if not isinstance(variant, KernelVariant):
        raise ValueError(f"variant must be a KernelVariant, not {variant!r}")
    symmetric = diffs_a is diffs_b
    diffs_a = _checked_diffs(diffs_a, "diffs_a")
    side = diffs_b if isinstance(diffs_b, _PreparedSide) else _prepare_side(
        diffs_a if symmetric else diffs_b, dtype=np.float64)
    (n_a, n_dim), (b_dim, _, n_b) = diffs_a.shape, side.right.shape
    if n_dim != b_dim:
        raise ValueError(f"dimension mismatch: diffs_a has {n_dim} features, diffs_b has {b_dim}")
    if n_dim == 0:
        raise ValueError("pairs must have at least one feature")
    dtype = side.right.dtype
    left = _left_operand(diffs_a, dtype)
    out = np.empty((n_a, n_b))
    term_buf = np.empty(n_dim * _PRODUCT_ROWS * n_b, dtype)
    sum_buf = np.empty(_PRODUCT_ROWS * n_b, dtype)
    for start in range(0, n_a, _PRODUCT_ROWS):
        stop = min(start + _PRODUCT_ROWS, n_a)
        col = start if symmetric else 0
        rows, width = stop - start, n_b - col
        terms = term_buf[: n_dim * rows * width].reshape(n_dim, rows, width)
        np.matmul(left[:, start:stop], side.right[:, :, col:], out=terms)
        np.abs(terms, out=terms)
        np.subtract(1.0, terms, out=terms)
        sums = sum_buf[: rows * width].reshape(rows, width)
        # The features are the reduction's outer loop, added in order.
        if sums.size == 1:  # numpy would sum a lone entry pairwise
            sums[...] = np.add.accumulate(terms)[-1]
        else:
            np.add.reduce(terms, axis=0, out=sums)
        sums /= n_dim
        if variant is KernelVariant.POLY2:
            np.multiply(sums, sums, out=sums)
        out[start:stop, col:] = sums
        if symmetric:
            out[stop:, start:stop] = out[start:stop, stop:].T
    return out


def gram_matrix(diffs, variant: KernelVariant = KernelVariant.MEAN) -> np.ndarray:
    """Square kernel matrix of (m, d) pair differences: symmetric, unit diagonal, PSD.

    Computes the upper triangle only (see kernel_matrix).
    """
    diffs = np.asarray(diffs, dtype=float)
    if diffs.shape[0] == 0:
        raise ValueError("gram_matrix requires at least one pair")
    return kernel_matrix(diffs, diffs, variant)
