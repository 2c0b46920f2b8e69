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

The same identity scores a pair against a reversed pair for free: -v lies
in the sign class opposite to v's, and for u and v of opposite nonzero
signs |u - (-v)| = |u + v| = ||u| - |v|| too.  So one pass per feature
computes t = 1 - ||u| - |v||, exactly the term either orientation needs,
and ``kernel_matrix(..., opposed=True)`` gates it by sign class into K(a, b)
and K(a, -b), the bytes of two separate calls.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .data import DataFormatError

# The six Boolean quadruples that are in exact analogical proportion.
_BOOLEAN_TABLE = frozenset(
    {
        (0, 0, 0, 0),
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
        (1, 1, 1, 1),
    }
)

# Rows of kernel_matrix's output filled per block: with a few hundred to a
# few thousand columns the block's slab stays in cache across the features.
_BLOCK_ROWS = 32


class KernelVariant(Enum):
    """How per-feature proportion degrees are aggregated into one kernel value."""

    MEAN = "mean"
    POLY2 = "poly2"


def boolean_proportion(a: int, b: int, c: int, d: int) -> int:
    """Exact analogical proportion on bits: 1 for the six valid quadruples, else 0."""
    quad = (a, b, c, d)
    if any(x not in (0, 1) for x in quad):
        raise ValueError(f"boolean_proportion expects bits in {{0, 1}}, got {quad}")
    return int(quad in _BOOLEAN_TABLE)


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


def kernel_matrix(diffs_a, diffs_b, variant: KernelVariant = KernelVariant.MEAN, *,
                  opposed: bool = False) -> np.ndarray:
    """Kernel values between two collections of ordered item pairs.

    Args:
        diffs_a: First collection, an (m, d) array of the pairs' differences
            x - x' of items in [0, 1], so with values in [-1, 1].
        diffs_b: Second collection, same conventions.
        variant: A ``KernelVariant``: MEAN averages per-dimension
            proportion degrees; POLY2 squares the average.
        opposed: Also score ``diffs_a`` against the reversed pairs
            ``-diffs_b``.

    Returns:
        Array of shape (len(diffs_a), len(diffs_b)) with values in [0, 1];
        with ``opposed`` an array of shape (2, len(diffs_a), len(diffs_b))
        holding K(a, b) and K(a, -b), the same bytes as two separate calls.
        When ``diffs_a is diffs_b`` only the upper triangle is computed and
        mirrored, which gives the same bytes.
    """
    if not isinstance(variant, KernelVariant):
        raise ValueError(f"variant must be a KernelVariant, not {variant!r}")
    symmetric = diffs_a is diffs_b
    diffs_a = np.asarray(diffs_a, dtype=float)
    diffs_b = diffs_a if symmetric else np.asarray(diffs_b, dtype=float)
    for arr, what in ((diffs_a, "diffs_a"), (diffs_b, "diffs_b")):
        if arr.ndim != 2:
            raise ValueError(f"{what} must be a 2-D array of difference vectors")
        _check_within(arr, -1.0, 1.0, what)
    if diffs_a.shape[1] != diffs_b.shape[1]:
        raise ValueError(
            f"dimension mismatch: diffs_a has {diffs_a.shape[1]} features, diffs_b has {diffs_b.shape[1]}"
        )
    n_dim = diffs_a.shape[1]
    if n_dim == 0:
        raise ValueError("pairs must have at least one feature")
    # Features along rows, so each feature's magnitudes are contiguous; the
    # sign classes are 0 (negative), 1 (zero, -0.0 included) and 2 (positive).
    col_a = np.ascontiguousarray(diffs_a.T)
    col_b = col_a if symmetric else np.ascontiguousarray(diffs_b.T)
    abs_a = np.abs(col_a)
    abs_b = abs_a if symmetric else np.abs(col_b)
    class_a = (np.sign(col_a) + 1.0).astype(np.intp)
    class_b = class_a if symmetric else (np.sign(col_b) + 1.0).astype(np.intp)
    # gate[k, c, j] = [class of diffs_b[j, k] is c]; -v is in class 2 - c.
    gate = (class_b[:, None, :] == np.arange(3)[:, None]).astype(float)

    n_a, n_b = col_a.shape[1], col_b.shape[1]
    out = np.zeros((1 + opposed, n_a, n_b))
    # The rows are filled a block at a time, so the block and its per-feature
    # slab stay in cache while every feature is added in.  Each entry sums
    # the term 1 - |u - v| over the features in order where u and v share a
    # sign class, else 0.  Within a class u - v = +-(|u| - |v|) exactly, and
    # for opposite classes u + v is too, so one slab t = 1 - ||u| - |v||
    # serves both K(a, b) and K(a, -b); each half takes t times a 0/1 gate
    # row picked by u's class.  A gated-off term is +0, as t >= 0 (inputs are
    # finite, see _check_within), and leaves the sum as it was.  The slab
    # stays contiguous where a symmetric block is narrower.  Entry (j, i)
    # sums the same terms as entry (i, j), so mirroring the upper triangle is
    # bit-identical.
    # The gate rows are gathered into one preallocated block; mode="clip"
    # lets np.take write into it directly (the classes are 0..2 already),
    # where the default mode="raise" gathers into a temporary first.
    slab_buf = np.empty(_BLOCK_ROWS * n_b)
    term_buf = np.empty(_BLOCK_ROWS * n_b)
    for start in range(0, n_a, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_a)
        rows, cols = slice(start, stop), slice(start if symmetric else 0, n_b)
        blocks = out[:, rows, cols]
        slab = slab_buf[: blocks[0].size].reshape(blocks[0].shape)
        term = term_buf[: blocks[0].size].reshape(blocks[0].shape)
        for k in range(n_dim):
            np.copyto(slab, abs_a[k, rows, None])
            np.subtract(slab, abs_b[k, cols], out=slab)
            np.abs(slab, out=slab)
            np.subtract(1.0, slab, out=slab)
            table = gate[k, :, cols]
            for block, gates in zip(blocks, (table, table[::-1])):
                np.take(gates, class_a[k, rows], axis=0, out=term, mode="clip")
                np.multiply(term, slab, out=term)
                block += term
        if symmetric:
            out[:, stop:, rows] = out[:, rows, stop:].transpose(0, 2, 1)
    out /= n_dim
    if variant is KernelVariant.POLY2:
        np.multiply(out, out, out=out)
    return out if opposed else out[0]


def gram_matrix(diffs, variant: KernelVariant = KernelVariant.MEAN) -> np.ndarray:
    """Square kernel matrix of (m, d) pair differences: symmetric, unit diagonal, PSD.

    Computes the upper triangle only (see kernel_matrix).
    """
    diffs = np.asarray(diffs, dtype=float)
    if diffs.shape[0] == 0:
        raise ValueError("gram_matrix requires at least one pair")
    return kernel_matrix(diffs, diffs, variant)
