import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ankerrank
from ankerrank.data import DataFormatError
from ankerrank.kernel import (
    _PRODUCT_ROWS,
    KernelVariant,
    _prepare_side,
    boolean_proportion,
    gram_matrix,
    kernel_matrix,
    pair_differences,
    proportion_degree,
)
from ankerrank.ranker import anker_fit, preference_matrix, reciprocal_preferences
from ankerrank.svm import decision_values, platt_prob
from oracles import full_slab_kernel_matrix
from synthetic import make_linear_dataset

ALL_QUADRUPLES = [tuple((code >> s) & 1 for s in (3, 2, 1, 0)) for code in range(16)]
VALID_QUADRUPLES = {
    (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1),
    (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1),
}


def _column(diffs):
    """One-feature pair differences, one per row."""
    return np.asarray(diffs, dtype=float).reshape(-1, 1)


def _diagonal_kernel(quads, chunk=1000):
    """One-feature kernel of the pairs (a, b) and (c, d) of each quadruple.

    Read off the diagonals of ``chunk`` x ``chunk`` kernel_matrix blocks of
    the differences a - b and c - d.
    """
    out = []
    for start in range(0, len(quads), chunk):
        a, b, c, d = (quads[start:start + chunk, i:i + 1] for i in range(4))
        out.append(np.diag(kernel_matrix(a - b, c - d, KernelVariant.MEAN)))
    return np.concatenate(out)


def test_boolean_table_has_six_ones():
    values = {quad: boolean_proportion(*quad) for quad in ALL_QUADRUPLES}
    assert sum(values.values()) == 6
    assert {q for q, v in values.items() if v == 1} == VALID_QUADRUPLES


@pytest.mark.parametrize("quad,expected", [
    ((0, 1, 0, 1), 1),
    ((1, 1, 0, 0), 1),
    ((0, 1, 1, 0), 0),
])
def test_boolean_proportion_examples(quad, expected):
    assert boolean_proportion(*quad) == expected


def test_boolean_proportion_rejects_non_bits():
    with pytest.raises(ValueError):
        boolean_proportion(0, 1, 2, 0)


def test_proportion_degree_matches_boolean_table():
    for quad in ALL_QUADRUPLES:
        assert proportion_degree(*(float(x) for x in quad)) == float(boolean_proportion(*quad))


def test_proportion_degree_examples():
    assert proportion_degree(0.8, 0.6, 0.5, 0.3) == pytest.approx(1.0, abs=1e-12)
    assert proportion_degree(0.2, 0.7, 0.9, 0.4) == 0.0  # signs -, +
    with pytest.raises(ValueError):
        proportion_degree(1.2, 0.0, 0.0, 0.0)


def test_proportion_degree_internal_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c, d = rng.random(4)
        assert proportion_degree(a, b, c, d) == proportion_degree(c, d, a, b)
        assert proportion_degree(a, b, a, b) == 1.0


# The scalar kernel is kernel_matrix on one feature: a function of the two
# pairs' differences u and v.

def test_scalar_kernel_examples():
    values = kernel_matrix(_column([0.3, 0.2, 0.3]), _column([0.3, 0.7, -0.2]))
    assert values[0, 0] == 1.0
    assert values[1, 1] == pytest.approx(0.5)
    assert values[2, 2] == 0.0
    with pytest.raises(ValueError):
        kernel_matrix(np.array([[1.5]]) - np.array([[0.0]]), _column([0.0]))


@pytest.mark.parametrize("bad", [1.0 + 1e-15, -1.5, np.nan, np.inf])
def test_kernel_rejects_differences_outside_the_unit_interval(bad):
    good = np.array([[0.5, -1.0], [1.0, 0.0]])
    wrong = good.copy()
    wrong[1, 0] = bad
    for diffs_a, diffs_b in ((wrong, good), (good, wrong)):
        with pytest.raises(ValueError, match=r"outside \[-1, 1\] or not finite"):
            kernel_matrix(diffs_a, diffs_b)
    with pytest.raises(ValueError, match=r"outside \[-1, 1\] or not finite"):
        gram_matrix(wrong)
    assert kernel_matrix(good, good).shape == (2, 2)  # the extremes -1 and 1 are accepted


def test_pair_differences_are_the_row_differences_bit_for_bit():
    items = np.random.default_rng(0).random((7, 3))
    items[0] = (0.0, 1.0, 0.5)  # the interval's ends are accepted
    first, second = np.triu_indices(7, k=1)
    expected = items[first] - items[second]
    assert pair_differences(items, first, second, "items").tobytes() == expected.tobytes()
    assert pair_differences(items.tolist(), first, second, "items").tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [1.0 + 1e-15, -0.25, np.nan, np.inf])
def test_pair_differences_refuse_items_outside_the_unit_interval(bad):
    items = np.full((3, 2), 0.5)
    items[1, 0] = bad  # a row no pair uses is checked too
    with pytest.raises(ValueError, match=r"^training items has values outside \[0, 1\] or not finite; "
                                         r"normalize items to \[0, 1\] before applying the kernel$"):
        pair_differences(items, [0], [2], "training items")


def test_scalar_kernel_equals_proportion_degree_exactly():
    quads = np.random.default_rng(42).random((10_000, 4))
    expected = [proportion_degree(a, b, c, d) for a, b, c, d in quads]
    assert np.array_equal(_diagonal_kernel(quads), expected)


def test_scalar_kernel_zero_is_its_own_sign_class():
    values = kernel_matrix(_column([0.0, 0.0, -0.4]), _column([0.0, 0.4, 0.0]))
    assert np.array_equal(np.diag(values), [1.0, 0.0, 0.0])


def test_kernel_matrix_equals_the_sign_and_minimum_form():
    # g(u, v) = [sign u = sign v] (min(|u|, |v|) + min(1 - |u|, 1 - |v|)),
    # the form that shows the kernel is PSD (see the kernel module docstring).
    rng = np.random.default_rng(41)
    a, b = _edge_value_pairs(rng, 80, 1), _edge_value_pairs(rng, 60, 1)
    u, v = (a[0] - a[1])[:, 0], (b[0] - b[1])[:, 0]
    for diffs in (u, v):
        assert np.any(diffs == 0.0) and np.any(diffs == 1.0) and np.any(diffs == -1.0)
    au, av = np.abs(u)[:, None], np.abs(v)[None, :]
    same_sign = np.sign(u)[:, None] == np.sign(v)[None, :]
    expected = same_sign * (np.minimum(au, av) + np.minimum(1.0 - au, 1.0 - av))
    assert np.max(np.abs(kernel_matrix(u[:, None], v[:, None], KernelVariant.MEAN) - expected)) <= 1e-15


# The pair kernel is one entry of kernel_matrix.

def test_pair_kernel_identical_pairs():
    rng = np.random.default_rng(0)
    pair = rng.random((1, 6)) - rng.random((1, 6))
    assert kernel_matrix(pair, pair, KernelVariant.MEAN)[0, 0] == 1.0
    assert kernel_matrix(pair, pair, KernelVariant.POLY2)[0, 0] == 1.0


def test_pair_kernel_mean_and_squared_aggregation():
    # Dimension 0 contributes 1 (equal differences), dimension 1 contributes 0
    # (opposite signs), so the mean is 0.5 and its square 0.25.
    p = np.array([[0.5, 0.5]]) - np.array([[0.3, 0.2]])
    q = np.array([[0.7, 0.1]]) - np.array([[0.5, 0.4]])
    assert kernel_matrix(p, q, KernelVariant.MEAN)[0, 0] == pytest.approx(0.5)
    assert kernel_matrix(p, q, KernelVariant.POLY2)[0, 0] == pytest.approx(0.25)


def test_pair_kernel_symmetry_and_range():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        p = rng.random((1, d)) - rng.random((1, d))
        q = rng.random((1, d)) - rng.random((1, d))
        for variant in KernelVariant:
            value = kernel_matrix(p, q, variant)[0, 0]
            assert value == kernel_matrix(q, p, variant)[0, 0]
            assert 0.0 <= value <= 1.0


def test_pair_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        kernel_matrix(np.array([[1.5]]) - np.array([[0.0]]), np.array([[0.1]]) - np.array([[0.2]]))
    with pytest.raises(ValueError):
        kernel_matrix(np.array([[0.1, 0.2]]) - np.array([[0.0, 0.0]]),
                      np.array([[0.1]]) - np.array([[0.2]]))
    with pytest.raises(ValueError, match="diffs_a must be a 2-D array"):
        kernel_matrix(np.array([0.1, -0.2]), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="diffs_b must be a 2-D array"):
        kernel_matrix(np.zeros((1, 2)), np.array([0.1, -0.2]))
    with pytest.raises(ValueError, match="at least one feature"):
        kernel_matrix(np.zeros((2, 0)), np.zeros((3, 0)))
    with pytest.raises(ValueError, match="at least one pair"):
        gram_matrix(np.zeros((0, 2)))


def test_gram_matrix_trivial_cases():
    pair = np.array([[0.2, 0.9]]) - np.array([[0.4, 0.1]])
    assert np.array_equal(gram_matrix(pair, KernelVariant.MEAN), np.array([[1.0]]))
    duplicated = np.vstack([pair, pair])
    assert np.array_equal(gram_matrix(duplicated, KernelVariant.POLY2), np.ones((2, 2)))


def test_gram_matrix_exact_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(5)
    diffs = rng.random((20, 4)) - rng.random((20, 4))
    for variant in KernelVariant:
        gram = gram_matrix(diffs, variant)
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diag(gram) == 1.0)


def test_gram_matrix_is_psd_on_random_pairs():
    rng = np.random.default_rng(99)
    diffs = rng.random((50, 10)) - rng.random((50, 10))
    for variant in KernelVariant:
        gram = gram_matrix(diffs, variant)
        assert np.linalg.eigvalsh(gram).min() >= -1e-8


def test_block_structure_by_sign_class():
    # For scalar differences sorted non-increasingly the kernel matrix is
    # block diagonal: positive, zero, and negative classes never mix.
    values = np.array([0.9, 0.5, 0.1, 0.0, 0.0, -0.2, -0.8])
    n = values.size
    gram = gram_matrix(_column(values))
    signs = np.sign(values)
    for i in range(n):
        for j in range(n):
            if signs[i] != signs[j]:
                assert gram[i, j] == 0.0
            else:
                assert gram[i, j] > 0.0


def test_kernel_matrix_cross_shapes():
    rng = np.random.default_rng(8)
    a = rng.random((5, 3)) - rng.random((5, 3))
    b = rng.random((7, 3)) - rng.random((7, 3))
    out = kernel_matrix(a, b, KernelVariant.MEAN)
    assert out.shape == (5, 7)
    assert np.all((out >= 0.0) & (out <= 1.0))


def _edge_value_pairs(rng, n, d):
    """Random pairs whose differences include exact zeros and the +-1 extremes."""
    first = rng.random((n, d))
    second = rng.random((n, d))
    kind = rng.integers(0, 5, size=(n, d))
    second[kind == 0] = first[kind == 0]  # difference exactly 0
    first[kind == 1], second[kind == 1] = 1.0, 0.0  # difference +1
    first[kind == 2], second[kind == 2] = 0.0, 1.0  # difference -1
    return first, second


def _float32_oracle(pairs_a, pairs_b, poly2=False):
    """The float32 oracle's values in float64, the dtype of every kernel block.

    Widening float32 to float64 is exact, so equal bytes here are equal float32 values.
    """
    return full_slab_kernel_matrix(pairs_a, pairs_b, poly2, np.float32).astype(np.float64)


def _check_against_the_full_slab_oracle(n_rows, n_cols, n_dim, seed):
    rng = np.random.default_rng(seed)
    a = _edge_value_pairs(rng, n_rows, n_dim)
    b = _edge_value_pairs(rng, n_cols, n_dim)
    diffs_a, diffs_b = a[0] - a[1], b[0] - b[1]
    side, reversed_side = _prepare_side(diffs_b), _prepare_side(-diffs_b)
    for variant in KernelVariant:
        poly2 = variant is KernelVariant.POLY2
        expected = full_slab_kernel_matrix(a, b, poly2=poly2)
        assert np.array_equal(kernel_matrix(diffs_a, diffs_b, variant), expected)
        # Negating either side scores the reversed pairs (x', x), whose differences are -(x - x').
        reversed_b = full_slab_kernel_matrix(a, b[::-1], poly2=poly2)
        assert kernel_matrix(-diffs_a, diffs_b, variant).tobytes() == reversed_b.tobytes()
        assert kernel_matrix(diffs_a, -diffs_b, variant).tobytes() == reversed_b.tobytes()
        # A float32 side gives the float32 oracle's values, and so do its reversed pairs.
        expected = _float32_oracle(a, b, poly2)
        assert kernel_matrix(diffs_a, side, variant).tobytes() == expected.tobytes()
        reversed_b = _float32_oracle(a, b[::-1], poly2)
        assert kernel_matrix(-diffs_a, side, variant).tobytes() == reversed_b.tobytes()
        assert kernel_matrix(diffs_a, reversed_side, variant).tobytes() == reversed_b.tobytes()


# 257 and 1 000 columns are split into tiles by BLAS; a one-row block may go
# through a matrix-vector product.
@pytest.mark.parametrize("n_cols", [1, 7, 257, 1000])
@pytest.mark.parametrize("n_rows", [1, 3, 4, 5, _PRODUCT_ROWS - 1, _PRODUCT_ROWS, _PRODUCT_ROWS + 1, 31, 32, 33, 67])
def test_kernel_matrix_equals_the_full_slab_oracle_bit_for_bit(n_rows, n_cols):
    _check_against_the_full_slab_oracle(n_rows, n_cols, 5, 1000 * n_rows + n_cols)


# One feature and ten; a lone entry with ten features is the one case in
# which numpy would not add the features in order by itself.
@pytest.mark.parametrize("n_rows, n_cols, n_dim", [
    (1, 1, 1), (1, 1000, 1), (33, 257, 1), (67, 1000, 1),
    (1, 1, 10), (3, 1, 10), (1, 1000, 10), (67, 257, 10),
])
def test_kernel_matrix_equals_the_full_slab_oracle_in_other_shapes(n_rows, n_cols, n_dim):
    _check_against_the_full_slab_oracle(n_rows, n_cols, n_dim, 7 * n_rows + 11 * n_cols + n_dim)


def test_a_lone_entry_adds_its_features_in_order():
    # One row against one column: the sum over twelve features is the whole
    # reduction, which numpy would otherwise split into partial sums.
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = (rng.random((2, 1, 12)) for _ in range(2))
        expected = full_slab_kernel_matrix(a, b)
        assert kernel_matrix(a[0] - a[1], b[0] - b[1]).tobytes() == expected.tobytes()
        expected = _float32_oracle(a, b)
        assert kernel_matrix(a[0] - a[1], _prepare_side(b[0] - b[1])).tobytes() == expected.tobytes()


def test_kernel_matrix_of_an_empty_collection_is_empty():
    diffs = _edge_value_pairs(np.random.default_rng(3), 4, 3)
    diffs = diffs[0] - diffs[1]
    empty = np.zeros((0, 3))
    for a, b, shape in ((empty, diffs, (0, 4)), (diffs, empty, (4, 0)), (empty, empty, (0, 0))):
        for variant in KernelVariant:
            out = kernel_matrix(a, b, variant)
            assert out.shape == shape
            assert out.dtype == np.float64


# A side prepared once in float64 gives the bytes of the plain array, and
# one prepared in float32, the default, the float32 oracle's values, both in
# a float64 block, whatever the shape: one row, one feature or ten, no
# columns, edge values (negated, an exact zero difference is -0.0).
@pytest.mark.parametrize("n_rows, n_cols, n_dim", [
    (1, 1, 1), (1, 257, 10), (_PRODUCT_ROWS + 1, 1, 10), (67, 1000, 1), (67, 257, 10), (5, 0, 1), (5, 0, 10),
])
def test_a_prepared_side_gives_the_bytes_of_its_array(n_rows, n_cols, n_dim):
    rng = np.random.default_rng(100 * n_rows + 10 * n_cols + n_dim)
    a, b = (_edge_value_pairs(rng, n, n_dim) for n in (n_rows, n_cols))
    diffs_a, diffs_b = a[0] - a[1], b[0] - b[1]
    both_a = (np.concatenate(a), np.concatenate(a[::-1]))  # the pairs, then the reversed pairs
    for cols, pairs_b in ((diffs_b, b), (-diffs_b, b[::-1])):
        side64, side32 = _prepare_side(cols, dtype=np.float64), _prepare_side(cols)
        for variant in KernelVariant:
            for rows, pairs_a in ((diffs_a, a), (np.concatenate([diffs_a, -diffs_a]), both_a)):
                expected = kernel_matrix(rows, cols, variant)
                assert expected.shape == (len(rows), n_cols)
                assert expected.dtype == np.float64
                block = kernel_matrix(rows, side64, variant)
                assert block.dtype == np.float64 and block.tobytes() == expected.tobytes()
                expected = _float32_oracle(pairs_a, pairs_b, variant is KernelVariant.POLY2)
                block = kernel_matrix(rows, side32, variant)
                assert block.dtype == np.float64 and block.tobytes() == expected.tobytes()


def test_a_prepared_side_is_checked_once_when_built():
    good = np.array([[0.5, -1.0], [1.0, 0.0]])
    for bad in (np.nan, 1.5):
        wrong = good.copy()
        wrong[1, 0] = bad
        with pytest.raises(DataFormatError, match=r"^support has values outside \[-1, 1\] or not finite"):
            _prepare_side(wrong, "support")
    with pytest.raises(ValueError, match="diffs_b must be a 2-D array"):
        _prepare_side(np.array([0.1, -0.2]))
    side = _prepare_side(good)
    assert not side.right.flags.writeable
    with pytest.raises(ValueError, match="diffs_a has 3 features, diffs_b has 2"):
        kernel_matrix(np.zeros((1, 3)), side)
    with pytest.raises(ValueError, match="diffs_a has values outside"):
        kernel_matrix(np.full((1, 2), 2.0), side)
    with pytest.raises(ValueError, match="at least one feature"):
        kernel_matrix(np.zeros((2, 0)), _prepare_side(np.zeros((3, 0))))


def test_a_prepared_side_does_not_follow_later_writes_to_its_array():
    rng = np.random.default_rng(6)
    rows, cols = (rng.random((n, 4)) - rng.random((n, 4)) for n in (9, 11))
    for dtype in (np.float32, np.float64):
        diffs = cols.copy()
        side = _prepare_side(diffs, dtype=dtype)
        before = kernel_matrix(rows, side)
        diffs[:] = -cols[::-1]
        assert kernel_matrix(rows, side).tobytes() == before.tobytes()
        assert kernel_matrix(rows, diffs).tobytes() != before.tobytes()


_HASH_KERNELS = """
import hashlib, sys
import numpy as np
from ankerrank.kernel import KernelVariant, _prepare_side, gram_matrix, kernel_matrix
for path in sys.argv[1:]:
    pairs = np.load(path)
    a, b = pairs["a"], pairs["b"]
    rows = np.concatenate([a, -a])
    for out in (kernel_matrix(rows, b, KernelVariant.POLY2), kernel_matrix(rows, _prepare_side(b), KernelVariant.POLY2),
                gram_matrix(b[:2000], KernelVariant.MEAN)):
        print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_kernel_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # Every entry of the block products is exact, in float64 and in float32,
    # so the bytes cannot depend on whether or how BLAS splits a product
    # across threads.
    rng = np.random.default_rng(77)
    paths, expected = [], []
    for n_dim, n_cols in ((10, 2000), (1, 6000)):
        a, b = _edge_value_pairs(rng, 300, n_dim), _edge_value_pairs(rng, n_cols, n_dim)
        diffs_a, diffs_b = a[0] - a[1], b[0] - b[1]
        paths.append(tmp_path / f"diffs-{n_dim}.npz")
        np.savez(paths[-1], a=diffs_a, b=diffs_b)
        rows = np.concatenate([diffs_a, -diffs_a])
        expected += [kernel_matrix(rows, diffs_b, KernelVariant.POLY2),
                     kernel_matrix(rows, _prepare_side(diffs_b), KernelVariant.POLY2),
                     gram_matrix(diffs_b[:2000], KernelVariant.MEAN)]
    expected = [hashlib.sha256(out.tobytes()).hexdigest() for out in expected]
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(ankerrank.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _HASH_KERNELS, *map(str, paths)],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == expected


@pytest.mark.parametrize("m", [1, 3, 4, 5, _PRODUCT_ROWS - 1, _PRODUCT_ROWS, _PRODUCT_ROWS + 1, 31, 32, 33, 67])
def test_gram_matrix_equals_kernel_matrix_bit_for_bit(m):
    # gram_matrix computes the upper triangle and mirrors it; kernel_matrix
    # fills both triangles when its arguments are distinct objects
    pairs = _edge_value_pairs(np.random.default_rng(2000 + m), m, 5)
    diffs = pairs[0] - pairs[1]
    for variant in KernelVariant:
        gram = gram_matrix(diffs, variant)
        assert np.array_equal(gram, kernel_matrix(diffs, diffs.copy(), variant))
        assert np.array_equal(gram, kernel_matrix(diffs, diffs, variant))
        assert np.array_equal(gram, full_slab_kernel_matrix(pairs, pairs, variant is KernelVariant.POLY2))
        reversed_pairs = full_slab_kernel_matrix(pairs, pairs[::-1], variant is KernelVariant.POLY2)
        assert kernel_matrix(-diffs, diffs, variant).tobytes() == reversed_pairs.tobytes()
        assert kernel_matrix(diffs, -diffs, variant).tobytes() == reversed_pairs.tobytes()


def test_gram_matrix_traced_peak_stays_near_the_output_size():
    rng = np.random.default_rng(32)
    diffs = rng.random((1500, 10)) - rng.random((1500, 10))
    tracemalloc.start()
    try:
        out = gram_matrix(diffs, KernelVariant.POLY2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1500, 1500)
    assert peak <= 1.25 * out.nbytes


def test_kernel_matrix_zero_differences_and_extremes():
    # Feature 0: both differences 0 (agree, term 1) / one of them 0 (disagree, term 0).
    # Feature 1: +1 against +1 and -1 against -1 (term 1), +1 against -1 (term 0).
    a = np.array([[0.5, 1.0], [0.5, 0.0]]) - np.array([[0.5, 0.0], [0.5, 1.0]])
    b = np.array([[0.3, 1.0], [0.9, 0.0]]) - np.array([[0.3, 0.0], [0.2, 1.0]])
    expected = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert np.array_equal(kernel_matrix(a, b, KernelVariant.MEAN), expected)
    assert np.array_equal(kernel_matrix(a, b, KernelVariant.POLY2), expected * expected)


def test_kernel_matrix_traced_peak_stays_near_the_output_size():
    rng = np.random.default_rng(31)
    a = rng.random((2000, 10)) - rng.random((2000, 10))
    b = rng.random((500, 10)) - rng.random((500, 10))
    for rows in (a, np.concatenate([a, -a])):
        tracemalloc.start()
        try:
            out = kernel_matrix(rows, b, KernelVariant.POLY2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (len(rows), 500)
        assert peak <= 1.25 * out.nbytes


@pytest.mark.parametrize("position", range(4))
def test_kernel_matrix_rejects_nan(position):
    arrays = [np.full((2, 3), 0.5), np.full((2, 3), 0.25), np.full((3, 3), 0.75), np.full((3, 3), 0.5)]
    arrays[position][1, 2] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        kernel_matrix(arrays[0] - arrays[1], arrays[2] - arrays[3])


# ---------------------------------------------------------------------------
# The float32 prediction block and the bound that kernel_matrix derives

def _float32_bound(n_dim, variant):
    """|K32 - K64| <= c(d) 2**-24, with c(d) = d/2 + 3 for MEAN and d + 6.5 for POLY2."""
    return (n_dim / 2 + 3 if variant is KernelVariant.MEAN else n_dim + 6.5) * 2.0**-24


def _float32_error(rows, cols, variant):
    """max |K32 - K64| of the block against a float32 side of ``cols``, from the float64 oracle."""
    block = kernel_matrix(rows, _prepare_side(cols), variant)
    # A float64 block whose every entry is a float32 value.
    assert block.dtype == np.float64
    assert np.array_equal(block.astype(np.float32).astype(np.float64), block)
    exact = full_slab_kernel_matrix((rows, np.zeros_like(rows)), (cols, np.zeros_like(cols)),
                                    variant is KernelVariant.POLY2)
    return np.max(np.abs(block - exact), initial=0.0)


@pytest.mark.parametrize("n_dim", [1, 3, 10])
def test_a_float32_block_stays_within_the_derived_bound(n_dim):
    rng = np.random.default_rng(300 + n_dim)
    a, b = (_edge_value_pairs(rng, n, n_dim) for n in (200, 300))
    edges_a, edges_b = a[0] - a[1], b[0] - b[1]  # exact zeros and +-1 among them
    # Magnitudes in [1/2, 1), where rounding to float32 moves a value the most.
    halves = rng.uniform(0.5, 1.0, (2, 300, n_dim)) * rng.choice([-1.0, 1.0], (2, 300, n_dim))
    # Differences whose magnitudes underflow or turn subnormal in float32.
    tiny = np.where(rng.random((2, 300, n_dim)) < 0.3,
                    rng.choice([1e-300, -1e-300, 5e-324, 2.0**-150, -1e-45], (2, 300, n_dim)), halves)
    for rows, cols in ((edges_a, edges_b), (halves[0], halves[1]), (edges_a, halves[1]),
                       (tiny[0], tiny[1]), (tiny[0], edges_b), (edges_a, tiny[1])):
        for variant in KernelVariant:
            assert _float32_error(rows, cols, variant) <= _float32_bound(n_dim, variant)


@pytest.mark.parametrize("tiny", [1e-300, -1e-300, 5e-324, 2.0**-150, 1e-45])
def test_a_float32_block_takes_its_sign_classes_from_the_float64_inputs(tiny):
    # |tiny| rounds to 0 or to a float32 subnormal, but tiny keeps its sign
    # class: against an exact zero its term is 0, not the 1 of two zeros.
    u, v = np.array([[tiny, 0.5]]), np.array([[0.0, 0.5]])
    for rows, cols in ((u, v), (v, u)):
        for variant, expected in ((KernelVariant.MEAN, 0.5), (KernelVariant.POLY2, 0.25)):
            assert kernel_matrix(rows, cols, variant)[0, 0] == expected
            assert kernel_matrix(rows, _prepare_side(cols), variant)[0, 0] == expected
    # Two tiny values of one class are a term of 1 on both paths.
    assert kernel_matrix(u, _prepare_side(u))[0, 0] == kernel_matrix(u, u)[0, 0] == 1.0


def test_a_float32_block_moves_decisions_and_preferences_within_their_bounds():
    model = anker_fit(make_linear_dataset(3, 8, 3, seed=60), C=1.0, seed=61)
    svm, n_items = model.svm, 30
    query = np.random.default_rng(62).random((n_items, 3))
    rows, cols = np.triu_indices(n_items, k=1)
    pairs = np.concatenate([query[rows] - query[cols], query[cols] - query[rows]])
    d32 = decision_values(svm, kernel_matrix(pairs, model._support_side, model.variant))
    d64 = decision_values(svm, kernel_matrix(pairs, model.support_diffs, model.variant))
    weight = np.sum(np.abs(svm.alpha[svm.support] * svm.labels[svm.support]))
    moved = np.max(np.abs(d32 - d64))
    # The entry bound weighted by sum |alpha y|, plus the rounding of the two float64 sums.
    assert 0.0 < moved <= weight * (_float32_bound(3, model.variant) + svm.support.size * 2.0**-52)
    fwd, bwd = platt_prob(svm.platt, d64).reshape(2, -1)
    reference = reciprocal_preferences((1.0 + (fwd - bwd)) / 2.0, n_items)
    # Platt's slope is at most |a|/4; the float64 steps add a few units of 2**-53.
    changed = np.max(np.abs(preference_matrix(model, query) - reference))
    assert 0.0 < changed <= abs(svm.platt.a) / 4.0 * moved + 2.0**-50
