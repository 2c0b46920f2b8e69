import tracemalloc

import numpy as np
import pytest

from ankerrank.kernel import (
    _BLOCK_ROWS,
    KernelVariant,
    boolean_proportion,
    gram_matrix,
    kernel_matrix,
    proportion_degree,
)
from oracles import full_slab_kernel_matrix

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


def test_variant_parsing():
    assert KernelVariant.from_string("mean") is KernelVariant.MEAN
    assert KernelVariant.from_string("poly2") is KernelVariant.POLY2
    with pytest.raises(ValueError):
        KernelVariant.from_string("rbf")


def _edge_value_pairs(rng, n, d):
    """Random pairs whose differences include exact zeros and the +-1 extremes."""
    first = rng.random((n, d))
    second = rng.random((n, d))
    kind = rng.integers(0, 5, size=(n, d))
    second[kind == 0] = first[kind == 0]  # difference exactly 0
    first[kind == 1], second[kind == 1] = 1.0, 0.0  # difference +1
    first[kind == 2], second[kind == 2] = 0.0, 1.0  # difference -1
    return first, second


@pytest.mark.parametrize("n_cols", [1, 7])
@pytest.mark.parametrize("n_rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
def test_kernel_matrix_equals_the_full_slab_oracle_bit_for_bit(n_rows, n_cols):
    rng = np.random.default_rng(1000 * n_rows + n_cols)
    a = _edge_value_pairs(rng, n_rows, 5)
    b = _edge_value_pairs(rng, n_cols, 5)
    for variant in KernelVariant:
        expected = full_slab_kernel_matrix(a, b, poly2=variant is KernelVariant.POLY2)
        assert np.array_equal(kernel_matrix(a[0] - a[1], b[0] - b[1], variant), expected)


@pytest.mark.parametrize("m", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
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
    tracemalloc.start()
    try:
        out = kernel_matrix(a, b, KernelVariant.POLY2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2000, 500)
    assert peak <= 1.25 * out.nbytes


@pytest.mark.parametrize("position", range(4))
def test_kernel_matrix_rejects_nan(position):
    arrays = [np.full((2, 3), 0.5), np.full((2, 3), 0.25), np.full((3, 3), 0.75), np.full((3, 3), 0.5)]
    arrays[position][1, 2] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        kernel_matrix(arrays[0] - arrays[1], arrays[2] - arrays[3])
