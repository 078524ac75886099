import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistlab.gf import Echelon, mm, nullspace, rank, rref


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mm_matches_integer_product(p):
    rng = np.random.default_rng(7)
    a = random_matrix(rng, 8, 11, p)
    b = random_matrix(rng, 11, 5, p)
    assert np.array_equal(mm(a, b, p), (a @ b) % p)


def test_mm_huge_inner_dimension_chunks_exactly():
    p = 7
    rng = np.random.default_rng(1)
    a = random_matrix(rng, 2, 3000, p)
    b = random_matrix(rng, 3000, 2, p)
    assert np.array_equal(mm(a, b, p), (a.astype(object) @ b.astype(object) % p).astype(np.int64))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_reproduces_row_space(p):
    rng = np.random.default_rng(3)
    a = random_matrix(rng, 6, 9, p)
    r, pivots = rref(a, p)
    assert len(pivots) == rank(a, p)
    # every original row must reduce to zero against the echelon rows
    ech = Echelon(p, 9)
    ech.add(r[: len(pivots)])
    assert not ech.reduce(a).any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_annihilates(p):
    rng = np.random.default_rng(11)
    a = random_matrix(rng, 7, 10, p)
    basis = nullspace(a, p)
    assert basis.shape[0] == 10 - rank(a, p)
    if basis.shape[0]:
        assert not mm(a, basis.T, p).any()
        assert rank(basis, p) == basis.shape[0]


def test_echelon_kernel_matches_nullspace():
    rng = np.random.default_rng(13)
    a = random_matrix(rng, 5, 8, 3)
    ech = Echelon(3, 8)
    ech.add(a)
    kern = ech.kernel()
    null = nullspace(a, 3)
    assert kern.shape == null.shape
    assert not mm(a, kern.T, 3).any()


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=5), st.data())
def test_rank_is_transpose_invariant(rows, data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    cols = data.draw(st.integers(min_value=0, max_value=5))
    cells = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=p - 1),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    a = np.array(cells, dtype=np.int64).reshape(rows, cols)
    assert rank(a, p) == rank(a.T, p)


def _loop_kernel(red, piv, cols, p):
    """Reference: the free-column kernel filled entry by entry."""
    free = [c for c in range(cols) if c not in set(piv)]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        out[k, f] = 1
        for i, c in enumerate(piv):
            out[k, c] = (-int(red[i, f])) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernels_match_the_loop_reference_bit_for_bit(p):
    rng = np.random.default_rng(17 + p)
    for rows, cols in [(0, 4), (3, 0), (4, 4), (5, 12), (12, 5), (9, 9)]:
        a = random_matrix(rng, rows, cols, p)
        if rows and cols:
            a[:, rng.integers(0, cols)] = 0  # a zero column is always free
        red, piv = rref(a, p)
        got = nullspace(a, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, _loop_kernel(red, piv, cols, p))
        ech = Echelon(p, cols)
        ech.add(a)
        kern = ech.kernel()
        assert np.array_equal(kern, _loop_kernel(ech.basis, ech.pivots, cols, p))
        assert np.array_equal(kern, got)
