import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rank, rref as oracle_rref
from twistlab.errors import Overflow
from twistlab import gf
from twistlab.gf import Echelon, mm, mm_panels, nullspace, rref


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mm_matches_integer_product(p):
    rng = np.random.default_rng(7)
    a = random_matrix(rng, 8, 11, p)
    b = random_matrix(rng, 11, 5, p)
    assert np.array_equal(mm(a, b, p), (a @ b) % p)


def test_mm_huge_inner_dimension_chunks_exactly():
    # 3,000 * 6^2 is below 2^24: the float32 product is exact without chunks
    p = 7
    rng = np.random.default_rng(1)
    a = random_matrix(rng, 2, 3000, p)
    b = random_matrix(rng, 3000, 2, p)
    assert np.array_equal(mm(a, b, p), (a.astype(object) @ b.astype(object) % p).astype(np.int64))


def test_mm_float64_path_is_exact():
    p, inner = 127, 1100  # 1,100 * 126^2 is past 2^24, so the product runs in float64
    rng = np.random.default_rng(5)
    a = rng.integers(-p + 1, p, size=(3, inner))
    b = rng.integers(-p + 1, p, size=(inner, 4))
    want = (a.astype(object) @ b.astype(object)) % p
    assert np.array_equal(mm(a, b, p), want.astype(np.int64))


def _edge_operands(p, inner, seed):
    # rows and columns all +(p-1), all -(p-1) and mixed signs, so the sums
    # reach +-inner*(p-1)^2 as well as values in between
    rng = np.random.default_rng(seed)
    top = p - 1
    signs = [-top, top]
    a = np.vstack([np.full(inner, top), np.full(inner, -top), rng.choice(signs, size=(4, inner))])
    b = np.hstack([np.full((inner, 1), top), np.full((inner, 1), -top),
                   rng.choice(signs, size=(inner, 3))])
    return a.astype(np.int64), b.astype(np.int64)


@pytest.mark.parametrize(
    "p, inner",
    [
        (31, (2**24 - 1) // 30**2),  # float32, sums up to 2^24 - 1
        (127, (2**24 - 1) // 126**2),  # float32, sums up to 2^24 - 1
        (127, 3 * (2**24 // 126**2 + 1)),  # float64, sums past 3 * 2^24
    ],
)
def test_mm_reduces_sums_at_the_float_edges_exactly(p, inner):
    a, b = _edge_operands(p, inner, seed=p + inner)
    a_before, b_before = a.copy(), b.copy()
    got = mm(a, b, p)
    exact = a.astype(object) @ b.astype(object)
    assert abs(exact[0, 0]) == abs(exact[0, 1]) == inner * (p - 1) ** 2
    assert (abs(exact[0, 0]) >= 2**24) == (inner * (p - 1) ** 2 >= 2**24)
    assert got.dtype == np.int64
    assert got.min() >= 0 and got.max() < p
    assert np.array_equal(got, (exact % p).astype(np.int64))
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def test_mm_refuses_a_product_past_the_float64_mantissa():
    p, inner = 1_000_003, 10_000
    with pytest.raises(Overflow):
        mm(np.ones((1, inner), dtype=np.int64), np.ones((inner, 1), dtype=np.int64), p)


@pytest.mark.parametrize("rows, inner, width", [(3, 4, 1000), (5, 300, 700), (2, 2**17, 3)])
def test_mm_panels_tile_the_product_and_cast_the_left_operand_once(monkeypatch, rows, inner, width):
    p = 5
    rng = np.random.default_rng(rows)
    a = random_matrix(rng, rows, inner, p)
    b = random_matrix(rng, inner, width, p).astype(np.int8) - 2  # signs and residues, as B
    lefts = []

    def recorded(left, panel, q):
        lefts.append(left)
        return mm(left, panel, q)

    monkeypatch.setattr(gf, "mm", recorded)
    panels = list(mm_panels(a, b, p))
    step = max(gf._PANEL_FLOOR, gf._PANEL_ENTRIES // inner)
    assert [cols for cols, _ in panels] == [
        slice(s, min(s + step, width)) for s in range(0, width, step)
    ]
    assert np.array_equal(np.hstack([panel for _, panel in panels]), mm(a, b, p))
    assert lefts[0].dtype == np.float32 and all(left is lefts[0] for left in lefts)
    assert len(lefts) == len(panels) == -(-width // step)


def test_mm_panels_share_the_mantissa_check_with_mm(monkeypatch):
    p, inner = 1_000_003, 10_000
    with pytest.raises(Overflow):
        next(mm_panels(np.ones((1, inner), dtype=np.int64), np.ones((inner, 1), dtype=np.int64), p))
    dtypes = []

    def recorded(left, panel, q):
        dtypes.append(left.dtype)
        return mm(left, panel, q)

    monkeypatch.setattr(gf, "mm", recorded)
    for inner in (2**24 // 126**2, 2**24 // 126**2 + 1):  # sums up to 2^24 - 1, then past it
        a, b = np.full((1, inner), 126), np.full((inner, 2), 126)
        (_, panel), = mm_panels(a, b, 127)
        assert panel.tolist() == [[inner * 126**2 % 127] * 2]
    assert dtypes == [np.float32, np.float64]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 127])
def test_kernels_take_entries_in_the_open_interval_around_zero(p):
    # signs, residues and differences of residues give what their residues give
    rng = np.random.default_rng(23 + p)
    for dtype in (np.int8, np.int64):
        a = rng.integers(-p + 1, p, size=(6, 9)).astype(dtype)
        b = rng.integers(-p + 1, p, size=(9, 4)).astype(dtype)
        a_mod, b_mod = np.mod(a.astype(np.int64), p), np.mod(b.astype(np.int64), p)
        assert np.array_equal(mm(a, b, p), mm(a_mod, b_mod, p))
        assert np.array_equal(rref(a, p)[0], rref(a_mod, p)[0])
        assert np.array_equal(nullspace(a, p), nullspace(a_mod, p))
        ech, ech_mod = Echelon(p, 9), Echelon(p, 9)
        ech.add(a[:3])
        ech_mod.add(a_mod[:3])
        assert np.array_equal(ech.reduce(a), ech_mod.reduce(a_mod))
        ech.add(a)
        ech_mod.add(a_mod)
        assert np.array_equal(ech.basis, ech_mod.basis)
        for out in (mm(a, b, p), rref(a, p)[0], nullspace(a, p), ech.reduce(a), ech.basis):
            assert out.min(initial=0) >= 0 and out.max(initial=0) < p


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


def _shaped(rng, rows, cols, rank_cap, p, dtype):
    """Random rows x cols matrix of rank at most rank_cap, entries in (-p, p).

    Each nonzero residue r is written as r or r - p at random, so the
    library sees residues and their negative representatives alike.
    """
    inner = min(rank_cap, rows, cols)
    res = mm(random_matrix(rng, rows, inner, p), random_matrix(rng, inner, cols, p), p)
    flip = (res > 0) & rng.integers(0, 2, size=res.shape).astype(bool)
    return np.where(flip, res - p, res).astype(dtype)


_SHAPES = {
    "tall": (300, 180, 180),  # heads of 128 and 52 new pivots
    "tall rank-deficient": (400, 150, 60),  # the first head holds the whole rank
    "wide": (30, 260, 30),
    "wide rank-deficient": (140, 260, 70),
    "square": (200, 200, 200),
    "0-row": (0, 7, 0),
    "0-column": (5, 0, 0),
    "all-zero": (150, 9, 0),
}


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("p", [2, 3, 5, 127])
@pytest.mark.parametrize("shape", list(_SHAPES))
def test_fronts_match_the_per_column_oracle(shape, p, dtype):
    rows, cols, rank_cap = _SHAPES[shape]
    rng = np.random.default_rng([rows, cols, p, np.dtype(dtype).itemsize])
    a = _shaped(rng, rows, cols, rank_cap, p, dtype)
    before = a.copy()
    want, want_piv = oracle_rref(a, p)
    got, piv = rref(a, p)
    assert got.dtype == np.int64 and got.shape == (rows, cols)
    assert np.array_equal(got, want) and piv == want_piv
    want_kernel = _loop_kernel(want, want_piv, cols, p)
    assert np.array_equal(nullspace(a, p), want_kernel)
    # the same rows fed in uneven batches, the second one cut mid-head
    ech = Echelon(p, cols)
    added = sum(ech.add(a[lo:hi]) for lo, hi in [(0, 7), (7, 190), (190, rows)])
    assert added == ech.rank == len(want_piv)
    assert ech.pivots == want_piv
    assert np.array_equal(ech.basis, want[: len(want_piv)])
    assert np.array_equal(ech.kernel(), want_kernel)
    assert np.array_equal(a, before)
