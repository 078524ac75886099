import itertools
import sys
from dataclasses import fields
from math import factorial

import numpy as np
import pytest

from twistlab import specht
from twistlab.criteria import h0_specht_nonzero
from twistlab.errors import NotPrime, Overflow, SizeMismatch, TooLarge, TwistlabError
from twistlab.gf import Echelon, mm, nullspace, rank, rref, rref_with_transform
from twistlab.partitions import Partition, enumerate_partitions
from twistlab.specht import (
    _spin_basis,
    _spin_hom,
    build_specht,
    end_ring,
    h0_dim,
    hom_dim,
    hom_space,
    hom_space_direct,
    invariants_dim,
    is_decomposable,
)


def hook_product(lam):
    parts = lam.parts
    conj = lam.conjugate().parts
    out = 1
    for i, row in enumerate(parts):
        for j in range(row):
            out *= row - j + conj[j] - i - 1
    return out


def test_dimension_matches_hook_length_formula():
    for d in range(1, 8):
        for lam in enumerate_partitions(d, "all"):
            expected = factorial(d) // hook_product(lam)
            assert build_specht(lam, 3).dim == expected


def test_dimension_is_independent_of_the_prime():
    lam = Partition((3, 2, 1))
    dims = {build_specht(lam, p).dim for p in (2, 3, 5, 7)}
    assert dims == {16}


def test_generators_are_invertible_permutation_actions():
    module = build_specht(Partition((3, 2)), 3)
    for g in module.generators():
        assert g.shape == (module.dim, module.dim)
        assert rank(np.asarray(g), 3) == module.dim


def _same_span(first, second, p):
    if len(first) != len(second):
        return False
    if not first:
        return True
    rows_a = np.array([f.ravel() for f in first])
    rows_b = np.array([f.ravel() for f in second])
    both = rank(np.vstack([rows_a, rows_b]), p)
    return rank(rows_a, p) == rank(rows_b, p) == both == len(first)


def test_hom_methods_agree_on_small_pairs():
    cases = [(p, d) for p in (2, 3, 5) for d in range(1, 6)] + [(2, 6)]
    for p, d in cases:
        mods = [build_specht(lam, p) for lam in enumerate_partitions(d, "all")]
        for a in mods:
            for b in mods:
                assert _same_span(hom_space(a, b), hom_space_direct(a, b), p), (a, b)


def _one_at_a_time_spin(p, gens):
    """Reference: spin e_0 vector by vector, testing each image on its own."""
    n = gens[0].shape[0]
    seed = np.zeros(n, dtype=np.int64)
    seed[0] = 1
    acc = Echelon(p, n)
    acc.add(seed[None, :])
    vecs, origin, spare, spare_img = [seed], [-1], [], []
    i = 0
    while i < len(vecs):
        for g in (0, 1):
            w = mm(vecs[i][None, :], gens[g], p)[0]
            if len(vecs) < n and acc.add(w[None, :]):
                vecs.append(w)
                origin.append(2 * i + g)
            else:
                spare.append(2 * i + g)
                spare_img.append(w)
        i += 1
    return np.array(vecs), np.array(origin), np.array(spare), np.array(spare_img)


def test_level_spin_matches_one_at_a_time_spin():
    cases = [
        (lam, p) for p in (2, 3, 5) for d in range(1, 7) for lam in enumerate_partitions(d, "all")
    ]
    cases += [(Partition((4, 3, 1, 1)), 2), (Partition((6, 1, 1, 1)), 3)]
    for lam, p in cases:
        gens = build_specht(lam, p).generators()
        got = _spin_basis(p, gens)
        want = _one_at_a_time_spin(p, gens)
        assert all(np.array_equal(x, y) for x, y in zip(got, want)), (lam, p)


def test_hom_needs_a_module_generated_by_its_first_basis_vector():
    # two copies of the trivial module: e_0 spans only the first one
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(TwistlabError, match="not generated by basis vector 0"):
        _spin_hom(3, [eye, eye], [eye, eye])


@pytest.mark.parametrize("lam", [(8, 1, 1, 1), (10, 1, 1, 1)])
def test_end_ring_never_builds_the_spin_stack(monkeypatch, lam):
    # the images of every candidate on every spin vector would be a
    # dim x dim x dim stack; no product may come near that size
    module = build_specht(Partition(lam), 2)
    n = module.dim
    module.generators()
    largest = []

    def watched(a, b, p):
        largest.append(max(np.asarray(a).size, np.asarray(b).size))
        return mm(a, b, p)

    monkeypatch.setattr(specht, "mm", watched)
    assert len(end_ring(module)) == 2
    assert max(largest) < n**3 / 8


def test_every_product_operand_holds_entries_in_the_open_interval(monkeypatch):
    # the gf contract: operands are residues, signs or differences of
    # residues, so no caller needs to reduce them before a product
    checked = []

    def guarded(a, b, p):
        for operand in (a, b):
            operand = np.asarray(operand)
            assert operand.size == 0 or np.abs(operand).max() < p
        checked.append(p)
        return mm(a, b, p)

    for name, module in list(sys.modules.items()):
        if name == "twistlab" or name.startswith("twistlab."):
            for key, value in list(vars(module).items()):
                if value is mm:
                    monkeypatch.setattr(module, key, guarded)
    assert len(end_ring(build_specht(Partition((4, 3, 1, 1)), 2))) == 2
    assert len(end_ring(build_specht(Partition((7, 1, 1)), 3))) == 1
    for p in (2, 3, 5):
        for d in range(1, 8):
            for lam in enumerate_partitions(d, "all"):
                assert h0_dim(lam, p) == int(h0_specht_nonzero(lam, p)), (lam, p)
    assert set(checked) == {2, 3, 5}


def test_hom_requires_matching_symmetric_group():
    a = build_specht(Partition((3, 1)), 3)
    b = build_specht(Partition((3, 2)), 3)
    with pytest.raises(SizeMismatch):
        hom_dim(a, b)


def test_hook_end_ring_dimensions_at_p2():
    assert hom_dim(build_specht(Partition((3, 1, 1)), 2), build_specht(Partition((3, 1, 1)), 2)) == 2
    assert len(end_ring(build_specht(Partition((7, 1, 1)), 2))) == 2


def test_small_decomposability_calls():
    assert is_decomposable(build_specht(Partition((5, 1, 1)), 2))
    assert not is_decomposable(build_specht(Partition((2, 1)), 3))
    assert not is_decomposable(build_specht(Partition((3, 1)), 2))


def test_decomposability_is_seed_independent_when_enumerating():
    module = build_specht(Partition((5, 1, 1)), 2)
    assert is_decomposable(module, seed=0) == is_decomposable(module, seed=99)


def solve_right(a, b, p):
    """One solution x of a @ x == b mod p, or raise if inconsistent."""
    arr = np.mod(np.asarray(a, dtype=np.int64), p)
    rhs = np.mod(np.asarray(b, dtype=np.int64), p)
    red, piv = rref(np.hstack([arr, rhs]), p)
    n = arr.shape[1]
    if any(c >= n for c in piv):
        raise np.linalg.LinAlgError("inconsistent system")
    x = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    for i, c in enumerate(piv):
        x[c] = red[i, n:]
    return x


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_right_finds_a_preimage(p):
    rng = np.random.default_rng(5)
    a = rng.integers(0, p, size=(6, 6), dtype=np.int64)
    x = rng.integers(0, p, size=(6, 2), dtype=np.int64)
    b = mm(a, x, p)
    got = solve_right(a, b, p)
    assert np.array_equal(mm(a, got, p), b)


def test_solve_right_reports_inconsistency():
    a = np.array([[1, 0], [0, 0]], dtype=np.int64)
    b = np.array([[0], [1]], dtype=np.int64)
    with pytest.raises(np.linalg.LinAlgError):
        solve_right(a, b, 3)


def sign_dual_check(lam, p):
    """Verify sign-twisted S^lambda is equivalent to the dual of S^lambda'.

    Builds both modules, twists one set of generator matrices by the sign
    character, inverts and transposes the other, and looks for an invertible
    equivariant map between them.  This is the isomorphism the forced sign
    functional of h0_dim rests on.
    """
    a = build_specht(lam, p)
    b = build_specht(lam.conjugate(), p)
    signs = a.generator_signs()
    twisted = [np.mod(signs[k] * a.generators()[k], p) for k in (0, 1)]
    eye = np.eye(b.dim, dtype=np.int64)
    dual = [solve_right(b.generators()[k], eye, p).T for k in (0, 1)]
    homs = _spin_hom(p, twisted, dual)
    if not homs:
        return False
    for f in homs:
        if rank(f, p) == a.dim:
            return True
    combos = (
        itertools.product(range(p), repeat=len(homs))
        if p ** len(homs) <= 4096
        else (tuple(np.random.default_rng(s).integers(0, p, len(homs))) for s in range(200))
    )
    for coeffs in combos:
        theta = np.zeros((a.dim, b.dim), dtype=np.int64)
        for c, mat in zip(coeffs, homs):
            theta = theta + int(c) * mat
        theta %= p
        if theta.any() and rank(theta, p) == a.dim:
            return True
    return False


def test_sign_dual_relation_on_small_shapes():
    for p in (2, 3, 5):
        for d in (3, 4, 5):
            for lam in enumerate_partitions(d, "all"):
                assert sign_dual_check(lam, p)


def _echelon_fixed_dim(module):
    """Oracle: dim minus the rank of the moved vectors g e_t - e_t of both generators.

    A vector x of polytabloid coordinates is fixed exactly when x has zero
    product with every column of the moved matrices, so the fixed space is
    the kernel of their stacked transposes.
    """
    acc = Echelon(module.p, module.dim)
    for k in (0, 1):
        moved = np.mod(module._permuted_basis(k) - module.basis, module.p)
        acc.add(moved.T)
    return module.dim - acc.rank


SMALL_CASES = [
    (lam, p) for p in (2, 3, 5) for d in range(1, 8) for lam in enumerate_partitions(d, "all")
]


def test_invariants_match_congruence_criterion():
    for lam, p in SMALL_CASES:
        module = build_specht(lam, p)
        fixed = _echelon_fixed_dim(module)
        assert invariants_dim(module) == fixed, (lam, p)
        assert (fixed > 0) == h0_specht_nonzero(lam, p), (lam, p)


def _sign_nullspace_h0(lam, p):
    """Oracle: the dimension of Hom(S^lambda', sgn), by row-reducing its conditions.

    A functional x on S^lambda' is sign-equivariant when G x = sgn(g) x for
    both generator matrices G; the stacked conditions are solved outright.
    """
    module = build_specht(lam.conjugate(), p)
    eye = np.eye(module.dim, dtype=np.int64)
    blocks = [
        np.mod(gen - sign * eye, p)
        for gen, sign in zip(module.generators(), module.generator_signs())
    ]
    return nullspace(np.vstack(blocks), p).shape[0]


def test_h0_dim_agrees_with_direct_invariants():
    for lam, p in SMALL_CASES:
        got = h0_dim(lam, p)
        assert got == _echelon_fixed_dim(build_specht(lam, p)), (lam, p)
        assert got == _sign_nullspace_h0(lam, p), (lam, p)


def test_h0_dim_needs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("h0_dim row-reduced a system")

    monkeypatch.setattr(specht, "nullspace", refuse)
    for p in (2, 3):
        for d in range(1, 9):
            for lam in enumerate_partitions(d, "all"):
                assert h0_dim(lam, p) == int(h0_specht_nonzero(lam, p)), (lam, p)


def _per_tableau_polytabloids(parts):
    """Reference: each e_t built on its own, one column of t at a time."""
    sk = specht._skeleton(parts)
    d = sk.d
    powers = max(len(parts), 1) ** np.arange(d, dtype=np.int64)

    def index_of(assign):
        return np.searchsorted(sk.codes, assign.astype(np.int64) @ powers)

    tableaux = specht.standard_tableaux(parts)
    n_cols = parts[0] if parts else 0
    b_rows = []
    for t in tableaux:
        assign = np.zeros((1, d), dtype=np.int8)
        sign = np.ones(1, dtype=np.int8)
        for j in range(n_cols):
            column = np.array([t[i][j] for i in range(len(parts)) if parts[i] > j])
            h = len(column)
            perms = np.array(list(itertools.permutations(range(h))), dtype=np.intp)
            parity = specht._perm_parity(perms)
            k_prev = assign.shape[0]
            assign = np.repeat(assign, len(perms), axis=0)
            sign = np.repeat(sign, len(perms)) * np.tile(parity, k_prev)
            hands = np.tile(perms, (k_prev, 1))
            here = np.arange(assign.shape[0])
            for slot in range(h):
                # column j occupies the topmost h rows, so slot == row index
                assign[here, column[hands[:, slot]]] = slot
        vec = np.zeros(sk.m, dtype=np.int8)
        np.add.at(vec, index_of(assign), sign)
        b_rows.append(vec)
    rows_of = np.zeros((len(tableaux), d), dtype=np.int8)
    for k, t in enumerate(tableaux):
        for i, row in enumerate(t):
            rows_of[k, row] = i
    return np.array(b_rows, dtype=np.int8), index_of(rows_of)


def test_one_product_polytabloids_match_the_per_tableau_loop():
    shapes = [lam.parts for d in range(9) for lam in enumerate_partitions(d, "all")]
    for parts in shapes + [(3,) + (1,) * 6, (9,) + (1,) * 4]:
        b_signed, std = _per_tableau_polytabloids(parts)
        sk = specht._skeleton(parts)
        assert sk.b_signed.dtype == b_signed.dtype and np.array_equal(sk.b_signed, b_signed), parts
        assert sk.std.dtype == std.dtype and np.array_equal(sk.std, std), parts


def test_tableau_signs_move_the_first_tableau():
    # pi_s sends the entry in each cell of the first tableau to the entry of s
    for d in range(1, 8):
        for lam in enumerate_partitions(d, "all"):
            tableaux = specht.standard_tableaux(lam.parts)
            first = sum(tableaux[0], [])
            want = []
            for t in tableaux:
                pi = dict(zip(first, sum(t, [])))
                # parity by counting the cycles of pi
                seen, cycles = set(), 0
                for start in pi:
                    if start not in seen:
                        cycles += 1
                        while start not in seen:
                            seen.add(start)
                            start = pi[start]
                want.append(1 if (d - cycles) % 2 == 0 else -1)
            assert specht._skeleton(lam.parts).tableau_signs.tolist() == want, lam


def test_skeleton_nbytes_counts_every_array():
    sk = specht._skeleton((3, 2, 1))
    values = [getattr(sk, field.name) for field in fields(sk)]
    flat = [v for value in values for v in (value if isinstance(value, tuple) else (value,))]
    arrays = [a for a in flat if isinstance(a, np.ndarray)]
    assert len(arrays) == 6  # codes, both sigma, b_signed, std, tableau_signs
    assert sk.nbytes == sum(a.nbytes for a in arrays)


def test_std_block_generators_match_full_basis_elimination():
    for p in (2, 3, 5):
        for d in range(1, 7):
            for lam in enumerate_partitions(d, "all"):
                module = build_specht(lam, p)
                _, trans, piv = rref_with_transform(module.basis, p)
                for k, gen in enumerate(module.generators()):
                    want = mm(module._permuted_basis(k)[:, piv], trans, p)
                    assert np.array_equal(gen, want), (lam, p, k)


def test_standard_tabloid_block_is_unitriangular():
    for d in range(1, 9):
        for lam in enumerate_partitions(d, "all"):
            for p in (2, 3, 5):
                module = build_specht(lam, p)
                block = module.basis[:, module._sk.std]
                assert np.all(np.diag(block) == 1), (lam, p)
                assert np.array_equal(np.triu(block), block), (lam, p)
                assert rank(block, p) == module.dim, (lam, p)


def test_coords_rejects_a_row_outside_the_module():
    module = build_specht(Partition((2, 1)), 3)
    outside = np.zeros((1, module.perm_dim), dtype=np.int64)
    outside[0, module._sk.std[0]] = 1
    with pytest.raises(TwistlabError, match="outside the module"):
        module.coords(outside)


def _record_skeleton_shapes(monkeypatch):
    """Route every skeleton lookup through a recorder; returns the shapes asked for."""
    asked = set()
    cache = specht._skeleton

    def recording(parts):
        asked.add(parts)
        return cache(parts)

    monkeypatch.setattr(specht, "_skeleton", recording)
    cache.cache_clear()
    return cache, asked


def test_skeleton_cache_misses_once_per_shape_with_the_prime_outermost(monkeypatch):
    cache, asked = _record_skeleton_shapes(monkeypatch)
    for p in (2, 3, 5):
        for d in range(1, 7):
            for lam in enumerate_partitions(d, "all"):
                h0_dim(lam, p)
    assert cache.cache_info().misses == len(asked)


def test_tiny_skeleton_budget_evicts_and_keeps_answers(monkeypatch):
    cases = [(lam, p) for p in (2, 3) for d in range(1, 7) for lam in enumerate_partitions(d)]
    want = [h0_dim(lam, p) for lam, p in cases]
    monkeypatch.setattr(specht, "_SKELETON_CACHE_BYTES", 2_000)
    cache, asked = _record_skeleton_shapes(monkeypatch)
    assert [h0_dim(lam, p) for lam, p in cases] == want
    info = cache.cache_info()
    assert info.currsize <= 2_000
    assert info.misses > len(asked)


def test_h0_dim_reaches_thin_shapes_through_the_conjugate():
    lam = Partition((2, 1, 1, 1, 1, 1, 1, 1))
    with pytest.raises(TooLarge):
        build_specht(lam, 2)
    assert h0_dim(lam, 2) == 0
    assert h0_dim(Partition((1,) * 10), 2) == 1
    assert h0_dim(Partition((1,) * 10), 3) == 0


@pytest.mark.parametrize("parts", [(1, 1, 1, 1), (3, 1, 1, 1, 1)])
@pytest.mark.parametrize("broken", [0, 1])
def test_conjugate_h0_route_checks_both_generators(monkeypatch, parts, broken):
    # the forced functional must pass (1 2) and the d-cycle; with either
    # generator matrix zeroed it passes neither, so H^0 falls to 0
    lam, p = Partition(parts), 2
    assert specht.perm_module_dim(lam) > specht.perm_module_dim(lam.conjugate())
    assert h0_dim(lam, p) == 1
    generators = specht.SpechtModule.generators

    def zero_one(module):
        gens = [g.copy() for g in generators(module)]
        gens[broken][:] = 0
        return gens

    monkeypatch.setattr(specht.SpechtModule, "generators", zero_one)
    assert h0_dim(lam, p) == 0


def test_prime_must_be_prime_and_fit_int8():
    assert build_specht(Partition((2, 1)), 127).dim == 2
    with pytest.raises(NotPrime):
        build_specht(Partition((2, 1)), 4)
    with pytest.raises(Overflow):
        build_specht(Partition((2, 1)), 131)


def test_dimension_cap_env_override(monkeypatch):
    monkeypatch.setenv("TWISTLAB_MAX_DIM", "10")
    with pytest.raises(TooLarge):
        build_specht(Partition((4, 3, 2, 1)), 2)
    monkeypatch.setenv("TWISTLAB_MAX_DIM", "100000")
    assert build_specht(Partition((4, 3, 2, 1)), 2).dim == 768
