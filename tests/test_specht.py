import functools
import itertools
import sys
import tracemalloc
from dataclasses import fields
from math import comb, factorial

import numpy as np
import pytest

from conftest import rank, rref_with_transform
from twistlab import gf, specht
from twistlab.criteria import h0_specht_nonzero
from twistlab.errors import NotPrime, Overflow, SizeMismatch, TooLarge, TwistlabError
from twistlab.gf import Echelon, mm, nullspace, rref
from twistlab.partitions import Partition, enumerate_partitions
from twistlab.specht import (
    _code_powers,
    _column_relations,
    _garnir_relations,
    _index_of,
    _kron_hom,
    _seed_space,
    _skeleton,
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


def _hom_pairs(p, max_degree, max_product=2500):
    """Every pair of Specht modules of one degree up to max_degree, both orders."""
    for d in range(1, max_degree + 1):
        mods = [build_specht(lam, p) for lam in enumerate_partitions(d, "all")]
        for a in mods:
            for b in mods:
                if a.dim * b.dim <= max_product:
                    yield a, b


@functools.cache
def _oracle_dim(p, lam, mu):
    return len(hom_space_direct(build_specht(lam, p), build_specht(mu, p)))


def test_hom_dim_after_the_column_sign_cut_matches_the_kronecker_oracle():
    # the Kronecker solver imposes no cut, so a wrong sign shows up here
    checked = 0
    for p in (2, 3, 5):
        for a, b in _hom_pairs(p, 6):
            assert hom_dim(a, b) == _oracle_dim(p, a.lam, b.lam), (a, b)
            checked += 1
    assert checked == 627


def test_column_and_garnir_relations_leave_exactly_hom():
    # the presentation is complete: no seed survives that is not an image of e_t
    checked = 0
    for p in (2, 3, 5):
        for a, b in _hom_pairs(p, 6):
            assert _seed_space(a, b).shape[0] == _oracle_dim(p, a.lam, b.lam), (a, b)
            checked += 1
    assert checked == 627


def test_every_relation_kills_e_t_over_the_integers():
    # (sigma v){T} = v(sigma^-1 {T}) for any permutation sigma, with no
    # appeal to the terms being involutions
    for d in range(1, 9):
        for lam in enumerate_partitions(d, "all"):
            sk = _skeleton(lam.parts)
            n_rows, powers = _code_powers(lam.parts)
            tabloids = sk.codes[:, None] // powers % n_rows
            e_t = sk.b_signed[0].astype(np.int64)
            columns = list(_column_relations(lam.parts))
            garnir = list(_garnir_relations(lam.parts))
            heights = lam.conjugate().parts
            assert len(columns) == d - lam[0]
            assert len(garnir) == d - heights[0]
            for relation in columns + garnir:
                total = np.zeros(sk.m, dtype=np.int64)
                for sigma, sign in relation:
                    # tabloids[:, sigma] puts q in the row of sigma(q): sigma^-1 {T}
                    total += sign * e_t[_index_of(sk.codes, tabloids[:, sigma] @ powers)]
                assert not total.any(), (lam, relation)


def test_garnir_sums_run_over_every_coset():
    lam = Partition((3, 3, 2, 1))
    heights = lam.conjugate().parts
    sizes = [len(terms) for terms in _garnir_relations(lam.parts)]
    want = [comb(heights[j] + 1, heights[j] - i) for j in range(2) for i in range(heights[j + 1])]
    assert sizes == want


def _in_row_space(rows, vector, p):
    return rank(np.vstack([rows, vector[None, :]]), p) == rank(rows, p)


def test_seed_space_holds_the_seed_image_of_every_oracle_map():
    for p in (2, 3, 5):
        for a, b in _hom_pairs(p, 5):
            seeds = _seed_space(a, b)
            for f in hom_space_direct(a, b):
                assert _in_row_space(seeds, f[0], p), (a, b)


@pytest.mark.parametrize("p", [3, 5])
def test_identity_survives_the_cut_at_odd_p(p):
    for d in range(1, 7):
        for lam in enumerate_partitions(d, "all"):
            module = build_specht(lam, p)
            unit = np.eye(1, module.dim, dtype=np.int64)[0]
            assert _in_row_space(_seed_space(module, module), unit, p), lam


def test_column_signs_cut_the_seeds_of_a_non_hook_end_ring():
    module = build_specht(Partition((4, 3, 1, 1)), 2)
    assert module.dim == 216
    assert _seed_space(module, module).shape[0] == 2


def test_empty_seed_space_returns_before_spinning(monkeypatch):
    def refuse(*args):
        raise AssertionError("built tableau moves for an empty seed space")

    monkeypatch.setattr(specht, "_tableau_moves", refuse)
    # at p = 3 the column signs already kill the trivial module; at p = 2
    # only the Garnir sum x - x - x does
    for p in (2, 3):
        a, b = build_specht(Partition((2, 1)), p), build_specht(Partition((3,)), p)
        assert hom_space(a, b) == []


def test_hom_recheck_refuses_a_map_that_does_not_commute():
    module = build_specht(Partition((3, 1)), 3)
    gens = module.generators()
    eye = np.eye(module.dim, dtype=np.int64)
    assert len(_spin_hom(3, gens, gens, eye[None])) == 1
    broken = eye[None].copy()
    broken[0, 0, 1] = 1
    with pytest.raises(AssertionError, match="equivariance recheck"):
        _spin_hom(3, gens, gens, broken)


def test_skeleton_standard_rows_match_the_standard_tableaux():
    for d in range(7):
        for lam in enumerate_partitions(d, "all"):
            sk = _skeleton(lam.parts)
            tableaux = specht.standard_tableaux(lam.parts)
            want = np.zeros((len(tableaux), d), dtype=np.int64)
            for s, tableau in enumerate(tableaux):
                for row, entries in enumerate(tableau):
                    want[s, entries] = row
            assert sk.std_rows.shape == want.shape and np.array_equal(sk.std_rows, want), lam
            # the tabloid {t} of each standard tableau t has the code of those rows
            _, powers = _code_powers(lam.parts)
            assert np.array_equal(sk.codes[sk.std], want @ powers), lam


def test_one_read_only_polytabloid_matrix_per_shape():
    lam = Partition((3, 2, 1))
    assert build_specht(lam, 2).basis is build_specht(lam, 3).basis
    sk = _skeleton(lam.parts)
    assert all(not a.flags.writeable for a in _skeleton_arrays(sk))
    with pytest.raises(ValueError):
        build_specht(lam, 2).basis[0, 0] = 0
    # a module's own arrays are dim x dim at most: B belongs to the skeleton
    module = build_specht(lam, 5)
    module.generators(), end_ring(module)
    for value in vars(module).values():
        for a in value if isinstance(value, list) else [value]:
            if isinstance(a, np.ndarray) and a is not sk.b_signed:
                assert a.size <= module.dim**2


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


def _split_by_enumeration(module):
    """Oracle: every element of End, as an n x n matrix, tested for a nontrivial idempotent."""
    p, stack = module.p, np.stack(end_ring(module))
    identity = np.eye(module.dim, dtype=np.int64)
    for coeffs in itertools.product(range(p), repeat=len(stack)):
        theta = np.tensordot(np.array(coeffs, dtype=np.int64), stack, axes=1) % p
        if theta.any() and not np.array_equal(theta, identity):
            if np.array_equal(mm(theta, theta, p), theta):
                return True
    return False


def _splitting_cases():
    for p, top in ((2, 8), (3, 7), (5, 7)):
        for d in range(1, top + 1):
            for lam in enumerate_partitions(d, "all"):
                yield lam, p
    yield Partition((5, 1, 1, 1, 1)), 2


def test_regular_representation_search_matches_the_matrix_enumeration():
    dims = {}
    for lam, p in _splitting_cases():
        module = build_specht(lam, p)
        e = len(end_ring(module))
        assert is_decomposable(module) == _split_by_enumeration(module), (lam, p)
        dims.setdefault(p, set()).add(e)
    # End(S^lambda) is the scalars at odd p (James, LNM 682, Cor. 13.17)
    assert dims[3] == dims[5] == {1}
    assert dims[2] == {1, 2, 3}


def test_idempotent_search_past_its_budget_is_refused(monkeypatch):
    module = build_specht(Partition((5, 1, 1)), 2)
    monkeypatch.setattr(specht, "_IDEMPOTENT_WORK", 2**2 * 2**3)  # p^e e^3 with e = 2
    assert is_decomposable(module)
    monkeypatch.setattr(specht, "_IDEMPOTENT_WORK", 2**2 * 2**3 - 1)
    with pytest.raises(TooLarge, match="idempotent"):
        is_decomposable(module)
    # a one-dimensional End needs no search
    assert not is_decomposable(build_specht(Partition((3, 1)), 2))


def test_a_corrupted_end_basis_fails_the_structure_recheck():
    module = build_specht(Partition((4, 3, 1, 1)), 2)
    first, second = end_ring(module)
    # row 0 kept, so only the products B_i[0] @ B_j can tell
    module._end = [first, np.vstack([second[:1], np.roll(second[1:], 1, axis=0)])]
    with pytest.raises(AssertionError, match="multiply"):
        is_decomposable(module)
    # a dependent basis solves every product too, but its constants are not unique
    module._end = [np.eye(module.dim, dtype=np.int64)] * 2
    with pytest.raises(AssertionError, match="multiply"):
        is_decomposable(module)


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
    homs = _kron_hom(p, twisted, dual)  # no relations: the dual has no tabloids
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


def _skeleton_arrays(sk):
    values = [getattr(sk, field.name) for field in fields(sk)]
    flat = [v for value in values for v in (value if isinstance(value, tuple) else (value,))]
    return [a for a in flat if isinstance(a, np.ndarray)]


def test_skeleton_nbytes_counts_every_array():
    sk = specht._skeleton((3, 2, 1))
    arrays = _skeleton_arrays(sk)
    # codes, both moves, b_signed, std, std_inverse, std_rows, tableau_signs, powers
    assert len(arrays) == 9
    assert sk.nbytes == sum(a.nbytes for a in arrays)


def test_permuted_basis_moves_each_tabloid_by_its_generator():
    # a right action, as the rows of the generator matrices are: (v.g){T} = v(g{T}),
    # where g{T} puts g(q) in the row of q, and (1 2) and (1 2 ... d) send q to
    # swap[q] and q + 1
    for d in range(1, 7):
        for lam in enumerate_partitions(d, "all"):
            module = build_specht(lam, 5)
            n_rows, powers = _code_powers(lam.parts)
            rows_of = module._sk.codes[:, None] // powers % n_rows
            swap = list(range(d))
            swap[:2] = swap[1::-1]
            for k, image in enumerate((swap, [(q + 1) % d for q in range(d)])):
                moved_rows = np.empty_like(rows_of)
                moved_rows[:, image] = rows_of
                want = module.basis[:, _index_of(module._sk.codes, moved_rows @ powers)]
                assert np.array_equal(module._permuted_basis(k), np.mod(want, 5)), (lam, k)


def test_std_block_generators_match_full_basis_elimination():
    for p in (2, 3, 5):
        for d in range(1, 7):
            for lam in enumerate_partitions(d, "all"):
                module = build_specht(lam, p)
                _, trans, piv = rref_with_transform(module.basis, p)
                for k, gen in enumerate(module.generators()):
                    want = mm(module._permuted_basis(k)[:, piv], trans, p)
                    assert np.array_equal(gen, want), (lam, p, k)


def _check_std_block(module):
    """The block is unitriangular and its inverse over Z, mod p, is the oracle's."""
    lam, p = module.lam, module.p
    block = module.basis[:, module._sk.std]
    assert np.all(np.diag(block) == 1), (lam, p)
    assert np.array_equal(np.triu(block), block), (lam, p)
    _, trans, piv = rref_with_transform(block, p)
    assert len(piv) == module.dim, (lam, p)
    inverse = module._sk.std_inverse
    assert inverse.dtype == np.int8 and not inverse.flags.writeable, (lam, p)
    assert np.array_equal(np.mod(inverse, p), trans), (lam, p)


def test_standard_tabloid_block_is_unitriangular():
    for d in range(1, 9):
        for lam in enumerate_partitions(d, "all"):
            sk = specht._skeleton(lam.parts)
            block = sk.b_signed[:, sk.std].astype(np.int64)
            assert np.array_equal(block @ sk.std_inverse, np.eye(sk.dim, dtype=np.int64)), lam
            for p in (2, 3, 5):
                _check_std_block(build_specht(lam, p))


def test_std_block_inverse_of_a_large_block_matches_the_oracle():
    _check_std_block(build_specht(Partition((6, 3, 3)), 3))


@pytest.mark.parametrize("row, col, value", [(1, 0, 1), (0, 0, 2), (2, 2, 0)])
def test_std_block_inverse_refuses_a_block_that_is_not_unitriangular(row, col, value):
    lam = Partition((3, 2))
    sk = specht._skeleton(lam.parts)
    block = sk.b_signed[:, sk.std].copy()  # corrupt a private copy, never the shared B
    block[row, col] = value
    with pytest.raises(AssertionError, match="not unitriangular"):
        specht._std_block_inverse(lam, block)


@pytest.mark.parametrize(
    "dim, dtype", [(8, np.int8), (9, np.int16), (17, np.int32), (32, np.int32)]
)
def test_std_block_inverse_takes_the_narrowest_dtype(dim, dtype):
    # U = I - N, N all ones above the diagonal, has inverse entries 2^(j-i-1) above it
    block = np.eye(dim, dtype=np.int8) - np.triu(np.ones((dim, dim), dtype=np.int8), 1)
    inverse = specht._std_block_inverse(Partition((dim,)), block)
    i, j = np.indices((dim, dim))
    want = np.where(j > i, 2.0 ** (j - i - 1), i == j)
    assert inverse.dtype == dtype and np.array_equal(inverse, want)


def test_std_block_inverse_refuses_an_entry_of_two_to_the_31():
    # the corner of the inverse of I - N at dim 33 is 2^31; at dim 80 later sums wrap int64
    for dim in (33, 80):
        block = np.eye(dim, dtype=np.int8) - np.triu(np.ones((dim, dim), dtype=np.int8), 1)
        with pytest.raises(Overflow, match="block of 3,2 has an inverse entry"):
            specht._std_block_inverse(Partition((3, 2)), block)


def test_h0_dim_inverts_each_standard_block_once_with_the_prime_outermost(monkeypatch):
    inverted = []
    build = specht._std_block_inverse

    def counted(lam, block):
        inverted.append(lam.parts)
        return build(lam, block)

    monkeypatch.setattr(specht, "_std_block_inverse", counted)
    specht._skeleton.cache_clear()
    shapes = set()
    for p in (2, 3, 5):
        for d in range(1, 7):
            for lam in enumerate_partitions(d, "all"):
                h0_dim(lam, p)
                shapes.add(min(lam, lam.conjugate(), key=specht.perm_module_dim).parts)
    assert sorted(inverted) == sorted(shapes)
    module = build_specht(Partition((3, 2)), 5)
    assert not hasattr(module, "_std_inverse") and not hasattr(module, "_std_block_inverse")


def test_coords_rejects_a_row_outside_the_module():
    module = build_specht(Partition((2, 1)), 3)
    outside = np.zeros((1, module.perm_dim), dtype=np.int64)
    outside[0, module._sk.std[0]] = 1
    with pytest.raises(TwistlabError, match="outside the module"):
        module.coords(outside)


@pytest.mark.parametrize(
    "shape", [(6,), (1, 5), (1, 7), (1, 6 + 2**16), (1, 1, 6)],
    ids=["1-d", "narrower", "wider", "wider-by-a-panel", "3-d"],
)
def test_coords_refuses_rows_of_the_wrong_shape(shape):
    module = build_specht(Partition((5, 1)), 3)  # 6 tabloids
    assert module.perm_dim == 6
    with pytest.raises(SizeMismatch, match="tabloid entries"):
        module.coords(np.zeros(shape, dtype=np.int64))


def _one_column_panels(monkeypatch):
    monkeypatch.setattr(gf, "_PANEL_ENTRIES", 1)
    monkeypatch.setattr(gf, "_PANEL_FLOOR", 1)


def _module_answers(lam, p):
    module = build_specht(lam, p)
    return (
        module.generators(), invariants_dim(module), h0_dim(lam, p), end_ring(module),
        is_decomposable(module),
    )


def _same(left, right):
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(_same, left, right))
    return np.array_equal(left, right)


def test_panel_edges_cannot_change_an_answer(monkeypatch):
    cases = [
        (lam, p) for p in (2, 3, 5) for d in range(1, 7) for lam in enumerate_partitions(d, "all")
    ]
    homs = [((3, 1, 1), (2, 1, 1, 1)), ((7, 1, 1), (3, 1, 1, 1, 1, 1, 1))]

    def hom_answers():
        return [hom_space(build_specht(Partition(a), 3), build_specht(Partition(b), 3))
                for a, b in homs]

    default = [_module_answers(lam, p) for lam, p in cases], hom_answers()
    _one_column_panels(monkeypatch)
    assert next(gf.mm_panels(np.ones((2, 3)), np.ones((3, 4)), 2))[0] == slice(0, 1)
    narrow = [_module_answers(lam, p) for lam, p in cases], hom_answers()
    for (lam, p), want, got in zip(cases, default[0], narrow[0]):
        assert _same(want, got), (lam, p)
    assert _same(default[1], narrow[1])


@pytest.mark.parametrize("one_column", [False, True])
@pytest.mark.parametrize("parts", [(3, 2), (2, 2, 1, 1), (4, 3, 1, 1)])
def test_coords_rechecks_up_to_the_last_tabloid(monkeypatch, one_column, parts):
    # a polytabloid changed only at the last tabloid, or only at the last
    # tabloid off the standard block (so its coordinates come out right), is
    # caught by the last panel of the recheck
    if one_column:
        _one_column_panels(monkeypatch)
    module = build_specht(Partition(parts), 3)
    row = np.mod(module.basis[-1:], 3).astype(np.int64)
    assert np.array_equal(module.coords(row), np.eye(1, module.dim, module.dim - 1))
    off_std = np.setdiff1d(np.arange(module.perm_dim), module._sk.std)
    for col in (module.perm_dim - 1, off_std[-1]):
        outside = row.copy()
        outside[0, col] = (outside[0, col] + 1) % 3
        with pytest.raises(TwistlabError, match="outside the module"):
            module.coords(outside)


@pytest.mark.parametrize("parts, p", [((7, 1, 1, 1, 1), 2), ((3, 1, 1, 1, 1, 1, 1), 3)])
def test_generators_allocate_no_dim_by_tabloids_temporary(parts, p):
    # B is dim x m int8 (1.7 MB for both shapes); a float32 or int64 copy of
    # it, or of the permuted basis, would pass the bound several times over
    module = build_specht(Partition(parts), p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        module.generators()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert module.basis.nbytes > 1.5e6
    assert peak - base < 4 * 2**20


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
    # anything but a non-negative integer is refused by name, not read as a limit
    for bad in ("abc", "-5", "1.5", " 10"):
        monkeypatch.setenv("TWISTLAB_MAX_DIM", bad)
        with pytest.raises(TwistlabError, match="TWISTLAB_MAX_DIM must be a non-negative integer"):
            build_specht(Partition((2, 1)), 2)
