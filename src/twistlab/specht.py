"""Specht modules over GF(p) and the Hom/End machinery built on them.

Tabloids of shape lambda are encoded as assignment vectors (number -> row),
packed into base-(number of rows) integer codes so a permutation action is a
column gather plus a binary search.  The column group moves the cells of
every tableau of a shape alike, so it is tabulated once, as the row each
cell lands in under each column permutation; with the standard tableaux
written as row-reading words, the codes of every term {c t} of every
standard polytabloid e_t come out of one integer product.  The
polytabloids, written in the tabloid basis, form the rows of an embedding
matrix B; expressing permuted rows of B in terms of B again yields the
generator matrices of the module on its own basis, with no straightening at
any point.

Coordinates in B need only the dim x dim block of B on the tabloids {t} of
the standard tableaux t.  {t} is the dominance-largest tabloid of e_t
(James, LNM 682, section 8) and the tableaux are listed in an order that
extends dominance, so the block is upper unitriangular over Z: its inverse
has integer entries and is built once per shape, by back-substitution.  The
skeleton (tabloid codes and place values, generator actions, standard rows,
B over Z with entries in {-1, 0, 1}, that inverse) does not depend on p.  A
module is its shape's skeleton plus p and keeps only its generator matrices
and End; the GF(p) kernels read B as it is and the inverse mod p, and the
skeletons, read-only and shared at every prime, are cached up to a byte budget.
Every product against B (the coordinate recheck, the seed values of a Hom
space and its seeds in tabloid coordinates) runs over column panels of
bounded size, and what is kept across panels is stored as int8 residues, so
no dim x m array other than B itself is ever built.

M^lambda is a transitive permutation module, so its fixed vectors are the
multiples of the all-ones vector; the fixed space of S^lambda is therefore
at most a line, and it is a line exactly when the all-ones vector lies in
the row space of B.  Thin shapes are asked on the conjugate instead, with no
elimination: a map from S^lambda' to the sign module is forced by its value
on the generator e_t, so one sign functional is checked against the two
generators.

Hom spaces rest on a presentation: S^lambda is generated by e_t, t the
first standard tableau, subject only to its column and Garnir relations, in
every characteristic (James, LNM 682, sections 7-8).  So the images of e_t
under the maps S^a -> S^b are the x in S^b that every relation kills, found
by index lookups into the tabloid codes, and each map is read off its x
with one gather, as e_s = pi_s e_t.  A direct Kronecker-product solver,
which knows no relations, is kept alongside as the oracle.  A map of End is
fixed by its first row too, so End multiplies as those rows do, and whether
S^lambda splits is decided exactly, within a budget on the work, by a search
for idempotents in End's e-dimensional regular representation.

build_specht refuses degree 63 and up, and a permutation module of more
than DEFAULT_MAX_DIM tabloids, with TooLarge.  The TWISTLAB_MAX_DIM
environment variable, a non-negative integer, is the one override of the
second budget, for a run that genuinely needs a module with millions of
tabloids.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import Overflow, SizeMismatch, TooLarge, TwistlabError, check_prime
from .gf import Echelon, mm, mm_panels, nullspace, rref
from .partitions import Partition

DEFAULT_MAX_DIM = 100_000
# past this degree two-row tabloid codes overflow 64 bits; one-row shapes do not,
# but would cost a factorial and a recursion as deep as the degree
_MAX_DEGREE = 62
# bytes of skeleton arrays kept between calls: every skeleton h0_dim builds
# up to degree 10 (about 51 MB) fits, so a loop with the prime outermost
# builds each shape once
_SKELETON_CACHE_BYTES = 64 * 2**20
# residues are kept as int8: the generator recheck reduces gathered rows of B
# in place, and seed values and panel products are stored so; p - 1 must fit
_MAX_PRIME = 127
# is_decomposable tests p**e elements of an e-dimensional End, e**3 steps
# each, and refuses past this many steps (about 0.6 s at worst)
_IDEMPOTENT_WORK = 2**27


def _check_degree(lam: Partition) -> None:
    if lam.size > _MAX_DEGREE:
        raise TooLarge(f"{lam} has degree {lam.size}, over the limit of {_MAX_DEGREE}")


def perm_module_dim(lam: Partition) -> int:
    """Number of tabloids: the multinomial coefficient of the parts."""
    out = math.factorial(lam.size)
    for part in lam:
        out //= math.factorial(part)
    return out


def hook_length_dim(lam: Partition) -> int:
    """Dimension of the Specht module by the hook length formula."""
    if not lam:
        return 1
    conj = lam.conjugate()
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return math.factorial(lam.size) // prod


def standard_tableaux(parts: tuple[int, ...]) -> list[list[list[int]]]:
    """All standard tableaux of the given shape, entries 0..d-1."""
    d = sum(parts)
    out: list[list[list[int]]] = []
    rows: list[list[int]] = [[] for _ in parts]

    def fill(k: int) -> None:
        if k == d:
            out.append([list(r) for r in rows])
            return
        for i, row_len in enumerate(parts):
            filled = len(rows[i])
            if filled < row_len and (i == 0 or len(rows[i - 1]) > filled):
                rows[i].append(k)
                fill(k + 1)
                rows[i].pop()

    fill(0)
    return out


def _perm_parity(perms: np.ndarray) -> np.ndarray:
    """Parity (+1/-1) of each row, each a permutation of 0..h-1."""
    k, h = perms.shape
    inv = np.zeros(k, dtype=np.int64)
    for i in range(h):
        for j in range(i + 1, h):
            inv += perms[:, i] > perms[:, j]
    return np.where(inv % 2 == 0, 1, -1).astype(np.int8)


def _column_group(parts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The column group of a shape acting on its cells, with the signs.

    land[c, q] is the row to which column permutation c moves cell q, cells
    numbered in row-reading order; row 0 is the identity.  The table is the
    same for every tableau of the shape.
    """
    d = sum(parts)
    start = np.cumsum((0,) + parts[:-1])  # reading index of each row's first cell
    land = np.zeros((1, d), dtype=np.int8)
    signs = np.ones(1, dtype=np.int8)
    for j in range(parts[0] if parts else 0):
        h = sum(1 for row in parts if row > j)
        perms = np.array(list(itertools.permutations(range(h))), dtype=np.int8)
        k = land.shape[0]
        land = np.repeat(land, len(perms), axis=0)
        land[:, start[:h] + j] = np.tile(perms, (k, 1))
        signs = np.repeat(signs, len(perms)) * np.tile(_perm_parity(perms), k)
    return land, signs


def _tabloid_table(parts: tuple[int, ...], d: int) -> np.ndarray:
    """All assignment vectors (number -> row) with the given row sizes."""
    table = np.full((1, d), -1, dtype=np.int8)
    for row_idx, count in enumerate(parts):
        free = np.nonzero(table == -1)[1].reshape(table.shape[0], -1)
        combos = np.array(
            list(itertools.combinations(range(free.shape[1]), count)), dtype=np.intp
        )
        n, c = table.shape[0], combos.shape[0]
        table = np.repeat(table, c, axis=0)
        picked = free[np.repeat(np.arange(n), c)]
        cols = np.take_along_axis(picked, combos[np.tile(np.arange(c), n)], axis=1)
        table[np.arange(n * c)[:, None], cols] = row_idx
    return table


@dataclass
class _Skeleton:
    """Prime-independent combinatorial layer shared by every GF(p) instance."""

    parts: tuple[int, ...]
    d: int
    m: int
    dim: int
    codes: np.ndarray  # sorted tabloid codes
    moves: tuple[np.ndarray, np.ndarray]  # inverse index actions: v . g == v[:, moves[g]]
    gen_signs: tuple[int, int]
    b_signed: np.ndarray  # standard polytabloids over Z, entries in {-1,0,1}
    std: np.ndarray  # index of the tabloid {t} of each standard tableau t
    std_inverse: np.ndarray  # inverse over Z of the unitriangular block b_signed[:, std]
    std_rows: np.ndarray  # row of each number 0..d-1 in each standard tabloid {t}
    tableau_signs: np.ndarray  # sgn(pi_s), where pi_s takes the first tableau to s
    powers: np.ndarray  # place values of tabloid codes, from _code_powers

    def __post_init__(self):
        arrays = (self.codes, *self.moves, self.b_signed, self.std, self.std_inverse,
                  self.std_rows, self.tableau_signs, self.powers)
        for a in arrays:
            a.flags.writeable = False  # shared by every module of the shape, at every prime
        self.nbytes = sum(a.nbytes for a in arrays)


def _generator_maps(d: int) -> list[np.ndarray]:
    """The transposition (1 2) and the full cycle (1 2 ... d) as index maps."""
    swap = np.arange(d, dtype=np.intp)
    if d >= 2:
        swap[0], swap[1] = 1, 0
    cycle = (np.arange(d, dtype=np.intp) + 1) % d if d else np.arange(0, dtype=np.intp)
    return [swap, cycle]


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _SkeletonCache:
    """Least-recently-used memo of skeletons, bounded by the bytes they hold.

    Mirrors the lru_cache interface that callers rely on: cache_info(),
    whose maxsize and currsize count bytes, and cache_clear().  A skeleton
    larger than the whole budget is returned but not kept.
    """

    def __init__(self, build: Callable[[tuple[int, ...]], _Skeleton]):
        self._build = build
        self._entries: OrderedDict[tuple[int, ...], _Skeleton] = OrderedDict()
        self._bytes = self._hits = self._misses = 0

    def __call__(self, parts: tuple[int, ...]) -> _Skeleton:
        found = self._entries.get(parts)
        if found is not None:
            self._entries.move_to_end(parts)
            self._hits += 1
            return found
        self._misses += 1
        built = self._build(parts)
        self._entries[parts] = built
        self._bytes += built.nbytes
        while self._bytes > _SKELETON_CACHE_BYTES:
            _, dropped = self._entries.popitem(last=False)
            self._bytes -= dropped.nbytes
        return built

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, _SKELETON_CACHE_BYTES, self._bytes)

    def cache_clear(self) -> None:
        self._entries.clear()
        self._bytes = self._hits = self._misses = 0


def _code_powers(parts: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """Radix and place values of tabloid codes: number q in row i adds i * powers[q]."""
    d = sum(parts)
    n_rows = max(len(parts), 1)
    if d and n_rows**d >= 2**63:
        raise TooLarge(f"cannot pack tabloid codes for {Partition(parts)} into 64 bits")
    return n_rows, n_rows ** np.arange(d, dtype=np.int64)


def _index_of(codes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of the wanted codes in the sorted tabloid codes."""
    found = np.searchsorted(codes, wanted)
    if found.size and (found.max() >= len(codes) or not np.array_equal(codes[found], wanted)):
        raise AssertionError("image is not a tabloid of this shape")
    return found


def _std_block_inverse(lam: Partition, block: np.ndarray) -> np.ndarray:
    """Inverse X over Z of lam's standard-tabloid block U, in the narrowest signed dtype.

    U is unitriangular with entries in {-1, 0, 1}.  From the bottom row, X[k]
    is e_k minus U[k, j] X[j] over the few j > k with U[k, j] != 0, each X[j]
    zero left of column j.  Entries of 2^31 and up raise Overflow: the lowest
    row holding one summed at most dim entries below 2^31, so it is exact.
    """
    if np.any(np.diag(block) != 1) or np.tril(block, -1).any():
        raise AssertionError(f"standard-tabloid block of {lam} is not unitriangular")
    inverse = np.eye(len(block), dtype=np.int64)
    for k in range(len(block) - 2, -1, -1):
        later = k + 1 + np.flatnonzero(block[k, k + 1 :])
        inverse[k, k + 1 :] = -(block[k, later].astype(np.int64) @ inverse[later, k + 1 :])
    top = int(np.abs(inverse).max())
    if top >= 2**31:
        raise Overflow(f"the standard-tabloid block of {lam} has an inverse entry of {top}")
    return inverse.astype(next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= top))


@_SkeletonCache
def _skeleton(parts: tuple[int, ...]) -> _Skeleton:
    lam = Partition(parts)
    d = lam.size
    _, powers = _code_powers(parts)
    table = _tabloid_table(parts, d)
    codes = table.astype(np.int64) @ powers
    order = np.argsort(codes)
    table, codes = table[order], codes[order]
    m = table.shape[0]

    gens = np.stack(_generator_maps(d))
    moves = [np.argsort(_index_of(codes, table[:, g] @ powers)) for g in gens]
    signs = [int(s) for s in _perm_parity(gens)]

    # words[s] lists tableau s cell by cell in row-reading order; the first
    # word is 0, 1, ..., d-1, so its parity is the sign of pi_s
    words = np.array([sum(t, []) for t in standard_tableaux(parts)], dtype=np.intp)
    words = words.reshape(len(words), d)
    dim = hook_length_dim(lam)
    if len(words) != dim:
        raise AssertionError(f"{lam}: built {len(words)} polytabloids, expected {dim}")
    land, col_signs = _column_group(parts)
    # codes of {c.t} for every column permutation c (rows) and tableau t
    # (columns); row 0 is the identity, so it holds the tabloids {t}
    found = _index_of(codes, land @ powers[words].T)
    b_signed = np.zeros((dim, m), dtype=np.int8)
    # distinct column permutations give distinct tabloids: no sums needed
    b_signed[np.arange(dim), found] = col_signs[:, None]
    std_rows = np.empty((dim, d), dtype=np.int8)
    std_rows[np.arange(dim)[:, None], words] = np.repeat(np.arange(len(parts)), parts)
    return _Skeleton(
        parts, d, m, dim, codes, (moves[0], moves[1]), (signs[0], signs[1]), b_signed,
        found[0].copy(), _std_block_inverse(lam, b_signed[:, found[0]]), std_rows,
        _perm_parity(words), powers,
    )


class SpechtModule:
    """S^lambda over GF(p): its shape's skeleton plus p, and what it computes at p."""

    def __init__(self, lam: Partition, p: int, skeleton: _Skeleton):
        self.lam = lam
        self.p = p
        self.dim = skeleton.dim
        self.perm_dim = skeleton.m
        self._sk = skeleton
        self.basis = skeleton.b_signed
        self._gens: Optional[list[np.ndarray]] = None
        self._end: Optional[list[np.ndarray]] = None

    def __repr__(self) -> str:
        return f"SpechtModule({self.lam!r}, p={self.p}, dim={self.dim})"

    # -- permutation action on the tabloid coordinates ------------------

    def _permuted_basis(self, which: int, cols: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Generator ``which`` applied to every row of the basis, as residues mod p,
        at the tabloid columns ``cols`` (an index array or a slice)."""
        moved = np.take(self.basis, self._sk.moves[which][cols], axis=1)
        moved += (moved >> 7) & self.p  # adds p where an entry is -1
        return moved

    def _on_tabloids(self, c: np.ndarray) -> np.ndarray:
        """c @ basis mod p as int8, the rows with coordinates c in tabloid coordinates."""
        out = np.empty((len(c), self.perm_dim), dtype=np.int8)
        for cols, panel in mm_panels(c, self.basis, self.p):
            out[:, cols] = panel
        return out

    # -- coordinates in the polytabloid basis -----------------------------

    def _express(self, columns: Callable[..., np.ndarray]) -> tuple[np.ndarray, bool]:
        """Candidate coordinates c of some rows, and whether c @ basis gives them back.

        columns(cols) gives the rows at the tabloid columns cols, an index
        array or a slice, as residues mod p; the basis holds signs.  c is read
        off the standard-tabloid columns through the skeleton's inverse of
        basis[:, std] mod p; a row outside the row space gets some c, which the
        recheck exposes.  The recheck compares every column, one panel of
        c @ basis at a time, and stops at the first panel that differs.
        """
        c = mm(columns(self._sk.std), np.mod(self._sk.std_inverse, self.p), self.p)
        inside = all(np.array_equal(panel, columns(cols))
                     for cols, panel in mm_panels(c, self.basis, self.p))
        return c, inside

    def coords(self, vectors: np.ndarray) -> np.ndarray:
        """Express rows (in tabloid coordinates) in the polytabloid basis.

        Uses only the dim x dim standard-tabloid block of the basis, then
        rechecks the product against the input; raises SizeMismatch unless
        the rows form a 2-d array with one column per tabloid, and
        TwistlabError for a row outside the module.
        """
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self.perm_dim:
            raise SizeMismatch(
                f"coords takes rows of {self.perm_dim} tabloid entries, not shape {vectors.shape}"
            )
        return self._coords(lambda cols: vectors[:, cols])

    def _coords(self, columns: Callable[..., np.ndarray]) -> np.ndarray:
        c, inside = self._express(columns)
        if not inside:
            raise TwistlabError("vector outside the module row space")
        return c

    def generators(self) -> list[np.ndarray]:
        """Matrices of (1 2) and (1 2 ... d) acting on the right: row i holds the
        coordinates of e_i . g = g^-1 e_i, so the matrix of gh is G_g G_h.

        The permuted basis is gathered one column panel at a time, as the
        recheck reads it, so it is never held whole."""
        if self._gens is None:
            self._gens = [self._coords(functools.partial(self._permuted_basis, k)) for k in (0, 1)]
        return self._gens

    def generator_signs(self) -> tuple[int, int]:
        return self._sk.gen_signs

    # -- invariants -------------------------------------------------------

    def invariants_dim(self) -> int:
        """Dimension of the fixed space: 1 if the all-ones row lies in the module, else 0.

        The fixed vectors of the transitive permutation module M^lambda are
        the multiples of the all-ones vector, so this is exact.
        """
        ones = np.ones((1, self.perm_dim), dtype=np.int8)
        _, inside = self._express(lambda cols: ones[:, cols])
        return int(inside)


def build_specht(lam: Partition, p: int) -> SpechtModule:
    """Construct S^lambda over GF(p), refusing oversized permutation modules."""
    check_prime(p)
    if p > _MAX_PRIME:
        raise Overflow(f"residues mod {p} do not fit int8 (p <= {_MAX_PRIME})")
    _check_degree(lam)
    env = os.environ.get("TWISTLAB_MAX_DIM")
    if env and not (env.isascii() and env.isdigit()):
        raise TwistlabError(f"TWISTLAB_MAX_DIM must be a non-negative integer, not {env!r}")
    limit = int(env) if env else DEFAULT_MAX_DIM
    m = perm_module_dim(lam)
    if m > limit:
        raise TooLarge(
            f"M^{lam} has {m} tabloids, over the limit of {limit} (raise TWISTLAB_MAX_DIM)"
        )
    return SpechtModule(lam, p, _skeleton(lam.parts))


# -- Hom spaces ------------------------------------------------------------


def _column_relations(parts: tuple[int, ...]) -> Iterator[list[tuple[np.ndarray, int]]]:
    """1 + tau for each transposition tau of adjacent cells in a column of t.

    t is the row-reading tableau of the shape, whose entry in row i, column
    j is start[i] + j.  A relation is a list of (sigma, sign) terms, sigma an
    index map of 0..d-1; each relation kills e_t, since tau e_t = -e_t.
    """
    d = sum(parts)
    start = np.cumsum((0,) + parts[:-1])
    for i in range(len(parts) - 1):
        for j in range(parts[i + 1]):
            u, v = start[i] + j, start[i + 1] + j
            tau = np.arange(d)
            tau[[u, v]] = v, u
            yield [(np.arange(d), 1), (tau, 1)]


def _garnir_relations(parts: tuple[int, ...]) -> Iterator[list[tuple[np.ndarray, int]]]:
    """The Garnir sum of each column j and row i < len(column j+1) of t.

    X is column j from row i down and Y column j+1 from the top to row i, so
    X u Y is longer than column j, and the sum of sgn(sigma) sigma over coset
    representatives of S_X x S_Y in S_{X u Y} kills e_t (James, LNM 682,
    section 7).  The representatives swap a k-subset of X with a k-subset of
    Y pairwise, sign (-1)^k: C(|X| + |Y|, |X|) terms, each an involution.
    """
    d = sum(parts)
    start = np.cumsum((0,) + parts[:-1])
    heights = Partition(parts).conjugate().parts
    for j in range(len(heights) - 1):
        for i in range(heights[j + 1]):
            xs = [start[r] + j for r in range(i, heights[j])]
            ys = [start[r] + j + 1 for r in range(i + 1)]
            terms = []
            for k in range(min(len(xs), len(ys)) + 1):
                for out in itertools.combinations(xs, k):
                    for into in itertools.combinations(ys, k):
                        sigma = np.arange(d)
                        sigma[list(out)], sigma[list(into)] = into, out
                        terms.append((sigma, (-1) ** k))
            yield terms


def _seed_space(a: SpechtModule, b: SpechtModule) -> np.ndarray:
    """Rows spanning the images x in S^b of e_t under the maps S^a -> S^b.

    t is the row-reading tableau of a, so e_t is basis vector 0 of a.  S^a is
    presented by e_t, its column relations and its Garnir relations, over
    every field (James, LNM 682, sections 7-8; Fulton, Young Tableaux,
    section 7.4): modulo those relations every tableau straightens to the
    standard ones, which span S^a freely.  So x is an image of e_t exactly
    when R x = 0 for each relation R, and this space is Hom(S^a, S^b).

    R x lies in S^b, so it vanishes when it vanishes on the standard
    tabloids {t_u} of b, and (sigma x){t_u} = x(sigma{t_u}) as each term
    sigma is an involution: one code lookup per standard tabloid and term.
    The column blocks are imposed on all of S^b, then the Garnir sums on
    the k survivors only, at k x dim b per relation.
    """
    p, codes, powers, rows = b.p, b._sk.codes, b._sk.powers, b._sk.std_rows

    def imposed(values: np.ndarray, relation: list[tuple[np.ndarray, int]]) -> np.ndarray:
        # sum over the terms of sign * values at sigma{t_u}, one column per u
        out = np.zeros((len(values), b.dim), dtype=np.int64)
        for sigma, sign in relation:
            out += sign * values[:, _index_of(codes, rows[:, sigma] @ powers)]
        return np.mod(out, p)

    cut = Echelon(p, b.dim)
    for relation in _column_relations(a.lam.parts):
        cut.add(imposed(b.basis, relation).T)
        if cut.rank == b.dim:
            return cut.basis[:0]
    survivors = cut.kernel()
    values = b._on_tabloids(survivors)
    cut = Echelon(p, len(survivors))
    for relation in _garnir_relations(a.lam.parts):
        cut.add(imposed(values, relation).T)
        if cut.rank == len(survivors):
            return survivors[:0]
    return mm(cut.kernel(), survivors, p)


def _tableau_moves(a: SpechtModule, b: SpechtModule) -> np.ndarray:
    """Index of the tabloid pi_s^-1 {t_u} of b, for each standard tableau s of a and u of b.

    pi_s takes the first tableau of a to s.  A standard tableau is fixed by
    its tabloid: its row-reading word, the numbers sorted stably by row, is
    pi_s.  The code of pi_s^-1 {t_u} puts the row of q in {t_u} at place
    pi_s^-1(q), so all n_a x n_b codes come out of one integer product.
    """
    words = np.argsort(a._sk.std_rows, axis=1, kind="stable")
    moved = b._sk.powers[np.argsort(words, axis=1)] @ b._sk.std_rows.T
    return _index_of(b._sk.codes, moved.ravel()).reshape(moved.shape)


def _hom(a: SpechtModule, b: SpechtModule) -> list[np.ndarray]:
    """Maps e_s -> pi_s x for each seed x of _seed_space, on the Specht bases.

    The coordinates of pi_s x need x only at the tabloids pi_s^-1 {t_u}:
    one gather from the seeds in tabloid coordinates, then one product
    through the inverse of b's standard-tabloid block.
    """
    seeds = _seed_space(a, b)
    if not len(seeds):
        return []
    p = a.p
    moves = _tableau_moves(a, b)
    x = b._on_tabloids(seeds)
    maps = mm(x[:, moves].reshape(-1, b.dim), np.mod(b._sk.std_inverse, p), p)
    return _spin_hom(p, a.generators(), b.generators(), maps.reshape(len(seeds), a.dim, b.dim))


def _spin_hom(
    p: int, gens_a: list[np.ndarray], gens_b: list[np.ndarray], maps: np.ndarray
) -> list[np.ndarray]:
    """Recheck a k x n_a x n_b stack of candidate maps; return them as a list.

    S^a is presented by e_t, its column relations and its Garnir relations,
    in every characteristic (James, LNM 682, sections 7-8), so the maps _hom
    reads off the seed space are homomorphisms by that theorem.  Each is
    still checked against both generators, G_a f = f G_b, and a failure
    raises AssertionError.  The benchmark's traces wrap this function by
    name as the Hom layer.
    """
    k, n_a, n_b = maps.shape
    rows = np.ascontiguousarray(maps.transpose(1, 0, 2)).reshape(n_a, k * n_b)
    for g in (0, 1):
        left = mm(gens_a[g], rows, p).reshape(n_a, k, n_b)
        right = mm(maps.reshape(k * n_a, n_b), gens_b[g], p).reshape(k, n_a, n_b)
        if not np.array_equal(left, right.transpose(1, 0, 2)):
            raise AssertionError("candidate map failed the equivariance recheck")
    return list(maps)


def _kron_hom(p: int, gens_a: list[np.ndarray], gens_b: list[np.ndarray]) -> list[np.ndarray]:
    """Stack the equivariance conditions on the full matrix of unknowns."""
    n_a = gens_a[0].shape[0]
    n_b = gens_b[0].shape[0]
    eye_a = np.eye(n_a, dtype=np.int64)
    eye_b = np.eye(n_b, dtype=np.int64)
    blocks = [
        np.kron(gens_a[k], eye_b) - np.kron(eye_a, gens_b[k].T) for k in (0, 1)
    ]
    kernel = nullspace(np.vstack(blocks), p)
    return [row.reshape(n_a, n_b) for row in kernel]


def _require_compatible(a: SpechtModule, b: SpechtModule) -> None:
    if a.p != b.p:
        raise SizeMismatch(f"different primes: {a.p} vs {b.p}")
    if a.lam.size != b.lam.size:
        raise SizeMismatch(f"different degrees: {a.lam.size} vs {b.lam.size}")


def hom_space(a: SpechtModule, b: SpechtModule) -> list[np.ndarray]:
    """Basis of the equivariant maps S^a -> S^b (matrices on Specht bases)."""
    _require_compatible(a, b)
    return _hom(a, b)


def hom_space_direct(a: SpechtModule, b: SpechtModule) -> list[np.ndarray]:
    """Kronecker-stack solver; quadratic unknowns, for cross-checks."""
    _require_compatible(a, b)
    return _kron_hom(a.p, a.generators(), b.generators())


def hom_dim(a: SpechtModule, b: SpechtModule) -> int:
    if a is b:
        return len(end_ring(a))
    return len(hom_space(a, b))


def end_ring(a: SpechtModule) -> list[np.ndarray]:
    """Basis of the endomorphism algebra, cached on the module."""
    if a._end is None:
        a._end = _hom(a, a)
    return a._end


def is_decomposable(a: SpechtModule) -> bool:
    """Does S^lambda split, that is, has End an idempotent other than 0 and 1?

    Each B_i of the End basis is fixed by row 0, its image of e_t, so B_i B_j
    is fixed by B_i[0] @ B_j: with F the e x n first rows and W those
    products, one rref of [F^T | W^T] solves c @ F == W for the structure
    constants c, rechecked exactly.  All p^e
    coefficient vectors x are then tested for x^2 = x in chunks, about e^3
    steps each; past _IDEMPOTENT_WORK steps the search raises TooLarge.  A
    hit theta = sum x_i B_i is certified by theta @ theta == theta on the
    module; a failed recheck or certificate raises AssertionError.
    """
    basis = end_ring(a)
    e, n, p = len(basis), a.dim, a.p
    if e == 1:
        return False  # End is the scalars; local ring
    size = p**e
    if size * e**3 > _IDEMPOTENT_WORK:
        raise TooLarge(
            f"End({a.lam}) at p = {p} has dimension {e}: {p}^{e} idempotent tests of "
            f"{e}^3 steps pass the budget of {_IDEMPOTENT_WORK}"
        )
    stack = np.stack(basis)
    firsts = stack[:, 0]
    # row i * e + j is B_i[0] @ B_j, the first row of B_i B_j; the last is the identity's
    products = mm(firsts, stack.transpose(1, 0, 2).reshape(n, e * n), p).reshape(e * e, n)
    wanted = np.vstack([products, np.eye(1, n, dtype=np.int64)])
    red, piv = rref(np.hstack([firsts.T, wanted.T]), p)
    coeffs = red[:e, e:].T
    if piv[:e] != list(range(e)) or not np.array_equal(mm(coeffs, firsts, p), wanted):
        raise AssertionError(f"End({a.lam}) does not multiply as its first rows do")
    consts, one = coeffs[:-1], coeffs[-1]
    places = p ** np.arange(e, dtype=np.int64)
    step = max(1, 2**16 // e**2)  # 2**16 pair products per chunk
    for start in range(0, size, step):
        x = np.arange(start, min(start + step, size), dtype=np.int64)[:, None] // places % p
        pairs = np.mod(x[:, :, None] * x[:, None, :], p).reshape(len(x), e * e)
        hits = (mm(pairs, consts, p) == x).all(1) & x.any(1) & (x != one).any(1)
        if hits.any():
            theta = np.tensordot(x[hits.argmax()], stack, axes=1) % p
            if not np.array_equal(mm(theta, theta, p), theta):
                raise AssertionError(f"idempotent of End({a.lam}) fails on the module")
            return True
    return False


def invariants_dim(a: SpechtModule) -> int:
    return a.invariants_dim()


def h0_dim(lam: Partition, p: int) -> int:
    """Dimension of the fixed space of S^lambda over GF(p), 0 or 1.

    The route goes to whichever of lambda and its conjugate has fewer
    tabloids.  On lambda this is the membership test of the all-ones vector
    (invariants_dim): one solve through the standard-tabloid block and one
    1 x m recheck.  Hooked and other thin shapes sit inside huge permutation
    modules even when the Specht module itself is tiny, so otherwise the
    number is read on S^lambda': the fixed vectors of S^lambda are the maps
    from S^lambda' to the sign module (James, LNM 682, section 8).  Such a
    map f is determined by f(e_t) for the first standard tableau t, since
    e_t generates S^lambda' (ibid., section 4), and f(e_s) = sgn(pi_s) f(e_t)
    for s = pi_s t.  So the fixed space is nonzero exactly when the forced f
    with f(e_t) = 1 satisfies G f = sgn(g) f for both generator matrices G.
    The cost is building the two generator matrices (each a dim x dim by
    dim x m coordinate recheck, run one column panel of B at a time) plus two
    dim x dim by dim x 1 products.
    """
    _check_degree(lam)
    if perm_module_dim(lam) <= perm_module_dim(lam.conjugate()):
        return invariants_dim(build_specht(lam, p))
    module = build_specht(lam.conjugate(), p)
    forced = module._sk.tableau_signs[:, None]
    pairs = zip(module.generators(), module.generator_signs())
    return int(all(np.array_equal(mm(g, forced, p), np.mod(s * forced, p)) for g, s in pairs))
