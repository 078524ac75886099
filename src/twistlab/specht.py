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
extends dominance, so the block is upper unitriangular over Z, invertible
mod every p, and row-reduces with almost no fill.  The combinatorial layer
(tabloid codes, generator actions, B over Z) does not depend on p and is
cached up to a fixed number of bytes.

M^lambda is a transitive permutation module, so its fixed vectors are the
multiples of the all-ones vector; the fixed space of S^lambda is therefore
at most a line, and it is a line exactly when the all-ones vector lies in
the row space of B.  Thin shapes are asked on the conjugate instead, with no
elimination: a map from S^lambda' to the sign module is forced by its value
on the generator e_t, so one sign functional is checked against the two
generators.

Hom spaces between two modules use the fact that a Specht module is
generated by its first standard polytabloid: spin that vector to a basis,
record the spin tree, and a homomorphism is pinned down by the image of the
seed, subject to one linear condition per non-spawning (vector, generator)
pair.  The candidate seed images start as the vectors of B with the column
signs of the seed, tau x = -x for each transposition tau in a column of the
first tableau, found by index lookups into the tabloid codes.  The solver
spins that space along the tree only as far as the next relations reach,
and shrinks it after each batch of relations; that costs O(n_a k n_b^2)
time and O(n_a k n_b) memory for k candidates, never the n_a n_b^2 table of
every word on B.  A direct Kronecker-product solver, with no cut, is kept
alongside as the oracle for the fast path.

build_specht refuses degree 63 and up, and a permutation module of more
than DEFAULT_MAX_DIM tabloids, with TooLarge.  The TWISTLAB_MAX_DIM
environment variable is the one override of the second budget, for a run
that genuinely needs a module with millions of tabloids.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import Inconclusive, Overflow, SizeMismatch, TooLarge, TwistlabError, check_prime
from .gf import Echelon, mm, nullspace, rank, rref, rref_with_transform
from .partitions import Partition

DEFAULT_MAX_DIM = 100_000
# past this degree two-row tabloid codes overflow 64 bits; one-row shapes do not,
# but would cost a factorial and a recursion as deep as the degree
_MAX_DEGREE = 62
# bytes of skeleton arrays kept between calls: every skeleton h0_dim builds
# up to degree 10 (about 51 MB) fits, so a loop with the prime outermost
# builds each shape once
_SKELETON_CACHE_BYTES = 64 * 2**20
# the basis holds residues mod p as int8
_MAX_PRIME = 127
# is_decomposable tests every element of End when p**dim(End) is at most
# ENUMERATE_BOUND, and otherwise this many random elements
ENUMERATE_BOUND = 2**20
_SAMPLES = 64


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
    sigma: tuple[np.ndarray, np.ndarray]  # index action of the two generators
    gen_signs: tuple[int, int]
    b_signed: np.ndarray  # standard polytabloids over Z, entries in {-1,0,1}
    std: np.ndarray  # index of the tabloid {t} of each standard tableau t
    tableau_signs: np.ndarray  # sgn(pi_s), where pi_s takes the first tableau to s

    @property
    def nbytes(self) -> int:
        arrays = (self.codes, *self.sigma, self.b_signed, self.std, self.tableau_signs)
        return sum(a.nbytes for a in arrays)


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
    sigma = [_index_of(codes, table[:, g] @ powers) for g in gens]
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
    return _Skeleton(
        parts, d, m, dim, codes, (sigma[0], sigma[1]), (signs[0], signs[1]),
        b_signed, found[0].copy(), _perm_parity(words),
    )


class SpechtModule:
    """S^lambda over GF(p): embedding matrix plus generator actions."""

    def __init__(self, lam: Partition, p: int, skeleton: _Skeleton):
        self.lam = lam
        self.p = p
        self.dim = skeleton.dim
        self.perm_dim = skeleton.m
        self._sk = skeleton
        self.basis = np.mod(skeleton.b_signed, p, dtype=np.int8)
        self._std_inverse: Optional[np.ndarray] = None
        self._std_rows: Optional[np.ndarray] = None
        self._gens: Optional[list[np.ndarray]] = None
        self._end: Optional[list[np.ndarray]] = None

    def __repr__(self) -> str:
        return f"SpechtModule({self.lam!r}, p={self.p}, dim={self.dim})"

    # -- permutation action on the tabloid coordinates ------------------

    def _permuted_basis(self, which: int) -> np.ndarray:
        sigma = self._sk.sigma[which]
        inv = np.empty_like(sigma)
        inv[sigma] = np.arange(len(sigma), dtype=sigma.dtype)
        return self.basis[:, inv]

    # -- coordinates in the polytabloid basis -----------------------------

    def _express(self, vectors: np.ndarray) -> tuple[np.ndarray, bool]:
        """Candidate coordinates c of the rows, and whether c @ basis gives them back.

        The rows hold residues mod p, as the basis does.  c is read off the
        standard-tabloid columns through the inverse of the unitriangular
        block basis[:, std]; a row outside the row space still gets some c,
        which the recheck exposes.
        """
        std = self._sk.std
        if self._std_inverse is None:
            _, inverse, piv = rref_with_transform(self.basis[:, std], self.p)
            if len(piv) != self.dim:
                raise AssertionError(f"standard-tabloid block of {self.lam} is singular")
            self._std_inverse = inverse
        c = mm(vectors[:, std], self._std_inverse, self.p)
        return c, np.array_equal(mm(c, self.basis, self.p), vectors)

    def coords(self, vectors: np.ndarray) -> np.ndarray:
        """Express rows (in tabloid coordinates) in the polytabloid basis.

        Uses only the dim x dim standard-tabloid block of the basis, then
        rechecks the product against the input; raises TwistlabError for a
        row outside the module.
        """
        c, inside = self._express(vectors)
        if not inside:
            raise TwistlabError("vector outside the module row space")
        return c

    def generators(self) -> list[np.ndarray]:
        """Action of (1 2) and (1 2 ... d) on the polytabloid basis."""
        if self._gens is None:
            self._gens = [self.coords(self._permuted_basis(k)) for k in (0, 1)]
        return self._gens

    def generator_signs(self) -> tuple[int, int]:
        return self._sk.gen_signs

    def _standard_rows(self) -> np.ndarray:
        """Row of each number 0..d-1 in each standard tabloid {t}, read off its code.

        Only Hom spaces need this, so it is built on the first call rather
        than with the skeleton.
        """
        if self._std_rows is None:
            n_rows, powers = _code_powers(self.lam.parts)
            self._std_rows = self._sk.codes[self._sk.std][:, None] // powers % n_rows
        return self._std_rows

    # -- invariants -------------------------------------------------------

    def invariants_dim(self) -> int:
        """Dimension of the fixed space: 1 if the all-ones row lies in the module, else 0.

        The fixed vectors of the transitive permutation module M^lambda are
        the multiples of the all-ones vector, so this is exact.
        """
        _, inside = self._express(np.ones((1, self.perm_dim), dtype=np.int64))
        return int(inside)


def build_specht(lam: Partition, p: int) -> SpechtModule:
    """Construct S^lambda over GF(p), refusing oversized permutation modules."""
    check_prime(p)
    if p > _MAX_PRIME:
        raise Overflow(f"residues mod {p} do not fit the int8 basis (p <= {_MAX_PRIME})")
    _check_degree(lam)
    env = os.environ.get("TWISTLAB_MAX_DIM")
    limit = int(env) if env else DEFAULT_MAX_DIM
    m = perm_module_dim(lam)
    if m > limit:
        raise TooLarge(
            f"M^{lam} has {m} tabloids, over the limit of {limit} (raise TWISTLAB_MAX_DIM)"
        )
    return SpechtModule(lam, p, _skeleton(lam.parts))


# -- Hom spaces ------------------------------------------------------------


def _spin_basis(p: int, gens: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Spin e_0 to a basis under the two generators, breadth first.

    Pair 2i + g stands for vector i times generator g.  Returns the spun
    vectors as rows in spin order, the pair that spawned each (-1 for the
    seed), and the pairs that spawned nothing with their images.  A whole
    level of the tree is moved with one product per generator; the new
    images, in the order a one-at-a-time spin meets them, are the pivot
    columns of the transposed images once the span so far is projected away.
    """
    n = gens[0].shape[0]
    vecs = np.zeros((n, n), dtype=np.int64)
    vecs[0, 0] = 1
    acc = Echelon(p, n)
    acc.add(vecs[:1])
    origin = [np.array([-1])]
    spare: list[np.ndarray] = []
    spare_img: list[np.ndarray] = []
    done, count = 0, 1
    while done < count:
        moved = np.stack([mm(vecs[done:count], g, p) for g in gens], axis=1).reshape(-1, n)
        reduced = acc.reduce(moved)
        _, piv = rref(reduced.T, p)
        fresh = np.zeros(len(moved), dtype=bool)
        fresh[piv] = True
        acc.add(reduced[fresh])
        vecs[count : count + len(piv)] = moved[fresh]
        pairs = 2 * done + np.arange(len(moved))
        origin.append(pairs[fresh])
        spare.append(pairs[~fresh])
        spare_img.append(moved[~fresh])
        done, count = count, count + len(piv)
    if count < n:
        raise TwistlabError("module is not generated by basis vector 0")
    return vecs, np.concatenate(origin), np.concatenate(spare), np.concatenate(spare_img)


def _seed_space(a: SpechtModule, b: SpechtModule) -> np.ndarray:
    """Rows spanning the x in S^b with tau x = -x for each column transposition tau of t.

    t is the first standard tableau of a, the row-reading one, so e_t is
    basis vector 0 of a, and tau e_t = sgn(tau) e_t for tau in the column
    group of t; the image x of e_t under any map S^a -> S^b must obey the
    same signs (James, LNM 682, section 17).  Adjacent cells of a column
    give transpositions that generate the column group.  tau x + x lies in
    S^b, so it vanishes when it vanishes on the standard tabloids {t_s}:
    on B's tabloid coordinates, x (basis[:, tau{t_s}] - sgn(tau) basis[:, {t_s}])
    = 0 for every s.  tau{t_s} swaps two digits of the code of {t_s}, so
    each transposition costs one lookup per tabloid and one block of dim b
    conditions.  The cut is sound but not complete: the spin still imposes
    every relation.
    """
    p = b.p
    parts = a.lam.parts
    codes, std = b._sk.codes, b._sk.std
    _, powers = _code_powers(b.lam.parts)
    rows = b._standard_rows()
    sign = -1  # sgn of a transposition
    start = np.cumsum((0,) + parts[:-1])  # the entry in row i, column j of t is start[i] + j
    cut = Echelon(p, b.dim)
    for i in range(len(parts) - 1):
        for j in range(parts[i + 1]):
            u, v = start[i] + j, start[i + 1] + j
            swapped = codes[std] + (rows[:, v] - rows[:, u]) * (powers[u] - powers[v])
            moved = _index_of(codes, swapped)
            block = b.basis[:, moved].astype(np.int64) - sign * b.basis[:, std]
            cut.add(np.mod(block, p).T)
            if cut.rank == b.dim:
                return cut.basis[:0]
    return cut.kernel()


def _spin_hom(
    p: int, gens_a: list[np.ndarray], gens_b: list[np.ndarray], seeds: np.ndarray
) -> list[np.ndarray]:
    """Hom space between modules, assuming A is generated by basis vector 0.

    Spin e_0 under the generators of A to a basis v_0..v_{n_a-1}, recording
    each new vector's parent and generator.  A homomorphism f is fixed by the
    seed image x = e_0 f, since v_j f is x times the word of v_j in the
    generators of B.  Every (vector, generator) pair that did not spawn a
    basis vector is a relation v_i g = sum_j c_j v_j, which f must respect:
    (v_i f) g = sum_j c_j (v_j f).

    The candidate seed images are the rows of K (k x n_b), at first
    `seeds`, a space known to hold every seed image (the column-sign cut of
    _seed_space, or the identity).  Their images on the spin basis are
    spun lazily along the tree, a prefix of nodes at a time: relations are
    sorted by the last node they touch, and each round doubles the spun
    prefix, imposes every relation it now reaches with one product, and
    replaces K and the images already spun by the kernel of those
    conditions.  Every relation is imposed, so the result is exact.  The
    images of k candidates on n_a nodes cost O(n_a k n_b^2) time and
    O(n_a k n_b) memory; k starts at the dimension of the seed space and
    only shrinks from there.
    """
    if seeds.shape[0] == 0:
        return []
    n_a = gens_a[0].shape[0]
    n_b = gens_b[0].shape[0]

    vecs, origin, spare, rel_img = _spin_basis(p, gens_a)
    _, vinv, piv = rref_with_transform(vecs, p)
    if len(piv) != n_a:
        raise AssertionError("spin basis lost rank")
    parent, step = origin // 2, origin % 2
    rel_node, rel_step = spare // 2, spare % 2
    coeff = mm(rel_img, vinv, p)
    touched = coeff != 0
    last = np.where(touched.any(axis=1), n_a - 1 - np.argmax(touched[:, ::-1], axis=1), 0)
    reach = np.maximum(last, rel_node) + 1  # spun prefix a relation needs
    order = np.argsort(reach, kind="stable")
    reach = reach[order]

    # imgs[j, c] is the image of v_j under candidate c; imgs[0] is K
    imgs = seeds[None]
    done = 0
    while done < len(order):
        spun = imgs.shape[0]
        target = min(n_a, max(2 * spun, int(reach[done])))
        if target > spun:
            grown = np.empty((target, imgs.shape[1], n_b), dtype=np.int64)
            grown[:spun] = imgs
            imgs = grown
            # parents never decrease in spin order, so the nodes whose parent
            # is already spun are a prefix of the rest
            while spun < target:
                ready = spun + int(np.searchsorted(parent[spun:target], spun))
                nodes = np.arange(spun, ready)
                imgs[spun:ready] = _apply_steps(imgs, parent[nodes], step[nodes], gens_b, p)
                spun = ready
        hi = int(np.searchsorted(reach, target, side="right"))
        batch = order[done:hi]
        done = hi
        k = imgs.shape[1]
        moved = _apply_steps(imgs, rel_node[batch], rel_step[batch], gens_b, p)
        combined = mm(coeff[batch, :target], imgs.reshape(target, k * n_b), p)
        conditions = moved - combined.reshape(len(batch), k, n_b)
        cut = Echelon(p, k)
        if not cut.add(conditions.transpose(0, 2, 1).reshape(-1, k)):
            continue
        keep = cut.kernel()
        if keep.shape[0] == 0:
            return []
        shrunk = mm(keep, imgs.transpose(1, 0, 2).reshape(k, target * n_b), p)
        imgs = np.ascontiguousarray(shrunk.reshape(-1, target, n_b).transpose(1, 0, 2))

    k = imgs.shape[1]
    maps = mm(vinv, imgs.reshape(n_a, k * n_b), p).reshape(n_a, k, n_b)
    stacked = np.ascontiguousarray(maps.transpose(1, 0, 2)).reshape(k * n_a, n_b)
    for g in (0, 1):
        left = mm(gens_a[g], maps.reshape(n_a, k * n_b), p).reshape(n_a, k, n_b)
        right = mm(stacked, gens_b[g], p).reshape(k, n_a, n_b).transpose(1, 0, 2)
        if not np.array_equal(left, right):
            raise AssertionError("candidate map failed the equivariance recheck")
    return [np.ascontiguousarray(maps[:, c]) for c in range(k)]


def _apply_steps(
    imgs: np.ndarray, nodes: np.ndarray, steps: np.ndarray, gens: list[np.ndarray], p: int
) -> np.ndarray:
    """imgs[nodes[r]] @ gens[steps[r]] for every r, one product per generator."""
    _, k, n = imgs.shape
    out = np.empty((len(nodes), k, n), dtype=np.int64)
    for g in (0, 1):
        sel = np.flatnonzero(steps == g)
        if sel.size:
            moved = mm(imgs[nodes[sel]].reshape(-1, n), gens[g], p)
            out[sel] = moved.reshape(sel.size, k, n)
    return out


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
    return _spin_hom(a.p, a.generators(), b.generators(), _seed_space(a, b))


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
        a._end = _spin_hom(a.p, a.generators(), a.generators(), _seed_space(a, a))
    return a._end


def is_decomposable(a: SpechtModule, seed: int = 0) -> bool:
    """Does S^lambda split?  Exact when the End algebra is small.

    With p**dim(End) within ENUMERATE_BOUND every element of End is tested for
    being a nontrivial idempotent, which decides the question outright.
    Otherwise random elements are tried: one that is neither nilpotent nor
    invertible splits the module; if no sample settles it, Inconclusive.
    """
    basis = end_ring(a)
    e = len(basis)
    n = a.dim
    p = a.p
    if e == 1:
        return False  # End is the scalars; local ring
    identity = np.eye(n, dtype=np.int64)
    if p**e <= ENUMERATE_BOUND:
        for coeffs in itertools.product(range(p), repeat=e):
            theta = np.zeros((n, n), dtype=np.int64)
            for c, mat in zip(coeffs, basis):
                if c:
                    theta = theta + c * mat
            theta %= p
            if not theta.any() or np.array_equal(theta, identity):
                continue
            if np.array_equal(mm(theta, theta, p), theta):
                return True
        return False
    rng = np.random.default_rng(seed)
    for _ in range(_SAMPLES):
        coeffs = rng.integers(0, p, size=e)
        theta = np.zeros((n, n), dtype=np.int64)
        for c, mat in zip(coeffs, basis):
            theta = theta + int(c) * mat
        theta %= p
        if not theta.any():
            continue
        if rank(theta, p) == n:
            continue
        power = theta
        for _ in range(max(1, n.bit_length())):
            power = mm(power, power, p)
        if power.any():
            return True  # stable image is a proper nonzero summand
    raise Inconclusive(
        f"no splitting idempotent found in {_SAMPLES} samples; End dim {e}"
    )


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
    dim x m coordinate recheck) plus two dim x dim by dim x 1 products.
    """
    _check_degree(lam)
    if perm_module_dim(lam) <= perm_module_dim(lam.conjugate()):
        return invariants_dim(build_specht(lam, p))
    module = build_specht(lam.conjugate(), p)
    forced = module._sk.tableau_signs[:, None]
    pairs = zip(module.generators(), module.generator_signs())
    return int(all(np.array_equal(mm(g, forced, p), np.mod(s * forced, p)) for g, s in pairs))
