"""Dense linear algebra over GF(p) for small primes.

One residue contract holds for every function here.  An array handed in
holds integers in (-p, p), in any integer dtype: residues, signs +-1, or the
difference of two residues.  An array handed back holds residues in [0, p).
So no operand is copied and reduced on the way in.  Matrix products ride
BLAS by casting the operands straight to float32/float64, which is exact
because every accumulated sum is at most inner * (p-1)^2 in absolute value
and stays below the mantissa (Overflow otherwise).  The exact float product
is cast to int64 and reduced there by integer remainder, in place: numpy's
float remainder costs several times the GEMM itself on tall products.
Matrices are plain 2-d ndarrays; the helpers never mutate their arguments.

A product against a wide right operand, such as a Specht module's
polytabloid matrix with one column per tabloid, runs in column panels
(mm_panels): the left operand is cast to float once, and each panel holds
about _PANEL_ENTRIES entries of the right operand, so the float copies and
the int64 result of one panel are all that a product adds to memory.

Elimination has one path, Echelon: a head of at most 128 rows is reduced
column by column in an int64 copy, and one mm clears its pivots from the
other rows.  rref and nullspace are thin fronts over it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import Overflow

# entries of the right operand in one panel of mm_panels, and the fewest
# columns a panel has: narrower panels make a tall operand's products slow
_PANEL_ENTRIES = 2**16
_PANEL_FLOOR = 256


def _exact_dtype(inner: int, p: int) -> type:
    """The narrowest float that sums inner products of residues mod p exactly."""
    worst = inner * (p - 1) ** 2
    if worst >= 2**53:
        raise Overflow(f"an inner dimension of {inner} mod {p} passes the float64 mantissa")
    return np.float32 if worst < 2**24 else np.float64


def mm(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product of two mod-p matrices, reduced mod p, as int64.

    Every entry of the float product is an integer below the mantissa, so the
    cast to int64 is exact; integer % then maps negative sums into [0, p)
    at a fraction of the cost of np.mod on floats.
    """
    dtype = _exact_dtype(np.shape(a)[1], p)
    c = np.dot(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))
    r = c.astype(np.int64)
    r %= p
    return r


def mm_panels(a: np.ndarray, b: np.ndarray, p: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The product a @ b mod p one column panel at a time: (columns of b, mm of that panel).

    a is cast to float once; each panel is then one mm, so no temporary is
    wider than a panel.  A caller that stops early skips the later panels.
    """
    inner, width = np.shape(b)
    left = np.asarray(a, dtype=_exact_dtype(inner, p))
    step = max(_PANEL_FLOOR, _PANEL_ENTRIES // max(inner, 1))
    for start in range(0, width, step):
        cols = slice(start, min(start + step, width))
        yield cols, mm(left, b[:, cols], p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form, zero rows kept, and pivot columns."""
    rows, cols = np.shape(a)
    ech = Echelon(p, cols)
    ech.add(a)
    return np.vstack([ech.basis, np.zeros((rows - ech.rank, cols), dtype=np.int64)]), ech.pivots


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : a @ x == 0 mod p}."""
    ech = Echelon(p, np.shape(a)[1])
    ech.add(a)
    return ech.kernel()


class Echelon:
    """Incremental row space over GF(p), fed in batches.

    Keeps a fully reduced echelon basis so each new batch is cleaned with a
    single matrix product before the small leftover elimination.  Useful when
    the row count dwarfs the column count (stacked equivariance conditions).
    """

    def __init__(self, p: int, cols: int):
        self.p = p
        self.cols = cols
        self.basis = np.zeros((0, cols), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, batch: np.ndarray) -> np.ndarray:
        """Return the batch with the current row space projected away."""
        if not self.pivots:
            return np.mod(batch, self.p)
        coeff = batch[:, self.pivots]
        return np.mod(batch - mm(coeff, self.basis, self.p), self.p)

    def add(self, batch: np.ndarray) -> int:
        """Absorb new rows; returns how many were independent."""
        added = 0
        # with no rows stored there is nothing to project; the panel reduces the head
        w = self.reduce(batch) if self.pivots else np.asarray(batch)
        w = w[np.any(w, axis=1)]
        while w.shape[0]:
            # w is zero on every stored pivot: eliminate a small head, BLAS-clean the rest
            head, w = w[:128], w[128:]
            red, piv = self._panel(head)
            added += self._absorb(red, piv)
            if w.shape[0]:
                w = np.mod(w - mm(w[:, piv], red, self.p), self.p)
                w = w[np.any(w, axis=1)]
        return added

    def _panel(self, head: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced echelon rows of a head of nonzero rows, and their pivot columns."""
        p = self.p
        r = np.mod(head, p, dtype=np.int64)
        pivots: list[int] = []
        lead = 0
        for c in range(r.shape[1]):
            if lead == len(r):
                break
            nz = np.nonzero(r[lead:, c])[0]
            if nz.size == 0:
                continue
            i = lead + int(nz[0])
            if i != lead:
                r[[lead, i]] = r[[i, lead]]
            inv = pow(int(r[lead, c]), p - 2, p)
            if inv != 1:
                r[lead] = np.mod(r[lead] * inv, p)
            col = r[:, c].copy()
            col[lead] = 0
            hit = np.nonzero(col)[0]
            if hit.size:
                r[hit] = np.mod(r[hit] - np.outer(col[hit], r[lead]), p)
            pivots.append(c)
            lead += 1
        return r[:lead], pivots

    def _absorb(self, red: np.ndarray, piv: list[int]) -> int:
        coeff = self.basis[:, piv]
        if np.any(coeff):
            self.basis = np.mod(self.basis - mm(coeff, red, self.p), self.p)
        merged = np.vstack([self.basis, red])
        order = np.argsort(self.pivots + piv, kind="stable")
        self.basis = merged[order]
        self.pivots = sorted(self.pivots + piv)
        return len(piv)

    def kernel(self) -> np.ndarray:
        """Rows spanning {x : x has zero product with every stored row}.

        The stored rows are constraints c with x @ c^T == 0; equivalently the
        nullspace of the basis matrix acting on column vectors.  Row k puts 1
        on the k-th free column f and -basis[i, f] on pivot column pivots[i].
        """
        is_free = np.ones(self.cols, dtype=bool)
        is_free[self.pivots] = False
        free = np.flatnonzero(is_free)
        kern = np.zeros((free.size, self.cols), dtype=np.int64)
        kern[np.arange(free.size), free] = 1
        kern[:, self.pivots] = np.mod(-self.basis[:, free].T, self.p)
        return kern
