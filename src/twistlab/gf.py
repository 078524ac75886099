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
Elimination writes into an int64 working copy anyway; it reduces that copy
once, and again after each pivot.  Matrices are plain 2-d ndarrays; the
helpers never mutate their arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import Overflow


def mm(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product of two mod-p matrices, reduced mod p, as int64.

    Every entry of the float product is an integer below the mantissa, so the
    cast to int64 is exact; integer % then maps negative sums into [0, p)
    at a fraction of the cost of np.mod on floats.
    """
    inner = np.shape(a)[1]
    worst = inner * (p - 1) ** 2
    if worst >= 2**53:
        raise Overflow(f"an inner dimension of {inner} mod {p} passes the float64 mantissa")
    dtype = np.float32 if worst < 2**24 else np.float64
    c = np.dot(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))
    r = c.astype(np.int64)
    r %= p
    return r


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns."""
    r = np.array(a, dtype=np.int64)
    np.mod(r, p, out=r)
    rows, cols = r.shape
    pivots: list[int] = []
    lead = 0
    for c in range(cols):
        if lead == rows:
            break
        sub = r[lead:, c]
        nz = np.nonzero(sub)[0]
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
    return r, pivots


def rref_with_transform(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """rref plus the invertible T with T @ a == rref mod p."""
    rows, cols = np.shape(a)
    red, piv = rref(np.hstack([a, np.eye(rows, dtype=np.int64)]), p)
    pivots = [c for c in piv if c < cols]
    return red[:, :cols], red[:, cols:], pivots


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : a @ x == 0 mod p}."""
    red, piv = rref(a, p)
    return _free_column_kernel(red, piv, p)


def _free_column_kernel(red: np.ndarray, piv: list[int], p: int) -> np.ndarray:
    """Kernel basis of a reduced echelon matrix: one row per free column.

    Row k puts 1 on the k-th free column f and -red[i, f] on pivot column
    piv[i]; rows of red past len(piv) are ignored.
    """
    cols = red.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = np.mod(-red[: len(piv)][:, free].T, p)
    return basis


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
        # with no rows stored there is nothing to project; rref reduces the head
        w = self.reduce(batch) if self.pivots else np.asarray(batch)
        w = w[np.any(w, axis=1)]
        while w.shape[0]:
            # eliminate a small head exactly, then BLAS-clean the rest
            head, w = w[:128], w[128:]
            red, piv = rref(head, self.p)
            added += self._absorb(red[: len(piv)], piv)
            if w.shape[0]:
                w = self.reduce(w)
                w = w[np.any(w, axis=1)]
        return added

    def _absorb(self, red: np.ndarray, piv: list[int]) -> int:
        if not piv:
            return 0
        if self.pivots:
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
        nullspace of the basis matrix acting on column vectors.
        """
        return _free_column_kernel(self.basis, self.pivots, self.p)
