import random

import numpy as np
from hypothesis import strategies as st

from twistlab.partitions import Partition


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Oracle: reduced row echelon form and pivot columns, one column at a time.

    The per-column elimination over the whole matrix, with no row heads and
    no mm, so it checks the library's blocked Echelon path.
    """
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
    """Oracle: rref plus the invertible T with T @ a == rref mod p."""
    rows, cols = np.shape(a)
    red, piv = rref(np.hstack([a, np.eye(rows, dtype=np.int64)]), p)
    pivots = [c for c in piv if c < cols]
    return red[:, :cols], red[:, cols:], pivots


def rank(a, p):
    """Rank of a matrix over GF(p): the number of pivots of the oracle's reduced form."""
    return len(rref(a, p)[1])


@st.composite
def partitions(draw, max_size=30, max_part=None):
    """Random partition, drawn by repeatedly choosing weakly smaller parts."""
    size = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = size
    cap = max_part or size
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return Partition(tuple(parts))


@st.composite
def distinct_partitions(draw, max_part=12):
    """Random partition with strictly decreasing parts."""
    pool = draw(st.sets(st.integers(min_value=1, max_value=max_part), min_size=1, max_size=6))
    return Partition(tuple(sorted(pool, reverse=True)))


def random_regular(d, p, rng=None):
    """One uniformly-ish random p-regular partition of d, by rejection."""
    rng = rng or random.Random(0)
    while True:
        parts = []
        remaining = d
        cap = d
        while remaining:
            part = rng.randint(1, min(cap, remaining))
            parts.append(part)
            cap = part
            remaining -= part
        lam = Partition(tuple(parts))
        if lam.is_p_regular(p):
            return lam
