import random

import numpy as np
from hypothesis import strategies as st

import twistlab.mullineux as mullineux_module
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


def partitions_by_prefix(d, kind="all", p=None):
    """Oracle: the parts of each partition of d, in decreasing lexicographic order.

    Every prefix is extended by every smaller part, the run of equal parts at
    its end counted again for each candidate; nothing is pruned, so it checks
    the library's bounded descent.  Plain tuples keep it cheap.
    """
    if kind == "two_part":
        return [tuple(x for x in (v, d - v) if x) for v in range(d, (d - 1) // 2, -1)]
    found = []

    def descend(remaining, maxpart, prefix):
        if remaining == 0:
            found.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            if kind == "p_regular" and prefix:
                run = 1
                for prev in reversed(prefix):
                    if prev != part:
                        break
                    run += 1
                if run >= p:
                    continue
            prefix.append(part)
            descend(remaining - part, part - 1 if kind == "distinct" else part, prefix)
            prefix.pop()

    descend(d, d, [])
    return found


def conjugate_by_cells(lam):
    """Oracle: the conjugate of lam, one cell of the diagram at a time."""
    cols = [0] * lam.part(0)
    for part in lam.parts:
        for j in range(part):
            cols[j] += 1
    return Partition(cols)


def single_insertions(sym):
    """Oracle: the partition of sym rebuilt one `_insert_raw` per column, last column first.

    No run is walked and no period jumped, so it checks the walker's jumps.
    """
    nu = ()
    for a, r, count in reversed(sym.runs):
        for _ in range(count):
            nu = mullineux_module._insert_raw(nu, a, r, sym.p)[0]
    return Partition(nu)


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
