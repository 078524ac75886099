import random

from hypothesis import strategies as st

from twistlab.gf import rref
from twistlab.partitions import Partition


def rank(a, p):
    """Rank of a matrix over GF(p): the number of pivots of its reduced form."""
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
