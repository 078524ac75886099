"""Closed-form criteria for Ext groups, hook endomorphism rings, and Specht fixed points.

Three families of fast predicates:

* ``ks_ext1`` decides whether the Ext^1 group between two two-row simple
  modules is one-dimensional, by inspecting base-p digits.
* ``murphy_end_dim`` / ``murphy_indecomposable`` give the endomorphism
  algebra dimension and decomposability of hook Specht modules in
  characteristic two.
* ``h0_specht_nonzero`` decides whether a Specht module has nonzero
  fixed points, row by row, via congruences on consecutive parts.

Each family comes with a stability statement under scaling or prepending,
exposed as a checked boolean (``ks_twist_stable``, ``murphy_twist_invariance``,
``h0_prepend_stable``).  The heavy linear-algebra counterparts that these
formulas are tested against live in :mod:`twistlab.specht`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import (
    CongruenceViolated,
    EqualSizeRequired,
    HypothesisViolated,
    NotTwoPart,
    PrimeTooSmall,
    TooLarge,
    check_prime,
)
from .gf import nullspace
from .partitions import Partition, l_p

__all__ = [
    "ks_ext1",
    "ks_ext1_witness",
    "ks_twist_stable",
    "murphy_end_dim",
    "murphy_indecomposable",
    "murphy_summand_count",
    "murphy_twist_invariance",
    "h0_specht_nonzero",
    "h0_failed_row",
    "h0_prepend_stable",
]


# murphy_summand_count refuses odd d past this leg r; its cost grows as r^4
_MAX_SUMMAND_LEG = 48
# overlap tables kept between calls, each (r+1)^3 bytes: 0.12 MB at r = 48
_OVERLAP_CACHE_SIZE = 16


def _two_part(lam: Partition) -> Tuple[int, int]:
    if len(lam) > 2:
        raise NotTwoPart(f"{lam} has more than two parts")
    return lam.part(0), lam.part(1)


def ks_ext1_witness(p: int, lam: Partition, mu: Partition) -> Optional[int]:
    """Digit index certifying a nonzero Ext^1, or None when the group vanishes.

    Write the two partitions as (v, u) and (s, r) with u >= r, swapping if
    necessary, and expand v - u + 1 in base p with digits a_i.  The group is
    nonzero exactly when some digit a_i > 0 satisfies
    u - r = (p - a_i) * p**i and the carry gate a_{i+1} < p - 1 or u < p**(i+2).
    """
    check_prime(p)
    if p < 3:
        raise PrimeTooSmall("an odd prime is required")
    v, u = _two_part(lam)
    s, r = _two_part(mu)
    if v + u != s + r:
        raise EqualSizeRequired(f"|{lam}| != |{mu}|")
    if u < r:
        v, u, s, r = s, r, v, u
    n = v - u + 1
    digits = []
    while n:
        digits.append(n % p)
        n //= p
    gap = u - r
    for i, a in enumerate(digits):
        if a == 0:
            continue
        if gap != (p - a) * p**i:
            continue
        nxt = digits[i + 1] if i + 1 < len(digits) else 0
        if nxt < p - 1 or u < p ** (i + 2):
            return i
    return None


def ks_ext1(p: int, lam: Partition, mu: Partition) -> int:
    """Dimension (0 or 1) of Ext^1 between the two-row simples labelled lam, mu."""
    return 0 if ks_ext1_witness(p, lam, mu) is None else 1


def ks_twist_stable(p: int, lam: Partition, mu: Partition) -> bool:
    """Check that Ext^1 is unchanged when both labels are scaled from p to p^2."""
    once = ks_ext1(p, lam.scale(p), mu.scale(p))
    twice = ks_ext1(p, lam.scale(p * p), mu.scale(p * p))
    if once != twice:
        raise CongruenceViolated(f"Ext^1 of ({lam}, {mu}) scaled by p and p^2: {once} != {twice}")
    return True


def _check_hook(d: int, r: int) -> None:
    if r < 0 or d < 1:
        raise HypothesisViolated("need d >= 1 and r >= 0")
    if d < 2 * r:
        raise HypothesisViolated(f"d={d} < 2r={2 * r}")


def murphy_end_dim(d: int, r: int) -> int:
    """Dimension of End(S^(d-r, 1^r)) over a field of characteristic two.

    Requires d >= 2r.  The value is 1 for even d and floor(r/2) + 1 for odd d.
    """
    _check_hook(d, r)
    if d % 2 == 0:
        return 1
    return r // 2 + 1


@lru_cache(maxsize=_OVERLAP_CACHE_SIZE)
def _overlap_products(d: int, r: int) -> np.ndarray:
    """GF(2) structure constants for the overlap operators on r-subsets.

    T_i sends an r-subset A of a d-set to the sum of all r-subsets B with
    |A meet B| = i.  For d >= 2r these span the full commuting algebra of
    the permutation action (one basis element per orbit on pairs), and
    T_i T_j = sum_k N[k][i][j] T_k where N[k][i][j] counts, for a fixed
    pair A, B with overlap k, the r-subsets C meeting A in j and B in i
    points.  Only the parity of each count matters here, and C(a, b) is odd
    exactly when the bits of b are among those of a (Lucas), so d costs nothing.
    Every such b is at most r, so only d mod 2^(r.bit_length()) matters, and
    callers pass d reduced to that (the & below reads a negative d - 2r + k
    in two's complement, whose low bits are those of the unreduced value).
    Returns N mod 2 as an (r+1)^3 array of 0/1, one plane per k; the terms
    of each sum run over t, the points C shares with both A and B.
    """
    m = r + 1
    i = np.arange(m)[:, None, None]
    j = np.arange(m)[None, :, None]
    t = np.arange(m)[None, None, :]
    rest = r - i - j + t
    shared = (t <= np.minimum(i, j)) & (rest >= 0)
    table = np.empty((m, m, m), dtype=np.uint8)
    for k in range(m):
        odd = (
            shared
            & (k & t == t)
            & ((r - k) & (j - t) == j - t)
            & ((r - k) & (i - t) == i - t)
            & ((d - 2 * r + k) & rest == rest)
        )
        table[k] = np.count_nonzero(odd, axis=2) % 2
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def murphy_summand_count(d: int, r: int) -> int:
    """Number of indecomposable summands of S^(d-r, 1^r) at p = 2.

    Requires d >= 2r.  Hooks are exterior powers of the natural module V,
    and for odd d the permutation module on r-subsets splits as
    wedge^r V + wedge^(r-1) V, so End(wedge^r V) sits inside the commuting
    algebra spanned by the overlap operators, cut out by the projector
    (1+r) T_r + T_(r-1).  In characteristic two the idempotents of a
    commutative algebra form a linear subspace (squaring is linear), so
    the summands are counted by the dimension of the solution space of
    two GF(2) systems: f f = f and f proj = f.  Odd d with r past
    _MAX_SUMMAND_LEG is refused with TooLarge.
    """
    _check_hook(d, r)
    if d % 2 == 0 or r < 2:
        return 1
    if r > _MAX_SUMMAND_LEG:
        raise TooLarge(f"leg r={r} of the hook is over the limit of {_MAX_SUMMAND_LEG}")
    table = _overlap_products(d % (1 << r.bit_length()), r)
    proj = np.zeros(r + 1, dtype=np.uint8)
    proj[r - 1], proj[r] = 1, (1 + r) & 1
    # table[k, i, j] is the coefficient of T_k in T_i T_j, so column i of
    # square holds T_i T_i and column i of against holds T_i proj
    square = table.diagonal(axis1=1, axis2=2)
    against = table @ proj % 2
    if not np.array_equal(against @ proj % 2, proj):
        raise AssertionError(f"projector fails to square to itself at d={d}, r={r}")
    # x -> x*x + x and x -> x*proj + x are both linear; stack them so the
    # kernel is exactly the subordinate idempotents of proj.
    identity = np.eye(r + 1, dtype=np.uint8)
    return int(nullspace(np.vstack([square ^ identity, against ^ identity]), 2).shape[0])


def murphy_indecomposable(d: int, r: int) -> bool:
    """Whether the hook Specht module S^(d-r, 1^r) is indecomposable at p = 2.

    Requires d >= 2r.  For even d, and for legs r < 2, the module is always
    indecomposable; odd d goes through the summand count.
    """
    return murphy_summand_count(d, r) == 1


def murphy_twist_invariance(d: int, r: int) -> bool:
    """Check the two hook stability laws: End under d+2, decomposability under d+2^L."""
    _check_hook(d, r)
    if murphy_end_dim(d, r) != murphy_end_dim(d + 2, r):
        raise CongruenceViolated(f"End dim of the leg-{r} hook changes from d={d} to d={d + 2}")
    step = 1 << r.bit_length()
    if murphy_indecomposable(d, r) != murphy_indecomposable(d + step, r):
        raise CongruenceViolated(
            f"decomposability of the leg-{r} hook changes from d={d} to d={d + step}"
        )
    return True


def h0_failed_row(lam: Partition, p: int) -> Optional[int]:
    """First row i (1-based) where lam_i is not -1 mod p^(l_p of the next part).

    Returns None when every consecutive pair passes, i.e. when the Specht
    module S^lam has nonzero fixed points.
    """
    check_prime(p)
    for i in range(len(lam) - 1):
        below = lam.part(i + 1)
        if below == 0:
            break
        if (lam.part(i) + 1) % p ** l_p(below, p) != 0:
            return i + 1
    return None


def h0_specht_nonzero(lam: Partition, p: int) -> bool:
    """Whether S^lam has nonzero fixed points in characteristic p."""
    return h0_failed_row(lam, p) is None


def h0_prepend_stable(lam: Partition, a: int, p: int) -> bool:
    """Check that prepending a compatible first row a preserves the fixed-point test.

    Requires a >= lam_1 and a = -1 mod p^(l_p of lam_1); otherwise the prepended
    sequence is either not a partition or breaks the new top congruence row,
    and CongruenceViolated is raised.
    """
    top = lam.part(0)
    if a < top:
        raise CongruenceViolated(f"a={a} is smaller than the first part {top}")
    if (a + 1) % p ** l_p(top, p) != 0:
        raise CongruenceViolated(f"a={a} is not -1 mod p^{l_p(top, p)}")
    before = h0_specht_nonzero(lam, p)
    after = h0_specht_nonzero(Partition((a,) + lam.parts), p)
    if before != after:
        raise CongruenceViolated(f"prepending {a} to {lam} turns the H^0 test {before} -> {after}")
    return True
