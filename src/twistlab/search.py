"""Desk-scale exhaustive searches with deterministic, auditable reports.

Every search enumerates a finite family (partitions of d, two-row pairs,
twist exponents), evaluates a purely combinatorial predicate from
:mod:`twistlab.mullineux`, :mod:`twistlab.criteria` or :mod:`twistlab.abacus`,
and returns a :class:`SearchReport`.  Certificates are stored inline (the
recomputed images, quotients, or digit witnesses) so a report can be audited
without rerunning the scan.

Every scan is its cases and a judge, run by one function, ``_scan``.  It
takes at most ``_MAX_SCAN_CASES`` + 1 cases (partitions of d, two-row
pairs of d or exponent pairs (a, b)) before judging any and refuses a family
that had more with TooLarge, so the budget counts what a scan holds.  The
census groups its held partitions into blocks.  Every other scan is a twist
scan, an invariant and a relation on a case's twist ladder: the invariant
(the Mullineux map, or Ext^1 of a pair) at p^a times the case, each rung
computed at most once, when the relation first reads it.  The repeated
twist reads one ladder for all its exponent pairs.  A twist scan refuses a p
that is not prime before it takes a case.  ``_SCANS`` names every scan once:
its function here, its input keys and the field its hits carry.  Each is a
row of the command line's table, which looks it up each time it runs it, for
a command or a fixture; a new invariant is one table row plus its function.

Reports are deterministic: identical parameters yield byte-identical bodies.
Wall-clock time lives outside the body, in :attr:`SearchReport.elapsed`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from . import __version__
from .abacus import block_census
from .criteria import ks_ext1
from .errors import (
    HypothesisViolated,
    NonPartitionDifference,
    Overflow,
    TooLarge,
    check_prime,
)
from .mullineux import mullineux_map
from .partitions import _PART_MAX, Partition, enumerate_partitions

__all__ = [
    "SearchReport",
    "find_twist_commuting",
    "check_twist_persistence",
    "find_p_image",
    "multi_twist_scan",
    "ks_stability_scan",
    "census",
]

_SCHEMA = 1
# cases one scan may hold: partitions of d, (lambda, mu) pairs for the Ext^1
# scan, (a, b) pairs for the repeated twist; taking one more and refusing
# costs at most about 0.1 s.  The slowest scan within it, persistence at
# p = 2 and d = 59 (9,792 cases), takes about 4 s on a 2-core machine, and
# census and the Ext^1 scan stay under 0.5 s
_MAX_SCAN_CASES = 10_000

Hit = Dict[str, Any]
# what a visitor returns for one case: its hits and its counterexamples
Visit = Tuple[List[Hit], List[Hit]]
# what judges the held cases: every hit and counterexample, in case order
Judge = Callable[[List[Any]], Visit]
# a case's twist ladder: rungs(a) is the scan's invariant at p^a times the case
Rungs = Callable[[int], Any]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive scan.

    The body (everything except ``elapsed``) is a pure function of
    ``search`` and ``parameters``; ``body_bytes`` is its canonical JSON
    encoding, suitable for hashing or byte comparison across runs.
    """

    search: str
    parameters: Dict[str, Any]
    hits: Tuple[Hit, ...]
    counterexamples: Tuple[Hit, ...]
    scanned: int
    elapsed: float
    version: str = field(default=__version__)

    def body(self) -> Dict[str, Any]:
        return {
            "schema": _SCHEMA,
            "search": self.search,
            "parameters": self.parameters,
            "hits": list(self.hits),
            "counterexamples": list(self.counterexamples),
            "scanned": self.scanned,
            "version": self.version,
        }

    def body_bytes(self) -> bytes:
        return json.dumps(self.body(), sort_keys=True, separators=(",", ":")).encode()

    def to_dict(self) -> Dict[str, Any]:
        out = self.body()
        out["elapsed"] = self.elapsed
        return out


def _parts(lam: Partition) -> List[int]:
    return list(lam.parts)


def _scan(search: str, parameters: Dict[str, Any], cases: Iterable[Any],
          judge: Judge) -> SearchReport:
    """Hold at most _MAX_SCAN_CASES cases, judge them and report; TooLarge past it."""
    start = time.perf_counter()
    held = list(islice(cases, _MAX_SCAN_CASES + 1))
    if len(held) > _MAX_SCAN_CASES:
        at = ", ".join(f"{key} = {value}" for key, value in parameters.items())
        raise TooLarge(f"{search} at {at} visits more than the limit of {_MAX_SCAN_CASES} cases")
    hits, bad = judge(held)
    return SearchReport(
        search=search,
        parameters=parameters,
        hits=tuple(hits),
        counterexamples=tuple(bad),
        scanned=len(held),
        elapsed=time.perf_counter() - start,
    )


def _each(visit: Callable[[Any], Visit]) -> Judge:
    """Judge held cases one at a time, in order, by a visitor of one case."""
    def judge(held: List[Any]) -> Visit:
        visits = [visit(case) for case in held]
        return [h for v in visits for h in v[0]], [c for v in visits for c in v[1]]
    return judge


def _twists(invariant: Callable[..., Any], case: Tuple[Partition, ...], p: int) -> Rungs:
    """The twist ladder of a case: a -> invariant(p^a * case, p), each rung once, on first use."""
    rungs: Dict[int, Any] = {}  # not functools.cache, whose wrapper per case slowed ks-stability
    def rung(a: int) -> Any:
        if a not in rungs:
            rungs[a] = invariant(*(lam.scale(p**a) if a else lam for lam in case), p)
        return rungs[a]
    return rung


def _twist_scan(search: str, parameters: Dict[str, Any], cases: Iterable[Tuple[Partition, ...]],
                invariant: Callable[..., Any], relation: Callable[..., Visit]) -> SearchReport:
    """Judge each case by relation(case, its twist ladder, p); NotPrime before any case."""
    p = parameters["p"]
    check_prime(p)
    return _scan(search, parameters, cases,
                 _each(lambda case: relation(case, _twists(invariant, case, p), p)))


def _fixed_point(case: Tuple[Partition], m: Rungs, p: int) -> Visit:
    if m(0) != m(1).divide(p):
        return [], []
    return [{"lambda": _parts(case[0]), "m_lambda": _parts(m(0)), "m_p_lambda": _parts(m(1))}], []


def find_twist_commuting(d: int, p: int) -> SearchReport:
    """All p-regular partitions of d whose twist by p commutes with the map.

    A hit is a partition lam with m(p*lam) = p*m(lam); both images are stored
    so the identity can be rechecked from the report alone.
    """
    cases = zip(enumerate_partitions(d, "p_regular", p))  # each partition as a 1-tuple
    return _twist_scan("fixed-points", {"d": d, "p": p}, cases, mullineux_map, _fixed_point)


def _persistence(case: Tuple[Partition], m: Rungs, p: int) -> Visit:
    if m(0) != m(1).divide(p):
        return [], []
    record = {"lambda": _parts(case[0]), "m_p_lambda": _parts(m(1)), "m_p2_lambda": _parts(m(2))}
    return ([record], []) if m(1) == m(2).divide(p) else ([], [record])


def check_twist_persistence(d: int, p: int) -> SearchReport:
    """Whether every twist-commuting partition of d stays twist-commuting.

    Scans the p-regular partitions of d; among those with m(p*lam) = p*m(lam),
    the hits also satisfy m(p^2*lam) = p*m(p*lam) and the counterexamples do
    not.  The counterexample list is expected to be empty.
    """
    cases = zip(enumerate_partitions(d, "p_regular", p))
    return _twist_scan("persistence", {"d": d, "p": p}, cases, mullineux_map, _persistence)


def _p_image(case: Tuple[Partition], m: Rungs, p: int) -> Visit:
    tau = m(1).divide(p)
    if tau is None:
        return [], []
    return [{"lambda": _parts(case[0]), "m_p_lambda": _parts(m(1)), "tau": _parts(tau)}], []


def find_p_image(d: int, p: int) -> SearchReport:
    """All p-regular lam of d where m(p*lam) is itself p times a partition.

    Each hit stores the quotient tau = m(p*lam)/p as its certificate.  This
    is strictly weaker than twist commuting, so those hits always reappear.
    """
    cases = zip(enumerate_partitions(d, "p_regular", p))
    return _twist_scan("p-image", {"d": d, "p": p}, cases, mullineux_map, _p_image)


def multi_twist_scan(lam: Partition, p: int, max_b: int) -> SearchReport:
    """Which exponent pairs 1 <= a < b <= max_b witness a clean repeated twist.

    A pair (a, b) witnesses when m(p^b*lam) - m(p^a*lam) is a partition
    divisible by p^a; the quotient tau is stored with the pair.  Pairs where
    the subtraction fails or the quotient is not integral are simply absent
    from the hits.  ``scanned`` counts pairs.
    """
    check_prime(p)
    if max_b < 2:
        raise HypothesisViolated("max_b must be at least 2")
    # p^64 > 2^63 for every p >= 2, so the cap leaves the answer as it is
    if lam and lam.part(0) * p ** min(max_b, 64) > _PART_MAX:
        raise Overflow(f"p^{max_b} * {lam} exceeds 64-bit parts")
    m = _twists(mullineux_map, (lam,), p)  # one ladder, shared by every pair

    def visit(pair: Tuple[int, int]) -> Visit:
        a, b = pair
        low, high = m(a), m(b)
        try:
            diff = high - low
        except NonPartitionDifference:
            return [], []
        tau = diff.divide(p**a)
        if tau is None:
            return [], []
        return [{"a": a, "b": b, "difference": _parts(diff), "tau": _parts(tau)}], []

    parameters = {"lambda": _parts(lam), "p": p, "max_b": max_b}
    return _scan("multi-twist", parameters, combinations(range(1, max_b + 1), 2), _each(visit))


def _ks_stability(case: Tuple[Partition, Partition], ext1: Rungs, p: int) -> Visit:
    plain, once, twice = ext1(0), ext1(1), ext1(2)
    record = {"lambda": _parts(case[0]), "mu": _parts(case[1])}
    changed = [{**record, "untwisted": plain, "once": once}] if plain != once else []
    unstable = [{**record, "once": once, "twice": twice}] if once != twice else []
    return changed, unstable


def ks_stability_scan(d: int, p: int) -> SearchReport:
    """Scan all ordered two-row pairs of d for twist instability of Ext^1.

    Counterexamples collect pairs where the p-scaled and p^2-scaled dimensions
    differ (expected none); hits collect the milder phenomenon where the first
    scaling already changes the unscaled answer.  ``scanned`` counts pairs.
    """
    # the pairs in product order, but lazy: a huge d costs only the pairs taken
    family = partial(enumerate_partitions, d, "two_part")
    pairs = ((lam, mu) for lam in family() for mu in family())
    return _twist_scan("ks-stability", {"d": d, "p": p}, pairs,
                       lambda lam, mu, p: ks_ext1(p, lam, mu), _ks_stability)


def census(d: int, p: int) -> SearchReport:
    """Group the partitions of d into p-blocks, flagging p-by-p members.

    One hit per block: the p-core, the common weight, the member list in
    enumeration order, and the members all of whose part values and part
    multiplicities are divisible by p.
    """
    def judge(held: List[Partition]) -> Visit:
        blocks = [
            {
                "core": _parts(b.core),
                "weight": b.weight,
                "members": [_parts(m) for m in b.members],
                "p_by_p": [_parts(m) for m in b.p_by_p_members],
            }
            for b in block_census(held, p)
        ]
        return blocks, []

    return _scan("census", {"d": d, "p": p}, enumerate_partitions(d), judge)


# scan name -> (name of its function in this module, its arguments as input
# keys, the field its hits carry for a search fixture: pairs, hit_lambdas or
# None); the command line reads its scans and their fixtures from here
_SCANS: Dict[str, Tuple[str, Tuple[str, ...], Optional[str]]] = {
    "fixed-points": ("find_twist_commuting", ("d", "p"), "hit_lambdas"),
    "persistence": ("check_twist_persistence", ("d", "p"), "hit_lambdas"),
    "p-image": ("find_p_image", ("d", "p"), "hit_lambdas"),
    "multi-twist": ("multi_twist_scan", ("lambda", "p", "max_b"), "pairs"),
    "ks-stability": ("ks_stability_scan", ("d", "p"), "hit_lambdas"),
    "census": ("census", ("d", "p"), None),
}
