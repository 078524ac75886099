"""Desk-scale exhaustive searches with deterministic, auditable reports.

Every search enumerates a finite family (partitions of d, two-row pairs,
twist exponents), evaluates a purely combinatorial predicate from
:mod:`twistlab.mullineux`, :mod:`twistlab.criteria` or :mod:`twistlab.abacus`,
and returns a :class:`SearchReport`.  Certificates are stored inline (the
recomputed images, quotients, or digit witnesses) so a report can be audited
without rerunning the scan.

The scans over partitions of d are a visitor plus one driver, ``_scan``.  A
visitor takes one partition and p and returns its hits, its counterexamples
and the number of cases it scanned: 1, or the number of mu pairs for the
two-row Ext^1 scan.  The driver visits the family in enumeration order and
concatenates what the visitors return.  Before the first visit, every scan
over the partitions of d counts its cases and refuses more than
``_MAX_SCAN_CASES`` with TooLarge.  ``_SCANS`` names every scan once,
by the name of its function here, for the command line and the fixture
checker, which look the function up each time they run it.

Reports are deterministic: identical parameters yield byte-identical bodies.
Wall-clock time lives outside the body, in :attr:`SearchReport.elapsed`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .abacus import block_census
from .criteria import ks_ext1
from .errors import (
    HypothesisViolated,
    NonPartitionDifference,
    Overflow,
    TooLarge,
    check_modulus,
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
# cases (partitions, or (lambda, mu) pairs for the Ext^1 scan) one scan over
# the partitions of d may visit; the slowest scan within it, persistence at
# p = 2 and d = 59 (9,792 cases), takes about 8 s on a 2-core machine, and
# census and the Ext^1 scan stay under 0.5 s
_MAX_SCAN_CASES = 10_000

Hit = Dict[str, Any]
# what a visitor returns for one partition: hits, counterexamples, cases scanned
Visit = Tuple[List[Hit], List[Hit], int]
Visitor = Callable[[Partition, int], Visit]


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


def _report(search: str, parameters: Dict[str, Any], hits: Sequence[Hit],
            counterexamples: Sequence[Hit], scanned: int, start: float) -> SearchReport:
    """The report of a scan begun at perf_counter() == start."""
    return SearchReport(
        search=search,
        parameters=parameters,
        hits=tuple(hits),
        counterexamples=tuple(counterexamples),
        scanned=scanned,
        elapsed=time.perf_counter() - start,
    )


def _family_size(d: int, kind: str, p: int) -> int:
    """Partitions of d in the family ``kind``, counted exactly up to _MAX_SCAN_CASES.

    Past the budget this is only some count over it: counts never decrease
    in d, so counting stops at the first n <= d whose count passes it.  The
    count b(n) follows Euler's n b(n) = sum_k s(k) b(n - k), s(k) the sum of
    the allowed parts dividing k; p-regular partitions are as many as those
    with no part divisible by p (Glaisher).
    """
    if kind == "two_part":
        return d // 2 + 1
    if kind == "p_regular":
        check_modulus(p)  # as the enumeration does
    counts, s = [1], [0]
    for n in range(1, d + 1):
        s.append(sum(j for j in range(1, n + 1) if n % j == 0 and (kind == "all" or j % p)))
        counts.append(sum(s[k] * counts[n - k] for k in range(1, n + 1)) // n)
        if counts[-1] > _MAX_SCAN_CASES:
            break
    return counts[-1]


def _check_cases(search: str, d: int, p: int, kind: str, pairs: bool = False) -> None:
    """Refuse a scan of more than _MAX_SCAN_CASES members of the family, or pairs of them."""
    size = _family_size(d, kind, p)
    if (size * size if pairs else size) > _MAX_SCAN_CASES:
        raise TooLarge(
            f"{search} over the partitions of {d} at p = {p} visits more than the limit"
            f" of {_MAX_SCAN_CASES} cases"
        )


def _scan(
    search: str, visit: Visitor, d: int, p: int, kind: str, pairs: bool = False
) -> SearchReport:
    """Visit every partition of d in the family ``kind``, in enumeration order.

    With ``pairs``, each visit scans its partition against every member of
    the family, and the budget counts those pairs.
    """
    _check_cases(search, d, p, kind, pairs)
    start = time.perf_counter()
    visits = [visit(lam, p) for lam in enumerate_partitions(d, kind, p)]
    hits = [h for v in visits for h in v[0]]
    bad = [c for v in visits for c in v[1]]
    return _report(search, {"d": d, "p": p}, hits, bad, sum(v[2] for v in visits), start)


def _commutes(lam: Partition, p: int) -> Optional[Tuple[Partition, Partition]]:
    """m(lam) and m(p*lam) when m(p*lam) = p*m(lam), else None."""
    image = mullineux_map(lam, p)
    twisted = mullineux_map(lam.scale(p), p)
    return (image, twisted) if twisted == image.scale(p) else None


def _visit_fixed_point(lam: Partition, p: int) -> Visit:
    found = _commutes(lam, p)
    if found is None:
        return [], [], 1
    image, twisted = found
    hit = {"lambda": _parts(lam), "m_lambda": _parts(image), "m_p_lambda": _parts(twisted)}
    return [hit], [], 1


def find_twist_commuting(d: int, p: int) -> SearchReport:
    """All p-regular partitions of d whose twist by p commutes with the map.

    A hit is a partition lam with m(p*lam) = p*m(lam); both images are stored
    so the identity can be rechecked from the report alone.
    """
    return _scan("fixed-points", _visit_fixed_point, d, p, "p_regular")


def _visit_persistence(lam: Partition, p: int) -> Visit:
    found = _commutes(lam, p)
    if found is None:
        return [], [], 1
    once = found[1]
    twice = mullineux_map(lam.scale(p * p), p)
    record = {"lambda": _parts(lam), "m_p_lambda": _parts(once), "m_p2_lambda": _parts(twice)}
    return ([record], [], 1) if twice == once.scale(p) else ([], [record], 1)


def check_twist_persistence(d: int, p: int) -> SearchReport:
    """Whether every twist-commuting partition of d stays twist-commuting.

    Scans the p-regular partitions of d; among those with m(p*lam) = p*m(lam),
    the hits also satisfy m(p^2*lam) = p*m(p*lam) and the counterexamples do
    not.  The counterexample list is expected to be empty.
    """
    return _scan("persistence", _visit_persistence, d, p, "p_regular")


def _visit_p_image(lam: Partition, p: int) -> Visit:
    twisted = mullineux_map(lam.scale(p), p)
    tau = twisted.divide(p)
    if tau is None:
        return [], [], 1
    return [{"lambda": _parts(lam), "m_p_lambda": _parts(twisted), "tau": _parts(tau)}], [], 1


def find_p_image(d: int, p: int) -> SearchReport:
    """All p-regular lam of d where m(p*lam) is itself p times a partition.

    Each hit stores the quotient tau = m(p*lam)/p as its certificate.  This
    is strictly weaker than twist commuting, so those hits always reappear.
    """
    return _scan("p-image", _visit_p_image, d, p, "p_regular")


def multi_twist_scan(lam: Partition, p: int, max_b: int) -> SearchReport:
    """Which exponent pairs 1 <= a < b <= max_b witness a clean repeated twist.

    A pair (a, b) witnesses when m(p^b*lam) - m(p^a*lam) is a partition
    divisible by p^a; the quotient tau is stored with the pair.  Pairs where
    the subtraction fails or the quotient is not integral are simply absent
    from the hits.
    """
    check_prime(p)
    if max_b < 2:
        raise HypothesisViolated("max_b must be at least 2")
    if lam and lam.part(0) > _PART_MAX // p**max_b:
        raise Overflow(f"p^{max_b} * {lam} exceeds 64-bit parts")
    start = time.perf_counter()
    images = {a: mullineux_map(lam.scale(p**a), p) for a in range(1, max_b + 1)}
    hits: List[Hit] = []
    scanned = 0
    for a in range(1, max_b + 1):
        for b in range(a + 1, max_b + 1):
            scanned += 1
            try:
                diff = images[b] - images[a]
            except NonPartitionDifference:
                continue
            tau = diff.divide(p**a)
            if tau is None:
                continue
            hits.append({"a": a, "b": b, "difference": _parts(diff), "tau": _parts(tau)})
    parameters = {"lambda": _parts(lam), "p": p, "max_b": max_b}
    return _report("multi-twist", parameters, hits, (), scanned, start)


def _visit_ks(lam: Partition, p: int) -> Visit:
    changed: List[Hit] = []
    unstable: List[Hit] = []
    targets = list(enumerate_partitions(lam.size, "two_part"))
    for mu in targets:
        plain = ks_ext1(p, lam, mu)
        once = ks_ext1(p, lam.scale(p), mu.scale(p))
        twice = ks_ext1(p, lam.scale(p * p), mu.scale(p * p))
        pair = {"lambda": _parts(lam), "mu": _parts(mu)}
        if plain != once:
            changed.append({**pair, "untwisted": plain, "once": once})
        if once != twice:
            unstable.append({**pair, "once": once, "twice": twice})
    return changed, unstable, len(targets)


def ks_stability_scan(d: int, p: int) -> SearchReport:
    """Scan all ordered two-row pairs of d for twist instability of Ext^1.

    Counterexamples collect pairs where the p-scaled and p^2-scaled dimensions
    differ (expected none); hits collect the milder phenomenon where the first
    scaling already changes the unscaled answer.  ``scanned`` counts pairs.
    """
    return _scan("ks-stability", _visit_ks, d, p, "two_part", pairs=True)


def census(d: int, p: int) -> SearchReport:
    """Group the partitions of d into p-blocks, flagging p-by-p members.

    One hit per block: the p-core, the common weight, the member list in
    enumeration order, and the members all of whose part values and part
    multiplicities are divisible by p.
    """
    _check_cases("census", d, p, "all")
    start = time.perf_counter()
    blocks = block_census(d, p)
    hits = tuple(
        {
            "core": _parts(b.core),
            "weight": b.weight,
            "members": [_parts(m) for m in b.members],
            "p_by_p": [_parts(m) for m in b.p_by_p_members],
        }
        for b in blocks
    )
    scanned = sum(len(b.members) for b in blocks)
    return _report("census", {"d": d, "p": p}, hits, (), scanned, start)


# scan name -> (name of its function in this module, its arguments as input
# keys); the command line and the fixture checker read their scans from here
_SCANS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "fixed-points": ("find_twist_commuting", ("d", "p")),
    "persistence": ("check_twist_persistence", ("d", "p")),
    "p-image": ("find_p_image", ("d", "p")),
    "multi-twist": ("multi_twist_scan", ("lambda", "p", "max_b")),
    "ks-stability": ("ks_stability_scan", ("d", "p")),
    "census": ("census", ("d", "p")),
}
