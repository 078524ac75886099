"""Desk-scale exhaustive searches with deterministic, auditable reports.

Every search enumerates a finite family (partitions of d, two-row pairs,
twist exponents), evaluates a purely combinatorial predicate from
:mod:`twistlab.mullineux`, :mod:`twistlab.criteria` or :mod:`twistlab.abacus`,
and returns a :class:`SearchReport`.  Certificates are stored inline (the
recomputed images, quotients, or digit witnesses) so a report can be audited
without rerunning the scan.

Reports are deterministic: identical parameters yield byte-identical bodies.
Wall-clock time lives outside the body, in :attr:`SearchReport.elapsed`.

Scans shard the partition space by first part and merge shard results in
enumeration order, so ``jobs > 1`` changes the wall clock but never the body.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__
from .abacus import block_census
from .criteria import ks_ext1
from .errors import HypothesisViolated, NonPartitionDifference, Overflow, check_prime
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

Hit = Dict[str, Any]


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


def _shards_by_first_part(d: int, kind: str, p: Optional[int]) -> List[List[Tuple[int, ...]]]:
    groups: Dict[int, List[Tuple[int, ...]]] = {}
    for lam in enumerate_partitions(d, kind, p):
        groups.setdefault(lam.part(0), []).append(lam.parts)
    # decreasing first part = enumeration order of the groups themselves
    return [groups[k] for k in sorted(groups, reverse=True)]


def _run_sharded(worker, payloads: Sequence, jobs: int) -> List:
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(x) for x in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(worker, payloads))


def _twist_commuting_shard(payload: Tuple[int, List[Tuple[int, ...]]]) -> List[Hit]:
    p, shard = payload
    hits: List[Hit] = []
    for parts in shard:
        lam = Partition(parts)
        image = mullineux_map(lam, p)
        twisted = mullineux_map(lam.scale(p), p)
        if twisted == image.scale(p):
            hits.append(
                {
                    "lambda": list(parts),
                    "m_lambda": _parts(image),
                    "m_p_lambda": _parts(twisted),
                }
            )
    return hits


def find_twist_commuting(d: int, p: int, jobs: int = 1) -> SearchReport:
    """All p-regular partitions of d whose twist by p commutes with the map.

    A hit is a partition lam with m(p*lam) = p*m(lam); both images are stored
    so the identity can be rechecked from the report alone.
    """
    start = time.perf_counter()
    shards = _shards_by_first_part(d, "p_regular", p)
    scanned = sum(len(s) for s in shards)
    results = _run_sharded(_twist_commuting_shard, [(p, s) for s in shards], jobs)
    hits = tuple(h for block in results for h in block)
    return SearchReport(
        search="fixed-points",
        parameters={"d": d, "p": p},
        hits=hits,
        counterexamples=(),
        scanned=scanned,
        elapsed=time.perf_counter() - start,
    )


def _persistence_shard(payload: Tuple[int, List[Tuple[int, ...]]]) -> Tuple[List[Hit], List[Hit]]:
    p, shard = payload
    kept: List[Hit] = []
    failed: List[Hit] = []
    for parts in shard:
        lam = Partition(parts)
        once = mullineux_map(lam.scale(p), p)
        if once != mullineux_map(lam, p).scale(p):
            continue
        twice = mullineux_map(lam.scale(p * p), p)
        record = {
            "lambda": list(parts),
            "m_p_lambda": _parts(once),
            "m_p2_lambda": _parts(twice),
        }
        (kept if twice == once.scale(p) else failed).append(record)
    return kept, failed


def check_twist_persistence(d: int, p: int, jobs: int = 1) -> SearchReport:
    """Whether every twist-commuting partition of d stays twist-commuting.

    Scans the p-regular partitions of d; among those with m(p*lam) = p*m(lam),
    the hits also satisfy m(p^2*lam) = p*m(p*lam) and the counterexamples do
    not.  The counterexample list is expected to be empty.
    """
    start = time.perf_counter()
    shards = _shards_by_first_part(d, "p_regular", p)
    scanned = sum(len(s) for s in shards)
    results = _run_sharded(_persistence_shard, [(p, s) for s in shards], jobs)
    hits = tuple(h for kept, _ in results for h in kept)
    bad = tuple(h for _, failed in results for h in failed)
    return SearchReport(
        search="persistence",
        parameters={"d": d, "p": p},
        hits=hits,
        counterexamples=bad,
        scanned=scanned,
        elapsed=time.perf_counter() - start,
    )


def _p_image_shard(payload: Tuple[int, List[Tuple[int, ...]]]) -> List[Hit]:
    p, shard = payload
    hits: List[Hit] = []
    for parts in shard:
        lam = Partition(parts)
        twisted = mullineux_map(lam.scale(p), p)
        tau = twisted.divide(p)
        if tau is not None:
            hits.append(
                {
                    "lambda": list(parts),
                    "m_p_lambda": _parts(twisted),
                    "tau": _parts(tau),
                }
            )
    return hits


def find_p_image(d: int, p: int, jobs: int = 1) -> SearchReport:
    """All p-regular lam of d where m(p*lam) is itself p times a partition.

    Each hit stores the quotient tau = m(p*lam)/p as its certificate.  This
    is strictly weaker than twist commuting, so those hits always reappear.
    """
    start = time.perf_counter()
    shards = _shards_by_first_part(d, "p_regular", p)
    scanned = sum(len(s) for s in shards)
    results = _run_sharded(_p_image_shard, [(p, s) for s in shards], jobs)
    hits = tuple(h for block in results for h in block)
    return SearchReport(
        search="p-image",
        parameters={"d": d, "p": p},
        hits=hits,
        counterexamples=(),
        scanned=scanned,
        elapsed=time.perf_counter() - start,
    )


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
    return SearchReport(
        search="multi-twist",
        parameters={"lambda": _parts(lam), "p": p, "max_b": max_b},
        hits=tuple(hits),
        counterexamples=(),
        scanned=scanned,
        elapsed=time.perf_counter() - start,
    )


def _ks_shard(payload: Tuple[int, int, List[Tuple[int, ...]]]) -> Tuple[int, List[Hit], List[Hit]]:
    p, d, shard = payload
    pairs = 0
    changed: List[Hit] = []
    unstable: List[Hit] = []
    targets = list(enumerate_partitions(d, "two_part"))
    for parts in shard:
        lam = Partition(parts)
        for mu in targets:
            pairs += 1
            plain = ks_ext1(p, lam, mu)
            once = ks_ext1(p, lam.scale(p), mu.scale(p))
            twice = ks_ext1(p, lam.scale(p * p), mu.scale(p * p))
            if plain != once:
                changed.append(
                    {"lambda": list(parts), "mu": _parts(mu), "untwisted": plain, "once": once}
                )
            if once != twice:
                unstable.append(
                    {"lambda": list(parts), "mu": _parts(mu), "once": once, "twice": twice}
                )
    return pairs, changed, unstable


def ks_stability_scan(d: int, p: int, jobs: int = 1) -> SearchReport:
    """Scan all ordered two-row pairs of d for twist instability of Ext^1.

    Counterexamples collect pairs where the p-scaled and p^2-scaled dimensions
    differ (expected none); hits collect the milder phenomenon where the first
    scaling already changes the unscaled answer.
    """
    start = time.perf_counter()
    shards = _shards_by_first_part(d, "two_part", None)
    results = _run_sharded(_ks_shard, [(p, d, s) for s in shards], jobs)
    scanned = sum(r[0] for r in results)
    hits = tuple(h for r in results for h in r[1])
    bad = tuple(h for r in results for h in r[2])
    return SearchReport(
        search="ks-stability",
        parameters={"d": d, "p": p},
        hits=hits,
        counterexamples=bad,
        scanned=scanned,
        elapsed=time.perf_counter() - start,
    )


def census(d: int, p: int) -> SearchReport:
    """Group the partitions of d into p-blocks, flagging p-by-p members.

    One hit per block: the p-core, the common weight, the member list in
    enumeration order, and the members all of whose part values and part
    multiplicities are divisible by p.
    """
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
    return SearchReport(
        search="census",
        parameters={"d": d, "p": p},
        hits=hits,
        counterexamples=(),
        scanned=scanned,
        elapsed=time.perf_counter() - start,
    )
