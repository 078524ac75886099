"""Exact partition arithmetic.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the unique partition of 0.  Everything downstream (abacus, Mullineux
map, module oracles) speaks :class:`Partition`, so the class stays small and
strict: values are immutable, canonical (no trailing zeros) and bounded to
64-bit parts so they can round-trip through array kernels and JSON.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Optional

from .errors import (
    HypothesisViolated,
    NonPartitionDifference,
    NotDistinctParts,
    Overflow,
    TooLarge,
    check_modulus,
)

_PART_MAX = 2**63 - 1
# partitions built row by row (hat, the conjugate, the closed form of tau) have at
# most this many rows
_MAX_ROWS = 100_000


def _check_rows(rows: int, what: str) -> None:
    if rows > _MAX_ROWS:
        raise TooLarge(f"{what} has {rows} rows, over the limit of {_MAX_ROWS}")


class Partition:
    """An integer partition, stored largest part first."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = []
        prev = None
        for raw in parts:
            try:
                part = operator.index(raw)
            except TypeError:
                raise HypothesisViolated(f"part {raw!r} is not an integer") from None
            if part < 0:
                raise HypothesisViolated(f"negative part {part}")
            if part > _PART_MAX:
                raise Overflow(f"part {part} exceeds the 64-bit limit")
            if prev is not None and part > prev:
                raise HypothesisViolated(f"parts not weakly decreasing: {part} after {prev}")
            prev = part
            if part > 0:
                cleaned.append(part)
        self._parts = tuple(cleaned)

    # -- basic views ---------------------------------------------------

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __getitem__(self, i: int) -> int:
        return self._parts[i]

    def part(self, i: int) -> int:
        """Part at 0-based index i, with zeros past the last row."""
        return self._parts[i] if 0 <= i < len(self._parts) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        if isinstance(other, tuple):
            return self._parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return ",".join(str(x) for x in self._parts) if self._parts else "-"

    # -- arithmetic ----------------------------------------------------

    def conjugate(self) -> "Partition":
        """Transpose the Young diagram: part j of the result counts rows >= j+1.

        O(rows + first part).  TooLarge when the result would have more than
        _MAX_ROWS rows.
        """
        if not self._parts:
            return Partition()
        _check_rows(self._parts[0], f"the conjugate of {self}")
        # read from the bottom row up, row i adds columns up to its part, each i + 1 high
        cols: list[int] = []
        for i in range(len(self._parts) - 1, -1, -1):
            cols.extend([i + 1] * (self._parts[i] - len(cols)))
        return Partition(cols)

    def is_p_regular(self, p: int) -> bool:
        """True when no part value repeats p or more times."""
        check_modulus(p)
        run = 0
        prev = None
        for part in self._parts:
            run = run + 1 if part == prev else 1
            if run >= p:
                return False
            prev = part
        return True

    def is_p_restricted(self, p: int) -> bool:
        """True when successive differences (and the last part) are below p."""
        check_modulus(p)
        for i, part in enumerate(self._parts):
            nxt = self.part(i + 1)
            if part - nxt >= p:
                return False
        return True

    def has_distinct_parts(self) -> bool:
        return len(set(self._parts)) == len(self._parts)

    def scale(self, c: int) -> "Partition":
        """Multiply every part by c >= 0, refusing to leave 64-bit range."""
        if c < 0:
            raise HypothesisViolated("scale factor must be nonnegative")
        if self._parts and c and self._parts[0] > _PART_MAX // c:
            raise Overflow(f"{c} * {self._parts[0]} exceeds the 64-bit limit")
        return Partition(part * c for part in self._parts)

    def add(self, other: "Partition") -> "Partition":
        """Row-wise sum, shorter operand padded with zeros."""
        n = max(len(self), len(other))
        return Partition(self.part(i) + other.part(i) for i in range(n))

    def subtract(self, other: "Partition") -> "Partition":
        """Row-wise difference; the result must again be a partition."""
        n = max(len(self), len(other))
        diff = [self.part(i) - other.part(i) for i in range(n)]
        for i, entry in enumerate(diff):
            if entry < 0:
                raise NonPartitionDifference(f"negative entry {entry} in row {i + 1}")
            if i and entry > diff[i - 1]:
                raise NonPartitionDifference(
                    f"rows {i} and {i + 1} of the difference increase: {diff[i - 1]} < {entry}"
                )
        return Partition(diff)

    def __add__(self, other: "Partition") -> "Partition":
        return self.add(other)

    def __sub__(self, other: "Partition") -> "Partition":
        return self.subtract(other)

    def __mul__(self, c: int) -> "Partition":
        return self.scale(c)

    __rmul__ = __mul__

    def hat(self, p: int) -> "Partition":
        """Repeat each part p-1 times; defined only for distinct parts and p >= 2."""
        check_modulus(p)
        if not self.has_distinct_parts():
            raise NotDistinctParts(f"{self} has a repeated part")
        _check_rows(len(self) * (p - 1), f"hat({self}) at p={p}")
        return Partition(part for part in self._parts for _ in range(p - 1))

    def divide(self, c: int) -> Optional["Partition"]:
        """Exact row-wise quotient by c, or None if some part is not divisible."""
        if c <= 0:
            raise HypothesisViolated("divisor must be positive")
        if any(part % c for part in self._parts):
            return None
        return Partition(part // c for part in self._parts)


def l_p(t: int, p: int) -> int:
    """Least l with t < p**l."""
    if t < 0:
        raise HypothesisViolated("t must be nonnegative")
    check_modulus(p)
    level = 0
    power = 1
    while t >= power:
        power *= p
        level += 1
    return level


def enumerate_partitions(
    d: int,
    kind: str = "all",
    p: Optional[int] = None,
) -> Iterator[Partition]:
    """Yield partitions of d in decreasing lexicographic order.

    kind selects a family: "all", "p_regular" (needs p), "distinct", or
    "two_part" (at most two rows).  The order is fixed so that search
    reports are reproducible byte for byte.
    """
    if d < 0:
        raise HypothesisViolated("d must be nonnegative")
    if kind not in ("all", "p_regular", "distinct", "two_part"):
        raise HypothesisViolated(f"unknown enumeration kind {kind!r}")
    if kind == "p_regular":
        if p is None:
            raise HypothesisViolated("p_regular enumeration needs p")
        check_modulus(p)

    if kind == "two_part":
        for v in range(d, (d - 1) // 2, -1):
            yield Partition((v, d - v)) if d - v else Partition((v,))
        return

    # copies of one part value the family allows; any number for "all"
    cap = p - 1 if kind == "p_regular" else 1 if kind == "distinct" else None

    def descend(remaining: int, top: int, run: int, prefix: list[int]) -> Iterator[Partition]:
        """Every completion of prefix, whose last part top it holds run times."""
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(remaining, top), 0, -1):
            copies = run + 1 if part == top else 1
            if cap is not None:
                if copies > cap:
                    continue
                # the rest must fit in cap - copies more parts equal to part
                # and cap parts of each smaller value
                if remaining - part > (cap - copies) * part + cap * part * (part - 1) // 2:
                    if part < top:
                        break  # below top this reads remaining > cap * part * (part + 1) / 2
                    continue
            prefix.append(part)
            yield from descend(remaining - part, part, copies, prefix)
            prefix.pop()

    yield from descend(d, d, 0, [])
