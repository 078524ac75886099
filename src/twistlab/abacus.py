"""Beta-numbers, abacus displays, p-cores and block data.

A partition with b beads is encoded by its beta-numbers beta_i = lambda_i +
b - i (1-indexed), placed on an abacus with p runners: position n sits on
runner n mod p at level n // p.  Sliding every bead as far down its runner
as possible yields the p-core; the total number of single-step slides is the
p-weight.  Cores and weights label blocks, so the census groups partitions
by that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Iterable, Optional

from .errors import HypothesisViolated, TooFewBeads, TooLarge, check_modulus
from .partitions import Partition

# to_abacus refuses more beads than this; each bead costs a Python object
_MAX_BEADS = 100_000
# picture() draws at most this many levels and this many runners
_PICTURE_SIDE = 200


@dataclass(frozen=True)
class AbacusDisplay:
    """Bead positions (strictly decreasing beta-numbers) on p runners."""

    p: int
    beta: tuple[int, ...]

    def __post_init__(self):
        check_modulus(self.p)
        if any(b < 0 for b in self.beta):
            raise HypothesisViolated("beta-numbers must be nonnegative")
        if any(x <= y for x, y in zip(self.beta, self.beta[1:])):
            raise HypothesisViolated("beta-numbers must be strictly decreasing")

    @property
    def beads(self) -> int:
        return len(self.beta)

    def runner(self, r: int) -> tuple[int, ...]:
        """Levels occupied on runner r, lowest first."""
        return tuple(sorted(b // self.p for b in self.beta if b % self.p == r))

    def picture(self) -> list[str]:
        """One text row per runner: 'o' for a bead, '.' for a gap.

        At most _PICTURE_SIDE levels of at most _PICTURE_SIDE runners are
        drawn, so the picture stays small however long the runners are; a
        last line then says how much was left out.
        """
        levels = max((b // self.p for b in self.beta), default=-1) + 1
        occupied = set(self.beta)
        width = min(levels, _PICTURE_SIDE)
        rows = [
            "".join("o" if lvl * self.p + r in occupied else "." for lvl in range(width))
            for r in range(min(self.p, _PICTURE_SIDE))
        ]
        hidden = [
            f"{count - _PICTURE_SIDE} more {what}"
            for count, what in ((levels, "levels"), (self.p, "runners"))
            if count > _PICTURE_SIDE
        ]
        if hidden:
            rows.append(f"({' and '.join(hidden)} not drawn)")
        return rows


@dataclass(frozen=True)
class BlockData:
    """The p-core and weight shared by every partition in a block."""

    core: Partition
    weight: int


def default_beads(lam: Partition, p: int) -> int:
    """Bead count used when the caller does not pick one.

    The length of the partition rounded up to a positive multiple of p, so
    runner pictures come out canonical (every runner the same length).  When
    that multiple would pass _MAX_BEADS, the length itself (at least 1).
    """
    check_modulus(p)
    rows = max(len(lam), 1)
    rounded = p * ceil(rows / p)
    return rounded if rounded <= _MAX_BEADS else rows


def to_abacus(lam: Partition, p: int, beads: Optional[int] = None) -> AbacusDisplay:
    """Encode lam on b beads; b defaults to default_beads(lam, p)."""
    b = default_beads(lam, p) if beads is None else beads
    if b < len(lam):
        raise TooFewBeads(f"{b} beads cannot hold {len(lam)} rows")
    if b > _MAX_BEADS:
        raise TooLarge(f"{b} beads, over the limit of {_MAX_BEADS}")
    beta = tuple(lam.part(i) + b - 1 - i for i in range(b))
    return AbacusDisplay(p, beta)


def from_abacus(display: AbacusDisplay) -> Partition:
    """Recover the partition: lambda_i = beta_i - (b - i)."""
    b = display.beads
    return Partition(display.beta[i] - (b - 1 - i) for i in range(b))


def p_core(lam: Partition, p: int) -> BlockData:
    """Slide every bead maximally down its runner.

    Returns the resulting core partition together with the number of
    single-gap slides performed, which is the p-weight of lam.  Neither
    depends on the bead count, so lam is read on len(lam) beads, the fewest
    that hold it: the work grows with the rows of lam, not with p.
    """
    display = to_abacus(lam, p, len(lam))
    slid: list[int] = []
    weight = 0
    # the k-th lowest bead of a runner slides to level k; only runners that
    # hold a bead are visited, so the cost does not grow with p
    below: dict[int, int] = {}
    for bead in reversed(display.beta):
        r = bead % p
        target = below.get(r, 0)
        below[r] = target + 1
        weight += bead // p - target
        slid.append(target * p + r)
    slid.sort(reverse=True)
    core = from_abacus(AbacusDisplay(p, tuple(slid)))
    return BlockData(core, weight)


def _rim_path(rows: list[int]) -> list[tuple[int, int]]:
    """Rim cells from the top-right corner down to the bottom-left."""
    if not rows:
        return []
    path = []
    i, j = 0, rows[0] - 1
    while True:
        path.append((i, j))
        below = rows[i + 1] if i + 1 < len(rows) else 0
        if below > j:
            i += 1
        elif j > 0:
            j -= 1
        else:
            break
    return path


def _strip_window(rows: list[int], window: list[tuple[int, int]]) -> Optional[list[int]]:
    """Remove the given rim cells if doing so leaves a partition."""
    removed = [0] * len(rows)
    for i, _ in window:
        removed[i] += 1
    new_rows = [rows[i] - removed[i] for i in range(len(rows))]
    prev = None
    for entry in new_rows:
        if entry < 0 or (prev is not None and entry > prev):
            return None
        prev = entry
    # removed cells must be the rightmost ones of their rows
    for i, j in window:
        if j < new_rows[i]:
            return None
    return [r for r in new_rows if r > 0]


def p_core_by_stripping(lam: Partition, p: int) -> BlockData:
    """Brute-force oracle: peel removable rim strips of p cells until stuck.

    Works directly on the Young diagram, with no beta-numbers anywhere, so
    it is a genuinely independent check on p_core.
    """
    rows = list(lam.parts)
    weight = 0
    while True:
        path = _rim_path(rows)
        stripped = None
        for k in range(len(path) - p + 1):
            stripped = _strip_window(rows, path[k : k + p])
            if stripped is not None:
                break
        if stripped is None:
            return BlockData(Partition(rows), weight)
        rows = stripped
        weight += 1


def is_p_by_p(lam: Partition, p: int) -> bool:
    """True when every part and every part-multiplicity is divisible by p.

    Equivalently, both lam and its conjugate are p times a partition; the
    diagram is tiled by p-by-p squares.
    """
    check_modulus(p)
    if any(part % p for part in lam):
        return False
    run = 0
    prev = None
    for part in lam.parts + (None,):
        if part == prev:
            run += 1
            continue
        if prev is not None and run % p:
            return False
        prev, run = part, 1
    return True


@dataclass(frozen=True)
class BlockRecord:
    """One block of partitions of d: shared core/weight plus the members."""

    core: Partition
    weight: int
    members: tuple[Partition, ...]
    p_by_p_members: tuple[Partition, ...]


def block_census(partitions: Iterable[Partition], p: int) -> list[BlockRecord]:
    """Group partitions of one size by (p-core, weight), flagging p-by-p members.

    Blocks are listed by decreasing lexicographic core; members keep the
    order they were handed in.
    """
    groups: dict[tuple[int, ...], list[Partition]] = {}
    for lam in partitions:
        data = p_core(lam, p)
        groups.setdefault(data.core.parts, []).append(lam)
    records = []
    for core_parts in sorted(groups, reverse=True):
        members = groups[core_parts]
        core = Partition(core_parts)
        weight = (members[0].size - core.size) // p
        flagged = tuple(m for m in members if is_p_by_p(m, p))
        records.append(BlockRecord(core, weight, tuple(members), flagged))
    return records
