"""The Mullineux map and its two-row symbol calculus.

The p-rim of a partition is the subset of the rim taken in segments of p
nodes, each new segment starting at the rightmost rim node of the row below
the previous segment's end.  Iterating "remove the p-rim" down to the empty
partition records a two-row symbol (a_i; r_i) of rim sizes and row counts;
rewriting the bottom row and running the iteration backwards realizes the
Mullineux involution m on p-regular partitions.

A symbol is stored as its maximal runs (a, r, count) of equal columns; the
symbol of p^b * lam has a few runs, each about p^b columns long.  Removal and
insertion walk every run with one walker, `_walk_run`: single steps record
their strip profiles, and once the latest profiles repeat with some period
the state moves by whole cycles in one arithmetic step, checked by stripping
its first and last cycle.  Insertion (the inverse of one removal) is one
pass up the rows: read from the bottom row up, the rim forces how many nodes
each row gets, and that growth is stripped back before it is returned, so a
wrong reconstruction cannot escape quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

from .errors import (
    CongruenceViolated,
    HypothesisViolated,
    InvalidSymbol,
    NoInsertion,
    NotPRegular,
    NotPRestricted,
    TooLarge,
    check_prime,
)
from .partitions import Partition, _check_rows

# single rim steps (strips or insertions) one run may make, its jumps not
# counted; a run whose profiles take longer to repeat is refused, not walked
_MAX_RUN_STEPS = 5_000
# single steps times rows one run may make: each single step costs O(rows),
# so a few steps over a column of 10^5 rows are refused as well; the largest
# answered runs are about 1.9 million (tau(2 * 10**6, 100003): 19 steps of
# 100,002 rows, 0.7 s on a 2-core machine) and 0.2 million (37^3 (2,1,1):
# 2,737 steps of 71 rows, a 0.05-s map)
_MAX_RUN_ROW_STEPS = 2_000_000
# columns a symbol may write out, one tuple each: criterion 4's symbol has
# 139,258; a million take about 1.5 s and 14 MB of JSON on the command line
_MAX_SYMBOL_COLUMNS = 1_000_000


@dataclass(frozen=True)
class MullineuxSymbol:
    """Maximal runs (a, r, count): count equal columns of rim size a over r rows."""

    p: int
    runs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        check_prime(self.p)
        prev = None
        for a, r, count in self.runs:
            if a < 1 or r < 1 or count < 1:
                raise InvalidSymbol(f"run ({a};{r}) x {count} has a nonpositive entry")
            if prev is not None and r > prev[1]:
                raise InvalidSymbol("row counts must be weakly decreasing")
            if prev == (a, r):
                raise InvalidSymbol(f"adjacent runs repeat the column ({a};{r})")
            prev = (a, r)

    @property
    def columns(self) -> tuple[tuple[int, int], ...]:
        """Every column (a_i, r_i), each run written out; TooLarge past _MAX_SYMBOL_COLUMNS."""
        total = sum(n for _, _, n in self.runs)
        if total > _MAX_SYMBOL_COLUMNS:
            raise TooLarge(
                f"the symbol has {total} columns in {len(self.runs)} runs, over the limit"
                f" of {_MAX_SYMBOL_COLUMNS} written out"
            )
        return tuple(chain.from_iterable(repeat((a, r), n) for a, r, n in self.runs))

    @property
    def size(self) -> int:
        return sum(a * n for a, _, n in self.runs)


def _rim_profile(parts: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Nodes removed from each row when the p-rim is stripped (rule above)."""
    counts = []
    budget = p
    for row, nxt in zip(parts, parts[1:] + (0,)):
        avail = row - nxt + 1 if nxt else row
        if avail < budget:
            counts.append(avail)
            budget -= avail
        else:
            counts.append(budget)
            budget = p
    return tuple(counts)


def _strip_raw(parts: tuple[int, ...], p: int) -> tuple[tuple[int, ...], int]:
    counts = _rim_profile(parts, p)
    rest = tuple([row - c for row, c in zip(parts, counts) if row > c])
    return rest, sum(counts)


def _cycle_strips_back(state: tuple[int, ...], cyc: list, p: int) -> bool:
    """Does stripping one rim per entry of cyc, in order, peel state by exactly cyc?"""
    for c in cyc:
        if _rim_profile(state, p) != c:
            return False
        state = tuple([x - ct for x, ct in zip(state, c)])
    return True


def _cycle_jump(
    state: tuple[int, ...], history: list, p: int, left: int, sign: int, periods: range
) -> Optional[tuple[tuple[int, ...], int]]:
    """Move state by whole cycles of a period of history: (state, steps), or None.

    history holds the profiles of the run's latest single steps, oldest
    first; sign is -1 when they were strips and +1 when they were
    insertions.  Each period q in periods is tried, smallest first, and at
    most left steps are made.  The argument is in `_walk_run`.
    """
    for q in periods:
        if history[-1] != history[-1 - q] or history[-2 * q : -q] != history[-q:]:
            continue
        cyc = history[-q:]
        step = [sign * sum(rows) for rows in zip(*cyc)]
        # at most left steps, and no shrinking row reaches zero
        k = min([left // q] + [(x - 1) // -t for x, t in zip(state, step) if t < 0])
        # cycle j strips back from its larger end, state + (j-1)*step when the
        # run strips (oldest profile first), state + j*step when it inserts
        first = tuple(x + max(t, 0) for x, t in zip(state, step))
        strips = cyc[::-sign]
        if k < 2 or not _cycle_strips_back(first, strips, p):
            continue
        while k > 1 and not _cycle_strips_back(
            tuple(x + (k - 1) * t for x, t in zip(first, step)), strips, p
        ):
            k //= 2
        return tuple(x + k * t for x, t in zip(state, step)), k * q
    return None


def _step_refusal(singles: int, a: int, r: int) -> TooLarge:
    """Why the run of column (a; r), after singles single steps, may make no more."""
    if singles >= _MAX_RUN_STEPS:
        return TooLarge(
            f"the run of column ({a};{r}) takes over {_MAX_RUN_STEPS} single rim steps"
            " before its profiles repeat"
        )
    return TooLarge(
        f"the run of column ({a};{r}) takes over {_MAX_RUN_ROW_STEPS // r} single"
        f" steps of {r} rows, over the limit of {_MAX_RUN_ROW_STEPS} row steps"
    )


def _walk_run(
    state: tuple[int, ...], a: int, r: int, p: int, left: Optional[int] = None, counts=None
) -> tuple[tuple[int, ...], int, Optional[tuple[int, ...]]]:
    """Walk one run of the column (a; r) from state: (state, steps, counts).

    Given left, insert exactly left rims.  Otherwise strip while the rims
    keep the column; counts is state's first strip profile if already read,
    and the profile read that ends the run comes back (None if a row ran out).

    Single steps record their strip profiles (an insertion's is the growth
    it lays down), newest last, with the step at which each profile last
    occurred.  A jump of k >= 2 cycles of period q needs the newest profile
    q steps back, so q is at least the distance q_min to its last
    occurrence, and it needs 2*q steps ahead: left - done when inserting,
    and at most state[-1] - 1 when stripping, since every strip takes a node
    or more off the bottom row and a jump keeps that row positive.  So
    `_cycle_jump` is tried only when q_min exists and 2*q_min steps fit
    both ahead and in the latest 2*r*p profiles, which costs O(1) a step.
    The room ahead never grows within a run, so a step is recorded only
    while a jump could still fit, and a one-column run records nothing.
    `_cycle_jump` takes, smallest first, each period q from q_min up to
    that room whose last two q-blocks of profiles agree, and predicts that
    the cycle cyc (the last q profiles, summing to total) repeats.  The
    first cycle ahead must strip through cyc, and then k cycles are made in
    one arithmetic step, k halved until the last cycle also strips through
    cyc.  Insertion takes k <= left // q, so a jump never passes the end of
    the run; stripping takes the largest k that keeps every row positive,
    so the run's last strips are single ones.  The window of 2*r*p
    profiles is a search limit, not a theorem.  When no period passes, one
    single step is made, and a run that makes more than _MAX_RUN_STEPS
    single steps (its transient and any period longer than the window
    walked one step at a time), or whose single steps times its r rows pass
    _MAX_RUN_ROW_STEPS (each costs O(r)), raises TooLarge, so the time a
    map takes stays bounded.

    Checking the first and the last cycle suffices.  After j cycles the
    state is the start plus or minus j*total; within a cycle each strip
    keeps its profile while, row by row, a full-budget row still has at
    least the budget available and a short row has exactly its count
    available (counts are at least 1, so the rows stay positive and weakly
    decreasing).  With the profiles fixed each of these is a linear
    (in)equality in j, so it holds for every j between two values at which
    it holds.  Stripping is a function, so the stripped states are the ones
    single strips reach.  Rim insertion is unique (the upward pass in
    `insert_p_rim` forces every row count), so a state that strips back
    through the cycle is the state that single insertions would have built.
    """
    grow = left is not None
    if not grow:
        left = state[-1]  # a strip takes a node or more off the bottom row
    cap = min(_MAX_RUN_STEPS, _MAX_RUN_ROW_STEPS // r)
    window = 2 * r * p
    history: list[tuple[int, ...]] = []
    last: dict[tuple[int, ...], int] = {}
    done = singles = q_min = 0
    step = None
    while done < left and (grow or len(state) == r):
        room = left - done if grow else state[-1] - 1
        if step and room > 1:  # a jump of two cycles could still fit ahead
            q_min = singles - last.get(step, singles)
            last[step] = singles
            history.append(step)
            if len(history) > 2 * window:
                del history[:-window]
            step = None
        if q_min and 2 * q_min <= room:
            top = min(room, len(history), window) // 2
            jump = q_min <= top and _cycle_jump(
                state, history, p, left - done, 1 if grow else -1, range(q_min, top + 1)
            )
            if jump:
                state, steps = jump
                done += steps
                continue
        if grow:
            if singles >= cap:
                raise _step_refusal(singles, a, r)
            state, step = _insert_raw(state, a, r, p)
        else:
            counts = counts or _rim_profile(state, p)
            if sum(counts) != a:
                break
            if singles >= cap:
                raise _step_refusal(singles, a, r)
            step, counts = counts, None
            state = tuple([row - c for row, c in zip(state, step) if row > c])
        singles += 1
        done += 1
    return state, done, counts


def remove_p_rim(lam: Partition, p: int) -> tuple[Partition, int]:
    """Strip the p-rim; returns the remainder and the number of nodes removed."""
    if not lam:
        raise HypothesisViolated("cannot remove a rim from the empty partition")
    rest, a = _strip_raw(lam.parts, p)
    return Partition(rest), a


def mullineux_symbol(lam: Partition, p: int) -> MullineuxSymbol:
    """Iterate p-rim removal to the empty partition, recording runs (a, r, count).

    Each run's column is read off its first strip, and `_walk_run` strips
    whole periods of the run at once, so the work per run does not grow
    with its length, and huge scaled partitions stay cheap.
    """
    check_prime(p)
    if not lam.is_p_regular(p):
        raise NotPRegular(f"{lam} is not {p}-regular")
    runs: list[tuple[int, int, int]] = []
    parts, counts = lam.parts, None
    while parts:
        counts = counts or _rim_profile(parts, p)
        a, r = sum(counts), len(parts)
        parts, count, counts = _walk_run(parts, a, r, p, counts=counts)
        runs.append((a, r, count))
    return MullineuxSymbol(p, tuple(runs))


def transform_symbol(sym: MullineuxSymbol) -> MullineuxSymbol:
    """Swap each row count r_i for s_i = a_i - r_i + eps_i, eps_i = [p does not divide a_i].

    This is the symbol half of the Mullineux involution; applying it twice
    gives back the input.  Distinct columns stay distinct, so runs stay
    maximal.
    """
    p = sym.p
    runs = tuple((a, a - r + (1 if a % p else 0), n) for a, r, n in sym.runs)
    return MullineuxSymbol(p, runs)


def _insert_raw(
    mu: tuple[int, ...], a: int, r: int, p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Insert one p-rim of a nodes over r rows into mu: (nu, the growth of each row)."""
    if a < 1 or r < 1:
        raise NoInsertion(f"rim size {a} and row count {r} must be positive")
    if len(mu) > r:
        raise NoInsertion(f"({', '.join(map(str, mu))}) already has more than {r} rows")
    if not (r <= a <= r * p):
        raise NoInsertion(f"a {p}-rim over {r} rows holds between {r} and {r * p} nodes")

    rows = mu + (0,) * (r - len(mu))
    growth = [0] * r
    nu = [0] * r
    left = a - p * ((a - 1) // p)  # the bottom segment; every other one holds p
    for j in range(r - 1, 0, -1):
        gap = rows[j - 1] - rows[j] + 1
        if left > gap:  # row j continues a segment that starts higher up
            growth[j] = gap
            nu[j] = rows[j - 1] + 1
            left -= gap
        else:  # row j starts its segment, and the segment above is full
            growth[j] = left
            nu[j] = rows[j] + left
            left = p
    growth[0] = left
    nu[0] = rows[0] + left
    growth, nu = tuple(growth), tuple(nu)
    # every growth is positive, so a matching strip also makes nu a partition
    if sum(growth) != a or _rim_profile(nu, p) != growth:
        raise NoInsertion(f"no partition with {r} rows yields rim size {a} under {p}-rim removal")
    return nu, growth


def insert_p_rim(mu: Partition, a: int, r: int, p: int) -> Partition:
    """The unique nu with r rows such that remove_p_rim(nu, p) == (mu, a).

    The rim read from the bottom row up forces every row count.  Pad mu
    with zeros to r rows and let gap_j = mu_{j-1} - mu_j + 1.  A row that
    continues the segment of the row above loses exactly gap_j nodes (that
    row was short, so it kept nu_j - 1 nodes), and a row that starts a
    segment loses at most gap_j (the row above filled its budget).  Every
    segment holds p nodes except the bottom one, which holds the rest of a,
    1 to p nodes.  So with `left` nodes of a segment still to lay out, row j
    must continue the segment when left > gap_j, and must start it
    otherwise, since continuing would leave no node for the rows above.
    The one candidate is then stripped back; NoInsertion is raised when it
    is not a partition or does not strip to (mu, a).
    """
    return Partition(_insert_raw(mu.parts, a, r, p)[0])


def reconstruct_from_symbol(sym: MullineuxSymbol) -> Partition:
    """Run the removal iteration backwards, last run first.

    `_walk_run` inserts each run, one rim at a time until the growth repeats
    and whole periods at once from then on, so the insertions a run needs
    depend on its transient and its period, not on its length.
    """
    nu: tuple[int, ...] = ()
    for a, r, count in reversed(sym.runs):
        nu = _walk_run(nu, a, r, sym.p, count)[0]
    return Partition(nu)


def mullineux_map(lam: Partition, p: int) -> Partition:
    """The Mullineux involution on p-regular partitions."""
    return reconstruct_from_symbol(transform_symbol(mullineux_symbol(lam, p)))


def mullineux_restricted(lam: Partition, p: int) -> Partition:
    """The companion involution on p-restricted partitions: conjugate, map, conjugate."""
    if not lam.is_p_restricted(p):
        raise NotPRestricted(f"{lam} is not {p}-restricted")
    return mullineux_map(lam.conjugate(), p).conjugate()


def tau_closed_form(n: int, p: int) -> Partition:
    """(p-1, ..., p-1, a) with ceil(n / (p-1)) parts summing to n; p must be prime."""
    check_prime(p)
    if n < 1:
        raise HypothesisViolated("n must be positive")
    k = -(-n // (p - 1))
    _check_rows(k, f"tau({n}, {p})")
    last = n - (p - 1) * (k - 1)
    return Partition([p - 1] * (k - 1) + [last])


def tau(n: int, p: int) -> Partition:
    """The p-restricted label of the trivial module of the symmetric group on n points.

    Computed as conjugate(m((n))) and checked against the closed form
    (p-1, ..., p-1, a).
    """
    expected = tau_closed_form(n, p)
    value = mullineux_map(Partition((n,)), p).conjugate()
    if value != expected:
        raise CongruenceViolated(f"tau({n}, {p}): {value} != closed form {expected}")
    return value


def verify_hat_identity(lam: Partition, p: int) -> bool:
    """Does m(hat(lam)) equal (p-1) * lam?  lam must have distinct parts."""
    return mullineux_map(lam.hat(p), p) == lam.scale(p - 1)


def steinberg_difference(lam: Partition, p: int) -> Partition:
    """m(p^2 lam) - m(p lam), which always comes out to p * hat(lam)."""
    diff = mullineux_map(lam.scale(p * p), p).subtract(mullineux_map(lam.scale(p), p))
    expected = lam.hat(p).scale(p)
    if diff != expected:
        raise CongruenceViolated(f"difference {diff} is not {expected}")
    return diff
