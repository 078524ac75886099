import random
from itertools import groupby

import pytest
from hypothesis import given, settings

import twistlab.mullineux as mullineux_module

from conftest import distinct_partitions, partitions, random_regular, single_insertions
from twistlab.errors import (
    HypothesisViolated,
    InvalidSymbol,
    NoInsertion,
    NotPrime,
    NotPRegular,
    NotPRestricted,
    TooLarge,
)
from twistlab.mullineux import (
    MullineuxSymbol,
    insert_p_rim,
    mullineux_map,
    mullineux_restricted,
    mullineux_symbol,
    reconstruct_from_symbol,
    remove_p_rim,
    steinberg_difference,
    tau,
    tau_closed_form,
    verify_hat_identity,
)
from twistlab.partitions import Partition, enumerate_partitions
from twistlab.search import multi_twist_scan

REPEATED_TWIST_SHAPE = Partition((29, 29, 24, 4, 4, 3, 3, 3, 2, 1))


def test_two_row_example():
    assert mullineux_map(Partition((15, 15)), 5).parts == (10, 10, 10)


def test_three_row_example():
    assert mullineux_map(Partition((30, 30, 20)), 5).parts == (20, 20, 20, 5, 5, 5, 5)


def test_scaled_conjugate_example():
    image = mullineux_map(Partition((20, 10, 5)), 5)
    assert image.conjugate().parts == (12, 9, 6, 4, 4)


def test_requires_regularity():
    with pytest.raises(NotPRegular):
        mullineux_map(Partition((2, 2, 2)), 3)


def test_p2_is_the_identity():
    for d in range(1, 13):
        for lam in enumerate_partitions(d, "p_regular", 2):
            assert mullineux_map(lam, 2) == lam


def test_involution_size_and_regularity_exhaustive():
    for d in range(1, 15):
        for p in (2, 3, 5, 7):
            for lam in enumerate_partitions(d, "p_regular", p):
                image = mullineux_map(lam, p)
                assert image.size == lam.size
                assert image.is_p_regular(p)
                assert mullineux_map(image, p) == lam


def test_restricted_version_is_conjugate_transport():
    for d in range(1, 12):
        for p in (2, 3, 5):
            for lam in enumerate_partitions(d, "all"):
                if not lam.conjugate().is_p_regular(p):
                    continue
                expected = mullineux_map(lam.conjugate(), p).conjugate()
                assert mullineux_restricted(lam, p) == expected
    with pytest.raises(NotPRestricted):
        mullineux_restricted(Partition((5,)), 3)


def test_symbol_example():
    sym = mullineux_symbol(Partition((15, 15)), 5)
    assert sym.columns == ((5, 2),) * 6


def test_symbol_columns_stop_at_the_column_budget(monkeypatch):
    sym = mullineux_symbol(Partition((15, 15)), 5)
    monkeypatch.setattr(mullineux_module, "_MAX_SYMBOL_COLUMNS", 6)
    assert sym.columns == ((5, 2),) * 6
    monkeypatch.setattr(mullineux_module, "_MAX_SYMBOL_COLUMNS", 5)
    with pytest.raises(TooLarge, match="6 columns in 1 runs"):
        sym.columns
    assert sym.size == 30  # read off the runs, never written out


def test_symbol_column_budget_admits_a_million_columns():
    assert mullineux_module._MAX_SYMBOL_COLUMNS >= 10**6
    sym = MullineuxSymbol(3, ((3, 1, 10**12), (1, 1, 1)))
    with pytest.raises(TooLarge, match="1000000000001 columns in 2 runs"):
        sym.columns


def test_symbol_rejects_garbage():
    with pytest.raises(InvalidSymbol):
        MullineuxSymbol(5, ((0, 1, 1),))


@pytest.mark.parametrize(
    "runs",
    [
        ((5, 2, 0),),  # a run of no columns
        ((5, 2, 3), (5, 2, 1)),  # equal adjacent runs: not maximal
        ((5, 1, 2), (10, 2, 1)),  # row counts increase
    ],
)
def test_symbol_runs_must_be_maximal_and_decreasing(runs):
    with pytest.raises(InvalidSymbol):
        MullineuxSymbol(5, runs)


def test_every_mullineux_entry_point_needs_a_prime():
    lam = Partition((2, 1))
    for call in (
        lambda: mullineux_map(lam, 4),
        lambda: mullineux_symbol(lam, 4),
        lambda: MullineuxSymbol(4, ((2, 1, 1),)),
        lambda: mullineux_map(lam, 1),
    ):
        with pytest.raises(NotPrime):
            call()


def test_tau_closed_form_checks_its_inputs():
    for p in (1, 4, 0):
        with pytest.raises(NotPrime):
            tau_closed_form(5, p)
    for n in (0, -3):
        with pytest.raises(HypothesisViolated, match="n must be positive"):
            tau_closed_form(n, 5)
    assert tau_closed_form(5, 3).parts == (2, 2, 1)


def test_symbol_round_trip_exhaustive():
    for d in range(1, 15):
        for p in (2, 3, 5):
            for lam in enumerate_partitions(d, "p_regular", p):
                sym = mullineux_symbol(lam, p)
                assert reconstruct_from_symbol(sym) == lam


def _signature(parts, i, p):
    """The reduced i-signature as (sign, row) pairs, top row down.

    Addable i-nodes are +1 and removable ones -1; each adjacent (+, -) pair
    is cancelled until none is left.
    """
    rows = list(parts) + [0]
    marks = []
    for row, part in enumerate(rows):
        if (part - row) % p == i and (row == 0 or rows[row - 1] > part):
            marks.append((1, row))  # the cell (row, part) is addable
        if part and (part - 1 - row) % p == i and part > rows[row + 1]:
            marks.append((-1, row))  # the cell (row, part - 1) is removable
    kept = []
    for mark in marks:
        if kept and kept[-1][0] == 1 and mark[0] == -1:
            kept.pop()
        else:
            kept.append(mark)
    return kept


def crystal_mullineux(lam, p):
    """Kleshchev's route to the Mullineux image, with no rim removal.

    Remove good nodes (the lowest uncancelled removable i-node) down to the
    empty partition, recording residues i; then add cogood nodes (the
    highest uncancelled addable node) of residue -i in the reverse order
    (Ford-Kleshchev 1997; Bessenrodt-Olsson 1998).
    """
    parts = list(lam.parts)
    residues = []
    while parts:
        for i in range(p):
            removable = [row for sign, row in _signature(parts, i, p) if sign == -1]
            if removable:
                parts[removable[-1]] -= 1
                residues.append(i)
                break
        else:
            raise AssertionError(f"{lam} has no good node")
        while parts and not parts[-1]:
            parts.pop()
    for i in reversed(residues):
        addable = [row for sign, row in _signature(parts, -i % p, p) if sign == 1]
        row = addable[0]
        if row == len(parts):
            parts.append(0)
        parts[row] += 1
    return Partition(parts)


def test_crystal_oracle_matches_the_rim_symbol():
    for p in (2, 3, 5, 7):
        for d in range(1, 21):
            for lam in enumerate_partitions(d, "p_regular", p):
                assert mullineux_map(lam, p) == crystal_mullineux(lam, p), (lam, p)
    for p in (3, 5):
        for d in range(1, 7):
            for lam in enumerate_partitions(d, "p_regular", p):
                for big in (lam.scale(p), lam.scale(p * p)):
                    assert mullineux_map(big, p) == crystal_mullineux(big, p), (big, p)


def brute_force_insertions(mu, a, r, p):
    """Every nu with r rows whose p-rim removal gives back (mu, a).

    Stripping a p-rim takes between 1 and p nodes from every row, so the
    candidates are mu, padded to r rows, grown by 1..p nodes in each row;
    each one that is a partition is stripped and kept if it gives (mu, a).
    """
    rows = list(mu.parts) + [0] * (r - len(mu.parts))
    if len(rows) != r:
        return []
    found = []

    def grow(nu, remaining):
        j = len(nu)
        if j == r:
            if remaining == 0 and remove_p_rim(Partition(nu), p) == (mu, a):
                found.append(Partition(nu))
            return
        for c in range(1, p + 1):
            if j and rows[j] + c > nu[-1]:
                break
            if r - j - 1 <= remaining - c <= (r - j - 1) * p:
                grow(nu + [rows[j] + c], remaining - c)

    grow([], a)
    return found


def test_insertion_matches_brute_force():
    # every removal step must invert uniquely; sweep all small diagrams
    for total in range(1, 13):
        for p in (2, 3, 5, 7):
            for nu in enumerate_partitions(total, "all"):
                mu, a = remove_p_rim(nu, p)
                candidates = brute_force_insertions(mu, a, len(nu.parts), p)
                assert candidates == [nu]
                assert insert_p_rim(mu, a, len(nu.parts), p) == nu


def test_insertion_matches_brute_force_on_random_requests():
    # mostly impossible requests: NoInsertion exactly when nothing strips back
    rng = random.Random(7)
    shapes = [lam for d in range(11) for lam in enumerate_partitions(d, "all")]
    found = 0
    for _ in range(4000):
        p = rng.choice((2, 3, 5, 7))
        mu = rng.choice(shapes)
        r = rng.randint(1, 6)
        a = rng.randint(0, r * p + 2)
        candidates = brute_force_insertions(mu, a, r, p)
        if not candidates:
            with pytest.raises(NoInsertion):
                insert_p_rim(mu, a, r, p)
            continue
        found += 1
        assert candidates == [insert_p_rim(mu, a, r, p)], (mu, a, r, p)
    assert found > 250


def test_insertion_rejects_impossible_requests():
    with pytest.raises(NoInsertion):
        insert_p_rim(Partition((1,)), 1, 2, 3)
    with pytest.raises(NoInsertion):
        insert_p_rim(Partition(()), 7, 2, 3)  # two rows carry at most 2p = 6


def test_tau_values():
    assert tau(20, 5).parts == (4, 4, 4, 4, 4)
    assert tau(10, 5).parts == (4, 4, 2)
    assert tau(5, 5).parts == (4, 1)
    assert tau(7, 2).parts == (1,) * 7


def test_tau_closed_form_sweep():
    for p in (2, 3, 5, 7):
        for n in range(1, 201):
            value = tau(n, p)
            assert value == tau_closed_form(n, p)
            assert value.size == n
            head = value.parts[:-1]
            assert all(part == p - 1 for part in head)
            assert 1 <= value.parts[-1] <= p - 1


def test_hat_identity_sweep():
    for p in (3, 5):
        for d in range(1, 11):
            for lam in enumerate_partitions(d, "distinct"):
                assert verify_hat_identity(lam, p)
                hat = lam.hat(p)
                assert mullineux_map(hat, p) == lam.scale(p - 1)


def test_twist_commutes_on_both_families():
    for p in (3, 5):
        for d in range(1, 9):
            for lam in enumerate_partitions(d, "distinct"):
                for mu in (lam.scale(p - 1), lam.hat(p)):
                    lhs = mullineux_map(mu.scale(p), p)
                    assert lhs == mullineux_map(mu, p).scale(p)


def test_distinct_parts_sum_formula():
    for p in (3, 5):
        for d in range(1, 11):
            for lam in enumerate_partitions(d, "distinct"):
                total = Partition(())
                for part in lam.parts:
                    total = total.add(tau(p * part, p))
                assert mullineux_map(lam.scale(p), p).conjugate() == total


def test_steinberg_style_difference():
    for p in (3, 5):
        for d in range(1, 9):
            for lam in enumerate_partitions(d, "distinct"):
                assert steinberg_difference(lam, p) == lam.hat(p).scale(p)


def test_symbol_pattern_for_scaled_distinct_parts():
    # columns of the symbol of m(p*lam) come out as (i*p, i*(p-1)),
    # repeated lam_i - lam_{i+1} times, read from the bottom row up
    for p in (3, 5):
        for d in range(1, 11):
            for lam in enumerate_partitions(d, "distinct"):
                image = mullineux_map(lam.scale(p), p)
                expected = []
                s = len(lam.parts)
                for i in range(s, 0, -1):
                    gap = lam.part(i - 1) - lam.part(i)
                    expected.extend([(i * p, i * (p - 1))] * gap)
                assert list(mullineux_symbol(image, p).columns) == expected


@settings(max_examples=40, deadline=None)
@given(partitions(max_size=40))
def test_removal_and_reinsertion_inverse(lam):
    if lam.size == 0:
        return
    for p in (2, 3, 5):
        mu, a = remove_p_rim(lam, p)
        assert mu.size + a == lam.size
        assert insert_p_rim(mu, a, len(lam.parts), p) == lam


@settings(max_examples=30, deadline=None)
@given(distinct_partitions(max_part=10))
def test_identities_on_random_distinct_shapes(lam):
    for p in (3, 5):
        assert verify_hat_identity(lam, p)
        assert steinberg_difference(lam, p) == lam.hat(p).scale(p)


def test_large_scaled_involution():
    # stress the cycle jumps of both directions on parts far beyond the rim size
    lam = random_regular(23, 5)
    big = lam.scale(5**4)
    image = mullineux_map(big, 5)
    assert image.size == big.size
    assert mullineux_map(image, 5) == big


def symbol_runs(sym):
    """Runs ((a, r), length) of equal columns, last column first."""
    cols = sym.columns
    i = len(cols) - 1
    while i >= 0:
        start = i
        while start > 0 and cols[start - 1] == cols[i]:
            start -= 1
        yield cols[i], i - start + 1
        i = start - 1


def jump_cases(seed):
    """Scaled shapes whose runs jump: the repeated-twist shape at 7^b and random ones at 3^b, 5^b."""
    cases = [(REPEATED_TWIST_SHAPE, 7, b) for b in (1, 2, 3)]
    rng = random.Random(seed)
    for p in (3, 5):
        for d in (12, 17, 23):
            lam = random_regular(d, p, rng)
            cases.extend((lam, p, b) for b in (1, 2, 3))
    return cases


def test_run_jumps_match_single_insertions(monkeypatch):
    # every run of a scaled shape's transformed symbol, rebuilt with period
    # jumps, must equal the same run done one verified insertion at a time
    verified_periods = []
    strips_back = mullineux_module._cycle_strips_back

    def recording(state, cyc, p):
        ok = strips_back(state, cyc, p)
        if ok:
            verified_periods.append(len(cyc))
        return ok

    monkeypatch.setattr(mullineux_module, "_cycle_strips_back", recording)
    for lam, p, b in jump_cases(4):
        big = lam.scale(p**b)
        sym = mullineux_module.transform_symbol(mullineux_symbol(big, p))
        nu = ()
        for (a, r), run in symbol_runs(sym):
            jumped = mullineux_module._walk_run(nu, a, r, p, run)[0]
            for _ in range(run):
                nu, _ = mullineux_module._insert_raw(nu, a, r, p)
            assert jumped == nu, (lam, p, b, (a, r), run)
        assert Partition(nu) == mullineux_map(big, p)
    # the 7^3 map has a period-60 run; jumps over periods above 3 must be covered
    assert max(verified_periods) > 3


def test_deep_twist_jumps_whole_periods(monkeypatch):
    # 7^5 * lam has a 139,258-column symbol in 8 runs; rebuilding it one
    # insertion per column means the period search has stopped firing
    calls = []
    insert_raw = mullineux_module._insert_raw

    def counting(mu, a, r, p):
        calls.append(a)
        return insert_raw(mu, a, r, p)

    monkeypatch.setattr(mullineux_module, "_insert_raw", counting)
    big = REPEATED_TWIST_SHAPE.scale(7**5)
    image = mullineux_map(big, 7)
    assert len(mullineux_symbol(big, 7).columns) == 139258
    assert image.size == big.size
    assert image.is_p_regular(7)
    assert len(calls) < 2000
    # the period jumps leave 578 single insertions; more means a jump was lost
    assert len(calls) <= 578


@pytest.mark.parametrize("lam, singles", [((8,), 2), ((16, 8), 4)])
def test_jumps_that_fit_exactly_are_taken(monkeypatch, lam, singles):
    # at p = 2 these runs have period 1 and reach room = 2 * q_min; a guard
    # that skipped the jump of exactly two cycles would double the insertions
    calls = []
    insert_raw = mullineux_module._insert_raw

    def counting(mu, a, r, p):
        calls.append(a)
        return insert_raw(mu, a, r, p)

    monkeypatch.setattr(mullineux_module, "_insert_raw", counting)
    assert mullineux_map(Partition(lam), 2) == Partition(lam)
    assert len(calls) == singles


def single_strip_columns(lam, p):
    """Every column of the symbol, one _strip_raw per column: the oracle for jumps."""
    columns = []
    parts = lam.parts
    while parts:
        rest, a = mullineux_module._strip_raw(parts, p)
        columns.append((a, len(parts)))
        parts = rest
    return tuple(columns)


def test_strip_jumps_match_single_strips(monkeypatch):
    # every run of a scaled shape's symbol, stripped with period jumps, must
    # equal the same run stripped one rim at a time
    verified_periods = []
    strips_back = mullineux_module._cycle_strips_back

    def recording(state, cyc, p):
        ok = strips_back(state, cyc, p)
        if ok:
            verified_periods.append(len(cyc))
        return ok

    monkeypatch.setattr(mullineux_module, "_cycle_strips_back", recording)
    for lam, p, b in jump_cases(5):
        big = lam.scale(p**b)
        columns = single_strip_columns(big, p)
        runs = tuple((a, r, len(list(g))) for (a, r), g in groupby(columns))
        assert mullineux_symbol(big, p).runs == runs, (lam, p, b)
    # the profiles inside these runs cycle with periods above 1
    assert max(verified_periods) > 1


def test_deep_twist_strips_whole_periods(monkeypatch):
    # stripping 7^5 * lam one rim per column takes 139,258 profiles
    calls = []
    rim_profile = mullineux_module._rim_profile

    def counting(parts, p):
        calls.append(len(parts))
        return rim_profile(parts, p)

    monkeypatch.setattr(mullineux_module, "_rim_profile", counting)
    sym = mullineux_symbol(REPEATED_TWIST_SHAPE.scale(7**5), 7)
    assert len(sym.runs) == 8
    assert sum(count for _, _, count in sym.runs) == 139258
    assert len(calls) < 2000
    # single strips and jump checks read 239 profiles when the walker was written
    assert len(calls) <= 239


def test_columns_match_single_strips_exhaustive():
    for p in (2, 3, 5):
        for d in range(1, 13):
            for lam in enumerate_partitions(d, "p_regular", p):
                for b in range(3):
                    big = lam.scale(p**b)
                    sym = mullineux_symbol(big, p)
                    assert sym.columns == single_strip_columns(big, p), (lam, p, b)
                    assert sym.size == big.size


def test_jumps_match_single_insertions_exhaustive():
    for p in (2, 3, 5):
        for d in range(1, 13):
            for lam in enumerate_partitions(d, "p_regular", p):
                for b in range(3):
                    big = lam.scale(p**b)
                    sym = mullineux_module.transform_symbol(mullineux_symbol(big, p))
                    assert mullineux_map(big, p) == single_insertions(sym), (lam, p, b)


def test_jump_guard_is_a_necessary_condition(monkeypatch):
    # _cycle_jump is tried only when the newest profile occurred q_min steps
    # back and 2 * q_min steps fit ahead: a jump of two or more cycles of a
    # period q >= q_min needs both, so the guard skips only calls that cannot jump
    calls = []
    cycle_jump = mullineux_module._cycle_jump

    def checked(state, history, p, left, sign, periods):
        before = history[:-1]
        assert history[-1] in before
        q_min = len(before) - max(i for i, prof in enumerate(before) if prof == history[-1])
        ahead = left if sign > 0 else state[-1] - 1
        assert 2 * q_min <= min(ahead, len(history))
        assert periods.start == q_min
        calls.append(sign)
        return cycle_jump(state, history, p, left, sign, periods)

    monkeypatch.setattr(mullineux_module, "_cycle_jump", checked)
    for lam, p, b in jump_cases(4) + jump_cases(5):
        mullineux_map(lam.scale(p**b), p)  # strips, then inserts
    assert {1, -1} <= set(calls)


def test_slow_cycles_stop_at_the_step_cap(monkeypatch):
    # the transformed symbol of p^b * (2,1,1) holds runs whose insertion
    # profiles repeat only with a period near p^2; walked one step at a time,
    # the scan at p = 199 ran for over ten minutes
    per_run = []
    walk_run, insert_raw = mullineux_module._walk_run, mullineux_module._insert_raw

    def run_counted(*args, **kwargs):
        per_run.append(0)
        return walk_run(*args, **kwargs)

    def counting(*args):
        per_run[-1] += 1
        return insert_raw(*args)

    monkeypatch.setattr(mullineux_module, "_walk_run", run_counted)
    monkeypatch.setattr(mullineux_module, "_insert_raw", counting)
    cap = mullineux_module._MAX_RUN_STEPS
    for p in (37, 101, 199):
        per_run.clear()
        try:
            multi_twist_scan(Partition((2, 1, 1)), p, 4)
        except TooLarge:
            pass
        assert max(per_run) <= cap, p
        assert sum(per_run) <= 2 * cap, p


def test_row_step_budget_counts_single_steps_times_rows(monkeypatch):
    # m((10^4)) at p = 1009 inserts the column (1009; 1008) nine times, one
    # single step each: 9,072 row steps
    monkeypatch.setattr(mullineux_module, "_MAX_RUN_ROW_STEPS", 9 * 1008)
    assert tau(10**4, 1009) == tau_closed_form(10**4, 1009)
    monkeypatch.setattr(mullineux_module, "_MAX_RUN_ROW_STEPS", 9 * 1008 - 1)
    with pytest.raises(TooLarge, match="row steps"):
        tau(10**4, 1009)


def test_slow_cycle_image_is_unchanged(monkeypatch):
    # one run of this map makes 2,737 single insertions, under the step cap
    inserts, profiles = [], []
    insert_raw, rim_profile = mullineux_module._insert_raw, mullineux_module._rim_profile

    def counting_insert(*args):
        inserts.append(args[1])
        return insert_raw(*args)

    def counting_profile(*args):
        profiles.append(len(args[0]))
        return rim_profile(*args)

    monkeypatch.setattr(mullineux_module, "_insert_raw", counting_insert)
    monkeypatch.setattr(mullineux_module, "_rim_profile", counting_profile)
    big = Partition((2, 1, 1)).scale(37**3)
    assert len(mullineux_symbol(big, 37).columns) == 2739
    # stripping jumps over the runs after reading 11 profiles
    assert len(profiles) <= 11
    image = (2897,) * 8 + (2896,) + (2895,) * 26 + (2814,) * 2 + (2813,) * 34
    assert mullineux_map(big, 37).parts == image
    # the insertions of the other runs jump: 2,739 single insertions in all
    assert len(inserts) <= 2739


def test_stripping_keeps_both_run_budgets(monkeypatch):
    # stripping 7^3 * lam takes 2,842 strips, most of them in jumps, which
    # neither budget counts; the run of the column (28; 8) makes the most
    # single strips, 28 of them, and so the most row steps, 28 * 8 = 224
    big = REPEATED_TWIST_SHAPE.scale(7**3)
    sym = mullineux_symbol(big, 7)
    assert len(sym.columns) == 2842
    step_cap = mullineux_module._MAX_RUN_STEPS
    monkeypatch.setattr(mullineux_module, "_MAX_RUN_STEPS", 28)
    assert mullineux_symbol(big, 7) == sym
    monkeypatch.setattr(mullineux_module, "_MAX_RUN_STEPS", 27)
    with pytest.raises(TooLarge, match=r"\(28;8\) takes over 27 single rim steps"):
        mullineux_symbol(big, 7)
    monkeypatch.setattr(mullineux_module, "_MAX_RUN_STEPS", step_cap)
    monkeypatch.setattr(mullineux_module, "_MAX_RUN_ROW_STEPS", 28 * 8)
    assert mullineux_symbol(big, 7) == sym
    monkeypatch.setattr(mullineux_module, "_MAX_RUN_ROW_STEPS", 28 * 8 - 1)
    with pytest.raises(TooLarge, match=r"\(28;8\) takes over 27 single steps of 8 rows"):
        mullineux_symbol(big, 7)
