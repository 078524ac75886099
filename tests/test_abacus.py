import pytest
from hypothesis import given, settings

from conftest import partitions
from twistlab.abacus import (
    _MAX_BEADS,
    _PICTURE_SIDE,
    block_census,
    default_beads,
    from_abacus,
    is_p_by_p,
    p_core,
    p_core_by_stripping,
    to_abacus,
)
from twistlab.errors import HypothesisViolated, TooFewBeads, TooLarge
from twistlab.partitions import Partition, enumerate_partitions

PRIMES = (2, 3, 5, 7)


def test_beta_numbers_small_example():
    display = to_abacus(Partition((4, 2, 1)), 3)
    assert display.beta == (6, 3, 1)
    assert display.picture() == [".oo", "o..", "..."]


def test_runner_contents():
    display = to_abacus(Partition((4, 2, 1)), 3)
    assert display.runner(0) == (1, 2)
    assert display.runner(1) == (0,)
    assert display.runner(2) == ()


def test_round_trip_with_extra_beads():
    lam = Partition((5, 3, 3, 1))
    for extra in (0, 1, 4, 7):
        beads = default_beads(lam, 3) + extra
        assert from_abacus(to_abacus(lam, 3, beads)) == lam


def test_too_few_beads():
    with pytest.raises(TooFewBeads):
        to_abacus(Partition((3, 2, 1)), 3, beads=2)


def test_too_many_beads():
    assert to_abacus(Partition((3, 2, 1)), 3, beads=_MAX_BEADS).beads == _MAX_BEADS
    with pytest.raises(TooLarge):
        to_abacus(Partition((3, 2, 1)), 3, beads=_MAX_BEADS + 1)
    # past the limit the default bead count is the length, not a multiple of p
    assert to_abacus(Partition((1,)), _MAX_BEADS + 1).beads == 1
    assert p_core(Partition((1,)), _MAX_BEADS + 1).core == Partition((1,))
    with pytest.raises(TooLarge):
        p_core(Partition((1,) * (_MAX_BEADS + 1)), 2)


def test_picture_is_cut_at_a_fixed_size():
    rows = to_abacus(Partition((10**8,)), 2).picture()
    assert rows[0] == "o" + "." * (_PICTURE_SIDE - 1)
    assert rows[1] == "." * _PICTURE_SIDE
    assert rows[2:] == [f"({5 * 10**7 + 1 - _PICTURE_SIDE} more levels not drawn)"]
    p = 10**9 + 7
    rows = to_abacus(Partition((3, 1)), p, beads=2).picture()  # beads at 4 and 1
    assert len(rows) == _PICTURE_SIDE + 1
    assert [r for r, row in enumerate(rows[:-1]) if row == "o"] == [1, 4]
    assert rows[-1] == f"({p - _PICTURE_SIDE} more runners not drawn)"


def test_core_with_a_huge_prime_and_few_beads():
    # lam is read on its two rows, so a prime far past the bead limit costs nothing
    lam = Partition((3, 1))
    assert p_core(lam, 10**9 + 7) == p_core_by_stripping(lam, 10**9 + 7)


def test_core_weight_small_values():
    block = p_core(Partition((5, 3, 3, 1)), 3)
    assert block.core.parts == (2, 2, 1, 1)
    assert block.weight == 2
    assert p_core(Partition((2, 1)), 3).weight == 1  # (2,1) is a single 3-hook


def test_slide_agrees_with_rim_stripping():
    for d in range(1, 11):
        for p in (2, 3, 5, 99991):
            for lam in enumerate_partitions(d, "all"):
                assert p_core(lam, p) == p_core_by_stripping(lam, p)


def test_size_decomposes_into_core_plus_weight():
    for d in range(1, 11):
        for p in PRIMES:
            for lam in enumerate_partitions(d, "all"):
                block = p_core(lam, p)
                assert lam.size == block.core.size + p * block.weight


def test_p_by_p_detection():
    assert is_p_by_p(Partition((2, 2)), 2)
    assert is_p_by_p(Partition((3, 3, 3)), 3)
    assert is_p_by_p(Partition((6, 6, 6, 3, 3, 3)), 3)
    assert not is_p_by_p(Partition((3, 3)), 3)
    assert not is_p_by_p(Partition((4, 2)), 2)


@pytest.mark.parametrize("p", [1, 0, -1])
def test_p_by_p_refuses_a_modulus_below_two(p):
    with pytest.raises(HypothesisViolated, match="at least 2"):
        is_p_by_p(Partition((2, 2)), p)


def test_census_covers_every_partition_once():
    for p in (2, 3):
        records = block_census(enumerate_partitions(6), p)
        seen = []
        for record in records:
            assert record.core == p_core(record.members[0], p).core
            for lam in record.members:
                block = p_core(lam, p)
                assert block.core == record.core
                assert block.weight == record.weight
                seen.append(lam.parts)
            for lam in record.p_by_p_members:
                assert is_p_by_p(lam, p)
        everything = sorted(q.parts for q in enumerate_partitions(6, "all"))
        assert sorted(seen) == everything


@settings(max_examples=80)
@given(partitions(max_size=25))
def test_round_trip_and_core_invariants(lam):
    for p in (2, 3, 5):
        assert from_abacus(to_abacus(lam, p)) == lam
        block = p_core(lam, p)
        assert lam.size == block.core.size + p * block.weight
        # a core has no removable p-hook, so its own weight is zero
        assert p_core(block.core, p).weight == 0
