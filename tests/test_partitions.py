import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import conjugate_by_cells, partitions, partitions_by_prefix
from twistlab.errors import (
    HypothesisViolated,
    NonPartitionDifference,
    NotDistinctParts,
    Overflow,
    TwistlabError,
)
from twistlab.mullineux import remove_p_rim
from twistlab.partitions import Partition, enumerate_partitions, l_p


@lru_cache(maxsize=None)
def partition_count(n, largest):
    """Number of partitions of n with parts at most largest."""
    if n == 0:
        return 1
    if largest == 0:
        return 0
    return sum(partition_count(n - k, k) for k in range(1, min(largest, n) + 1))


def test_basic_accessors():
    lam = Partition((4, 2, 1))
    assert lam.size == 7
    assert lam.part(0) == 4
    assert lam.part(5) == 0
    assert len(lam) == 3


def test_normalization_drops_zeros():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).parts == ()


@pytest.mark.parametrize("part", [2.7, 2.0, "3", None, np.float64(2.0)])
def test_rejects_a_part_that_is_not_an_integer(part):
    with pytest.raises(HypothesisViolated, match=re.escape(f"part {part!r} is not an integer")):
        Partition([part, 1])


def test_integer_like_parts_are_read_as_ints():
    lam = Partition([np.int64(3), np.int8(2), True])
    assert lam.parts == (3, 2, 1)
    assert all(type(part) is int for part in lam)


def test_rejects_increasing_parts():
    with pytest.raises(ValueError):
        Partition((1, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Partition((3, -1)),
        lambda: Partition((1, 3)),
        lambda: Partition((2, 1)).scale(-1),
        lambda: Partition((2, 1)).divide(0),
        lambda: Partition((2, 1)).divide(-2),
        lambda: l_p(-1, 3),
        lambda: list(enumerate_partitions(4, "odd")),
        lambda: list(enumerate_partitions(4, "p_regular")),
        lambda: remove_p_rim(Partition(()), 3),
    ],
)
def test_bad_shapes_and_arguments_are_twistlab_value_errors(call):
    # a TwistlabError for the command line, still a ValueError for older callers
    with pytest.raises(TwistlabError) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_conjugate_known_values():
    assert Partition((4, 2, 1)).conjugate().parts == (3, 2, 1, 1)
    assert Partition((5,)).conjugate().parts == (1, 1, 1, 1, 1)
    assert Partition(()).conjugate().parts == ()


def test_conjugate_matches_the_cell_by_cell_oracle():
    for d in range(21):
        for lam in enumerate_partitions(d):
            assert lam.conjugate() == conjugate_by_cells(lam), lam


def test_conjugate_of_a_wide_block():
    # the conjugate reads 300 rows and 100,000 columns, not the 3 * 10^7 cells
    conj = Partition((100000,) * 300).conjugate()
    assert conj.parts == (300,) * 100000


def test_enumeration_matches_the_unpruned_recursion():
    for d in range(40):
        for kind in ("all", "distinct", "two_part"):
            found = [lam.parts for lam in enumerate_partitions(d, kind)]
            assert found == partitions_by_prefix(d, kind), (d, kind)
        for p in (2, 3, 5):
            found = [lam.parts for lam in enumerate_partitions(d, "p_regular", p)]
            assert found == partitions_by_prefix(d, "p_regular", p), (d, p)


def test_enumeration_matches_recurrence():
    for d in range(1, 26):
        assert len(list(enumerate_partitions(d, "all"))) == partition_count(d, d)


def test_enumeration_order_is_decreasing_lex():
    for d in (5, 8, 11):
        seq = [lam.parts for lam in enumerate_partitions(d, "all")]
        assert seq[0] == (d,)
        assert seq[-1] == (1,) * d
        assert seq == sorted(seq, reverse=True)


def test_regular_and_restricted_are_conjugate_notions():
    for d in range(1, 15):
        for p in (2, 3, 5):
            regular = {lam.parts for lam in enumerate_partitions(d, "p_regular", p)}
            restricted = {
                lam.conjugate().parts
                for lam in enumerate_partitions(d, "all")
                if lam.conjugate().is_p_regular(p)
            }
            assert regular == restricted


def test_distinct_count_equals_odd_part_count():
    # Euler's classic bijection, as a cross-check on the filtered enumerator.
    for d in range(1, 20):
        distinct = len(list(enumerate_partitions(d, "distinct")))
        odd = sum(
            1
            for lam in enumerate_partitions(d, "all")
            if all(part % 2 for part in lam.parts)
        )
        assert distinct == odd


def test_two_part_enumeration():
    assert [q.parts for q in enumerate_partitions(7, "two_part")] == [
        (7,),
        (6, 1),
        (5, 2),
        (4, 3),
    ]


def test_l_p_counts_digits():
    assert [l_p(t, 3) for t in (0, 1, 2, 3, 8, 9, 26, 27)] == [0, 1, 1, 2, 2, 3, 3, 4]
    assert l_p(15, 2) == 4
    assert l_p(16, 2) == 5


def test_hat_repeats_each_part():
    assert Partition((4, 2, 1)).hat(3).parts == (4, 4, 2, 2, 1, 1)
    with pytest.raises(NotDistinctParts):
        Partition((2, 2)).hat(3)


@pytest.mark.parametrize("p", [1, 0, -1])
def test_hat_refuses_a_modulus_below_two(p):
    with pytest.raises(HypothesisViolated, match="at least 2"):
        Partition((2, 1)).hat(p)


def test_scale_overflow_guard():
    big = Partition((2**62,))
    with pytest.raises(Overflow):
        big.scale(4)


def test_subtract_requires_containment():
    assert Partition((5, 2)).subtract(Partition((3, 1))).parts == (2, 1)
    with pytest.raises(NonPartitionDifference):
        Partition((5, 2)).subtract(Partition((4, 3)))


@given(partitions())
def test_conjugate_is_an_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size


@given(partitions(max_size=20), partitions(max_size=20))
def test_componentwise_add_then_subtract(lam, mu):
    total = lam.add(mu)
    assert total.size == lam.size + mu.size
    assert total.subtract(mu) == lam


@settings(max_examples=60)
@given(partitions(max_size=20))
def test_scale_then_divide(lam):
    scaled = lam.scale(3)
    assert scaled.size == 3 * lam.size
    assert scaled.divide(3) == lam


@given(partitions(max_size=24))
def test_regularity_flags_agree_with_definitions(lam):
    for p in (2, 3, 5):
        runs_ok = all(
            lam.parts[i : i + p] != (lam.parts[i],) * p
            for i in range(len(lam.parts))
        )
        assert lam.is_p_regular(p) == runs_ok
    assert lam.has_distinct_parts() == (len(set(lam.parts)) == len(lam.parts))
