import pytest
from hypothesis import given, settings, strategies as st

import twistlab.criteria as criteria
import twistlab.mullineux as mullineux
from twistlab.criteria import (
    h0_failed_row,
    h0_prepend_stable,
    h0_specht_nonzero,
    ks_ext1,
    ks_ext1_witness,
    ks_twist_stable,
    murphy_end_dim,
    murphy_indecomposable,
    murphy_summand_count,
    murphy_twist_invariance,
)
from twistlab.errors import (
    CongruenceViolated,
    EqualSizeRequired,
    HypothesisViolated,
    NotPrime,
    NotTwoPart,
    PrimeTooSmall,
)
from twistlab.mullineux import tau
from twistlab.partitions import Partition, l_p


def test_ks_known_pairs():
    lam, mu = Partition((20, 9)), Partition((26, 3))
    assert ks_ext1(3, lam, mu) == 1
    assert ks_ext1_witness(3, lam, mu) == 1
    assert ks_ext1(3, Partition((60, 27)), Partition((78, 9))) == 0
    assert ks_ext1_witness(3, Partition((60, 27)), Partition((78, 9))) is None


def test_ks_is_symmetric_in_its_arguments():
    lam, mu = Partition((20, 9)), Partition((26, 3))
    assert ks_ext1(3, lam, mu) == ks_ext1(3, mu, lam)


def test_ks_input_validation():
    with pytest.raises(NotTwoPart):
        ks_ext1(3, Partition((4, 2, 1)), Partition((7,)))
    with pytest.raises(EqualSizeRequired):
        ks_ext1(3, Partition((3, 1)), Partition((3, 2)))
    with pytest.raises(PrimeTooSmall):
        ks_ext1(2, Partition((3, 1)), Partition((2, 2)))
    with pytest.raises(NotPrime):
        ks_ext1(9, Partition((3, 1)), Partition((2, 2)))


def test_ks_twist_stability_on_known_pair():
    assert ks_twist_stable(3, Partition((20, 9)), Partition((26, 3)))


@settings(max_examples=80)
@given(st.data())
def test_ks_output_is_a_dimension_bit(data):
    p = data.draw(st.sampled_from([3, 5]))
    d = data.draw(st.integers(min_value=4, max_value=60))
    k1 = data.draw(st.integers(min_value=0, max_value=d // 2))
    k2 = data.draw(st.integers(min_value=0, max_value=d // 2))
    lam = Partition((d - k1, k1) if k1 else (d,))
    mu = Partition((d - k2, k2) if k2 else (d,))
    assert ks_ext1(p, lam, mu) in (0, 1)


# (d, r) -> (dim End, indecomposable), each row cross-checked against the
# GF(2) module workbench
MURPHY_ORACLE = {
    (5, 2): (2, True),
    (7, 2): (2, False),
    (7, 3): (2, True),
    (8, 2): (1, True),
    (8, 3): (1, True),
    (9, 2): (2, True),
    (9, 3): (2, False),
    (9, 4): (3, True),
    (11, 2): (2, False),
    (11, 3): (2, True),
    (11, 4): (3, False),
    (13, 3): (2, False),
    (13, 4): (3, False),
}


def test_murphy_against_module_oracle_table():
    for (d, r), (end, indec) in MURPHY_ORACLE.items():
        assert murphy_end_dim(d, r) == end, (d, r)
        assert murphy_indecomposable(d, r) == indec, (d, r)


def test_murphy_summand_counts_are_consistent():
    for (d, r), (_, indec) in MURPHY_ORACLE.items():
        count = murphy_summand_count(d, r)
        assert (count == 1) == indec
        assert 1 <= count <= murphy_end_dim(d, r)


def test_murphy_summands_can_exceed_two():
    assert murphy_summand_count(15, 4) == 3


def _overlap_products_term_by_term(d, r):
    """N[k][i][j] mod 2 summed one term at a time, with d as given."""
    m = r + 1
    table = [[[0] * m for _ in range(m)] for _ in range(m)]
    for k in range(m):
        for i in range(m):
            for j in range(m):
                for t in range(min(i, j, k) + 1):
                    rest = r - i - j + t
                    if rest >= 0:
                        table[k][i][j] ^= (
                            k & t == t
                            and (r - k) & (j - t) == j - t
                            and (r - k) & (i - t) == i - t
                            and (d - 2 * r + k) & rest == rest
                        )
    return table


def test_overlap_table_needs_only_the_low_bits_of_d():
    for r in range(8):
        for d in range(2 * r, 2 * r + 40):
            low = d % (1 << r.bit_length())
            table = criteria._overlap_products(low, r)
            assert table.tolist() == _overlap_products_term_by_term(d, r), (d, r)


def test_overlap_cache_stays_bounded_over_many_d():
    criteria._overlap_products.cache_clear()
    counts = [murphy_summand_count(d, 48) for d in range(97, 157, 2)]
    info = criteria._overlap_products.cache_info()
    assert info.currsize <= info.maxsize < 30
    # the counts of the term-by-term table over unreduced d
    assert counts == [
        1, 5, 4, 7, 3, 8, 5, 7, 3, 9, 7, 11, 5, 11, 7,
        9, 2, 9, 7, 12, 5, 13, 8, 11, 3, 10, 7, 11, 4, 9,
    ]


def test_murphy_even_d_is_always_scalar():
    for d in (6, 8, 10, 12, 14):
        for r in range(1, d // 2 + 1):
            assert murphy_end_dim(d, r) == 1
            assert murphy_indecomposable(d, r)


def test_murphy_closed_form_matches_summand_machinery():
    for d in range(5, 22, 2):
        for r in range(1, d // 2 + 1):
            assert murphy_end_dim(d, r) == r // 2 + 1


def test_murphy_twist_invariance_probe():
    for d, r in [(9, 2), (9, 4), (11, 3), (13, 4), (15, 5)]:
        assert murphy_twist_invariance(d, r)


def test_murphy_rejects_short_arms():
    with pytest.raises(HypothesisViolated):
        murphy_end_dim(5, 3)


def test_h0_failed_row_values():
    assert h0_failed_row(Partition((26, 8, 2)), 3) is None
    assert h0_failed_row(Partition((8, 4, 3)), 3) == 2
    assert h0_failed_row(Partition((5, 3)), 2) == 1
    assert h0_failed_row(Partition((7,)), 3) is None  # one row never fails
    with pytest.raises(NotPrime):
        h0_failed_row(Partition((5, 3)), 4)


def test_h0_nonzero_wrapper():
    assert h0_specht_nonzero(Partition((26, 8, 2)), 3)
    assert not h0_specht_nonzero(Partition((8, 4, 3)), 3)


def test_h0_scaled_shapes_vanish_except_one_row():
    for p in (2, 3, 5):
        for parts in [(3, 1), (2, 2), (4, 2, 1), (3, 3, 2)]:
            lam = Partition(parts)
            assert not h0_specht_nonzero(lam.scale(p), p)
        assert h0_specht_nonzero(Partition((4 * p,)), p)


def test_h0_prepend_stability():
    lam = Partition((8, 2))
    p = 3
    # smallest legal new first part: a >= 8 with a = -1 mod 3^{l_3(8)}
    a = 17
    assert a % p ** l_p(lam.part(0), p) == p ** l_p(lam.part(0), p) - 1
    assert h0_prepend_stable(lam, a, p)
    with pytest.raises(CongruenceViolated):
        h0_prepend_stable(lam, 9, p)


@pytest.mark.parametrize(
    "inner, check",
    [
        ("ks_ext1", lambda: ks_twist_stable(3, Partition((20, 9)), Partition((26, 3)))),
        ("murphy_end_dim", lambda: murphy_twist_invariance(7, 2)),
        ("murphy_indecomposable", lambda: murphy_twist_invariance(7, 2)),
        ("h0_specht_nonzero", lambda: h0_prepend_stable(Partition((8, 2)), 17, 3)),
        ("tau_closed_form", lambda: tau(5, 3)),
    ],
)
def test_checked_booleans_raise_when_their_sides_disagree(monkeypatch, inner, check):
    # an explicit raise, so the check survives python -O, which strips asserts
    answers = iter(range(10))
    owner = mullineux if inner == "tau_closed_form" else criteria
    monkeypatch.setattr(owner, inner, lambda *args: next(answers))
    with pytest.raises(CongruenceViolated):
        check()
