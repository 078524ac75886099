"""Release gate: every published behavior, one test per claim, with the time
budget asserted inside the test.  Run with -v to get one pass/fail line per
criterion.  Two claims ship with stated values that the library cannot
reproduce; those are marked xfail(strict=True) with the reason inline, and
the attainable part of each claim is asserted separately.
"""

import random
import time
from functools import lru_cache

import pytest

from twistlab.abacus import p_core, p_core_by_stripping
from twistlab.criteria import (
    h0_prepend_stable,
    h0_specht_nonzero,
    ks_ext1,
    murphy_end_dim,
    murphy_indecomposable,
)
from twistlab.mullineux import (
    mullineux_map,
    mullineux_symbol,
    steinberg_difference,
    tau,
    verify_hat_identity,
)
from twistlab.partitions import Partition, enumerate_partitions, l_p
from twistlab.search import (
    find_twist_commuting,
    ks_stability_scan,
    multi_twist_scan,
)
from twistlab.specht import build_specht, h0_dim, hom_dim, invariants_dim, is_decomposable


def hook(d, r):
    return Partition((d - r,) + (1,) * r)


def test_criterion_01_exact_mullineux_values():
    start = time.monotonic()
    assert mullineux_map(Partition((15, 15)), 5).parts == (10, 10, 10)
    assert mullineux_map(Partition((20, 10, 5)), 5).conjugate().parts == (12, 9, 6, 4, 4)
    assert mullineux_map(Partition((30, 30, 20)), 5).parts == (20, 20, 20, 5, 5, 5, 5)
    assert tau(20, 5).parts == (4, 4, 4, 4, 4)
    assert tau(10, 5).parts == (4, 4, 2)
    assert tau(5, 5).parts == (4, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS exact values ({elapsed:.2f}s)")


def test_criterion_02_involution_and_regularity():
    start = time.monotonic()
    cases = 0
    for p in (2, 3, 5, 7):
        for d in range(1, 26):
            for lam in enumerate_partitions(d, "p_regular", p):
                image = mullineux_map(lam, p)
                assert image.is_p_regular(p), (lam, p)
                assert mullineux_map(image, p) == lam, (lam, p)
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS involution on {cases} cases ({elapsed:.1f}s)")


def test_criterion_03_identity_suites():
    start = time.monotonic()
    checked = 0
    for p in (3, 5):
        for d in range(1, 16):
            for lam in enumerate_partitions(d, "distinct"):
                # repeated-part lift maps onto the stretched shape
                assert verify_hat_identity(lam, p)
                # scaling by p commutes with the involution on both families
                for mu in (lam.scale(p - 1), lam.hat(p)):
                    assert mullineux_map(mu.scale(p), p) == mullineux_map(mu, p).scale(p)
                # conjugated image of p*lam splits into one-row images
                total = Partition(())
                for part in lam.parts:
                    total = total.add(tau(p * part, p))
                assert mullineux_map(lam.scale(p), p).conjugate() == total
                # consecutive scalings differ by the stretched shape
                assert steinberg_difference(lam, p) == lam.hat(p).scale(p)
                # the symbol of the image follows the staircase column pattern
                image = mullineux_map(lam.scale(p), p)
                expected = []
                for i in range(len(lam.parts), 0, -1):
                    gap = lam.part(i - 1) - lam.part(i)
                    expected.extend([(i * p, i * (p - 1))] * gap)
                assert list(mullineux_symbol(image, p).columns) == expected
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 3 PASS five identities on {checked} shapes ({elapsed:.1f}s)")


REPEATED_TWIST_SHAPE = Partition((29, 29, 24, 4, 4, 3, 3, 3, 2, 1))


@lru_cache(maxsize=1)
def repeated_twist_window():
    start = time.monotonic()
    report = multi_twist_scan(REPEATED_TWIST_SHAPE, 7, 5)
    return report, time.monotonic() - start


def test_criterion_04_repeated_twist_window():
    report, elapsed = repeated_twist_window()
    assert [(h["a"], h["b"]) for h in report.hits] == [(1, 5)]
    assert report.scanned == 10
    hit = report.hits[0]
    assert [7 * t for t in hit["tau"]] == hit["difference"]
    assert sum(hit["difference"]) == 7**5 * 102 - 7 * 102
    assert elapsed < 5.0
    print(f"criterion 4 PASS window has the single pair (1,5) ({elapsed:.1f}s)")


@pytest.mark.xfail(
    reason="stated quotient fails size conservation: its parts sum to 715200, "
    "but the difference of the two images forces 244800",
    strict=True,
)
def test_criterion_04_stated_quotient_value():
    report, _ = repeated_twist_window()
    stated = [123840] * 5 + [9600] * 5 + [5400] * 4 + [3840] * 5 + [800] * 6 + [400] * 6
    assert report.hits[0]["tau"] == stated


def test_criterion_05_fixed_point_families():
    start = time.monotonic()
    report = find_twist_commuting(20, 5)
    assert sorted(tuple(h["lambda"]) for h in report.hits) == sorted(
        [
            (20,),
            (16, 4),
            (12, 8),
            (5, 5, 5, 5),
            (4, 4, 4, 4, 1, 1, 1, 1),
            (3, 3, 3, 3, 2, 2, 2, 2),
        ]
    )
    small = find_twist_commuting(6, 5)
    assert (3, 3) in {tuple(h["lambda"]) for h in small.hits}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 5 PASS six fixed points at d=20 ({elapsed:.1f}s)")


def test_criterion_06_two_row_ext_criterion():
    start = time.monotonic()
    assert ks_ext1(3, Partition((20, 9)), Partition((26, 3))) == 1
    assert ks_ext1(3, Partition((60, 27)), Partition((78, 9))) == 0
    for p in (3, 5):
        for d in range(2, 41):
            report = ks_stability_scan(d, p)
            assert report.counterexamples == (), (d, p)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 6 PASS ext values and stability to d=40 ({elapsed:.1f}s)")


def test_criterion_07_hook_formulas_against_modules():
    start = time.monotonic()
    assert murphy_end_dim(9, 3) == 2
    for r in range(1, 5):
        assert murphy_end_dim(8, r) == 1
    for d in (8, 9, 11, 13):
        for r in range(1, 5):
            module = build_specht(hook(d, r), 2)
            assert hom_dim(module, module) == murphy_end_dim(d, r), (d, r)
            assert is_decomposable(module) == (not murphy_indecomposable(d, r)), (d, r)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 7 PASS formulas match modules on 16 hooks ({elapsed:.1f}s)")


@pytest.mark.xfail(
    reason="stated even-leg values at d=9 disagree with the module computation "
    "(and with the stated d=13 examples, which follow the opposite parity)",
    strict=True,
)
def test_criterion_07_stated_even_leg_values():
    assert murphy_end_dim(9, 2) == 1
    assert murphy_end_dim(9, 4) == 2


def test_criterion_08_decomposable_non_hook():
    start = time.monotonic()
    assert is_decomposable(build_specht(Partition((4, 3, 1, 1)), 2))
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 8 PASS (4,3,1,1) splits at p=2 ({elapsed:.1f}s)")


def test_criterion_09_cross_degree_hom_vanishes():
    start = time.monotonic()
    a = build_specht(Partition((7, 1, 1)), 3)
    b = build_specht(Partition((3, 1, 1, 1, 1, 1, 1)), 3)
    assert hom_dim(a, b) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 9 PASS hom dimension zero ({elapsed:.1f}s)")


def test_criterion_10_fixed_point_coherence():
    start = time.monotonic()
    for p in (2, 3, 5):
        for d in range(1, 11):
            for lam in enumerate_partitions(d, "all"):
                congruence = h0_specht_nonzero(lam, p)
                assert (h0_dim(lam, p) > 0) == congruence, (lam, p)

    rng = random.Random(20260815)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        d = rng.randint(1, 12)
        lam = rng.choice(list(enumerate_partitions(d, "all")))
        modulus = p ** l_p(lam.part(0), p)
        a = modulus - 1
        while a < lam.part(0):
            a += modulus
        a += modulus * rng.randint(0, 3)
        assert h0_prepend_stable(lam, a, p)

    for p in (2, 3, 5):
        for d in range(1, 21):
            for lam in enumerate_partitions(d, "all"):
                scaled_nonzero = h0_specht_nonzero(lam.scale(p), p)
                assert scaled_nonzero == (lam.parts == (d,)), (lam, p)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 10 PASS congruence matches invariants ({elapsed:.1f}s)")


def test_criterion_11_abacus_oracles():
    start = time.monotonic()
    for p in (2, 3, 5, 7):
        for d in range(1, 13):
            for lam in enumerate_partitions(d, "all"):
                block = p_core(lam, p)
                assert lam.size == block.core.size + p * block.weight
                assert block == p_core_by_stripping(lam, p)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 11 PASS slide and strip agree to d=12 ({elapsed:.1f}s)")


def test_criterion_12_deterministic_reports():
    runs = [find_twist_commuting(12, 3) for _ in range(2)]
    assert runs[0].body_bytes() == runs[1].body_bytes()
    scans = [ks_stability_scan(15, 3) for _ in range(2)]
    assert scans[0].body_bytes() == scans[1].body_bytes()
    twists = [multi_twist_scan(Partition((3, 1)), 3, 4) for _ in range(2)]
    assert twists[0].body_bytes() == twists[1].body_bytes()
    print("criterion 12 PASS byte-identical report bodies")
