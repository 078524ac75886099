import json
import time

import pytest

import twistlab.search as search_module
from twistlab.errors import TooLarge
from twistlab.partitions import Partition
from twistlab.search import (
    SearchReport,
    census,
    check_twist_persistence,
    find_p_image,
    find_twist_commuting,
    ks_stability_scan,
    multi_twist_scan,
)


def test_fixed_points_small_case():
    report = find_twist_commuting(6, 5)
    assert [h["lambda"] for h in report.hits] == [[3, 3], [2, 2, 2]]
    for h in report.hits:
        lam = Partition(tuple(h["lambda"]))
        assert h["m_p_lambda"] == [5 * part for part in h["m_lambda"]]
        assert sum(h["lambda"]) == lam.size


def test_fixed_points_returns_expected_family():
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


def test_persistence_has_no_failures_small():
    for d in (6, 8, 10):
        report = check_twist_persistence(d, 3)
        assert report.counterexamples == ()
        assert {tuple(h["lambda"]) for h in report.hits} == {
            tuple(h["lambda"]) for h in find_twist_commuting(d, 3).hits
        }


def test_p_image_hits_carry_the_quotient():
    report = find_p_image(6, 3)
    for h in report.hits:
        assert [3 * t for t in h["tau"]] == h["m_p_lambda"]
    assert report.scanned == 7  # 3-regular partitions of 6


def test_multi_twist_known_clean_case():
    report = multi_twist_scan(Partition((2, 1)), 5, 3)
    assert report.counterexamples == ()
    assert sorted((h["a"], h["b"]) for h in report.hits) == [(1, 2), (1, 3), (2, 3)]
    for h in report.hits:
        assert [5 ** h["a"] * t for t in h["tau"]] == h["difference"]


def test_multi_twist_rejects_trivial_range():
    with pytest.raises(ValueError):
        multi_twist_scan(Partition((2, 1)), 5, 1)


def test_ks_stability_scan_clean_at_small_sizes():
    report = ks_stability_scan(24, 3)
    assert report.counterexamples == ()
    # hits are pairs whose dimension changes at the first twist; the scan
    # only certifies that a second twist never changes it again
    for h in report.hits:
        assert h["untwisted"] != h["once"]


def test_census_blocks_are_a_partition_of_the_level():
    report = census(6, 3)
    members = [tuple(m) for h in report.hits for m in h["members"]]
    assert len(members) == len(set(members)) == 11
    assert report.scanned == 11


def test_census_with_a_huge_prime_is_quick():
    start = time.monotonic()
    report = census(20, 99991)
    elapsed = time.monotonic() - start
    # no partition of 20 holds a 99991-hook: each is a core in a block of its own
    assert report.scanned == len(report.hits) == 627
    assert all(h["weight"] == 0 and h["members"] == [h["core"]] for h in report.hits)
    assert elapsed < 1.0


def test_report_round_trips_through_json():
    report = find_twist_commuting(8, 3)
    body = json.loads(report.body_bytes())
    assert body["search"] == "fixed-points"
    assert body["scanned"] == report.scanned
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


def test_reports_are_deterministic():
    first = find_twist_commuting(10, 3)
    second = find_twist_commuting(10, 3)
    assert first.body_bytes() == second.body_bytes()
    assert multi_twist_scan(Partition((3, 1)), 3, 4).body_bytes() == multi_twist_scan(
        Partition((3, 1)), 3, 4
    ).body_bytes()


def test_elapsed_is_excluded_from_the_body():
    report = find_twist_commuting(6, 3)
    assert report.elapsed >= 0.0
    assert b"elapsed" not in report.body_bytes()
    assert "elapsed" in report.to_dict()


def multi_twist_of_21(max_b, p):
    """The repeated-twist scan of (2, 1), called as the scans over d are; it counts (a, b) pairs."""
    return multi_twist_scan(Partition((2, 1)), p, max_b)


@pytest.mark.parametrize(
    "scan, d, p, cases",
    [
        (census, 22, 3, 1002),
        (ks_stability_scan, 100, 3, 51 * 51),
        (find_twist_commuting, 26, 3, 617),
        (check_twist_persistence, 12, 2, 15),
        (find_p_image, 12, 3, 36),
        (multi_twist_of_21, 5, 2, 10),
        (multi_twist_of_21, 3, 5, 3),
    ],
)
def test_scans_stop_at_the_case_budget(monkeypatch, scan, d, p, cases):
    monkeypatch.setattr(search_module, "_MAX_SCAN_CASES", cases)
    assert scan(d, p).scanned == cases
    monkeypatch.setattr(search_module, "_MAX_SCAN_CASES", cases - 1)
    with pytest.raises(TooLarge, match="visits more than the limit"):
        scan(d, p)


@pytest.mark.parametrize(
    "invariant, scan, args, calls",
    [
        ("mullineux_map", find_p_image, (12, 3), 36),  # m(p lam) for each of 36 cases
        ("mullineux_map", find_twist_commuting, (12, 3), 72),  # m(lam) and m(p lam)
        ("mullineux_map", check_twist_persistence, (12, 3), 82),  # and m(p^2 lam) for 10
        ("ks_ext1", ks_stability_scan, (20, 3), 363),  # three rungs for each of 121 pairs
        ("mullineux_map", multi_twist_of_21, (3, 5), 3),  # one ladder for the pairs of 1..3
    ],
)
def test_scans_compute_each_rung_once_when_read(monkeypatch, invariant, scan, args, calls):
    # the scans look their invariant up in the module as they run, so a
    # rebinding there sees every call; a rung computed eagerly or twice shows
    original = getattr(search_module, invariant)
    seen = []

    def counting(*call):
        seen.append(call)
        return original(*call)

    monkeypatch.setattr(search_module, invariant, counting)
    scan(*args)
    assert len(seen) == calls
    assert len(set(seen)) == calls
