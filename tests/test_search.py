"""Instance search: sieving determinism, stacking, budgets."""

import math
import time
from collections import Counter

import pytest

import twinselmer as ts
from twinselmer import search
from twinselmer.arith import twin_pairs_up_to
from twinselmer.search import ClaimFailedError, demonstrate_large_selmer, find_family
from twinselmer.theorems import CONSTRAINTS, rho_plus, verify_theorem

from helpers import SEARCH_HITS, failing_verify


def test_twin_stream_is_the_full_table():
    table = tuple(twin_pairs_up_to(10**6))
    assert tuple(search._twin_pairs()) == table
    # a second scan reads the kept blocks and yields the same sequence
    assert tuple(search._twin_pairs()) == table


def test_find_family_sieves_only_as_far_as_it_scans(monkeypatch):
    limits = []

    def recording(n):
        limits.append(n)
        return twin_pairs_up_to(n)

    monkeypatch.setattr(search, "twin_pairs_up_to", recording)
    fam = find_family(1, "1.2A", 1, 100)
    assert fam is not None and (fam.p, fam.q, fam.d_primes) == (3, 5, (61,))
    assert limits and max(limits) <= 4096, limits


def test_find_family_examples():
    fam = find_family(1, "1.2B", 1, 100)
    assert fam is not None and (fam.p, fam.q, fam.d_primes) == (3, 5, (61,))
    fam = find_family(1, "1.4ex", 1, 100)
    assert fam is not None and fam.d_primes == (41,)
    assert find_family(1, "1.2C", 1, 10) is None


def test_find_family_hits_verify():
    # every entry of the shared hypothesis table, at n = 1 and 2: the sieve's
    # smallest hit is pinned and re-verifies as pass
    for cid, cs in CONSTRAINTS.items():
        for n in (1, 2):
            fam = find_family(cs.epsilon, cid, n, 500)
            assert fam is not None, (cid, n)
            assert (fam.p, fam.q, fam.d_primes) == SEARCH_HITS[cid, n], (cid, n)
            report = verify_theorem(fam, cid)
            assert report.verdict == "pass", (cid, fam.label(), report)


def test_find_family_raises_on_failing_claim(monkeypatch):
    # a hit whose claim fails is a counterexample, not a found instance
    monkeypatch.setattr(search, "verify_theorem", failing_verify)
    with pytest.raises(ClaimFailedError) as caught:
        find_family(1, "1.2B", 1, 100)
    report = caught.value.report
    assert report.verdict == "fail" and report.theorem_id == "1.2B"
    assert report.params.d_primes == (61,)
    assert "1.2B" in str(caught.value) and "D=61" in str(caught.value)


def test_find_family_deterministic():
    a = find_family(1, "1.2B", 2, 1000)
    b = find_family(1, "1.2B", 2, 1000)
    assert a == b and a is not None


def test_find_family_rejects_bad_input():
    with pytest.raises(ValueError):
        find_family(1, "1.1", 1, 100)  # no mechanizable constraints
    with pytest.raises(ValueError):
        find_family(-1, "1.2B", 1, 100)  # epsilon mismatch
    with pytest.raises(ValueError):
        find_family(1, "1.2B", 0, 100)
    # ints only, and a budget that is a number: nan once meant no budget at all
    for n, bound, budget in ((1.5, 100, None), (True, 100, None), (1, 100.5, None),
                             (1, 100, math.nan)):
        with pytest.raises(ValueError):
            find_family(1, "1.4ex", n, bound, time_budget=budget)
    # a budget is a real number of seconds: not a string, and not True read as 1 s
    for budget in ("5", b"5", True, False, 1j):
        with pytest.raises(ValueError, match="time_budget"):
            find_family(1, "1.2A", 1, 100, time_budget=budget)


def test_find_family_budget_expires():
    notes = []
    fam = find_family(1, "1.2B", 1, 100, time_budget=0.0, progress=notes.append)
    assert fam is None
    assert any("budget" in msg for msg in notes)


def test_find_family_budget_holds_inside_the_pruned_search():
    # 12 pairwise-QR primes: the backtracking finds no candidate set for
    # minutes, so the budget must be checked at every node it visits, not
    # only between the sets it yields
    notes = []
    t0 = time.monotonic()
    fam = find_family(1, "1.2A", 12, 10**4, time_budget=1, progress=notes.append)
    elapsed = time.monotonic() - t0
    assert fam is None and elapsed < 5, elapsed
    assert notes == ["time budget exhausted after 0 candidate sets"]


def test_demonstrate_small_targets():
    fam = demonstrate_large_selmer(1, ts.PHI, 1, bound=100)
    assert fam is not None and fam.d_primes == (61,)
    group = ts.compute_selmer(fam, ts.PHI)
    assert group.dim2 >= 1
    fam = demonstrate_large_selmer(1, ts.PHI, 0, bound=100)
    assert fam is not None


def test_demonstrate_phi_hat_target_four():
    fam = demonstrate_large_selmer(1, ts.PHI_HAT, 4, bound=10**4, time_budget=60)
    assert fam is not None
    group = ts.compute_selmer(fam, ts.PHI_HAT)
    assert group.dim2 >= 4


def test_demonstrate_stacks_primes_past_the_base_gain():
    # beyond dim 4 the prime count has to grow with the target
    fam = demonstrate_large_selmer(1, ts.PHI_HAT, 5, bound=10**3, time_budget=60)
    assert fam is not None and fam.n == 2
    assert ts.compute_selmer(fam, ts.PHI_HAT).dim2 >= 5


def test_demonstrate_rejects_bad_target():
    for target in (-1, 4.5, True):
        with pytest.raises(ValueError):
            demonstrate_large_selmer(1, ts.PHI_HAT, target)
    for eps, kind in ((2, ts.PHI_HAT), (1, "C")):
        with pytest.raises(ValueError, match="unsupported"):
            demonstrate_large_selmer(eps, kind, 4)
    for budget in ("5", True, math.nan, 1j):
        notes = []
        with pytest.raises(ValueError, match="time_budget"):
            demonstrate_large_selmer(1, ts.PHI_HAT, 4, time_budget=budget, progress=notes.append)
        assert notes == []  # rejected before the search starts


def test_stacking_never_loses_zero_scores():
    # extending an admissible prime set keeps the existing zero scores
    fam1 = find_family(1, "1.2A", 1, 500)
    fam2 = find_family(1, "1.2A", 2, 500)
    assert fam1 is not None and fam2 is not None
    assert fam2.d_primes[0] == fam1.d_primes[0]
    assert rho_plus(fam2) >= rho_plus(fam1)
    assert rho_plus(fam2) == fam2.n  # all scores vanish under these constraints


def _counting(verify, calls):
    """verify, counting its calls per (params, theorem_id) in calls."""

    def counted(params, theorem_id):
        calls[params, theorem_id] += 1
        return verify(params, theorem_id)

    return counted


def test_repeated_queries_verify_each_hit_once(monkeypatch):
    # a repeated query rescans and reports as before, but verifies nothing again
    calls = Counter()
    monkeypatch.setattr(search, "verify_theorem", _counting(verify_theorem, calls))
    queries = (
        lambda note: find_family(1, "1.2B", 2, 1000, progress=note),
        lambda note: demonstrate_large_selmer(1, ts.PHI_HAT, 4, bound=1000, progress=note),
    )
    for query in queries:
        runs = []
        for _ in range(2):
            notes = []
            runs.append((query(notes.append), notes))
        assert runs[0][0] is not None and runs[0][1][-1].startswith("hit ")
        assert runs[1] == runs[0]
    assert calls and set(calls.values()) == {1}, calls


def test_kept_fail_report_raises_on_every_repeat(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(search, "verify_theorem", _counting(failing_verify, calls))
    queries = (
        lambda: find_family(1, "1.2B", 1, 100),
        lambda: demonstrate_large_selmer(1, ts.PHI, 1, bound=100),
    )
    for query in queries:
        reports = []
        for _ in range(3):
            with pytest.raises(ClaimFailedError) as caught:
                query()
            reports.append(caught.value.report)
        assert reports[0].verdict == "fail" and reports.count(reports[0]) == 3
    assert len(calls) == 2 and set(calls.values()) == {1}, calls


def test_kept_reports_are_keyed_by_claim():
    # one instance meets several claims; each keeps its own report
    params = ts.validate_params(1, 3, 5, (61,))
    for theorem_id in ("1.2A", "1.2B", "1.5A", "1.10A"):
        report = search._verify(params, theorem_id)
        assert report.theorem_id == theorem_id
        assert report == verify_theorem(params, theorem_id)
