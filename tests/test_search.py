"""Instance search: sieving determinism, stacking, budgets."""

import pytest

import twinselmer as ts
from twinselmer.search import CONSTRAINTS, demonstrate_large_selmer, find_family
from twinselmer.theorems import rho_plus, verify_theorem

from helpers import SEARCH_HITS


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


def test_find_family_budget_expires():
    notes = []
    fam = find_family(1, "1.2B", 1, 100, time_budget=0.0, progress=notes.append)
    assert fam is None
    assert any("budget" in msg for msg in notes)


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
    with pytest.raises(ValueError):
        demonstrate_large_selmer(1, ts.PHI_HAT, -1)


def test_stacking_never_loses_zero_scores():
    # extending an admissible prime set keeps the existing zero scores
    fam1 = find_family(1, "1.2A", 1, 500)
    fam2 = find_family(1, "1.2A", 2, 500)
    assert fam1 is not None and fam2 is not None
    assert fam2.d_primes[0] == fam1.d_primes[0]
    assert rho_plus(fam2) >= rho_plus(fam1)
    assert rho_plus(fam2) == fam2.n  # all scores vanish under these constraints
