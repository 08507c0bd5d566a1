"""Counting functions and claim verification."""

import dataclasses

import pytest

from twinselmer import theorems
from twinselmer.family import PHI, class_of_integer, validate_params
from twinselmer.theorems import (
    CONSTRAINTS,
    THEOREM_IDS,
    index_set_I,
    pi_minus,
    pi_plus,
    pi_prime,
    rho_minus,
    rho_plus,
    rho_prime,
    verify_theorem,
)

from helpers import SEARCH_HITS, random_instances
from reference_hypotheses import REFERENCE


def test_pi_plus_values():
    assert pi_plus(validate_params(1, 3, 5, [7]), 1) == 6
    assert pi_plus(validate_params(1, 3, 5, [61]), 1) == 0


def test_rho_plus_values():
    assert rho_plus(validate_params(1, 3, 5, [7])) == 0
    assert rho_plus(validate_params(1, 3, 5, [61])) == 1


def test_pi_minus_values():
    assert pi_minus(validate_params(1, 3, 5, [7]), 1) == 4
    params = validate_params(-1, 3, 5, [61])
    assert pi_minus(params, 1) == 0 and rho_minus(params) == 1


def test_pi_terms_even_and_ordered():
    for params in random_instances(seed=8, count=10, prime_bound=150):
        for i in range(1, params.n + 1):
            plus, minus = pi_plus(params, i), pi_minus(params, i)
            assert plus % 2 == 0 and minus % 2 == 0
            assert minus <= plus


def test_rho_equals_floor_formula():
    for params in random_instances(seed=9, count=10, prime_bound=150):
        assert rho_plus(params) == sum(
            1 // (1 + pi_plus(params, i)) for i in range(1, params.n + 1)
        )
        assert rho_minus(params) == sum(
            1 // (1 + pi_minus(params, i)) for i in range(1, params.n + 1)
        )
        I = index_set_I(params)
        assert rho_prime(params) == sum(1 // (1 + pi_prime(params, i)) for i in I)


def test_pi_prime_and_index_set():
    params = validate_params(1, 3, 5, [41])
    assert pi_prime(params, 1) == 0
    assert index_set_I(params) == frozenset({1})
    assert rho_prime(params) == 1


def test_constraints_keyed_by_theorem_id():
    assert len(CONSTRAINTS) == 11
    for tid, cs in CONSTRAINTS.items():
        assert cs.theorem_id == tid


def test_verify_goldens():
    r = verify_theorem(validate_params(1, 3, 5, [61]), "1.2B")
    assert r.verdict == "pass" and r.observed["order_phi"] == 2
    r = verify_theorem(validate_params(1, 3, 5, [41]), "1.4ex")
    assert r.verdict == "pass" and r.observed["order_phi_hat"] == 16
    r = verify_theorem(validate_params(1, 3, 5, [7]), "1.2C")
    assert r.verdict == "not-applicable"
    r = verify_theorem(validate_params(-1, 3, 5, [41]), "1.9ex")
    assert r.verdict == "pass" and r.observed["order_phi_hat"] == 8


def test_verify_lower_bound_claims_always_pass():
    for params in random_instances(seed=303, count=8, prime_bound=120, max_n=2):
        for tid in ("1.1", "1.3") if params.epsilon == 1 else ("1.6", "1.8"):
            report = verify_theorem(params, tid)
            assert report.verdict == "pass", (params.label(), tid, report)


def test_verify_identity_instances():
    r = verify_theorem(validate_params(1, 71, 73, [89]), "1.5B")
    assert r.verdict == "pass"
    assert r.observed["rank_sha_sum"] == 4
    r = verify_theorem(validate_params(-1, 17, 19, [137]), "1.10B")
    assert r.verdict == "pass"
    assert r.observed["rank_sha_sum"] == 3


def test_verify_applicability():
    with pytest.raises(ValueError):
        verify_theorem(validate_params(1, 3, 5, [7]), "9.9")
    # epsilon mismatch is not-applicable, not an error
    r = verify_theorem(validate_params(-1, 3, 5, [7]), "1.2B")
    assert r.verdict == "not-applicable"
    assert set(THEOREM_IDS) >= {"1.1", "1.2B", "1.4", "1.5A", "1.7B", "1.10B"}


def test_verify_1_4_branches():
    # D = 41 satisfies the per-prime conditions and the exact-top branch
    r = verify_theorem(validate_params(1, 3, 5, [41]), "1.4")
    assert r.verdict == "pass" and r.branch == "exact-top"


# claims 1.1 and 1.6 adjoin 2 or -2 to the phi witnesses: (instance, id, adjoined class, branch)
_ADJOINED = [
    ((1, 71, 73, (7,)), "1.1", 2, "two-adjoined"),
    ((-1, 71, 73, (7,)), "1.6", 2, "two-adjoined"),
    ((-1, 17, 19, (3,)), "1.6", -2, "minus-two-adjoined"),
]


@pytest.mark.parametrize("instance, tid, two, branch", _ADJOINED)
def test_verify_adjoined_two_branches(instance, tid, two, branch):
    r = verify_theorem(validate_params(*instance), tid)
    assert r.verdict == "pass" and r.branch == branch
    assert r.claimed.endswith(f"; dim2(phi) >= {r.observed['rho'] + 1} with {two} adjoined")


def _without(group, d):
    """group with one basis vector dropped, so that d falls outside the span."""
    bits = class_of_integer(group.params, d)
    # reduced rows: d's coefficient on a row is d's bit at that row's pivot
    drop = next(i for i, row in enumerate(group._basis_bits) if bits & row & -row)
    return dataclasses.replace(group, basis=group.basis[:drop] + group.basis[drop + 1:])


@pytest.mark.parametrize("instance, tid, two, branch", _ADJOINED)
def test_verify_adjoined_two_fails_without_the_class(monkeypatch, instance, tid, two, branch):
    compute = theorems.compute_selmer

    def mutant(params, kind):
        group = compute(params, kind)
        return _without(group, two) if kind == PHI else group

    monkeypatch.setattr(theorems, "compute_selmer", mutant)
    params = validate_params(*instance)
    assert not mutant(params, PHI).contains_value(two)
    r = verify_theorem(params, tid)
    assert r.verdict == "fail" and r.branch == branch


def test_report_serialization():
    r = verify_theorem(validate_params(1, 3, 5, [61]), "1.2B")
    payload = r.as_dict()
    assert payload["theorem"] == "1.2B" and payload["verdict"] == "pass"
    assert payload["params"]["d_primes"] == [61]


def test_hypothesis_table_matches_reference():
    # the table both verify_theorem and the sieve read, against the
    # hand-written predicates, on random instances and the search hits
    assert set(CONSTRAINTS) == set(REFERENCE)
    instances = random_instances(seed=5, count=400, prime_bound=200, max_n=2)
    instances += [
        validate_params(CONSTRAINTS[tid].epsilon, p, q, ds)
        for (tid, _), (p, q, ds) in SEARCH_HITS.items()
    ]
    seen = {tid: set() for tid in CONSTRAINTS}
    for params in instances:
        for tid, cs in CONSTRAINTS.items():
            want = REFERENCE[tid](params)
            assert cs.holds(params) == want, (tid, params.label())
            report = verify_theorem(params, tid)
            assert report.hypotheses_hold == (want and params.epsilon == cs.epsilon)
            seen[tid].add(want)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen
