"""Counting functions and claim verification."""

import dataclasses
from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from twinselmer import theorems
from twinselmer.arith import primes_up_to, twin_pairs_up_to
from twinselmer.family import PHI, PHI_HAT, class_of_integer, validate_params
from twinselmer.selmer import gf2_rref
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


def test_1_5a_hypotheses_force_the_exact_branch():
    # the cells D_i = 1, 5 mod 8 leave D = 1 or 5 mod 8; with (p - D) mod 8 in
    # (0, 2), p = 3 mod 4 or p = D mod 8, the condition of branch exact
    cs = CONSTRAINTS["1.5A"]
    assert cs.cells == {(p8, D8) for p8 in (1, 3, 5, 7) for D8 in (1, 5)}
    assert cs.p_minus_d_mod8 == (0, 2)
    allowed = [(p8, D8) for p8 in (1, 3, 5, 7) for D8 in (1, 5) if (p8 - D8) % 8 in cs.p_minus_d_mod8]
    assert allowed == [(1, 1), (3, 1), (5, 5), (7, 5)]
    assert all(p8 % 4 == 3 or (p8 - D8) % 8 == 0 for p8, D8 in allowed)
    for n in (1, 2):
        p, q, ds = SEARCH_HITS[("1.5A", n)]
        r = verify_theorem(validate_params(1, p, q, ds), "1.5A")
        assert (r.verdict, r.branch) == ("pass", "exact")


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


# the exact report of one passing instance per catalog id and branch:
# (instance, id, branch, claimed, observed)
_PINNED = [
    ((1, 3, 5, (61,)), "1.1", None, "dim2(phi) >= 1 with witnesses [61]",
     {"dim_phi": 1, "rho": 1, "witnesses": [61]}),
    ((1, 71, 73, (7,)), "1.1", "two-adjoined",
     "dim2(phi) >= 0 with witnesses []; dim2(phi) >= 1 with 2 adjoined",
     {"dim_phi": 1, "rho": 0, "witnesses": []}),
    ((1, 3, 5, (61,)), "1.2A", None, "2^1 <= order(phi) <= 2^2 with all D primes inside",
     {"order_phi": 2}),
    ((1, 3, 5, (61, 109)), "1.2A", None, "2^2 <= order(phi) <= 2^3 with all D primes inside",
     {"order_phi": 4}),
    ((1, 3, 5, (61,)), "1.2B", None, "order(phi) == 2^1", {"order_phi": 2}),
    ((1, 71, 73, (89,)), "1.2C", None, "order(phi) == 2^2", {"order_phi": 4}),
    ((1, 3, 5, (41,)), "1.3", None, "dim2(phi_hat) >= 1 with witnesses [41]",
     {"dim_phi_hat": 4, "rho_prime": 1, "witnesses": [41]}),
    ((1, 3, 5, (41,)), "1.4", "exact-top", "order(phi_hat) == 2^4", {"order_phi_hat": 16}),
    ((1, 101, 103, (17,)), "1.4", None, "2^3 <= order(phi_hat) <= 2^4", {"order_phi_hat": 8}),
    ((1, 3, 5, (41,)), "1.4ex", None, "order(phi_hat) == 2^4", {"order_phi_hat": 16}),
    ((1, 5, 7, (29,)), "1.5A", "exact",
     "order(phi) == 2^1, 2^3 <= order(phi_hat) <= 2^4;"
     " order(phi_hat) == 2^4 and sum identity == 3",
     {"order_phi": 2, "order_phi_hat": 16, "rank_sha_sum": 3}),
    ((1, 71, 73, (89,)), "1.5B", None,
     "order(phi) == 2^2, order(phi_hat) == 2^4, sum identity == 4",
     {"order_phi": 4, "order_phi_hat": 16, "rank_sha_sum": 4}),
    ((-1, 3, 5, (11,)), "1.6", None, "dim2(phi) >= 1 with signed witnesses [-11]",
     {"dim_phi": 1, "rho": 1, "witnesses": [-11]}),
    ((-1, 71, 73, (7,)), "1.6", "two-adjoined",
     "dim2(phi) >= 0 with signed witnesses []; dim2(phi) >= 1 with 2 adjoined",
     {"dim_phi": 1, "rho": 0, "witnesses": []}),
    ((-1, 17, 19, (3,)), "1.6", "minus-two-adjoined",
     "dim2(phi) >= 0 with signed witnesses []; dim2(phi) >= 1 with -2 adjoined",
     {"dim_phi": 1, "rho": 0, "witnesses": []}),
    ((-1, 3, 5, (11,)), "1.7A", None, "2^1 <= order(phi) <= 2^2 with signed witnesses [-11]",
     {"order_phi": 2}),
    ((-1, 3, 5, (11, 181)), "1.7A", None,
     "2^2 <= order(phi) <= 2^3 with signed witnesses [-11, 181]", {"order_phi": 4}),
    ((-1, 17, 19, (59,)), "1.7B", None, "order(phi) == 2^2", {"order_phi": 4}),
    ((-1, 3, 5, (41,)), "1.8", None, "dim2(phi_hat) >= 1 with witnesses [41]",
     {"dim_phi_hat": 3, "rho_prime": 1, "witnesses": [41]}),
    ((-1, 17, 19, (59,)), "1.9", None, "order(phi_hat) == 2^3", {"order_phi_hat": 8}),
    ((-1, 3, 5, (41,)), "1.9ex", None, "order(phi_hat) == 2^3", {"order_phi_hat": 8}),
    ((-1, 17, 19, (101,)), "1.10A", None,
     "order(phi) == 2^1, order(phi_hat) == 2^3, sum identity == 2",
     {"order_phi": 2, "order_phi_hat": 8, "rank_sha_sum": 2}),
    ((-1, 17, 19, (137,)), "1.10B", None,
     "order(phi) == 2^2, order(phi_hat) == 2^3, sum identity == 3",
     {"order_phi": 4, "order_phi_hat": 8, "rank_sha_sum": 3}),
]


def test_pinned_reports_cover_the_catalog():
    assert {pin[1] for pin in _PINNED} == set(THEOREM_IDS)
    assert {pin[2] for pin in _PINNED if pin[1] == "1.4"} == {None, "exact-top"}


@pytest.mark.parametrize(
    "instance, tid, branch, claimed, observed", _PINNED, ids=[f"{pin[1]}{pin[0]}" for pin in _PINNED]
)
def test_pinned_report(instance, tid, branch, claimed, observed):
    r = verify_theorem(validate_params(*instance), tid)
    assert (r.claimed, r.observed, r.branch, r.verdict) == (claimed, observed, branch, "pass")


def _with_outside_class(group):
    """group with the first generator outside it adjoined, so that its order doubles."""
    params = group.params
    extra = next(g for g in params.basis() if not group.contains_value(g))
    rows = gf2_rref([*group._basis_bits, class_of_integer(params, extra)])
    return dataclasses.replace(group, basis=tuple(params.value(row) for row in rows))


def _mutant_report(monkeypatch, instance, tid, kind, mutation):
    """verify_theorem with the kind group mutated: "halve", "double", or drop the class d."""
    compute = theorems.compute_selmer

    def mutant(params, k):
        group = compute(params, k)
        if k != kind:
            return group
        if mutation == "halve":
            return dataclasses.replace(group, basis=group.basis[:-1])
        if mutation == "double":
            return _with_outside_class(group)
        return _without(group, mutation)

    params = validate_params(*instance)
    assert verify_theorem(params, tid).verdict == "pass"
    monkeypatch.setattr(theorems, "compute_selmer", mutant)
    return verify_theorem(params, tid)


# each mutant moves the order of one group out of the claim's stated range
_MUTANTS = [
    ((1, 3, 5, (61,)), "1.1", PHI, "halve"),  # dim2 == rho
    ((1, 3, 5, (61,)), "1.2A", PHI, "halve"),  # order 2^n, the bottom of the range
    ((1, 71, 73, (89,)), "1.2A", PHI, "double"),  # order 2^(n+1), the top
    ((1, 3, 5, (61,)), "1.2B", PHI, "halve"),
    ((1, 3, 5, (61,)), "1.2B", PHI, "double"),
    ((1, 71, 73, (89,)), "1.2C", PHI, "halve"),
    ((1, 71, 73, (89,)), "1.2C", PHI, "double"),
    ((1, 3, 5, (41,)), "1.4", PHI_HAT, "halve"),  # exact-top
    ((1, 3, 5, (41,)), "1.4", PHI_HAT, "double"),
    ((1, 101, 103, (17,)), "1.4", PHI_HAT, "halve"),  # order 2^(n+2), the bottom
    ((1, 3, 5, (41,)), "1.4ex", PHI_HAT, "halve"),
    ((1, 3, 5, (41,)), "1.4ex", PHI_HAT, "double"),
    ((1, 5, 7, (29,)), "1.5A", PHI, "halve"),
    ((1, 5, 7, (29,)), "1.5A", PHI, "double"),
    ((1, 5, 7, (29,)), "1.5A", PHI_HAT, "halve"),  # the exact branch claims the top
    ((1, 5, 7, (29,)), "1.5A", PHI_HAT, "double"),
    ((1, 71, 73, (89,)), "1.5B", PHI, "halve"),
    ((1, 71, 73, (89,)), "1.5B", PHI_HAT, "double"),
    ((-1, 3, 5, (11,)), "1.6", PHI, "halve"),  # dim2 == rho
    ((-1, 3, 5, (11,)), "1.7A", PHI, "halve"),
    ((-1, 17, 19, (59,)), "1.7A", PHI, "double"),
    ((-1, 17, 19, (59,)), "1.7B", PHI, "halve"),
    ((-1, 17, 19, (59,)), "1.7B", PHI, "double"),
    ((-1, 17, 19, (59,)), "1.9", PHI_HAT, "halve"),
    ((-1, 17, 19, (59,)), "1.9", PHI_HAT, "double"),
    ((-1, 3, 5, (41,)), "1.9ex", PHI_HAT, "halve"),
    ((-1, 3, 5, (41,)), "1.9ex", PHI_HAT, "double"),
    ((-1, 17, 19, (101,)), "1.10A", PHI, "double"),
    ((-1, 17, 19, (101,)), "1.10A", PHI_HAT, "halve"),
    ((-1, 17, 19, (137,)), "1.10B", PHI, "halve"),
    ((-1, 17, 19, (137,)), "1.10B", PHI_HAT, "double"),
]


# each drops a named member while the order stays inside the range; the
# phi_hat bound of 1.3 and 1.8 lies below every order one vector away, so
# those two are caught only this way: (instance, id, kind, member, observed)
_DROPPED_MEMBERS = [
    ((1, 71, 73, (89,)), "1.2A", PHI, 89, {"order_phi": 2}),
    ((1, 3, 5, (41,)), "1.3", PHI_HAT, 41, {"dim_phi_hat": 3, "rho_prime": 1, "witnesses": [41]}),
    ((-1, 17, 19, (59,)), "1.7A", PHI, -59, {"order_phi": 2}),
    ((-1, 3, 5, (41,)), "1.8", PHI_HAT, 41, {"dim_phi_hat": 2, "rho_prime": 1, "witnesses": [41]}),
]


def test_mutants_cover_the_catalog():
    assert {m[1] for m in _MUTANTS + _DROPPED_MEMBERS} == set(THEOREM_IDS)


@pytest.mark.parametrize("instance, tid, kind, mutation", _MUTANTS)
def test_order_out_of_range_fails(monkeypatch, instance, tid, kind, mutation):
    r = _mutant_report(monkeypatch, instance, tid, kind, mutation)
    assert r.verdict == "fail", r


@pytest.mark.parametrize("instance, tid, kind, member, observed", _DROPPED_MEMBERS)
def test_dropped_member_fails(monkeypatch, instance, tid, kind, member, observed):
    r = _mutant_report(monkeypatch, instance, tid, kind, member)
    assert r.verdict == "fail" and r.observed == observed


@pytest.mark.parametrize("instance, tid, total", [
    ((1, 5, 7, (29,)), "1.5A", 3),
    ((1, 71, 73, (89,)), "1.5B", 4),
    ((-1, 17, 19, (101,)), "1.10A", 2),
    ((-1, 17, 19, (137,)), "1.10B", 3),
])
@pytest.mark.parametrize("kind, mutation, shift", [(PHI, "halve", -1), (PHI_HAT, "double", 1)])
def test_sum_identity_fails_with_a_changed_order(
    monkeypatch, instance, tid, total, kind, mutation, shift
):
    r = _mutant_report(monkeypatch, instance, tid, kind, mutation)
    assert r.verdict == "fail" and r.observed["rank_sha_sum"] == total + shift


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


@cache
def _grid(epsilon):
    """The 15 twin pairs with p < 200, each with every 1- or 2-prime D set of odd primes < 120."""
    odd = [r for r in primes_up_to(119) if r > 2]
    grid = []
    for p, q in twin_pairs_up_to(201):
        pool = [r for r in odd if r not in (p, q)]
        sets = [(a,) for a in pool] + list(combinations(pool, 2))
        grid += [validate_params(epsilon, p, q, ds) for ds in sets]
    return grid


def test_hypothesis_table_matches_reference_on_every_cell():
    # every odd (p mod 8, D_i mod 8) cell occurs, so no residue branch is left to chance
    odd = (1, 3, 5, 7)
    cells = {(params.p % 8, d % 8) for params in _grid(1) for d in params.d_primes}
    assert cells == {(p8, d8) for p8 in odd for d8 in odd}
    checks, held = 0, {tid: set() for tid in CONSTRAINTS}
    for tid, cs in CONSTRAINTS.items():
        for params in _grid(cs.epsilon):
            want = REFERENCE[tid](params)
            assert cs.holds(params) == want, (tid, params.label())
            checks += 1
            if want:
                held[tid].add(params.p % 8)
    assert checks == 65_505
    # both branches of 1.7B hold somewhere: the -2 cells (p = 1 mod 8), the 2 cells (p = 7 mod 8)
    assert held["1.7B"] == {1, 7}


def test_catalog_sweep_passes_wherever_the_hypotheses_hold():
    passes = Counter()
    for tid, cs in CONSTRAINTS.items():
        for params in filter(cs.holds, _grid(cs.epsilon)):
            r = verify_theorem(params, tid)
            assert r.verdict == "pass", (tid, params.label(), r.claimed, r.observed)
            passes[tid] += 1
    assert sum(passes.values()) == 419
    assert all(passes[tid] >= 2 for tid in CONSTRAINTS), passes
