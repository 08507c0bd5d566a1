"""Closed-form criteria: rule values, membership, and agreement with the oracle."""

import twinselmer as ts
from twinselmer import selmer
from twinselmer.criteria import (
    alpha_minus_pq,
    audit_params,
    beta_minus_D,
    closed_form_local,
    membership_closed_form,
)
from twinselmer.family import validate_params
from twinselmer.localsolve import local_verdict
from twinselmer.theorems import pi_plus

from helpers import random_instances


def test_alpha_examples():
    assert alpha_minus_pq(validate_params(1, 3, 5, [7])) == 4
    # all D primes 1 mod 4 kill every term
    assert alpha_minus_pq(validate_params(1, 3, 5, [13, 17])) == 0
    # additivity: one vanishing term leaves the other
    both = alpha_minus_pq(validate_params(1, 3, 5, [7, 13]))
    assert both == alpha_minus_pq(validate_params(1, 3, 5, [7]))


def test_beta_examples():
    assert beta_minus_D(validate_params(1, 3, 5, [7])) == 4
    assert beta_minus_D(validate_params(1, 3, 5, [61])) == 0
    assert beta_minus_D(validate_params(1, 3, 5, [11])) == 0  # (3|11) = 1


def test_closed_form_local_examples():
    params = validate_params(1, 3, 5, [7])
    v = closed_form_local(params, ts.PHI, ts.class_of_integer(params, 2), 2)
    assert v.applicable and v.solvable is False  # 7*(-7) = 9 mod 16
    v = closed_form_local(params, ts.PHI, ts.class_of_integer(params, -3), "inf")
    assert v.applicable and v.solvable is False
    v = closed_form_local(params, ts.PHI, ts.class_of_integer(params, -3), 3)
    assert v.applicable and v.solvable is False and v.rule_id == "C:val-p"
    params61 = validate_params(1, 3, 5, [61])
    v = closed_form_local(params61, ts.PHI, ts.class_of_integer(params61, 61), 61)
    assert v.applicable and v.solvable is True


def test_closed_form_defers_where_unstated():
    params = validate_params(1, 3, 5, [7])
    # products like 2*D_i at odd places carry no stated rule
    cls = ts.class_of_integer(params, 14)
    assert not closed_form_local(params, ts.PHI, cls, 7).applicable
    # no real rule is stated for the C kind when epsilon = -1
    params_neg = validate_params(-1, 3, 5, [7])
    assert not closed_form_local(params_neg, ts.PHI, 7, "inf").applicable


def test_membership_examples():
    params = validate_params(1, 71, 73, [17])
    assert membership_closed_form(params, ts.PHI, ts.class_of_integer(params, 2)) is True
    params = validate_params(-1, 17, 19, [11])
    assert membership_closed_form(params, ts.PHI, ts.class_of_integer(params, -2)) is True
    params = validate_params(1, 3, 5, [7])
    # alpha = 4 != 0 blocks the -pq class
    assert membership_closed_form(params, ts.PHI_HAT, ts.class_of_integer(params, -15)) is False
    # silent cells stay undecided
    assert membership_closed_form(params, ts.PHI_HAT, ts.class_of_integer(params, -1)) is None


def test_membership_excludes():
    params = validate_params(1, 3, 5, [7])
    assert membership_closed_form(params, ts.PHI, ts.class_of_integer(params, -7)) is False
    assert membership_closed_form(params, ts.PHI, ts.class_of_integer(params, 15)) is False
    assert membership_closed_form(params, ts.PHI_HAT, ts.class_of_integer(params, 2)) is False
    params_neg = validate_params(-1, 3, 5, [7])
    assert membership_closed_form(params_neg, ts.PHI, ts.class_of_integer(params_neg, -1)) is False
    assert membership_closed_form(params_neg, ts.PHI_HAT, ts.class_of_integer(params_neg, -7)) is False


def test_single_prime_membership_tracks_score():
    # the D_i membership rule is exactly "nonresidue score zero" (which
    # already forces D_i = 1 mod 4)
    for params in random_instances(seed=202, count=10, prime_bound=150):
        if params.epsilon != 1:
            continue
        for i, Di in enumerate(params.d_primes, 1):
            want = pi_plus(params, i) == 0
            got = membership_closed_form(params, ts.PHI, ts.class_of_integer(params, Di))
            assert got == want
            if want:
                assert Di % 4 == 1


def test_engines_agree_on_random_instances():
    # every rule, S:C':-D included, must agree with the oracle exactly
    for params in random_instances(seed=4242, count=12, prime_bound=200):
        rows = audit_params(params)
        assert not rows, rows


def test_forced_point_rule_matches_oracle():
    params = validate_params(-1, 5, 7, [11])
    group = ts.compute_selmer(params, ts.PHI_HAT)
    for d in (1, 35, 55, 77):  # 1, pq, pD, qD
        assert d in group.element_values()
        v = closed_form_local(params, ts.PHI_HAT, ts.class_of_integer(params, d), 11)
        assert v.applicable and v.solvable is True and v.rule_id == "C':rational-point"


def test_audit_reads_the_oracle_by_local_class(monkeypatch):
    params = validate_params(-1, 5, 7, [11, 13, 17])
    groups = {kind: ts.compute_selmer(params, kind) for kind in (ts.PHI, ts.PHI_HAT)}
    decided = sum(len(g.verdict_table) for g in groups.values())
    calls = []

    def counting(space, place):
        calls.append(place)
        return local_verdict(space, place)

    monkeypatch.setattr(selmer, "local_verdict", counting)
    assert audit_params(params, groups) == []
    # one call per local class the kernel left undecided, none per d: the
    # audit covers 2^7 classes at 8 places for each kind
    assert len(calls) == sum(len(g.verdict_table) for g in groups.values()) - decided
    assert len(calls) <= 2 * (2 + 8 + 4 * (params.n + 2))
