"""Selmer group computation: goldens, group structure, caps, audit trail."""

import pytest

import twinselmer as ts
from twinselmer.family import validate_params
from twinselmer.selmer import check_group_closure, compute_selmer, gf2_rref, to_jsonable

from helpers import random_instances


def test_golden_phi_d61():
    group = compute_selmer(validate_params(1, 3, 5, [61]), ts.PHI)
    assert group.element_values() == [1, 61]
    assert group.order == 2 and group.dim2 == 1
    assert [b.value for b in group.basis] == [61]


def test_golden_phi_hat_d41_plus():
    group = compute_selmer(validate_params(1, 3, 5, [41]), ts.PHI_HAT)
    assert group.order == 16 and group.dim2 == 4
    # every odd class of the group on (-1, 3, 5, 41)
    assert all(v % 2 != 0 for v in group.element_values())


def test_golden_phi_hat_d41_minus():
    group = compute_selmer(validate_params(-1, 3, 5, [41]), ts.PHI_HAT)
    assert group.element_values() == [1, 3, 5, 15, 41, 123, 205, 615]
    assert group.order == 8 and group.dim2 == 3


def test_selmer_dim():
    g1 = compute_selmer(validate_params(1, 3, 5, [61]), ts.PHI)
    assert g1.dim2 == len(g1.basis) == 1 and g1.order == 1 << g1.dim2
    g0 = compute_selmer(validate_params(1, 3, 5, [7]), ts.PHI)
    assert g0.dim2 == len(g0.basis) == 0  # only the identity survives
    assert g0.element_values() == [1]


def test_check_group_closure():
    params = validate_params(1, 3, 5, [7])
    one = ts.identity_class(params)
    a = ts.class_of_integer(params, 2)
    b = ts.class_of_integer(params, 7)
    ab = a * b
    assert check_group_closure([one])
    assert check_group_closure([one, a, b, ab])
    assert not check_group_closure([one, a, b])
    assert not check_group_closure([a])  # no identity
    assert not check_group_closure([])


def test_gf2_rref():
    assert gf2_rref([]) == []
    basis = gf2_rref([0b011, 0b110, 0b101])
    # fully reduced: each pivot bit appears in exactly one basis row
    assert basis == [0b101, 0b110]
    spanned = {0}
    for row in basis:
        spanned |= {row ^ s for s in spanned}
    assert spanned == {0, 0b011, 0b110, 0b101}
    assert len(gf2_rref([1, 2, 4, 7])) == 3


def test_verdict_table_records_membership_and_failures():
    params = validate_params(1, 3, 5, [7])
    group = compute_selmer(params, ts.PHI)
    members = {cls.value for cls in group.elements}
    for cls in ts.enumerate_square_classes(params):
        if cls.value in members:
            for place in params.places():
                assert group.verdict_table[(cls.value, place)].solvable
        else:
            failed = [
                place
                for place in params.places()
                if (cls.value, place) in group.verdict_table
                and not group.verdict_table[(cls.value, place)].solvable
            ]
            assert failed, f"non-member {cls.value} must record a failing place"


def test_forced_subgroup_and_caps():
    for params in random_instances(seed=555, count=8, prime_bound=120, max_n=2):
        gphi = compute_selmer(params, ts.PHI)
        ghat = compute_selmer(params, ts.PHI_HAT)
        p, q, D, n = params.p, params.q, params.D, params.n
        forced = {1, p * q, -params.epsilon * p * D, -params.epsilon * q * D}
        assert forced <= set(ghat.element_values())
        if params.epsilon == 1:
            assert gphi.dim2 <= n + 1
            assert ghat.dim2 <= n + 3
            # no -1, p or q factor in any member
            for cls in gphi.elements:
                assert cls.value > 0 and cls.value % p and cls.value % q
        else:
            assert gphi.dim2 <= n + 1
            assert ghat.dim2 <= n + 2
            for cls in ghat.elements:
                assert cls.value > 0 and cls.value % 2
        assert gphi.dim2 + ghat.dim2 - 2 >= 0
        assert check_group_closure(gphi.elements)
        assert check_group_closure(ghat.elements)


def test_compute_selmer_rejects_bad_kind():
    with pytest.raises(ValueError):
        compute_selmer(validate_params(1, 3, 5, [7]), "both")


def test_jsonable_shape():
    group = compute_selmer(validate_params(1, 3, 5, [61]), ts.PHI)
    payload = to_jsonable(group)
    assert payload["elements"] == [1, 61]
    assert payload["dim2"] == 1 and payload["order"] == 2
    assert "verdicts" not in payload
    full = to_jsonable(group, include_table=True)
    assert full["verdicts"]["1"]["inf"]["solvable"] is True
