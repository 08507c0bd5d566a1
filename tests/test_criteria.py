"""Closed-form criteria: rule values, membership, and agreement with the oracle."""

import dataclasses

import twinselmer as ts
from twinselmer import criteria, family, selmer
from twinselmer.criteria import audit_params, closed_form_local, membership_closed_form
from twinselmer.family import FamilyParams, validate_params
from twinselmer.localsolve import local_verdict
from twinselmer.theorems import (
    _d_two_adic,
    _minus_pq_two_adic,
    _two_adic_unit_case,
    alpha_minus_pq,
    beta_minus_D,
    pi_plus,
    pi_prime,
)

import reference_rules
import reference_symbol_terms as reference
from helpers import random_instances
from reference_audit import enumerating_audit
from reference_selmer import class_representatives


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


def test_symbol_terms_match_their_formulas():
    # pi_prime, alpha, beta and the C' rules at the D places share one term;
    # each must equal its own formula, rule ids included
    instances = random_instances(seed=3232, count=300, prime_bound=2000, max_n=6)
    fired = set()
    for params in instances:
        for i in range(1, params.n + 1):
            assert pi_prime(params, i) == reference.pi_prime(params, i), (params, i)
        assert alpha_minus_pq(params) == reference.alpha_minus_pq(params), params
        assert beta_minus_D(params) == reference.beta_minus_D(params), params
        values = criteria._rule_values(params)
        for place in params.d_primes:
            for dv in values.union(class_representatives(params, place).values()):
                cf = closed_form_local(params, ts.PHI_HAT, dv, place)
                want = reference.cprime_at_d_place(params, dv, place)
                assert (cf.solvable, cf.rule_id) == want, (params, dv, place)
                fired.add(want)
    rules = ("C':Di:self", "C':Di:cross", "C':-pq:qr", "C':D:qr")
    assert {(ok, rid) for ok in (True, False) for rid in rules} <= fired


def test_rule_blocks_match_the_rules_per_class():
    # one signed phi block and one named C' block must give each class's own
    # rules, rule ids included: every class for n <= 3, else the rule values
    # and one representative of each local class the basis reaches
    fired = set()
    for params in random_instances(seed=3333, count=300, prime_bound=2000, max_n=6):
        places = params.places()
        if params.n <= 3:
            values = set(ts.enumerate_square_classes(params))
        else:
            values = criteria._rule_values(params).union(
                *(class_representatives(params, place).values() for place in places))
        for kind, local in ((ts.PHI, reference_rules.local_c), (ts.PHI_HAT, reference_rules.local_cprime)):
            for dv in values:
                want = reference_rules.membership_with_rule(params, kind, dv)
                assert criteria._membership_with_rule(params, kind, dv) == want, (params, kind, dv)
                fired.add((want.solvable, want.rule_id))
                for place in places:
                    want = local(params, dv, place)
                    assert closed_form_local(params, kind, dv, place) == want, (params, kind, dv, place)
                    fired.add((want.solvable, want.rule_id))
    assert {rid for _, rid in fired} == set(LOCAL_RULES + MEMBERSHIP_RULES) | {""}
    both_ways = [rid for rid in LOCAL_RULES + MEMBERSHIP_RULES
                 if rid.startswith(("C:2", "C:-2", "C:Di", "C:-Di", "S:C:2", "S:C:-2", "S:C:Di", "S:C:-Di"))
                 or rid.endswith(("mod8", "self", "cross", "qr"))]
    assert {(ok, rid) for ok in (True, False) for rid in both_ways} <= fired


def test_closed_form_local_examples():
    params = validate_params(1, 3, 5, [7])
    v = closed_form_local(params, ts.PHI, 2, 2)
    assert v.applicable and v.solvable is False  # 7*(-7) = 9 mod 16
    v = closed_form_local(params, ts.PHI, -3, "inf")
    assert v.applicable and v.solvable is False
    v = closed_form_local(params, ts.PHI, -3, 3)
    assert v.applicable and v.solvable is False and v.rule_id == "C:val-p"
    params61 = validate_params(1, 3, 5, [61])
    v = closed_form_local(params61, ts.PHI, 61, 61)
    assert v.applicable and v.solvable is True


def test_closed_form_defers_where_unstated():
    params = validate_params(1, 3, 5, [7])
    # products like 2*D_i at odd places carry no stated rule
    assert not closed_form_local(params, ts.PHI, 14, 7).applicable
    # no real rule is stated for the C kind when epsilon = -1
    params_neg = validate_params(-1, 3, 5, [7])
    assert not closed_form_local(params_neg, ts.PHI, 7, "inf").applicable


def test_membership_examples():
    params = validate_params(1, 71, 73, [17])
    assert membership_closed_form(params, ts.PHI, 2) is True
    params = validate_params(-1, 17, 19, [11])
    assert membership_closed_form(params, ts.PHI, -2) is True
    params = validate_params(1, 3, 5, [7])
    # alpha = 4 != 0 blocks the -pq class
    assert membership_closed_form(params, ts.PHI_HAT, -15) is False
    # silent cells stay undecided
    assert membership_closed_form(params, ts.PHI_HAT, -1) is None


def test_membership_excludes():
    params = validate_params(1, 3, 5, [7])
    assert membership_closed_form(params, ts.PHI, -7) is False
    assert membership_closed_form(params, ts.PHI, 15) is False
    assert membership_closed_form(params, ts.PHI_HAT, 2) is False
    params_neg = validate_params(-1, 3, 5, [7])
    assert membership_closed_form(params_neg, ts.PHI, -1) is False
    assert membership_closed_form(params_neg, ts.PHI_HAT, -7) is False


def test_single_prime_membership_tracks_score():
    # the D_i membership rule is exactly "nonresidue score zero" (which
    # already forces D_i = 1 mod 4)
    for params in random_instances(seed=202, count=10, prime_bound=150):
        if params.epsilon != 1:
            continue
        for i, Di in enumerate(params.d_primes, 1):
            want = pi_plus(params, i) == 0
            got = membership_closed_form(params, ts.PHI, Di)
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
        v = closed_form_local(params, ts.PHI_HAT, d, 11)
        assert v.applicable and v.solvable is True and v.rule_id == "C':rational-point"


def test_two_adic_rules_are_constant_on_residues_mod_8():
    # the 2-adic closed forms are written mod 16 but read p, q = p + 2, D_i,
    # D/D_i and D only mod 8: each takes one value on every odd lift mod 64
    # of a residue pattern mod 8.  The rules read residues alone, so
    # FamilyParams is built on lifts that need not be prime.
    odd = range(1, 64, 2)
    seen = {}

    def constant(key, value):
        assert seen.setdefault(key, value) == value, key

    for p in odd:
        for D in odd:
            constant(("-pq", p % 8, D % 8), _minus_pq_two_adic(p, D))
            constant(("D", p % 8, D % 8), _d_two_adic(p, D))
            for eps in (1, -1):
                params = FamilyParams(eps, p, p + 2, (D,))
                for dv in (2, -2):
                    cf = closed_form_local(params, ts.PHI, dv, 2)
                    if cf.applicable:
                        constant((cf.rule_id, eps, p % 8, D % 8), cf.solvable)
                for dh in odd:
                    constant(("Di", eps, p % 8, D % 8, dh % 8),
                             _two_adic_unit_case(D, p, p + 2, eps, dh))
    assert {key[0] for key in seen} == {"-pq", "D", "Di", "C:2:mod16", "C:-2:mod16"}
    # C:2:mod16 is one form for both signs: the eps = -1 form D(D + 2p + 2)
    # gives the same verdict on every odd lift
    for p in odd:
        for D in odd:
            assert ((D * (D + 2 * p + 2)) % 16 == 1) == seen[("C:2:mod16", -1, p % 8, D % 8)]


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


# every rule id of closed_form_local and of the membership rules
LOCAL_RULES = (
    "C:real-sign", "C:val-p", "C:val-q", "C:neg-unit:2", "C:2:mod16", "C:2:qr",
    "C:-2:mod16", "C:-2:qr", "C:Di:mod4", "C:Di:self", "C:Di:qr", "C:-Di:mod4",
    "C:-Di:self", "C:-Di:qr", "C':real-always", "C':real-sign", "C':even:2",
    "C':rational-point", "C':Di:mod8", "C':Di:pq", "C':Di:self", "C':Di:cross",
    "C':-pq:mod8", "C':-pq:pq", "C':-pq:qr", "C':D:mod8", "C':D:pq", "C':D:qr",
)
MEMBERSHIP_RULES = (
    "S:identity", "S:C:excluded", "S:C:2", "S:C:-2", "S:C:Di", "S:C:-Di", "S:C':Di",
    "S:C':excluded", "S:C':rational-point", "S:C':-pq", "S:C':-D", "S:C':D",
)
# local rules that read only d's local class at their place
CLASS_RULES = {"C:real-sign", "C:val-p", "C:val-q", "C':real-always", "C':real-sign", "C':even:2"}
EXCLUDED_RULES = {"S:C:excluded", "S:C':excluded"}


def _keys(rows):
    return {(r["check"], r["kind"], r["rule"], r["place"]) for r in rows}


def _groups(params):
    return {kind: ts.compute_selmer(params, kind) for kind in (ts.PHI, ts.PHI_HAT)}


def _adjoin(group, value):
    """The group with value's class adjoined to its basis (an oracle that errs on membership)."""
    params = group.params
    rows = [ts.class_of_integer(params, d) for d in group.basis + (value,)]
    basis = tuple(params.value(b) for b in selmer.gf2_rref(rows))
    return dataclasses.replace(group, basis=basis)


def test_audit_matches_enumerating_reference():
    instances = random_instances(seed=5151, count=24, prime_bound=200)
    assert {params.epsilon for params in instances} == {1, -1}
    for params in instances:
        groups = _groups(params)
        assert audit_params(params, groups) == enumerating_audit(params, groups) == []
        # a member an excluded rule cuts out is found through the basis: p is
        # excluded from phi and 2q from phi_hat, and neither is a rule value
        wrong = {ts.PHI: _adjoin(groups[ts.PHI], params.p),
                 ts.PHI_HAT: _adjoin(groups[ts.PHI_HAT], 2 * params.q)}
        keys = _keys(audit_params(params, wrong))
        assert keys == _keys(enumerating_audit(params, wrong))
        assert {("membership", ts.PHI, "S:C:excluded", ""),
                ("membership", ts.PHI_HAT, "S:C':excluded", "")} <= keys


def test_audit_matches_reference_under_rule_mutants(monkeypatch):
    # flip one rule at a time: both audits must report the same keys, and
    # every rule must fire on some instance
    instances = random_instances(seed=6161, count=6, prime_bound=200)
    groups = {params: _groups(params) for params in instances}
    # every local and membership rule is built by criteria._rule
    rule = criteria._rule
    for rid in LOCAL_RULES + MEMBERSHIP_RULES:
        monkeypatch.setattr(criteria, "_rule", lambda ok, r, rid=rid: rule(ok != (r == rid), r))
        fired = set()
        for params in instances:
            keys = _keys(audit_params(params, groups[params]))
            assert keys == _keys(enumerating_audit(params, groups[params])), (rid, params)
            fired |= {key[2] for key in keys}
        assert fired == {rid}, rid
        monkeypatch.undo()


def test_audit_matches_reference_under_oracle_flips():
    # flip the oracle on one local class at one place: a rule that reads only
    # d's local class disagrees on that class alone, so the audit must try
    # every class the basis reaches, not only the rule values
    flips = 0
    for params in random_instances(seed=8181, count=3, prime_bound=200, max_n=2):
        groups = _groups(params)
        for kind, group in groups.items():
            for key, verdict in group.local_images().items():
                flipped = dataclasses.replace(verdict, solvable=not verdict.solvable)
                table = {**group.verdict_table, key: flipped}
                wrong = {**groups, kind: dataclasses.replace(group, verdict_table=table)}
                keys = _keys(audit_params(params, wrong))
                assert keys == _keys(enumerating_audit(params, wrong)), (params, kind, key)
                flips += bool(keys)
    assert flips > 0


def test_audit_covers_every_applicable_cell():
    # each applicable cell is on a rule value, or its rule reads only d's
    # local class, so the representative of that class gives the same verdict
    for params in random_instances(seed=7171, count=100, prime_bound=300, max_n=4):
        values = criteria._rule_values(params)
        reps = {place: class_representatives(params, place) for place in params.places()}
        for kind in (ts.PHI, ts.PHI_HAT):
            for dv in ts.enumerate_square_classes(params):
                mem = criteria._membership_with_rule(params, kind, dv)
                assert isinstance(mem, criteria.ClosedFormVerdict)
                if mem.applicable:
                    assert mem.rule_id in MEMBERSHIP_RULES
                    assert dv in values or mem.rule_id in EXCLUDED_RULES, (params, kind, dv, mem)
                for place in params.places():
                    cf = closed_form_local(params, kind, dv, place)
                    if not cf.applicable:
                        continue
                    assert cf.rule_id in LOCAL_RULES
                    if dv not in values:
                        assert cf.rule_id in CLASS_RULES, (params, kind, dv, place, cf)
                        rep = reps[place][ts.local_class(dv, place)]
                        assert closed_form_local(params, kind, rep, place) == cf


def test_audit_walks_no_square_classes(monkeypatch):
    def refuse(params):
        raise AssertionError("the audit must not enumerate square classes")

    monkeypatch.setattr(selmer, "enumerate_square_classes", refuse)
    monkeypatch.setattr(family, "enumerate_square_classes", refuse)
    for eps in (1, -1):
        assert audit_params(validate_params(eps, 5, 7, [11, 13, 17, 19, 23, 29, 31, 37])) == []
