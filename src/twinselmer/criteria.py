"""Closed-form congruence and quadratic-residue criteria, the second engine.

Each rule answers local solvability for one (epsilon, quartic kind, d
pattern, place pattern) cell, or membership for one d pattern, purely from
residues mod 8/16 and Legendre symbols.  Both rule families, local
(closed_form_local) and membership (_membership_with_rule), return a
ClosedFormVerdict, built by _rule, which names the rule that decided.
Where no rule is stated the verdict is _NA (solvable None, so applicable
is False) and defers to the generic oracle; the engine never guesses.
Disagreements with the oracle are collected by audit_params, not
auto-resolved.

Each rule shape is stated once.  _local_c has one signed block for 2 and
D_i, and for -2 and -D_i when epsilon = -1: mod 16 (+-2) or mod 4 (+-D_i)
at 2, the self rule at D_i and (d | l) = 1 at every other odd bad place.
_local_cprime has one named-class block for D_i, -pq and D: each branch
sets a tag, a mod-8 condition at 2 and the pair (a, b) that _either_square
(one term of pi_prime, alpha_minus_pq or beta_minus_D) reads at a D place,
and one tail answers at 2, at p and q (always solvable) and at the D places.

The membership rules that need more than the class value read the member
predicates of theorems, the same ones its claims read: S:C:Di and S:C:-Di
read _is_phi_witness, S:C:2 and S:C:-2 read _adjoined_two, S:C':Di reads
_prime_curve_ok, S:C':-pq reads _alpha_condition, and S:C':-D and S:C':D
read _minus_eps_d_member.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import selmer
from .arith import legendre_symbol
from .family import INF_PLACE, PHI, PHI_HAT, FamilyParams, check_kind
from .localsolve import local_verdict  # noqa: F401  (kept importable; the bench tracer wraps it)
from .theorems import (
    _adjoined_two,
    _alpha_condition,
    _d_two_adic,
    _either_square,
    _is_phi_witness,
    _minus_eps_d_member,
    _minus_pq_two_adic,
    _prime_curve_ok,
    _two_adic_unit_case,
)


@dataclass(frozen=True)
class ClosedFormVerdict:
    """A rule's verdict, local or membership; solvable is None where no rule is stated."""

    solvable: bool | None
    rule_id: str

    @property
    def applicable(self) -> bool:
        return self.solvable is not None


_NA = ClosedFormVerdict(None, "")


def _rule(ok: bool, rule_id: str) -> ClosedFormVerdict:
    return ClosedFormVerdict(bool(ok), rule_id)


def _rule_values(params: FamilyParams) -> set[int]:
    """The values the closed-form rules are stated on: +-1, +-2, +-D_i, +-pq, -eps*pD, -eps*qD, +-D.

    Every other local rule reads only d's local class, and is tried first at its place.
    """
    p, q, D = params.p, params.q, params.D
    signed = {s * v for v in (1, 2, p * q, D) + params.d_primes for s in (1, -1)}
    return signed | {-params.epsilon * p * D, -params.epsilon * q * D}


def _local_c(params: FamilyParams, dv: int, place) -> ClosedFormVerdict:
    eps, p, q, D = params.epsilon, params.p, params.q, params.D
    if place == INF_PLACE:
        if eps == 1:
            return _rule(dv > 0, "C:real-sign")
        return _NA  # no stated real rule for eps = -1
    if place == p and dv % p == 0:
        return _rule(False, "C:val-p")
    if place == q and dv % q == 0:
        return _rule(False, "C:val-q")
    if eps == -1 and dv == -1 and place == 2:
        return _rule(False, "C:neg-unit:2")
    v = abs(dv)
    if (v == 2 or v in params.d_primes) and (dv > 0 or eps == -1):
        tag = ("C:" if dv > 0 else "C:-") + ("2" if v == 2 else "Di")
        if place == 2 and v == 2:
            # -2 negates D(D - 2p - 2); 2 needs no eps: D(D + 2p + 2) differs by 4D(p + 1),
            # 0 mod 16 when p = 3 mod 4, and when p = 1 mod 4 neither is 1 mod 16
            return _rule((dv // 2) * D * (D - 2 * p - 2) % 16 == (1 if dv > 0 else 3), f"{tag}:mod16")
        if place == 2:
            return _rule(dv % 4 == 1, f"{tag}:mod4")
        if place == v:
            s, dh = (eps if dv > 0 else -eps), D // v
            ok = legendre_symbol(s * p * dh, v) == 1 and legendre_symbol(s * q * dh, v) == 1
            return _rule(ok, f"{tag}:self")
        if place in (p, q) + params.d_primes:
            return _rule(legendre_symbol(dv, place) == 1, f"{tag}:qr")
    return _NA


def _local_cprime(params: FamilyParams, dv: int, place) -> ClosedFormVerdict:
    eps, p, q, D = params.epsilon, params.p, params.q, params.D
    Ds = params.d_primes
    if place == INF_PLACE:
        if eps == 1:
            return _rule(True, "C':real-always")
        return _rule(dv > 0, "C':real-sign")
    if dv % 2 == 0 and place == 2:
        return _rule(False, "C':even:2")
    if dv in (1, p * q, -eps * p * D, -eps * q * D):
        # visible rational point (z, w) = (1, 0) on the -eps*pD / -eps*qD
        # curves forces the whole four-element subgroup in at every place
        return _rule(True, "C':rational-point")
    if dv in Ds:  # one block per named class; at_d names its rule at a D place
        dh = D // dv
        tag, at_two = "Di", _two_adic_unit_case(dv, p, q, eps, dh)
        at_d, a, b = ("self", -eps * p * dh, -eps * q * dh) if place == dv else ("cross", dv, p * q * dv)
    elif eps == 1 and dv == -p * q:
        tag, at_two, (at_d, a, b) = "-pq", _minus_pq_two_adic(p, D), ("qr", -1, -p * q)
    elif eps == -1 and dv == D and params.n >= 2:
        tag, at_two, (at_d, a, b) = "D", _d_two_adic(p, D), ("qr", p, q)
    else:
        return _NA
    if place == 2:
        return _rule(at_two, f"C':{tag}:mod8")
    if place in (p, q):
        return _rule(True, f"C':{tag}:pq")
    if place in Ds:
        return _rule(_either_square(a, b, place), f"C':{tag}:{at_d}")
    return _NA


def closed_form_local(params: FamilyParams, kind: str, d: int, place) -> ClosedFormVerdict:
    """Closed-form local verdict for (kind, d, place), or applicable = False."""
    local = _local_c if check_kind(kind) == PHI else _local_cprime
    return local(params, d, place)


def _membership_with_rule(params: FamilyParams, kind: str, dv: int) -> ClosedFormVerdict:
    eps, p, q, D = params.epsilon, params.p, params.q, params.D
    Ds = params.d_primes
    if check_kind(kind) == PHI:
        if dv == 1:
            return _rule(True, "S:identity")
        if dv % p == 0 or dv % q == 0 or dv == -1 or (eps == 1 and dv < 0):
            return _rule(False, "S:C:excluded")
        if abs(dv) == 2:  # eps = +1 has excluded dv < 0 above
            return _rule(_adjoined_two(params) == dv, "S:C:2" if dv > 0 else "S:C:-2")
        if abs(dv) in Ds:
            return _rule(_is_phi_witness(params, dv), "S:C:Di" if dv > 0 else "S:C:-Di")
        return _NA
    if dv in Ds:
        return _rule(_prime_curve_ok(params, Ds.index(dv) + 1), "S:C':Di")
    if dv % 2 == 0 or (eps == -1 and dv < 0):
        return _rule(False, "S:C':excluded")
    if dv in (1, p * q, -eps * p * D, -eps * q * D):
        return _rule(True, "S:C':rational-point")
    if eps == 1 and dv == -p * q:
        return _rule(_alpha_condition(params), "S:C':-pq")
    if dv == -eps * D and (eps == 1 or params.n >= 2):
        return _rule(_minus_eps_d_member(params), "S:C':-D" if eps == 1 else "S:C':D")
    return _NA


def membership_closed_form(params: FamilyParams, kind: str, d: int) -> bool | None:
    """Membership verdict for d where a closed-form rule exists, else None."""
    return _membership_with_rule(params, kind, d).solvable


def audit_params(params: FamilyParams, groups=None) -> list[dict]:
    """Compare both engines on every rule cell; one row per disagreement, [] when they agree.

    At each place the local rules are checked on _rule_values and on one
    representative per local class the basis reaches, which covers the
    rules that read only d's local class.  Membership is checked on the same
    values and on the group's basis: an excluded rule cuts out a coordinate
    subspace, so a member it cuts out implies a basis vector it cuts out.
    The oracle side is read by local class (verdict_at).  Rows are ordered
    by kind, then place, then d; membership rows (place "") come last.
    """
    if groups is None:
        groups = {kind: selmer.compute_selmer(params, kind) for kind in (PHI, PHI_HAT)}
    values = _rule_values(params)
    rows = []

    def record(check, kind, dv, place, cf, have):
        if cf.solvable != have:
            rows.append({"check": check, "params": params.label(), "kind": kind, "d": dv,
                         "place": place, "rule": cf.rule_id, "closed_form": cf.solvable,
                         "oracle": have})

    for kind in (PHI, PHI_HAT):
        group = groups[kind]
        for place in params.places():
            for dv in sorted(values.union(group.representatives[place].values())):
                cf = closed_form_local(params, kind, dv, place)
                if cf.applicable:
                    record("local", kind, dv, str(place), cf, group.verdict_at(dv, place).solvable)
        for dv in sorted(values.union(group.basis)):
            mem = _membership_with_rule(params, kind, dv)
            if mem.applicable:
                record("membership", kind, dv, "", mem, group.contains_value(dv))
    return rows
