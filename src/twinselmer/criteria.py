"""Closed-form congruence and quadratic-residue criteria, the second engine.

Each rule answers local solvability for one (epsilon, quartic kind, d
pattern, place pattern) cell, or membership for one d pattern, purely from
residues mod 8/16 and Legendre symbols.  Where no rule is stated the
verdict defers to the generic oracle (applicable = False); the engine
never guesses.  Disagreements with the oracle are collected by
audit_params, not auto-resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import legendre_symbol
from .family import (
    INF_PLACE,
    KIND_C,
    KIND_CPRIME,
    PHI,
    PHI_HAT,
    FamilyParams,
    SquareClass,
    build_space,
    enumerate_square_classes,
)
from .localsolve import local_verdict
from .theorems import (
    _alpha_condition,
    _d_two_adic,
    _minus_pq_two_adic,
    _two_adic_unit_case,
    alpha_minus_pq,  # re-exported: part of the criteria API
    beta_minus_D,
    prime_curve_indices,
)


@dataclass(frozen=True)
class ClosedFormVerdict:
    applicable: bool
    solvable: bool | None
    rule_id: str


_NA = ClosedFormVerdict(False, None, "")


def _rule(ok: bool, rule_id: str) -> ClosedFormVerdict:
    return ClosedFormVerdict(True, bool(ok), rule_id)


def _as_value(d) -> int:
    return d.value if isinstance(d, SquareClass) else int(d)


def _local_c(params: FamilyParams, dv: int, place) -> ClosedFormVerdict:
    eps, p, q, D = params.epsilon, params.p, params.q, params.D
    Ds = params.d_primes
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
    odd_bad = (p, q) + Ds
    if dv == 2:
        if place == 2:
            if eps == 1:
                ok = (D * (D - 2 * p - 2)) % 16 == 1
            else:
                ok = (D * (D + 2 * p + 2)) % 16 == 1
            return _rule(ok, "C:2:mod16")
        if place in odd_bad:
            return _rule(legendre_symbol(2, place) == 1, "C:2:qr")
    if eps == -1 and dv == -2:
        if place == 2:
            return _rule((D * (-D + 2 * p + 2)) % 16 == 3, "C:-2:mod16")
        if place in odd_bad:
            return _rule(legendre_symbol(-2, place) == 1, "C:-2:qr")
    if dv in Ds or (eps == -1 and -dv in Ds):
        # one rule in the signed value: D_i, or -D_i when eps = -1
        Di = abs(dv)
        s, dh = (eps if dv > 0 else -eps), D // Di
        tag = "C:Di" if dv > 0 else "C:-Di"
        if place == 2:
            return _rule(dv % 4 == 1, f"{tag}:mod4")
        if place == Di:
            ok = (
                legendre_symbol(s * p * dh, Di) == 1
                and legendre_symbol(s * q * dh, Di) == 1
            )
            return _rule(ok, f"{tag}:self")
        if place in odd_bad:
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
    if dv in Ds:
        Di, dh = dv, D // dv
        if place == 2:
            return _rule(_two_adic_unit_case(Di, p, q, eps, dh), "C':Di:mod8")
        if place in (p, q):
            return _rule(True, "C':Di:pq")
        if place == Di:
            ok = (
                legendre_symbol(-eps * p * dh, Di) == 1
                or legendre_symbol(-eps * q * dh, Di) == 1
            )
            return _rule(ok, "C':Di:self")
        if place in Ds:
            ok = (
                legendre_symbol(Di, place) == 1
                or legendre_symbol(p * q * Di, place) == 1
            )
            return _rule(ok, "C':Di:cross")
    if eps == 1 and dv == -p * q:
        if place == 2:
            return _rule(_minus_pq_two_adic(p, D), "C':-pq:mod8")
        if place in (p, q):
            return _rule(True, "C':-pq:pq")
        if place in Ds:
            ok = (
                legendre_symbol(-1, place) == 1
                or legendre_symbol(-p * q, place) == 1
            )
            return _rule(ok, "C':-pq:qr")
    if eps == -1 and dv == D and params.n >= 2:
        if place == 2:
            return _rule(_d_two_adic(p, D), "C':D:mod8")
        if place in (p, q):
            return _rule(True, "C':D:pq")
        if place in Ds:
            ok = (
                legendre_symbol(p, place) == 1
                or legendre_symbol(q, place) == 1
            )
            return _rule(ok, "C':D:qr")
    return _NA


def closed_form_local(params: FamilyParams, kind: str, d, place) -> ClosedFormVerdict:
    """Closed-form local verdict for (kind, d, place), or applicable = False."""
    dv = _as_value(d)
    if kind in (PHI, KIND_C):
        return _local_c(params, dv, place)
    if kind in (PHI_HAT, KIND_CPRIME):
        return _local_cprime(params, dv, place)
    raise ValueError(f"unknown kind {kind!r}")


def _index_of(params: FamilyParams, Di: int) -> int:
    return params.d_primes.index(Di) + 1


def _membership_with_rule(params, kind, dv):
    eps, p, q, D = params.epsilon, params.p, params.q, params.D
    Ds = params.d_primes
    if kind in (PHI, KIND_C):
        if dv == 1:
            return True, "S:identity"
        if eps == 1 and (dv < 0 or dv % p == 0 or dv % q == 0):
            return False, "S:C:excluded"
        if eps == -1 and (dv % p == 0 or dv % q == 0 or dv == -1):
            return False, "S:C:excluded"
        if dv == 2:
            ok = p % 8 == 7 and all(Di % 8 in (1, 7) for Di in Ds)
            return ok, "S:C:2"
        if eps == -1 and dv == -2:
            ok = p % 8 == 1 and all(Di % 8 in (1, 3) for Di in Ds)
            return ok, "S:C:-2"
        if dv in Ds or (eps == -1 and -dv in Ds):
            Di = dv if dv in Ds else -dv
            symbols_ok = (
                legendre_symbol(p, Di) == 1
                and legendre_symbol(q, Di) == 1
                and all(legendre_symbol(Dj, Di) == 1 for Dj in Ds if Dj != Di)
            )
            if dv > 0:
                return (Di % 4 == 1 and symbols_ok), "S:C:Di"
            return (Di % 4 == 3 and symbols_ok), "S:C:-Di"
        return None
    if kind in (PHI_HAT, KIND_CPRIME):
        if dv in Ds:
            return _index_of(params, dv) in prime_curve_indices(params), "S:C':Di"
        if eps == 1:
            if dv % 2 == 0:
                return False, "S:C':excluded"
            if dv in (1, p * q, -p * D, -q * D):
                return True, "S:C':rational-point"
            if dv == -p * q:
                return _alpha_condition(params), "S:C':-pq"
            if dv == -D:
                ok = beta_minus_D(params) == 0 and (
                    D % 8 == 7
                    or p % 8 in (1, 7)
                    or (D % 8 == 1 and p % 8 == 3)
                    or (D % 8 == 5 and p % 8 == 5)
                )
                return ok, "S:C':-D"
            return None
        # eps == -1
        if dv % 2 == 0 or dv < 0:
            return False, "S:C':excluded"
        if dv in (1, p * q, p * D, q * D):
            return True, "S:C':rational-point"
        if dv == D and params.n >= 2:
            odd_ok = all(
                legendre_symbol(p, Di) == 1 or legendre_symbol(q, Di) == 1
                for Di in Ds
            )
            return (_d_two_adic(p, D) and odd_ok), "S:C':D"
        return None
    raise ValueError(f"unknown kind {kind!r}")


def membership_closed_form(params: FamilyParams, kind: str, d) -> bool | None:
    """Membership verdict for d where a closed-form rule exists, else None."""
    res = _membership_with_rule(params, kind, _as_value(d))
    return None if res is None else res[0]


def audit_params(params: FamilyParams, groups=None) -> list[dict]:
    """Compare both engines on every covered (d, place) cell and membership.

    Returns one row per disagreement; an empty list means the engines agree
    on this instance.  Oracle verdicts reuse the Selmer verdict tables and
    are recomputed only where the table stopped early.
    """
    from .selmer import compute_selmer  # local import to keep module load acyclic

    if groups is None:
        groups = {kind: compute_selmer(params, kind) for kind in (PHI, PHI_HAT)}
    space_kind = {PHI: KIND_C, PHI_HAT: KIND_CPRIME}
    rows = []
    for kind in (PHI, PHI_HAT):
        group = groups[kind]
        member_values = {cls.value for cls in group.elements}
        for cls in enumerate_square_classes(params):
            dv = cls.value
            space = None
            for place in params.places():
                cf = closed_form_local(params, kind, cls, place)
                if not cf.applicable:
                    continue
                verdict = group.verdict_table.get((dv, place))
                if verdict is None:
                    if space is None:
                        space = build_space(params, cls, space_kind[kind])
                    verdict = local_verdict(space, place)
                if cf.solvable != verdict.solvable:
                    rows.append(
                        {
                            "check": "local",
                            "params": params.label(),
                            "kind": kind,
                            "d": dv,
                            "place": str(place),
                            "rule": cf.rule_id,
                            "closed_form": cf.solvable,
                            "oracle": verdict.solvable,
                        }
                    )
            mem = _membership_with_rule(params, kind, dv)
            if mem is not None:
                want, rule = mem
                have = dv in member_values
                if want != have:
                    rows.append(
                        {
                            "check": "membership",
                            "params": params.label(),
                            "kind": kind,
                            "d": dv,
                            "place": "",
                            "rule": rule,
                            "closed_form": want,
                            "oracle": have,
                        }
                    )
    return rows
