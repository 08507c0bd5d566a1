"""The closed-form rules as each class once stated them: the reference for criteria's shared blocks.

criteria states each rule shape once: one signed block answers the phi
rules of 2 and D_i (and of -2 and -D_i when epsilon = -1), and one
named-class block answers the C' rules of D_i, -pq and D.  Here the rules
are written out once per class, with the phi exclusion as one condition per
sign of epsilon, so a test can check that every (solvable, rule id) is the
same.
"""

from __future__ import annotations

from twinselmer.arith import legendre_symbol
from twinselmer.criteria import _NA, ClosedFormVerdict, _rule
from twinselmer.family import INF_PLACE, PHI, FamilyParams, check_kind
from twinselmer.theorems import (
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


def local_c(params: FamilyParams, dv: int, place) -> ClosedFormVerdict:
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
            # one form for both signs: D(D + 2p + 2) differs by 4D(p + 1), 0 mod 16
            # when p = 3 mod 4, and when p = 1 mod 4 neither is 1 mod 16
            return _rule((D * (D - 2 * p - 2)) % 16 == 1, "C:2:mod16")
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


def local_cprime(params: FamilyParams, dv: int, place) -> ClosedFormVerdict:
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
            return _rule(_either_square(-eps * p * dh, -eps * q * dh, Di), "C':Di:self")
        if place in Ds:
            return _rule(_either_square(Di, p * q * Di, place), "C':Di:cross")
    if eps == 1 and dv == -p * q:
        if place == 2:
            return _rule(_minus_pq_two_adic(p, D), "C':-pq:mod8")
        if place in (p, q):
            return _rule(True, "C':-pq:pq")
        if place in Ds:
            return _rule(_either_square(-1, -p * q, place), "C':-pq:qr")
    if eps == -1 and dv == D and params.n >= 2:
        if place == 2:
            return _rule(_d_two_adic(p, D), "C':D:mod8")
        if place in (p, q):
            return _rule(True, "C':D:pq")
        if place in Ds:
            return _rule(_either_square(p, q, place), "C':D:qr")
    return _NA


def membership_with_rule(params: FamilyParams, kind: str, dv: int) -> ClosedFormVerdict:
    eps, p, q, D = params.epsilon, params.p, params.q, params.D
    Ds = params.d_primes
    if check_kind(kind) == PHI:
        if dv == 1:
            return _rule(True, "S:identity")
        if eps == 1 and (dv < 0 or dv % p == 0 or dv % q == 0):
            return _rule(False, "S:C:excluded")
        if eps == -1 and (dv % p == 0 or dv % q == 0 or dv == -1):
            return _rule(False, "S:C:excluded")
        if dv == 2 or (eps == -1 and dv == -2):
            return _rule(_adjoined_two(params) == dv, "S:C:2" if dv > 0 else "S:C:-2")
        if abs(dv) in Ds:  # eps = +1 has excluded dv < 0 above
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
