"""The phi_hat symbol conditions at the D places as separate formulas: the reference for their one term.

theorems._either_square states "(a | l) = 1 or (b | l) = 1", the local
condition of one quartic C'_d at one D place, and pi_prime, alpha_minus_pq,
beta_minus_D and the C' rules of criteria at the D places all read it.
Here each is written out on its own: the counting functions as sums of
products (1 - (a | l)) * (1 - (b | l)), each 0 or 4 as l divides neither a
nor b, and the rules as explicit `or` clauses of two symbols, dispatched as
criteria._local_cprime dispatches at a D place.
"""

from __future__ import annotations

from twinselmer.arith import legendre_symbol
from twinselmer.family import FamilyParams


def pi_prime(params: FamilyParams, i: int) -> int:
    Di = params.d_primes[i - 1]
    dh = params.dhat(i)
    first = (1 - legendre_symbol(-params.epsilon * params.p * dh, Di)) * (
        1 - legendre_symbol(-params.epsilon * params.q * dh, Di)
    )
    pq = params.p * params.q
    rest = sum(
        (1 - legendre_symbol(Di, Dj)) * (1 - legendre_symbol(pq * Di, Dj))
        for j, Dj in enumerate(params.d_primes, 1)
        if j != i
    )
    return first + rest


def alpha_minus_pq(params: FamilyParams) -> int:
    pq = params.p * params.q
    return sum(
        (1 - legendre_symbol(-1, Di)) * (1 - legendre_symbol(-pq, Di))
        for Di in params.d_primes
    )


def beta_minus_D(params: FamilyParams) -> int:
    return sum(
        (1 - legendre_symbol(params.p, Di)) * (1 - legendre_symbol(params.q, Di))
        for Di in params.d_primes
    )


def cprime_at_d_place(params: FamilyParams, dv: int, place: int) -> tuple[bool | None, str]:
    """(solvable, rule id) of the C' rules for d = dv at the D place; (None, "") where none is stated."""
    eps, p, q, D = params.epsilon, params.p, params.q, params.D
    if dv in (1, p * q, -eps * p * D, -eps * q * D):
        return True, "C':rational-point"
    if dv in params.d_primes:
        dh = D // dv
        if place == dv:
            ok = (
                legendre_symbol(-eps * p * dh, dv) == 1
                or legendre_symbol(-eps * q * dh, dv) == 1
            )
            return ok, "C':Di:self"
        ok = (
            legendre_symbol(dv, place) == 1
            or legendre_symbol(p * q * dv, place) == 1
        )
        return ok, "C':Di:cross"
    if eps == 1 and dv == -p * q:
        ok = (
            legendre_symbol(-1, place) == 1
            or legendre_symbol(-p * q, place) == 1
        )
        return ok, "C':-pq:qr"
    if eps == -1 and dv == D and params.n >= 2:
        ok = (
            legendre_symbol(p, place) == 1
            or legendre_symbol(q, place) == 1
        )
        return ok, "C':D:qr"
    return None, ""
