"""Counting functions and mechanical verification of the claim catalog.

Each catalog entry pairs mechanically checkable hypotheses (congruences and
Legendre symbols) with a claim about the two descent Selmer groups: a
dimension lower bound with explicit witnesses, an exact order, or the
rank-plus-obstruction sum dim2(phi) + dim2(phi_hat) - 2.  Verification
computes the groups with the generic oracle and compares.

The counting functions and mod-8 predicates defined here are also the
building blocks of the closed-form rules in criteria, which imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .arith import legendre_symbol
from .family import PHI, PHI_HAT, FamilyParams
from .selmer import SelmerGroup, compute_selmer


def pi_plus(params: FamilyParams, i: int) -> int:
    """Nonresidue score of D_i against -1, p, q and the other D_j (each term 0 or 2)."""
    Di = params.d_primes[i - 1]
    total = (
        (1 - legendre_symbol(-1, Di))
        + (1 - legendre_symbol(params.p, Di))
        + (1 - legendre_symbol(params.q, Di))
    )
    total += sum(
        1 - legendre_symbol(Dj, Di) for j, Dj in enumerate(params.d_primes, 1) if j != i
    )
    return total


def rho_plus(params: FamilyParams) -> int:
    """Number of indices with vanishing pi_plus score."""
    return sum(1 for i in range(1, params.n + 1) if pi_plus(params, i) == 0)


def pi_minus(params: FamilyParams, i: int) -> int:
    """Like pi_plus but without the -1 term."""
    Di = params.d_primes[i - 1]
    total = (1 - legendre_symbol(params.p, Di)) + (1 - legendre_symbol(params.q, Di))
    total += sum(
        1 - legendre_symbol(Dj, Di) for j, Dj in enumerate(params.d_primes, 1) if j != i
    )
    return total


def rho_minus(params: FamilyParams) -> int:
    return sum(1 for i in range(1, params.n + 1) if pi_minus(params, i) == 0)


def pi_prime(params: FamilyParams, i: int, sign: int | None = None) -> int:
    """Paired nonresidue score of D_i for the dual descent direction.

    sign defaults to the family's epsilon and flips the signs inside the
    self-place product.
    """
    s = params.epsilon if sign is None else sign
    Di = params.d_primes[i - 1]
    dh = params.dhat(i)
    first = (1 - legendre_symbol(-s * params.p * dh, Di)) * (
        1 - legendre_symbol(-s * params.q * dh, Di)
    )
    pq = params.p * params.q
    rest = sum(
        (1 - legendre_symbol(Di, Dj)) * (1 - legendre_symbol(pq * Di, Dj))
        for j, Dj in enumerate(params.d_primes, 1)
        if j != i
    )
    return first + rest


def alpha_minus_pq(params: FamilyParams) -> int:
    """Sum of (1 - (-1|D_i)) * (1 - (-pq|D_i)) over the D primes."""
    pq = params.p * params.q
    return sum(
        (1 - legendre_symbol(-1, Di)) * (1 - legendre_symbol(-pq, Di))
        for Di in params.d_primes
    )


def beta_minus_D(params: FamilyParams) -> int:
    """Sum of (1 - (p|D_i)) * (1 - (q|D_i)) over the D primes."""
    return sum(
        (1 - legendre_symbol(params.p, Di)) * (1 - legendre_symbol(params.q, Di))
        for Di in params.d_primes
    )


def _two_adic_unit_case(Di: int, p: int, q: int, eps: int, dh: int) -> bool:
    """Mod-8 case split deciding the C' curve of a single D prime at the place 2."""
    return (
        Di % 8 == 1
        or ((1 + eps * p * dh) * (1 + eps * q * dh)) % 16 == 0
        or (Di % 8 == 3 and p % 4 == 1)
        or (Di % 8 == 7 and p % 4 == 3)
    )


def _minus_pq_two_adic(p: int, D: int) -> bool:
    """Mod-8 condition for the C' curve of d = -pq (epsilon = +1) at the place 2."""
    return p % 4 == 3 or (D - p) % 8 in (0, 2)


def _d_two_adic(p: int, D: int) -> bool:
    """Mod-8 condition for the C' curve of d = D (epsilon = -1, n >= 2) at the place 2."""
    return (
        D % 8 == 1
        or p % 8 in (1, 7)
        or (D % 8 == 3 and p % 8 == 5)
        or (D % 8 == 7 and p % 8 == 3)
    )


def index_set_I(params: FamilyParams, sign: int | None = None) -> frozenset[int]:
    """Indices whose single-prime curve passes the place 2."""
    s = params.epsilon if sign is None else sign
    return frozenset(
        i
        for i, Di in enumerate(params.d_primes, 1)
        if _two_adic_unit_case(Di, params.p, params.q, s, params.dhat(i))
    )


def rho_prime(params: FamilyParams, sign: int | None = None) -> int:
    """Number of admissible indices with vanishing pi_prime score."""
    I = index_set_I(params, sign)
    return sum(1 for i in I if pi_prime(params, i, sign) == 0)


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    params: FamilyParams
    hypotheses_hold: bool
    claimed: str
    observed: dict
    verdict: str  # "pass" | "fail" | "not-applicable"
    branch: str | None = None

    def as_dict(self) -> dict:
        return {
            "schema": "twinselmer/verify-v1",
            "theorem": self.theorem_id,
            "params": self.params.as_dict(),
            "hypotheses_hold": self.hypotheses_hold,
            "claimed": self.claimed,
            "observed": self.observed,
            "verdict": self.verdict,
            "branch": self.branch,
        }


class _Groups:
    """Lazy per-verification cache of the two Selmer groups."""

    def __init__(self, params: FamilyParams):
        self.params = params
        self._cache: dict[str, SelmerGroup] = {}

    def __call__(self, kind: str) -> SelmerGroup:
        if kind not in self._cache:
            self._cache[kind] = compute_selmer(self.params, kind)
        return self._cache[kind]


def _pairwise_one(params: FamilyParams) -> bool:
    Ds = params.d_primes
    return all(
        legendre_symbol(Dj, Di) == 1 for Di in Ds for Dj in Ds if Di != Dj
    )


def _d_qr_mod_pq(params: FamilyParams) -> bool:
    return all(
        legendre_symbol(Di, params.p) == 1 and legendre_symbol(Di, params.q) == 1
        for Di in params.d_primes
    )


def _pq_qr_mod_d(params: FamilyParams) -> bool:
    return all(
        legendre_symbol(params.p, Di) == 1 and legendre_symbol(params.q, Di) == 1
        for Di in params.d_primes
    )


def _opposite_symbols(params: FamilyParams) -> bool:
    return all(
        legendre_symbol(Di, params.p) + legendre_symbol(Di, params.q) == 0
        for Di in params.d_primes
    )


def _rank_sha_sum(gphi: SelmerGroup, ghat: SelmerGroup) -> int:
    return gphi.dim2 + ghat.dim2 - 2


def _alpha_condition(params: FamilyParams) -> bool:
    return alpha_minus_pq(params) == 0 and _minus_pq_two_adic(params.p, params.D)


def _prime_curves_pass_two(params: FamilyParams) -> bool:
    I = index_set_I(params)
    return all(
        i in I and pi_prime(params, i) == 0 for i in range(1, params.n + 1)
    )


@dataclass(frozen=True)
class _Claim:
    epsilon: int
    hypotheses: Callable[[FamilyParams], bool]
    run: Callable[[FamilyParams, _Groups], tuple[str, dict, bool, str | None]]


def _run_1_1(params, groups):
    g = groups(PHI)
    rho = rho_plus(params)
    witnesses = [Di for i, Di in enumerate(params.d_primes, 1) if pi_plus(params, i) == 0]
    ok = g.dim2 >= rho and all(g.contains_value(w) for w in witnesses)
    branch = None
    claimed = f"dim2(phi) >= {rho} with witnesses {witnesses}"
    if params.p % 8 == 7 and all(Di % 8 in (1, 7) for Di in params.d_primes):
        branch = "two-adjoined"
        claimed += f"; dim2(phi) >= {rho + 1} with 2 adjoined"
        ok = ok and g.dim2 >= rho + 1 and g.contains_value(2)
    observed = {"dim_phi": g.dim2, "rho": rho, "witnesses": witnesses}
    return claimed, observed, ok, branch


def _run_1_2a(params, groups):
    g = groups(PHI)
    n = params.n
    ok = (1 << n) <= g.order <= (1 << (n + 1)) and all(
        g.contains_value(Di) for Di in params.d_primes
    )
    return (
        f"2^{n} <= order(phi) <= 2^{n + 1} with all D primes inside",
        {"order_phi": g.order},
        ok,
        None,
    )


def _exact_order(kind, power_shift):
    def run(params, groups):
        g = groups(kind)
        n = params.n
        want = 1 << (n + power_shift)
        label = "phi" if kind == PHI else "phi_hat"
        return (
            f"order({label}) == 2^{n + power_shift}",
            {f"order_{label}": g.order},
            g.order == want,
            None,
        )

    return run


def _run_rho_prime(params, groups):
    g = groups(PHI_HAT)
    rp = rho_prime(params)
    I = index_set_I(params)
    witnesses = [
        params.d_primes[i - 1] for i in sorted(I) if pi_prime(params, i) == 0
    ]
    ok = g.dim2 >= rp and all(g.contains_value(w) for w in witnesses)
    return (
        f"dim2(phi_hat) >= {rp} with witnesses {witnesses}",
        {"dim_phi_hat": g.dim2, "rho_prime": rp, "witnesses": witnesses},
        ok,
        None,
    )


def _run_1_4(params, groups):
    g = groups(PHI_HAT)
    n = params.n
    ok = (1 << (n + 2)) <= g.order <= (1 << (n + 3))
    branch = None
    claimed = f"2^{n + 2} <= order(phi_hat) <= 2^{n + 3}"
    if _alpha_condition(params):
        branch = "exact-top"
        claimed = f"order(phi_hat) == 2^{n + 3}"
        ok = ok and g.order == (1 << (n + 3))
    return claimed, {"order_phi_hat": g.order}, ok, branch


def _run_1_5a(params, groups):
    gphi, ghat = groups(PHI), groups(PHI_HAT)
    n = params.n
    ok = gphi.order == (1 << n) and (1 << (n + 2)) <= ghat.order <= (1 << (n + 3))
    observed = {"order_phi": gphi.order, "order_phi_hat": ghat.order}
    claimed = f"order(phi) == 2^{n}, 2^{n + 2} <= order(phi_hat) <= 2^{n + 3}"
    branch = None
    if params.p % 4 == 3 or (params.p - params.D) % 8 == 0:
        branch = "exact"
        total = _rank_sha_sum(gphi, ghat)
        observed["rank_sha_sum"] = total
        claimed += f"; order(phi_hat) == 2^{n + 3} and sum identity == {2 * n + 1}"
        ok = ok and ghat.order == (1 << (n + 3)) and total == 2 * n + 1
    return claimed, observed, ok, branch


def _both_exact(phi_shift, hat_shift, sum_offset):
    def run(params, groups):
        gphi, ghat = groups(PHI), groups(PHI_HAT)
        n = params.n
        total = _rank_sha_sum(gphi, ghat)
        ok = (
            gphi.order == (1 << (n + phi_shift))
            and ghat.order == (1 << (n + hat_shift))
            and total == 2 * n + sum_offset
        )
        claimed = (
            f"order(phi) == 2^{n + phi_shift}, order(phi_hat) == 2^{n + hat_shift},"
            f" sum identity == {2 * n + sum_offset}"
        )
        observed = {
            "order_phi": gphi.order,
            "order_phi_hat": ghat.order,
            "rank_sha_sum": total,
        }
        return claimed, observed, ok, None

    return run


def _run_1_6(params, groups):
    g = groups(PHI)
    rho = rho_minus(params)
    witnesses = [
        Di if Di % 4 == 1 else -Di
        for i, Di in enumerate(params.d_primes, 1)
        if pi_minus(params, i) == 0
    ]
    ok = g.dim2 >= rho and all(g.contains_value(w) for w in witnesses)
    claimed = f"dim2(phi) >= {rho} with signed witnesses {witnesses}"
    branch = None
    if params.p % 8 == 7 and all(Di % 8 in (1, 7) for Di in params.d_primes):
        branch = "two-adjoined"
        ok = ok and g.dim2 >= rho + 1 and g.contains_value(2)
        claimed += f"; dim2(phi) >= {rho + 1} with 2 adjoined"
    elif params.p % 8 == 1 and all(Di % 8 in (1, 3) for Di in params.d_primes):
        branch = "minus-two-adjoined"
        ok = ok and g.dim2 >= rho + 1 and g.contains_value(-2)
        claimed += f"; dim2(phi) >= {rho + 1} with -2 adjoined"
    observed = {"dim_phi": g.dim2, "rho": rho, "witnesses": witnesses}
    return claimed, observed, ok, branch


def _run_1_7a(params, groups):
    g = groups(PHI)
    n = params.n
    witnesses = [Di if Di % 4 == 1 else -Di for Di in params.d_primes]
    ok = (1 << n) <= g.order <= (1 << (n + 1)) and all(
        g.contains_value(w) for w in witnesses
    )
    return (
        f"2^{n} <= order(phi) <= 2^{n + 1} with signed witnesses {witnesses}",
        {"order_phi": g.order},
        ok,
        None,
    )


def _hyp_1_2a(params):
    return (
        all(Di % 4 == 1 for Di in params.d_primes)
        and _d_qr_mod_pq(params)
        and _pairwise_one(params)
    )


def _hyp_1_2b(params):
    return _hyp_1_2a(params) and any(Di % 8 == 5 for Di in params.d_primes)


def _hyp_1_2c(params):
    return (
        params.p % 8 == 7
        and all(Di % 8 == 1 for Di in params.d_primes)
        and _d_qr_mod_pq(params)
        and _pairwise_one(params)
    )


def _hyp_1_4ex(params):
    return (
        all(Di % 8 == 1 for Di in params.d_primes)
        and _opposite_symbols(params)
        and params.p % 4 == 3
    )


def _hyp_1_5a(params):
    return _hyp_1_2b(params) and (params.p - params.D) % 8 in (0, 2)


def _hyp_1_7a(params):
    return _pq_qr_mod_d(params) and _pairwise_one(params)


def _hyp_1_7b(params):
    if not _hyp_1_7a(params):
        return False
    p, Ds = params.p, params.d_primes
    return (p % 8 == 7 and all(Di % 8 in (1, 7) for Di in Ds)) or (
        p % 8 == 1 and all(Di % 8 in (1, 3) for Di in Ds)
    )


def _hyp_1_9ex(params):
    return all(Di % 8 == 1 for Di in params.d_primes) and _opposite_symbols(params)


def _hyp_1_10a(params):
    return (
        all(Di % 4 == 1 for Di in params.d_primes)
        and any(Di % 8 == 5 for Di in params.d_primes)
        and _d_qr_mod_pq(params)
        and _pairwise_one(params)
        and (params.p - params.D) % 8 in (2, 4)
    )


def _hyp_1_10b(params):
    return (
        params.p % 8 in (1, 7)
        and all(Di % 8 == 1 for Di in params.d_primes)
        and _pq_qr_mod_d(params)
        and _pairwise_one(params)
    )


_CLAIMS: dict[str, _Claim] = {
    "1.1": _Claim(1, lambda params: True, _run_1_1),
    "1.2A": _Claim(1, _hyp_1_2a, _run_1_2a),
    "1.2B": _Claim(1, _hyp_1_2b, _exact_order(PHI, 0)),
    "1.2C": _Claim(1, _hyp_1_2c, _exact_order(PHI, 1)),
    "1.3": _Claim(1, lambda params: True, _run_rho_prime),
    "1.4": _Claim(1, _prime_curves_pass_two, _run_1_4),
    "1.4ex": _Claim(1, _hyp_1_4ex, _exact_order(PHI_HAT, 3)),
    "1.5A": _Claim(1, _hyp_1_5a, _run_1_5a),
    "1.5B": _Claim(1, _hyp_1_2c, _both_exact(1, 3, 2)),
    "1.6": _Claim(-1, lambda params: True, _run_1_6),
    "1.7A": _Claim(-1, _hyp_1_7a, _run_1_7a),
    "1.7B": _Claim(-1, _hyp_1_7b, _exact_order(PHI, 1)),
    "1.8": _Claim(-1, lambda params: True, _run_rho_prime),
    "1.9": _Claim(-1, _prime_curves_pass_two, _exact_order(PHI_HAT, 2)),
    "1.9ex": _Claim(-1, _hyp_1_9ex, _exact_order(PHI_HAT, 2)),
    "1.10A": _Claim(-1, _hyp_1_10a, _both_exact(0, 2, 0)),
    "1.10B": _Claim(-1, _hyp_1_10b, _both_exact(1, 2, 1)),
}

THEOREM_IDS = tuple(sorted(_CLAIMS))


def verify_theorem(params: FamilyParams, theorem_id: str) -> TheoremReport:
    """Check one catalog claim on a concrete instance via the generic oracle."""
    claim = _CLAIMS.get(theorem_id)
    if claim is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}; known: {THEOREM_IDS}")
    if params.epsilon != claim.epsilon or not claim.hypotheses(params):
        return TheoremReport(
            theorem_id, params, False, "hypotheses not satisfied", {}, "not-applicable"
        )
    claimed, observed, ok, branch = claim.run(params, _Groups(params))
    return TheoremReport(
        theorem_id,
        params,
        True,
        claimed,
        observed,
        "pass" if ok else "fail",
        branch,
    )
