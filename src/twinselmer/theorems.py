"""Counting functions, the member predicates, the hypothesis table, and the claim catalog.

Each catalog entry pairs mechanically checkable hypotheses (congruences and
Legendre symbols) with a claim about the two descent Selmer groups: a
dimension lower bound with explicit witnesses, an exact order, or the
rank-plus-obstruction sum dim2(phi) + dim2(phi_hat) - 2.  Verification
computes the groups with the generic oracle and compares.  Most claims
bound orders by powers of 2 in n; each is one _orders call, given a (lo, hi)
shift per bounded kind and optionally members; two exact orders bring the
sum identity.  The witness claims (1.1, 1.3, 1.6, 1.8) and the exact branch
of 1.5A have their own runners.

CONSTRAINTS holds the hypotheses of every entry made only of congruences
on p and the D_i and Legendre symbols among them, as data: verify_theorem
reads ConstraintSet.holds, and the search sieves on the same entries stage
by stage.  The congruences on each D_i are a set of residue cells, the
allowed pairs (p mod 8, D_i mod 8).  The symbols on each D_i are one of
three predicates: D_i is a square mod p and mod q, p and q are squares
mod D_i, or D_i is a square mod exactly one of p and q.  The cells in
which 1.1 and 1.6 adjoin 2 or -2 are one table, which 1.7B assumes too.

Each closed-form group member has one predicate here, read by the claims
and by the membership rules of criteria alike: _is_phi_witness (+-D_i in
phi; the witnesses of 1.1 and 1.6, counted by rho_plus and rho_minus),
_adjoined_two (2 or -2 in phi; the adjoined branches of 1.1 and 1.6),
_prime_curve_ok (D_i in phi_hat; prime_curve_indices, rho_prime and the
hypotheses of 1.4 and 1.9), _alpha_condition (-pq in phi_hat; the exact-top
branch of 1.4) and _minus_eps_d_member (-eps*D in phi_hat).  Each term of
pi_prime, alpha_minus_pq and beta_minus_D, and each C' rule of criteria at
the D places, is one _either_square: C'_d at one D place.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable

from .arith import legendre_symbol
from .family import PHI, PHI_HAT, FamilyParams
from .selmer import compute_selmer


def pi_minus(params: FamilyParams, i: int) -> int:
    """Nonresidue score of D_i against p, q and the other D_j (each term 0 or 2)."""
    Di = params.d_primes[i - 1]
    total = (1 - legendre_symbol(params.p, Di)) + (1 - legendre_symbol(params.q, Di))
    total += sum(
        1 - legendre_symbol(Dj, Di) for j, Dj in enumerate(params.d_primes, 1) if j != i
    )
    return total


def pi_plus(params: FamilyParams, i: int) -> int:
    """Nonresidue score of D_i against -1, p, q and the other D_j: pi_minus plus the -1 term."""
    return pi_minus(params, i) + 1 - legendre_symbol(-1, params.d_primes[i - 1])


def _is_phi_witness(params: FamilyParams, dv: int) -> bool:
    """Phi membership of dv = +-D_i: dv = 1 mod 4 and pi_minus(i) vanishes.

    epsilon = +1 admits only dv > 0; the caller excludes the rest.
    """
    return dv % 4 == 1 and pi_minus(params, params.d_primes.index(abs(dv)) + 1) == 0


def _signed_d_primes(params: FamilyParams) -> list[int]:
    """Each D_i signed to be 1 mod 4 (the witnesses of claim 1.7A)."""
    return [Di if Di % 4 == 1 else -Di for Di in params.d_primes]


def _phi_witnesses(params: FamilyParams, sign: int) -> list[int]:
    """The signed D_i that pass _is_phi_witness (claims 1.1 and 1.6); sign +1 keeps dv > 0."""
    signed = _signed_d_primes(params)
    return [dv for dv in signed if (sign == -1 or dv > 0) and _is_phi_witness(params, dv)]


def rho_plus(params: FamilyParams) -> int:
    """Number of indices with vanishing pi_plus score."""
    return len(_phi_witnesses(params, 1))


def rho_minus(params: FamilyParams) -> int:
    return len(_phi_witnesses(params, -1))


_ODD = (1, 3, 5, 7)


def _cells(p_residues, d_residues) -> frozenset[tuple[int, int]]:
    """Every (p mod 8, D_i mod 8) pair with p and D_i in the given residues mod 8."""
    return frozenset((p8, d8) for p8 in p_residues for d8 in d_residues)


# The cells in which claims 1.1 and 1.6 adjoin 2 or -2 to the phi witnesses:
# 2 when p = 7 mod 8 and D_i = 1, 7 mod 8; -2 (epsilon = -1 only) when
# p = 1 mod 8 and D_i = 1, 3 mod 8.  Claim 1.7B assumes either.
_TWO_CELLS = {2: _cells((7,), (1, 7)), -2: _cells((1,), (1, 3))}


def _adjoined_two(params: FamilyParams) -> int | None:
    """The class 2 or -2 whose cells hold every D_i, if any (claims 1.1 and 1.6)."""
    p8 = params.p % 8
    for two, cells in _TWO_CELLS.items():
        if two == 2 or params.epsilon == -1:
            if all((p8, Di % 8) in cells for Di in params.d_primes):
                return two
    return None


def _either_square(a: int, b: int, l: int) -> bool:
    """(a | l) = 1 or (b | l) = 1: the quartic C'_d of the phi_hat descent at a D place l."""
    return legendre_symbol(a, l) == 1 or legendre_symbol(b, l) == 1


def pi_prime(params: FamilyParams, i: int) -> int:
    """Paired nonresidue score of D_i for the dual descent: 4 per D place where C'_{D_i} fails.

    At D_i the family's epsilon sets the signs; at each other D_j the pair is D_i and pq*D_i.
    """
    Di, dh, s = params.d_primes[i - 1], params.dhat(i), -params.epsilon
    pq = params.p * params.q
    fails = not _either_square(s * params.p * dh, s * params.q * dh, Di)
    fails += sum(not _either_square(Di, pq * Di, Dj) for Dj in params.d_primes if Dj != Di)
    return 4 * fails


def alpha_minus_pq(params: FamilyParams) -> int:
    """4 for each D_i at which both -1 and -pq are nonresidues."""
    return 4 * sum(not _either_square(-1, -params.p * params.q, Di) for Di in params.d_primes)


def beta_minus_D(params: FamilyParams) -> int:
    """4 for each D_i at which both p and q are nonresidues."""
    return 4 * sum(not _either_square(params.p, params.q, Di) for Di in params.d_primes)


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
    """Mod-8 condition for the C' curve of d = D (epsilon = -1) or d = -D (epsilon = +1) at 2."""
    return (
        D % 8 == 1
        or p % 8 in (1, 7)
        or (D % 8 == 3 and p % 8 == 5)
        or (D % 8 == 7 and p % 8 == 3)
    )


def index_set_I(params: FamilyParams) -> frozenset[int]:
    """Indices whose single-prime curve passes the place 2."""
    return frozenset(
        i
        for i, Di in enumerate(params.d_primes, 1)
        if _two_adic_unit_case(Di, params.p, params.q, params.epsilon, params.dhat(i))
    )


def _prime_curve_ok(params: FamilyParams, i: int) -> bool:
    """D_i lies in the phi_hat group: i is in index_set_I and pi_prime(i) vanishes."""
    Di = params.d_primes[i - 1]
    return (
        _two_adic_unit_case(Di, params.p, params.q, params.epsilon, params.dhat(i))
        and pi_prime(params, i) == 0
    )


def prime_curve_indices(params: FamilyParams) -> frozenset[int]:
    """Indices in index_set_I with vanishing pi_prime score."""
    return frozenset(i for i in range(1, params.n + 1) if _prime_curve_ok(params, i))


def rho_prime(params: FamilyParams) -> int:
    """Number of admissible indices with vanishing pi_prime score."""
    return len(prime_curve_indices(params))


def _d_square_mod_pq(r: int, p: int, q: int) -> bool:
    """D_i is a square modulo p and modulo q."""
    return legendre_symbol(r, p) == 1 and legendre_symbol(r, q) == 1


def _pq_square_mod_d(r: int, p: int, q: int) -> bool:
    """p and q are squares modulo D_i."""
    return legendre_symbol(p, r) == 1 and legendre_symbol(q, r) == 1


def _d_square_mod_one(r: int, p: int, q: int) -> bool:
    """D_i is a square modulo exactly one of p and q."""
    return legendre_symbol(r, p) + legendre_symbol(r, q) == 0


@dataclass(frozen=True)
class ConstraintSet:
    """The hypotheses of one catalog entry: residue cells and Legendre-symbol conditions.

    cells is the set of allowed (p mod 8, D_i mod 8) pairs; every D_i must
    fall in a cell with p.  symbol(D_i, p, q) is the Legendre-symbol
    condition on each D_i.  They are split by what they read, so the search
    can apply each as early as it can: p alone (p_ok: some cell has p's
    residue), one D prime against the twin pair (d_ok: its cell and its
    symbol), the chosen D primes as a set (set_ok), and every pair of D
    primes (pair_ok, which applies when pairwise_one is set).  holds() is all
    of them on one instance; epsilon is checked by the caller.
    """

    epsilon: int
    theorem_id: str
    cells: frozenset[tuple[int, int]]
    symbol: Callable[[int, int, int], bool]
    pairwise_one: bool = False  # (D_j | D_i) = 1 for all i != j
    d_mod8_exists: tuple[int, ...] | None = None  # some D_i must land here mod 8
    p_minus_d_mod8: tuple[int, ...] | None = None

    def p_ok(self, p: int) -> bool:
        return any(p8 == p % 8 for p8, _ in self.cells)

    def d_ok(self, r: int, p: int, q: int) -> bool:
        return (p % 8, r % 8) in self.cells and self.symbol(r, p, q)

    def set_ok(self, p: int, d_primes) -> bool:
        if self.d_mod8_exists is not None and not any(
            r % 8 in self.d_mod8_exists for r in d_primes
        ):
            return False
        return self.p_minus_d_mod8 is None or (p - prod(d_primes)) % 8 in self.p_minus_d_mod8

    def pair_ok(self, a: int, b: int) -> bool:
        """The pairwise clause on two D primes: each is a QR modulo the other, if pairwise_one."""
        return not self.pairwise_one or (legendre_symbol(a, b) == 1 and legendre_symbol(b, a) == 1)

    def holds(self, params: FamilyParams) -> bool:
        p, q, Ds = params.p, params.q, params.d_primes
        return (
            self.p_ok(p)
            and all(self.d_ok(r, p, q) for r in Ds)
            and self.set_ok(p, Ds)
            and all(self.pair_ok(a, b) for i, a in enumerate(Ds) for b in Ds[i + 1 :])
        )


_D_1_MOD_4 = _cells(_ODD, (1, 5))

CONSTRAINTS: dict[str, ConstraintSet] = {
    cs.theorem_id: cs
    for cs in (
        ConstraintSet(1, "1.2A", _D_1_MOD_4, _d_square_mod_pq, pairwise_one=True),
        ConstraintSet(1, "1.2B", _D_1_MOD_4, _d_square_mod_pq, pairwise_one=True,
                      d_mod8_exists=(5,)),
        ConstraintSet(1, "1.2C", _cells((7,), (1,)), _d_square_mod_pq, pairwise_one=True),
        ConstraintSet(1, "1.4ex", _cells((3, 7), (1,)), _d_square_mod_one),
        ConstraintSet(1, "1.5A", _D_1_MOD_4, _d_square_mod_pq, pairwise_one=True,
                      d_mod8_exists=(5,), p_minus_d_mod8=(0, 2)),
        ConstraintSet(1, "1.5B", _cells((7,), (1,)), _d_square_mod_pq, pairwise_one=True),
        ConstraintSet(-1, "1.7A", _cells(_ODD, _ODD), _pq_square_mod_d, pairwise_one=True),
        ConstraintSet(-1, "1.7B", _TWO_CELLS[2] | _TWO_CELLS[-2], _pq_square_mod_d,
                      pairwise_one=True),
        ConstraintSet(-1, "1.9ex", _cells(_ODD, (1,)), _d_square_mod_one),
        ConstraintSet(-1, "1.10A", _D_1_MOD_4, _d_square_mod_pq, pairwise_one=True,
                      d_mod8_exists=(5,), p_minus_d_mod8=(2, 4)),
        ConstraintSet(-1, "1.10B", _cells((1, 7), (1,)), _pq_square_mod_d, pairwise_one=True),
    )
}


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


def _rank_sha_sum(params: FamilyParams) -> int:
    return compute_selmer(params, PHI).dim2 + compute_selmer(params, PHI_HAT).dim2 - 2


def _alpha_condition(params: FamilyParams) -> bool:
    return alpha_minus_pq(params) == 0 and _minus_pq_two_adic(params.p, params.D)


def _minus_eps_d_member(params: FamilyParams) -> bool:
    """-eps*D lies in the phi_hat group: beta_minus_D vanishes and the place 2 passes."""
    return beta_minus_D(params) == 0 and _d_two_adic(params.p, -params.epsilon * params.D)


def _prime_curves_pass_two(params: FamilyParams) -> bool:
    return all(_prime_curve_ok(params, i) for i in range(1, params.n + 1))


@dataclass(frozen=True)
class _Claim:
    epsilon: int
    hypotheses: Callable[[FamilyParams], bool]
    run: Callable[[FamilyParams], tuple[str, dict, bool, str | None]]


def _run_rho_phi(params):
    g = compute_selmer(params, PHI)
    witnesses = _phi_witnesses(params, params.epsilon)
    rho = len(witnesses)
    ok = g.dim2 >= rho and all(g.contains_value(w) for w in witnesses)
    signed = "signed " if params.epsilon == -1 else ""
    claimed = f"dim2(phi) >= {rho} with {signed}witnesses {witnesses}"
    branch = None
    two = _adjoined_two(params)
    if two is not None:
        branch = "two-adjoined" if two == 2 else "minus-two-adjoined"
        claimed += f"; dim2(phi) >= {rho + 1} with {two} adjoined"
        ok = ok and g.dim2 >= rho + 1 and g.contains_value(two)
    observed = {"dim_phi": g.dim2, "rho": rho, "witnesses": witnesses}
    return claimed, observed, ok, branch


def _run_rho_prime(params):
    g = compute_selmer(params, PHI_HAT)
    indices = prime_curve_indices(params)
    rp = len(indices)
    witnesses = [params.d_primes[i - 1] for i in sorted(indices)]
    ok = g.dim2 >= rp and all(g.contains_value(w) for w in witnesses)
    return (
        f"dim2(phi_hat) >= {rp} with witnesses {witnesses}",
        {"dim_phi_hat": g.dim2, "rho_prime": rp, "witnesses": witnesses},
        ok,
        None,
    )


def _orders(phi=None, hat=None, members=None):
    """Runner of the claims 2^(n+lo) <= order(kind) <= 2^(n+hi), one (lo, hi) per bounded kind.

    lo == hi reads as order(kind) == 2^(n+lo).  members(params) returns a
    phrase and the classes that must lie in the last bounded group.  Two exact
    orders add the sum identity they imply, rank_sha_sum == 2n + lo_phi + lo_hat - 2.
    """
    bounds = [(kind, b) for kind, b in ((PHI, phi), (PHI_HAT, hat)) if b is not None]
    total = phi[0] + hat[0] - 2 if phi and hat and phi[0] == phi[1] and hat[0] == hat[1] else None

    def run(params):
        n = params.n
        parts, observed, ok = [], {}, True
        for kind, (lo, hi) in bounds:
            order = observed[f"order_{kind}"] = compute_selmer(params, kind).order
            if lo == hi:
                parts.append(f"order({kind}) == 2^{n + lo}")
            else:
                parts.append(f"2^{n + lo} <= order({kind}) <= 2^{n + hi}")
            ok = ok and (1 << (n + lo)) <= order <= (1 << (n + hi))
        if members is not None:
            phrase, values = members(params)
            parts[-1] += f" with {phrase}"
            g = compute_selmer(params, bounds[-1][0])
            ok = ok and all(g.contains_value(v) for v in values)
        if total is not None:
            s = observed["rank_sha_sum"] = _rank_sha_sum(params)
            parts.append(f"sum identity == {2 * n + total}")
            ok = ok and s == 2 * n + total
        return ", ".join(parts), observed, ok, None

    return run


def _run_1_4(params):
    if not _alpha_condition(params):
        return _orders(hat=(2, 3))(params)
    return (*_orders(hat=(3, 3))(params)[:3], "exact-top")


def _run_1_5a(params):
    # CONSTRAINTS["1.5A"] (D_i = 1 mod 4, (p - D) mod 8 in (0, 2)) forces
    # p = 3 mod 4 or p = D mod 8, so every instance takes the exact branch
    claimed, observed, ok, _ = _orders(phi=(0, 0), hat=(2, 3))(params)
    n = params.n
    total = observed["rank_sha_sum"] = _rank_sha_sum(params)
    claimed += f"; order(phi_hat) == 2^{n + 3} and sum identity == {2 * n + 1}"
    ok = ok and observed["order_phi_hat"] == (1 << (n + 3)) and total == 2 * n + 1
    return claimed, observed, ok, "exact"


def _signed_witnesses(params):
    signed = _signed_d_primes(params)
    return f"signed witnesses {signed}", signed


def _sieved(theorem_id: str, run) -> _Claim:
    cs = CONSTRAINTS[theorem_id]
    return _Claim(cs.epsilon, cs.holds, run)


_CLAIMS: dict[str, _Claim] = {
    "1.1": _Claim(1, lambda params: True, _run_rho_phi),
    "1.2A": _sieved(
        "1.2A", _orders(phi=(0, 1), members=lambda params: ("all D primes inside", params.d_primes))
    ),
    "1.2B": _sieved("1.2B", _orders(phi=(0, 0))),
    "1.2C": _sieved("1.2C", _orders(phi=(1, 1))),
    "1.3": _Claim(1, lambda params: True, _run_rho_prime),
    "1.4": _Claim(1, _prime_curves_pass_two, _run_1_4),
    "1.4ex": _sieved("1.4ex", _orders(hat=(3, 3))),
    "1.5A": _sieved("1.5A", _run_1_5a),
    "1.5B": _sieved("1.5B", _orders(phi=(1, 1), hat=(3, 3))),
    "1.6": _Claim(-1, lambda params: True, _run_rho_phi),
    "1.7A": _sieved("1.7A", _orders(phi=(0, 1), members=_signed_witnesses)),
    "1.7B": _sieved("1.7B", _orders(phi=(1, 1))),
    "1.8": _Claim(-1, lambda params: True, _run_rho_prime),
    "1.9": _Claim(-1, _prime_curves_pass_two, _orders(hat=(2, 2))),
    "1.9ex": _sieved("1.9ex", _orders(hat=(2, 2))),
    "1.10A": _sieved("1.10A", _orders(phi=(0, 0), hat=(2, 2))),
    "1.10B": _sieved("1.10B", _orders(phi=(1, 1), hat=(2, 2))),
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
    # runners call compute_selmer, which keeps both groups of the instance
    claimed, observed, ok, branch = claim.run(params)
    return TheoremReport(
        theorem_id,
        params,
        True,
        claimed,
        observed,
        "pass" if ok else "fail",
        branch,
    )
