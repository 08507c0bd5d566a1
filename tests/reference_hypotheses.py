"""The catalog hypotheses as hand-written predicates: the reference for the table.

theorems.CONSTRAINTS states the hypotheses of the sieveable catalog entries
as data.  These are the same hypotheses written out one predicate per
entry, independently of that table; test_theorems compares the two.
Epsilon is not part of them: each entry checks it on its own.
"""

from __future__ import annotations

from twinselmer.arith import legendre_symbol
from twinselmer.family import FamilyParams


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


REFERENCE = {
    "1.2A": _hyp_1_2a,
    "1.2B": _hyp_1_2b,
    "1.2C": _hyp_1_2c,
    "1.4ex": _hyp_1_4ex,
    "1.5A": _hyp_1_5a,
    "1.5B": _hyp_1_2c,
    "1.7A": _hyp_1_7a,
    "1.7B": _hyp_1_7b,
    "1.9ex": _hyp_1_9ex,
    "1.10A": _hyp_1_10a,
    "1.10B": _hyp_1_10b,
}
