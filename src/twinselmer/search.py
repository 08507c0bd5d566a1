"""Constructive instance search: sieve for catalog hypotheses, stack primes for large groups.

The sieve reads the hypothesis table theorems.CONSTRAINTS, the same entries
verify_theorem checks: p first, then each D prime of the pool, then each
chosen set.  Candidates are scanned smallest-first and deterministically:
twin pairs ascending, then D primes by backtracking over an ascending pool,
pruned pairwise where the entry asks for it.  Every hit is revalidated
through verify_theorem before it is returned.
"""

from __future__ import annotations

import time
from functools import lru_cache

from .arith import legendre_symbol, primes_up_to, twin_pairs_up_to
from .family import PHI, PHI_HAT, FamilyParams, validate_params
from .selmer import compute_selmer
from .theorems import (
    CONSTRAINTS,
    ConstraintSet,  # re-exported: part of the search API
    verify_theorem,
)

_TWIN_LIMIT = 10**6


class _Deadline:
    """Cooperative time budget; checked between candidates, never mid-verdict."""

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self.start = time.monotonic()

    def expired(self) -> bool:
        return self.seconds is not None and time.monotonic() - self.start >= self.seconds

    def remaining(self) -> float | None:
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - (time.monotonic() - self.start))


@lru_cache(maxsize=4)
def _twin_table(limit: int) -> tuple[tuple[int, int], ...]:
    return tuple(twin_pairs_up_to(limit))


def _note(progress, msg: str) -> None:
    if progress is not None:
        progress(msg)


def _pair_ok(a: int, b: int) -> bool:
    return legendre_symbol(a, b) == 1 and legendre_symbol(b, a) == 1


def _combos(pool, n, pairwise, chosen=(), start=0):
    if len(chosen) == n:
        yield chosen
        return
    for idx in range(start, len(pool)):
        cand = pool[idx]
        if not pairwise or all(_pair_ok(cand, c) for c in chosen):
            yield from _combos(pool, n, pairwise, chosen + (cand,), idx + 1)


def find_family(
    epsilon: int,
    corollary_id: str,
    n: int,
    bound: int,
    *,
    twin_limit: int = _TWIN_LIMIT,
    time_budget: float | None = None,
    progress=None,
) -> FamilyParams | None:
    """Smallest admissible instance of a catalog entry's hypotheses, or None.

    All D_i are kept <= bound; twin pairs are scanned ascending from the
    fixed table below twin_limit.
    """
    cs = CONSTRAINTS.get(corollary_id)
    if cs is None:
        raise ValueError(
            f"no mechanizable constraint set for {corollary_id!r}; known: {sorted(CONSTRAINTS)}"
        )
    if cs.epsilon != epsilon:
        raise ValueError(f"{corollary_id} applies to epsilon={cs.epsilon}, got {epsilon}")
    if n < 1:
        raise ValueError("n must be >= 1")
    deadline = _Deadline(time_budget)
    base_pool = [r for r in primes_up_to(bound) if r % 2 == 1]
    tested = 0
    for p, q in _twin_table(twin_limit):
        if deadline.expired():
            _note(progress, f"time budget exhausted after {tested} candidate sets")
            return None
        if not cs.p_ok(p):
            continue
        pool = [r for r in base_pool if r not in (p, q) and cs.d_ok(r, p, q)]
        if len(pool) < n:
            continue
        for combo in _combos(pool, n, cs.pairwise_one):
            tested += 1
            if deadline.expired():
                _note(progress, f"time budget exhausted after {tested} candidate sets")
                return None
            if not cs.set_ok(p, combo):
                continue
            params = validate_params(epsilon, p, q, combo)
            report = verify_theorem(params, cs.theorem_id)
            if report.verdict != "not-applicable":
                _note(progress, f"hit {params.label()} after {tested} candidate sets")
                return params
    _note(progress, f"bound exhausted after {tested} candidate sets")
    return None


# Per (epsilon, kind): catalog entry to stack primes under, and the dimension
# it guarantees as n + gain.
_STACKING = {
    (1, PHI_HAT): ("1.4ex", 3),
    (-1, PHI_HAT): ("1.9ex", 2),
    (1, PHI): ("1.2A", 0),
    (-1, PHI): ("1.7A", 0),
}


def demonstrate_large_selmer(
    epsilon: int,
    kind: str,
    target_dim: int,
    bound: int = 10**4,
    time_budget: float | None = None,
    progress=None,
) -> FamilyParams | None:
    """Instance with oracle-verified dim2 >= target_dim, built by prime stacking."""
    if target_dim < 0:
        raise ValueError("target_dim must be >= 0")
    key = (epsilon, kind)
    if key not in _STACKING:
        raise ValueError(f"unsupported (epsilon, kind) = {key}")
    corollary_id, gain = _STACKING[key]
    n = max(1, target_dim - gain)
    deadline = _Deadline(time_budget)
    while not deadline.expired():
        _note(progress, f"searching with n={n} under bound {bound}")
        params = find_family(
            epsilon,
            corollary_id,
            n,
            bound,
            time_budget=deadline.remaining(),
            progress=progress,
        )
        if params is None:
            _note(progress, f"no instance with n={n} under bound {bound}")
            return None
        group = compute_selmer(params, kind)
        _note(progress, f"{params.label()} gives dim2={group.dim2}")
        if group.dim2 >= target_dim:
            return params
        n += 1
    _note(progress, "time budget exhausted")
    return None
