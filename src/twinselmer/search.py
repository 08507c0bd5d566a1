"""Constructive instance search: sieve for catalog hypotheses, stack primes for large groups.

The sieve reads the hypothesis table theorems.CONSTRAINTS, the same entries
verify_theorem checks: p first, then each D prime of the pool, then each
chosen set.  Candidates are scanned smallest-first and deterministically:
twin pairs ascending, then D primes by backtracking over an ascending pool,
pruned pairwise where the entry asks for it.  Every hit is revalidated
through verify_theorem before it is returned; a hit whose claim fails is
raised as a counterexample (ClaimFailedError), never returned.
"""

from __future__ import annotations

import math
import time
from functools import cache

from .arith import legendre_symbol  # noqa: F401  (kept importable; the bench tracer wraps it)
from .arith import primes_up_to, twin_pairs_up_to
from .family import PHI, PHI_HAT, FamilyParams, validate_params
from .selmer import compute_selmer  # noqa: F401  (kept importable; the bench tracer wraps it)
from .theorems import (
    CONSTRAINTS,
    ConstraintSet,  # re-exported: part of the search API
    TheoremReport,
    verify_theorem,
)

_TWIN_LIMIT = 10**6


class ClaimFailedError(Exception):
    """A sieve hit on which its catalog claim fails; report holds the counterexample."""

    def __init__(self, report: TheoremReport):
        super().__init__(f"claim {report.theorem_id} fails on {report.params.label()}:"
                         f" claimed {report.claimed}; observed {report.observed}")
        self.report = report


@cache
def _twin_table() -> tuple[tuple[int, int], ...]:
    """Twin pairs below _TWIN_LIMIT, sieved on the first search rather than at import."""
    return tuple(twin_pairs_up_to(_TWIN_LIMIT))


def _note(progress, msg: str) -> None:
    if progress is not None:
        progress(msg)


def _combos(pool, n, cs, deadline, chosen=(), start=0):
    """Ascending n-subsets of pool, pruned by cs.pair_ok; stops once time.monotonic() >= deadline.

    The pruned backtracking can run for minutes between two yields, so the
    deadline is checked at every node, not only between combos.
    """
    if len(chosen) == n:
        yield chosen
        return
    for idx in range(start, len(pool)):
        if time.monotonic() >= deadline:
            return
        cand = pool[idx]
        if all(cs.pair_ok(cand, c) for c in chosen):
            yield from _combos(pool, n, cs, deadline, chosen + (cand,), idx + 1)


def find_family(
    epsilon: int,
    corollary_id: str,
    n: int,
    bound: int,
    *,
    time_budget: float | None = None,
    progress=None,
) -> FamilyParams | None:
    """Smallest admissible instance of a catalog entry's hypotheses, or None.

    All D_i are kept <= bound; twin pairs are scanned ascending from the
    fixed table of twin pairs below 10^6.  Raises ClaimFailedError when the claim
    fails on the first admissible instance.
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
    # checked between candidates, never mid-verdict
    deadline = math.inf if time_budget is None else time.monotonic() + time_budget
    base_pool = [r for r in primes_up_to(bound) if r % 2 == 1]
    tested = 0
    for p, q in _twin_table():
        if time.monotonic() >= deadline:
            _note(progress, f"time budget exhausted after {tested} candidate sets")
            return None
        if not cs.p_ok(p):
            continue
        pool = [r for r in base_pool if r not in (p, q) and cs.d_ok(r, p, q)]
        if len(pool) < n:
            continue
        for combo in _combos(pool, n, cs, deadline):
            tested += 1
            if not cs.set_ok(p, combo):
                continue
            params = validate_params(epsilon, p, q, combo)
            report = verify_theorem(params, cs.theorem_id)
            if report.verdict == "fail":
                raise ClaimFailedError(report)
            if report.verdict != "not-applicable":
                _note(progress, f"hit {params.label()} after {tested} candidate sets")
                return params
    if time.monotonic() >= deadline:
        _note(progress, f"time budget exhausted after {tested} candidate sets")
    else:
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
    # a hit passed its claim, which gives dim2 >= n + gain for this kind
    n = max(1, target_dim - gain)
    _note(progress, f"searching with n={n} under bound {bound}")
    return find_family(epsilon, corollary_id, n, bound, time_budget=time_budget, progress=progress)
