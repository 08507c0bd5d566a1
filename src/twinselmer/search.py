"""Constructive instance search: sieve for catalog hypotheses, stack primes for large groups.

The sieve reads the hypothesis table theorems.CONSTRAINTS, the same entries
verify_theorem checks: p first, then each D prime of the pool, then each
chosen set.  Candidates are scanned smallest-first and deterministically:
twin pairs ascending (below 10^6, sieved in growing blocks only as far as
the scan reads), then D primes by backtracking over an ascending pool,
pruned pairwise where the entry asks for it.  Every hit is revalidated
through verify_theorem before it is returned; a hit whose claim fails is
raised as a counterexample (ClaimFailedError), never returned.  Each
verified hit's report is kept for the process (_verify), so a repeated
query rescans but verifies nothing again, and a kept fail report raises
ClaimFailedError again.
"""

from __future__ import annotations

import math
import numbers
import time
from functools import cache

from .arith import legendre_symbol  # noqa: F401  (kept importable; the bench tracer wraps it)
from .arith import primes_up_to, twin_pairs_up_to
from .family import PHI, PHI_HAT, FamilyParams, _is_int, validate_params
from .selmer import compute_selmer  # noqa: F401  (kept importable; the bench tracer wraps it)
from .theorems import (
    CONSTRAINTS,
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
def _twin_block(low: int, high: int) -> tuple[tuple[int, int], ...]:
    """Twin pairs (p, q) with low < q <= high, sieved on first read and kept for later scans."""
    return tuple((p, q) for p, q in twin_pairs_up_to(high) if q > low)


def _twin_pairs():
    """Twin pairs below _TWIN_LIMIT, ascending.

    Sieved in blocks that grow fourfold from 1,024, so a scan that stops
    early never pays for the pairs it does not read.
    """
    low, high = 0, 1024
    while low < _TWIN_LIMIT:
        high = min(high, _TWIN_LIMIT)
        yield from _twin_block(low, high)
        low, high = high, 4 * high


@cache
def _verify(params: FamilyParams, theorem_id: str) -> TheoremReport:
    """verify_theorem(params, theorem_id), kept for the process: a repeated query verifies nothing."""
    return verify_theorem(params, theorem_id)


def _check_budget(time_budget) -> None:
    """ValueError unless time_budget is None or a real number of seconds: no bool, str or nan."""
    if time_budget is None:
        return
    if (isinstance(time_budget, bool) or not isinstance(time_budget, numbers.Real)
            or math.isnan(time_budget)):
        raise ValueError(f"time_budget must be a number of seconds, got {time_budget!r}")


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

    All D_i are kept <= bound; twin pairs below 10^6 are scanned ascending,
    sieved block by block only as far as the scan reads.  Raises
    ClaimFailedError when the claim fails on the first admissible instance.
    """
    cs = CONSTRAINTS.get(corollary_id)
    if cs is None:
        raise ValueError(
            f"no mechanizable constraint set for {corollary_id!r}; known: {sorted(CONSTRAINTS)}"
        )
    if cs.epsilon != epsilon:
        raise ValueError(f"{corollary_id} applies to epsilon={cs.epsilon}, got {epsilon}")
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    if not _is_int(bound):
        raise ValueError(f"bound must be an int, got {bound!r}")
    _check_budget(time_budget)
    # checked between candidates, never mid-verdict
    deadline = math.inf if time_budget is None else time.monotonic() + time_budget
    base_pool = [r for r in primes_up_to(bound) if r % 2 == 1]
    tested = 0
    for p, q in _twin_pairs():
        if time.monotonic() >= deadline:
            break
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
            report = _verify(params, cs.theorem_id)
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
    if not _is_int(target_dim) or target_dim < 0:
        raise ValueError(f"target_dim must be an int >= 0, got {target_dim!r}")
    key = (epsilon, kind)
    if key not in _STACKING:
        raise ValueError(f"unsupported (epsilon, kind) = {key}")
    _check_budget(time_budget)
    corollary_id, gain = _STACKING[key]
    # a hit passed its claim, which gives dim2 >= n + gain for this kind
    n = max(1, target_dim - gain)
    _note(progress, f"searching with n={n} under bound {bound}")
    return find_family(epsilon, corollary_id, n, bound, time_budget=time_budget, progress=progress)
