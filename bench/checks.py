"""Output checks run after each timed request, outside its timing.

Invariants hold for any seed; golden answers, recorded at the commit that
introduced the benchmark, pin the first requests of the default seeds.  Both
compare mathematical content (dimensions, canonical subgroup bases, counts,
verdicts, search hits), never output bytes, so a schema bump that keeps the
answers still passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import PHI, PHI_HAT, Instance, Query, class_bits

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(ans: dict) -> str:
    return hashlib.sha256(json.dumps(ans, sort_keys=True).encode()).hexdigest()[:16]


def in_span(span: list[int], bits: int) -> bool:
    """Membership of a class in the subgroup with canonical basis span."""
    for row in reversed(span):
        if (bits >> (row.bit_length() - 1)) & 1:
            bits ^= row
    return bits == 0


def _value(bits: int, basis: tuple[int, ...]) -> int:
    v = 1
    for j, b in enumerate(basis):
        if (bits >> j) & 1:
            v *= b
    return v


class Checker:
    """Checks answers of one workload and seed; memoises its own re-verifications."""

    def __init__(self, ts, workload: str, seed: int, golden: dict | None = None):
        self.ts = ts
        self.workload = workload
        if golden is None and GOLDEN_PATH.is_file():
            golden = json.loads(GOLDEN_PATH.read_text())
        self.golden = (golden or {}).get(workload, {}).get(str(seed), "").split()
        self.golden_checked = 0
        self._verified: dict = {}

    def check(self, index: int | None, request, ans: dict) -> list[str]:
        """Problems found in the answer to request number index (empty when correct).

        index None skips the golden comparison.
        """
        if self.workload == "search":
            problems = self._search(request, ans)
        else:
            groups = {kind: ans[kind] for kind in (PHI, PHI_HAT) if kind in ans}
            problems = self._groups(request, groups)
            if self.workload == "sweep":
                problems += [
                    f"verify {tid} failed" for tid, v in ans["verify"].items() if v == "fail"
                ]
        if index is not None and index < len(self.golden):
            self.golden_checked += 1
            if digest(ans) != self.golden[index]:
                problems.append(f"answer differs from golden: {json.dumps(ans, sort_keys=True)}")
        return problems

    def _groups(self, inst: Instance, groups: dict) -> list[str]:
        ts = self.ts
        problems = []
        basis = (-1, 2, inst.p, inst.q) + tuple(inst.d_primes)
        params = ts.validate_params(inst.epsilon, inst.p, inst.q, inst.d_primes)
        D = params.D
        for kind, g in groups.items():
            span = g["rref"]
            if g["order"] != 1 << g["dim2"] or len(span) != g["dim2"] or not g["closed"]:
                problems.append(f"{kind}: order {g['order']} is not 2^dim2 of a subgroup")
            for bits in range(1 << len(basis)):
                want = ts.membership_closed_form(params, kind, _value(bits, basis))
                if want is not None and want != in_span(span, bits):
                    problems.append(
                        f"{kind}: closed form says {want} for d={_value(bits, basis)}"
                    )
        forced = (1, inst.p * inst.q, -inst.epsilon * inst.p * D, -inst.epsilon * inst.q * D)
        for v in forced if PHI_HAT in groups else ():
            if not in_span(groups[PHI_HAT]["rref"], class_bits(v, basis)):
                problems.append(f"phi_hat misses the forced class {v}")
        return problems

    def _search(self, query: Query, ans: dict) -> list[str]:
        if ans["found"] is None:
            return []
        eps, p, q, ds = ans["found"]
        key = (query.mode, query.target, eps, p, q, tuple(ds))
        if key not in self._verified:
            ts = self.ts
            params = ts.validate_params(eps, p, q, ds)
            if query.mode == "find":
                verdict = ts.verify_theorem(params, query.target).verdict
                ok = verdict == "pass" and eps == query.epsilon
                why = f"hit re-verifies as {verdict}"
            else:
                dim2 = ts.compute_selmer(params, query.target).dim2
                ok = dim2 >= query.n and eps == query.epsilon
                why = f"hit has dim2={dim2} for target {query.n}"
            self._verified[key] = None if ok else why
        problem = self._verified[key]
        return [problem] if problem else []

