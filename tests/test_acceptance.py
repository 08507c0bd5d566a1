"""Acceptance suite: one criterion per test, one visible pass/fail line each.

The random-instance suites are deterministic (fixed seeds) and shared
between the engine-agreement and bound criteria to keep the run short.
"""

import sys
import time

import pytest

import twinselmer as ts
from twinselmer.criteria import audit_params
from twinselmer.family import build_space, enumerate_square_classes, validate_params
from twinselmer.localsolve import padic_solvable
from twinselmer.search import demonstrate_large_selmer, find_family
from twinselmer.selmer import compute_selmer
from twinselmer.theorems import rho_minus, rho_plus, rho_prime

from bruteforce_oracle import brute_padic_solvable
from helpers import random_instances
from reference_selmer import check_group_closure


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


@pytest.fixture(scope="module")
def agreement_suite():
    instances = random_instances(seed=20250810, count=100, prime_bound=300, max_n=3)
    assert {params.epsilon for params in instances} == {1, -1}
    out = []
    for params in instances:
        groups = {kind: compute_selmer(params, kind) for kind in (ts.PHI, ts.PHI_HAT)}
        out.append((params, groups))
    return out


def test_criterion_1_golden_phi(capsys):
    t0 = time.time()
    group = compute_selmer(validate_params(1, 3, 5, [61]), ts.PHI)
    elapsed = time.time() - t0
    ok = group.element_values() == [1, 61] and group.order == 2 and elapsed < 1.0
    _report("1 golden phi (3,5,61)", ok, f"elements={group.element_values()} in {elapsed:.3f}s")


def test_criterion_2_golden_phi_hat_plus(capsys):
    t0 = time.time()
    group = compute_selmer(validate_params(1, 3, 5, [41]), ts.PHI_HAT)
    elapsed = time.time() - t0
    ok = group.order == 16 and elapsed < 1.0
    _report("2 golden phi-hat (+1,3,5,41)", ok, f"order={group.order} in {elapsed:.3f}s")


def test_criterion_3_golden_phi_hat_minus(capsys):
    t0 = time.time()
    group = compute_selmer(validate_params(-1, 3, 5, [41]), ts.PHI_HAT)
    elapsed = time.time() - t0
    ok = group.order == 8 and elapsed < 1.0
    _report("3 golden phi-hat (-1,3,5,41)", ok, f"order={group.order} in {elapsed:.3f}s")


def test_criterion_4_engine_agreement(agreement_suite, capsys):
    t0 = time.time()
    rows = [row for params, groups in agreement_suite for row in audit_params(params, groups)]
    elapsed = time.time() - t0
    for row in rows[:10]:
        print("engine mismatch:", row)
    detail = f"{len(agreement_suite)} instances, {len(rows)} mismatches, {elapsed:.1f}s"
    _report("4 engine agreement", not rows and elapsed < 300, detail)


def test_criterion_5_bound_suite(agreement_suite, capsys):
    failures = []
    for params, groups in agreement_suite:
        gphi, ghat = groups[ts.PHI], groups[ts.PHI_HAT]
        n, p, q, D = params.n, params.p, params.q, params.D
        rho = rho_plus(params) if params.epsilon == 1 else rho_minus(params)
        checks = {
            "dim-phi-lower": gphi.dim2 >= rho,
            "dim-phi-hat-lower": ghat.dim2 >= rho_prime(params),
            "phi-cap": gphi.dim2 <= n + 1,
            "phi-hat-cap": ghat.dim2 <= (n + 3 if params.epsilon == 1 else n + 2),
            "forced-subset": {1, p * q, -params.epsilon * p * D, -params.epsilon * q * D}
            <= set(ghat.element_values()),
            "closure-phi": check_group_closure(params, gphi.element_values()),
            "closure-phi-hat": check_group_closure(params, ghat.element_values()),
        }
        failures += [(params.label(), name) for name, ok in checks.items() if not ok]
    _report(
        "5 bound suite",
        not failures,
        f"{len(agreement_suite)} instances, {len(failures)} failures",
    )


def test_criterion_6_oracle_completeness(capsys):
    t0 = time.time()
    instances = random_instances(seed=60660, count=20, prime_bound=50, max_n=3)
    mismatches = []
    stats = {}
    pairs = 0
    for params in instances:
        for kind in (ts.PHI, ts.PHI_HAT):
            for d in enumerate_square_classes(params):
                space = build_space(params, d, kind)
                for place in params.places()[1:]:
                    pairs += 1
                    dfs = padic_solvable(space, place).solvable
                    bfs = brute_padic_solvable(space, place, stats)
                    if dfs != bfs:
                        mismatches.append((params.label(), kind, d, place, dfs, bfs))
    elapsed = time.time() - t0
    for row in mismatches[:10]:
        print("completeness mismatch:", row)
    detail = (
        f"{pairs} space-place pairs, {len(mismatches)} mismatches,"
        f" brute depth<={stats.get('depth')}, {elapsed:.1f}s"
    )
    _report("6 oracle completeness", not mismatches and elapsed < 600, detail)


def test_criterion_7_arbitrarily_large(capsys):
    # phi_hat up to k = 16 and phi up to k = 8, for both signs; each target
    # gets its own 60 s budget and its dimension is recomputed by the oracle
    results = []
    ok = True
    for eps, kind, top in ((1, ts.PHI_HAT, 16), (-1, ts.PHI_HAT, 16), (1, ts.PHI, 8), (-1, ts.PHI, 8)):
        for k in range(1, top + 1):
            t0 = time.time()
            fam = demonstrate_large_selmer(eps, kind, k, bound=10**4, time_budget=60)
            elapsed = time.time() - t0
            tag = f"{eps:+d}/{kind}/k={k}"
            if fam is None or elapsed >= 60:
                ok = False
                results.append(f"{tag}:none({elapsed:.1f}s)")
                continue
            dim = compute_selmer(fam, kind).dim2
            ok = ok and dim >= k
            results.append(f"{tag}:dim={dim}@n={fam.n}({elapsed:.1f}s)")
    _report("7 arbitrarily large (phi_hat k <= 16, phi k <= 8)", ok, "; ".join(results))


def test_criterion_8_identity_suite(capsys):
    results = []
    ok = True
    for tid, eps, offset in (("1.5B", 1, 2), ("1.10B", -1, 1)):
        for n in (1, 2):
            fam = find_family(eps, tid, n, 10**4)
            if fam is None:
                ok = False
                results.append(f"{tid}/n={n}:none")
                continue
            gphi = compute_selmer(fam, ts.PHI)
            ghat = compute_selmer(fam, ts.PHI_HAT)
            total = gphi.dim2 + ghat.dim2 - 2
            want = 2 * n + offset
            ok = ok and total == want
            results.append(f"{tid}/n={n}:{total}={want}@{fam.label()}")
    _report("8 identity suite", ok, "; ".join(results))
