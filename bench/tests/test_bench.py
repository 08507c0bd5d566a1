"""Tests of the benchmark itself: generators, checks, tracing and self-time arithmetic.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from array import array
from itertools import islice

import pytest

import twinselmer as ts
import twinselmer.cli  # noqa: F401  (the benchmark drives ts.cli)
from checks import Checker, digest
from run import BENCH, UNITS, per_layer_unit, timed
from tracing import SITES, Tracer, self_times
from workloads import (
    CATALOG,
    PHI,
    PHI_HAT,
    SEARCH_IDS,
    WORKLOADS,
    Instance,
    Query,
    answer,
    blocks,
)


def first_blocks(workload, seed, count=3):
    return list(islice(blocks(workload, seed), count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_deterministic_and_valid(workload):
    for seed in (0, 7):
        got = first_blocks(workload, seed)
        assert got == first_blocks(workload, seed)
        assert got != first_blocks(workload, seed + 1)
        assert len({len(block) for block in got}) == 1
        for request in (r for block in got for r in block):
            if isinstance(request, Instance):
                params = ts.validate_params(request.epsilon, request.p, request.q, request.d_primes)
                assert params.d_primes == request.d_primes
            else:
                assert isinstance(request, Query) and request.n >= 1
                if request.mode == "find":
                    assert SEARCH_IDS[request.target] == request.epsilon
                    assert request.bound >= 100
                else:
                    assert request.target in (PHI, PHI_HAT) and 2 <= request.n <= 5


@pytest.mark.parametrize("workload", ["wide", "bigprime"])
def test_instance_streams_never_repeat(workload):
    requests = [r for block in first_blocks(workload, 3, count=20) for r in block]
    keys = [(r.epsilon, r.p, tuple(sorted(r.d_primes)), r.kind) for r in requests]
    assert len(keys) == len(set(keys))
    assert sum(r.kind == PHI for r in requests) == sum(r.kind == PHI_HAT for r in requests)


def test_tables_match_package():
    assert sorted(CATALOG[1] + CATALOG[-1]) == sorted(ts.THEOREM_IDS)
    assert SEARCH_IDS == {cid: cs.epsilon for cid, cs in ts.search.CONSTRAINTS.items()}


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {k: v for k, v in UNITS.items() if k != "fail_frac"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = list(Tracer().metrics()) + ["bench.trace_overhead_frac"]
    assert per_layer == {name: per_layer_unit(name) for name in reported}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_times_on_synthetic_tree():
    #  root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_on_synthetic_spans():
    tracer = Tracer()
    spans = [  # name, start, end, parent
        ("bench.request", 0.0, 10.0, -1),
        ("selmer.compute_selmer", 1.0, 9.0, 0),
        ("selmer.local_verdict:l2", 2.0, 5.0, 1),
        ("selmer.local_verdict:odd_large", 5.0, 6.0, 1),
        ("selmer.build_space", 6.5, 7.0, 1),
    ]
    for name, s, e, p in spans:
        tracer.names.append(name)
        tracer.name.append(len(tracer.names) - 1)
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
        tracer.req.append(0)
    m = tracer.metrics()
    assert m["localsolve.l2.self_s"] == 3.0
    assert m["localsolve.odd_large.self_s"] == 1.0
    assert m["family.self_s"] == 0.5
    assert m["selmer.self_s"] == 3.5
    assert m["bench.unattributed_s"] == 2.0
    self_total = sum(v for k, v in m.items() if k.endswith("self_s"))
    assert self_total + m["bench.unattributed_s"] == m["bench.traced_s"] == 10.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_answers_agree(workload):
    requests = next(blocks(workload, 0))[:3]
    originals = {site: getattr(getattr(ts, site.split(".")[0]), site.split(".")[1]) for site in SITES}
    checker = Checker(ts, workload, 0, golden={})
    plain = []
    for request in requests:
        _, raw, err = timed(ts, workload, request)
        assert err is None
        ans = answer(workload, request, raw)
        assert checker.check(None, request, ans) == []
        plain.append(digest(ans))

    tracer = Tracer()
    tracer.install(ts)
    try:
        traced = []
        for index, request in enumerate(requests):
            tracer.begin_request(index)
            _, raw, err = timed(ts, workload, request)
            tracer.end_request()
            assert err is None
            traced.append(digest(answer(workload, request, raw)))
    finally:
        tracer.uninstall()
    assert traced == plain
    for site, fn in originals.items():
        module, attr = site.split(".")
        assert getattr(getattr(ts, module), attr) is fn
    m = tracer.metrics()
    layers = sum(v for k, v in m.items() if k.endswith("self_s"))
    assert layers + m["bench.unattributed_s"] == pytest.approx(m["bench.traced_s"], rel=1e-9)
    assert len(tracer.start) > len(requests)


def test_checks_catch_wrong_answers():
    inst = Instance(1, 3, 5, (41,), PHI_HAT)
    checker = Checker(ts, "bigprime", 0, golden={})
    _, raw, err = timed(ts, "bigprime", inst)
    ans = answer("bigprime", inst, raw)
    assert checker.check(None, inst, ans) == []
    wrong = json.loads(json.dumps(ans))
    wrong[PHI_HAT]["rref"] = wrong[PHI_HAT]["rref"][:-1]
    wrong[PHI_HAT]["dim2"] -= 1
    wrong[PHI_HAT]["order"] //= 2
    assert checker.check(None, inst, wrong)
    golden = Checker(ts, "bigprime", 0, golden={"bigprime": {"0": digest(ans)}})
    assert golden.check(0, inst, ans) == [] and golden.golden_checked == 1
    assert golden.check(0, inst, wrong)


def test_refuses_to_run_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
