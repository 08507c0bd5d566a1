"""Benchmark of the twinselmer package: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload wide --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src, nothing is
installed.  With --trace 0 the client serves the workload's seeded request
stream for at least --seconds of busy time (and at least MIN_REQUESTS
requests, ending on a whole block) and reports the end-to-end metrics.  With
--trace 1 it serves a fixed prefix of the stream twice, untraced and then
traced, and reports the per-layer metrics and the tracing overhead.  Every
answer is checked after its request, outside the timing.  The last line of
standard output is one JSON object; a result file with the host record and
the span dump of a traced run go to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter

from checks import Checker, digest
from tracing import Tracer
from workloads import WORKLOADS, RequestFailed, answer, blocks, candidates, serve

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
SETUP_REPEATS = 11
# Blocks served by a traced run: 5-7 s of untraced work per pass at this commit.
TRACE_BLOCKS = {"sweep": 8, "wide": 4, "bigprime": 4, "search": 4}
WARM_UP_SEED = -1

# Fresh-interpreter set-up per workload: import the package and finish its
# lazy set-up.  sweep runs the CLI itself as a subprocess; search builds the
# 10^6 twin-pair table.
SETUP_ARGV = {
    "sweep": ["-m", "twinselmer.cli", "compute", "--epsilon", "+1", "--p", "3",
              "--q", "5", "--D", "61", "--format", "json"],
    "wide": ["-c", "import twinselmer"],
    "bigprime": ["-c", "import twinselmer"],
    "search": ["-c", "import twinselmer; twinselmer.find_family(1, '1.2A', 1, 100)"],
}

UNITS = {
    "setup_s": "s", "req_per_s": "1/s", "req_ms.p50": "ms", "req_ms.p90": "ms",
    "peak_rss_mb": "MB", "fail_frac": "frac",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "group_ms" in name:
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def load_package():
    """Import twinselmer from ./src and nowhere else."""
    if not (SRC / "twinselmer" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import twinselmer

    if not Path(twinselmer.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: twinselmer imported from {twinselmer.__file__}, not {SRC}")
    for sub in ("cli", "criteria", "search", "selmer", "theorems"):
        importlib.import_module(f"twinselmer.{sub}")
    return twinselmer


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def measure_setup(workload: str) -> float:
    """Median wall time of fresh interpreters doing the workload's set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, *SETUP_ARGV[workload]]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one only warms the file cache
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up {argv} exited {proc.returncode}: {proc.stderr[-500:]!r}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def timed(ts, workload: str, request):
    """Serve one request; return (seconds, raw output or None, error or None)."""
    t0 = perf_counter()
    try:
        raw, err = serve(ts, workload, request), None
    except Exception:  # a failing request is counted, the client keeps going
        raw, err = None, traceback.format_exc(limit=3)
    return perf_counter() - t0, raw, err


def judge(checker: Checker, index: int | None, workload: str, request, raw, err):
    """Answer and problems of one served request (problems empty when correct)."""
    if err is not None:
        return None, [err]
    try:
        ans = answer(workload, request, raw)
    except (RequestFailed, KeyError, TypeError, ValueError) as exc:
        return None, [f"{type(exc).__name__}: {exc}"]
    return ans, checker.check(index, request, ans)


def warm_up(ts, workload: str) -> None:
    """Serve one request of a separate stream, untimed: lazy set-up and first-call costs."""
    request = next(blocks(workload, WARM_UP_SEED))[0]
    serve(ts, workload, request)


def end_to_end_run(ts, workload: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload)
    warm_up(ts, workload)
    checker = Checker(ts, workload, seed)
    latencies: list[float] = []
    failures: list[dict] = []
    busy = 0.0
    for block in blocks(workload, seed):
        for request in block:
            index = len(latencies)
            dt, raw, err = timed(ts, workload, request)
            latencies.append(dt)
            busy += dt
            _, problems = judge(checker, index, workload, request, raw, err)
            if problems:
                failures.append({"index": index, "request": repr(request), "problems": problems})
        if busy >= seconds and len(latencies) >= MIN_REQUESTS:
            break
    n = len(latencies)
    metrics = {
        "setup_s": setup_s,
        "req_per_s": n / busy,
        "req_ms.p50": statistics.median(latencies) * 1e3,
        "req_ms.p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
        "extra": {"fail_frac": len(failures) / n, "busy_s": busy},
        "golden_checked": checker.golden_checked,
        "failures": failures,
        "latency_ms": [round(dt * 1e3, 3) for dt in latencies],
    }


def traced_run(ts, workload: str, seed: int) -> dict:
    warm_up(ts, workload)
    requests = [r for block in islice(blocks(workload, seed), TRACE_BLOCKS[workload]) for r in block]
    checker = Checker(ts, workload, seed)
    failures: list[dict] = []
    plain_answers = []
    plain_s = 0.0
    for index, request in enumerate(requests):
        dt, raw, err = timed(ts, workload, request)
        plain_s += dt
        ans, problems = judge(checker, index, workload, request, raw, err)
        plain_answers.append(ans)
        if problems:
            failures.append({"index": index, "request": repr(request), "problems": problems})

    tracer = Tracer()
    tracer.install(ts)
    traced_s = 0.0
    try:
        for index, request in enumerate(requests):
            tracer.begin_request(index)
            try:
                dt, raw, err = timed(ts, workload, request)
            finally:
                tracer.end_request()
            traced_s += dt
            if raw is not None and workload == "sweep":
                tracer.note_output(sum(len(text.encode()) for _, _, text in raw), 0)
            elif raw is not None and workload == "search":
                tracer.note_output(0, candidates(raw[1]))
            ans, problems = judge(checker, None, workload, request, raw, err)
            if ans is not None and plain_answers[index] is not None and digest(ans) != digest(plain_answers[index]):
                problems.append("traced answer differs from the untraced one")
            if problems:
                failures.append({"index": index, "traced": True, "request": repr(request), "problems": problems})
    finally:
        tracer.uninstall()

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
    metrics = tracer.metrics()
    metrics["bench.trace_overhead_frac"] = traced_s / plain_s - 1
    attempted = 2 * len(requests)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "extra": {"fail_frac": len(failures) / attempted, "untraced_s": plain_s,
                  "spans": len(tracer.start)},
        "golden_checked": checker.golden_checked,
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ts = load_package()
    host = host_record(args.workload, args.seed)
    print("host: " + json.dumps(host, sort_keys=True))
    if args.trace:
        result = traced_run(ts, args.workload, args.seed)
        units = {name: per_layer_unit(name) for name in result["metrics"]}
    else:
        result = end_to_end_run(ts, args.workload, args.seed, args.seconds)
        units = UNITS

    OUT.mkdir(exist_ok=True)
    record = dict(result, host=host, args=vars(args))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    print(f"workload={args.workload} seed={args.seed} attempted={result['attempted']} "
          f"failed={result['failed']} golden_checked={result['golden_checked']}")
    for failure in result["failures"][:5]:
        print("FAILED: " + json.dumps(failure, default=str)[:2000])
    for name, value in {**result["metrics"], **result["extra"]}.items():
        print(f"  {name:40s} {value:.6g} {units.get(name, per_layer_unit(name))}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
