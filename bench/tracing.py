"""Traced runs: spans around the package's layer boundaries, and the per-layer metrics.

The tracer replaces public entry points at the module attributes through
which the layers call each other (a module's own global lookups go through
the same attributes), records one span per call while a request is open,
and restores every attribute when it is uninstalled.  Spans live in flat
arrays and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its child spans;
spans nest strictly because the client is single-threaded.  Self times of
all spans of a request add up to the request's root span.
"""

from __future__ import annotations

import gzip
import json
import math
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LOCAL_CLASSES = ("real", "l2", "odd_small", "odd_large")
ODD_LARGE_FROM = 1000
ROOT = "bench.request"

# wrapped attribute -> layer; local_verdict spans take the layer of their place
SITES = {
    "cli.main": "cli",
    "cli.audit_params": "criteria",
    "criteria.closed_form_local": "criteria",
    "cli.verify_theorem": "theorems",
    "search.verify_theorem": "theorems",
    "cli.find_family": "search",
    "cli.demonstrate_large_selmer": "search",
    "search.find_family": "search",
    "search.demonstrate_large_selmer": "search",
    "selmer.compute_selmer": "selmer",
    "theorems.compute_selmer": "selmer",
    "search.compute_selmer": "selmer",
    "cli.compute_selmer": "selmer",
    "selmer.build_space": "family",
    "selmer.enumerate_square_classes": "family",
    "selmer.local_verdict": "localsolve",
    "criteria.local_verdict": "localsolve",
}
COUNTED = ("criteria.legendre_symbol", "theorems.legendre_symbol", "search.legendre_symbol")
N_RANGE = range(1, 7)  # selmer.group_ms.n<k>
DECADES = range(1, 6)  # selmer.group_ms.l1e<k>: largest prime in [10^k, 10^(k+1))


def local_class(place) -> str:
    if place == "inf":
        return "real"
    if place == 2:
        return "l2"
    return "odd_small" if place < ODD_LARGE_FROM else "odd_large"


def layer_of(name: str) -> str:
    site, _, tag = name.partition(":")
    if site == ROOT:
        return "bench"
    return f"localsolve.{tag}" if tag else SITES[site]


def self_times(start, end, parent) -> list[float]:
    """Per-span duration minus the summed durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Tracer:
    """Span recorder for one traced run; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.request = -1  # id of the open request, -1 while idle
        self.counts: Counter = Counter()
        self.depth_max: Counter = Counter()
        self.groups: list[tuple] = []  # (span, params, kind, order)
        self._saved: list[tuple] = []

    # ---- spans ----

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self._root = self._open(ROOT)

    def end_request(self) -> None:
        self._close(self._root)
        self.request = -1

    # ---- wrapping ----

    def _wrap(self, site: str, fn, on_result=None, by_place=False):
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer.request < 0:
                return fn(*args, **kwargs)
            name = f"{site}:{local_class(args[1])}" if by_place else site
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if by_place and type(exc).__name__ == "OracleUndecidedError":
                    tracer.counts["localsolve.undecided"] += 1
                raise
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(idx, name, args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _counted(self, counter: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer.request >= 0:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _on_local(self, idx, name, args, verdict):
        cls = name.rpartition(":")[2]
        if verdict.search_depth > self.depth_max[cls]:
            self.depth_max[cls] = verdict.search_depth

    def _on_group(self, idx, name, args, group):
        self.groups.append((idx, args[0], args[1], group.order))

    def _on_enumerate(self, idx, name, args, classes):
        self.counts["selmer.classes_enumerated"] += len(classes)

    def _on_closed_form(self, idx, name, args, verdict):
        self.counts["closed_form.applicable"] += bool(verdict.applicable)

    def _on_audit(self, idx, name, args, rows):
        self.counts["criteria.discrepancies"] += len(rows)

    def _on_verify(self, idx, name, args, report):
        self.counts[f"verdict.{report.verdict}"] += 1
        if name == "search.verify_theorem" and report.verdict != "not-applicable":
            self.counts["search.hits"] += 1

    def note_output(self, output_bytes: int, candidates: int) -> None:
        """Counts the client sees outside the package: CLI output and search progress."""
        self.counts["cli.output_bytes"] += output_bytes
        self.counts["search.candidates"] += candidates

    def install(self, ts) -> None:
        """Wrap every site; the package's submodules are attributes of ts."""
        hooks = {
            "local_verdict": self._on_local,
            "compute_selmer": self._on_group,
            "enumerate_square_classes": self._on_enumerate,
            "closed_form_local": self._on_closed_form,
            "audit_params": self._on_audit,
            "verify_theorem": self._on_verify,
        }
        for site in (*SITES, *COUNTED):
            mod_name, attr = site.split(".")
            module = getattr(ts, mod_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if site in SITES:
                wrapped = self._wrap(site, fn, hooks.get(attr), by_place=attr == "local_verdict")
            else:
                wrapped = self._counted("arith.legendre.calls", fn)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # ---- output ----

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "request"]}) + "\n")
            for i in range(len(self.name)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name[i]],
                            round(self.start[i] - t0, 9),
                            round(self.end[i] - t0, 9),
                            self.parent[i],
                            self.req[i],
                        ]
                    )
                    + "\n"
                )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, from the recorded spans and counts."""
        names = [self.names[i] for i in self.name]
        layers = [layer_of(n) for n in names]
        own = self_times(self.start, self.end, self.parent)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for layer, t in zip(layers, own):
            self_s[layer] += t
            calls[layer] += 1
        sites = Counter(n.partition(":")[0] for n in names)
        c = self.counts
        out: dict[str, float] = {}

        for cls in LOCAL_CLASSES:
            layer = f"localsolve.{cls}"
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.depth_max"] = self.depth_max[cls]
        out["localsolve.undecided"] = c["localsolve.undecided"]

        groups = len(self.groups)
        out["selmer.groups"] = groups
        out["selmer.self_s"] = self_s["selmer"]
        out["selmer.oracle_calls_per_group"] = _ratio(sites["selmer.local_verdict"], groups)
        out["selmer.member_frac"] = _ratio(
            sum(order for *_, order in self.groups), c["selmer.classes_enumerated"]
        )
        out["selmer.distinct_frac"] = _ratio(
            len({(params, kind) for _, params, kind, _ in self.groups}), groups
        )
        by_n: dict[int, list[float]] = defaultdict(list)
        by_decade: dict[int, list[float]] = defaultdict(list)
        for idx, params, _, _ in self.groups:
            ms = (self.end[idx] - self.start[idx]) * 1e3
            by_n[len(params.d_primes)].append(ms)
            largest = max((params.p, params.q) + tuple(params.d_primes))
            by_decade[int(math.log10(largest))].append(ms)
        for k in N_RANGE:
            out[f"selmer.group_ms.n{k}"] = _mean(by_n[k])
        for k in DECADES:
            out[f"selmer.group_ms.l1e{k}"] = _mean(by_decade[k])

        out["family.build_space.calls"] = sites["selmer.build_space"]
        out["family.self_s"] = self_s["family"]

        closed_form_calls = sites["criteria.closed_form_local"]
        out["criteria.self_s"] = self_s["criteria"]
        out["criteria.oracle_recalls"] = sites["criteria.local_verdict"]
        out["criteria.closed_form.calls"] = closed_form_calls
        out["criteria.closed_form.applicable_frac"] = _ratio(
            c["closed_form.applicable"], closed_form_calls
        )
        out["criteria.discrepancies"] = c["criteria.discrepancies"]

        verify_spans = [i for i, layer in enumerate(layers) if layer == "theorems"]
        verify_set = set(verify_spans)
        under_verify = sum(1 for idx, *_ in self.groups if self.parent[idx] in verify_set)
        out["theorems.self_s"] = self_s["theorems"]
        out["theorems.verify.calls"] = len(verify_spans)
        out["theorems.groups_per_verify"] = _ratio(under_verify, len(verify_spans))
        out["theorems.verdict.pass"] = c["verdict.pass"]
        out["theorems.verdict.fail"] = c["verdict.fail"]
        out["theorems.verdict.na"] = c["verdict.not-applicable"]

        out["search.self_s"] = self_s["search"]
        out["search.queries"] = sum(
            1
            for i, layer in enumerate(layers)
            if layer == "search" and (self.parent[i] < 0 or layers[self.parent[i]] != "search")
        )
        out["search.candidates"] = c["search.candidates"]
        out["search.hit_frac"] = _ratio(c["search.hits"], sites["search.verify_theorem"])

        out["cli.invocations"] = sites["cli.main"]
        out["cli.self_s"] = self_s["cli"]
        out["cli.output_bytes"] = c["cli.output_bytes"]

        out["arith.legendre.calls"] = c["arith.legendre.calls"]
        out["bench.unattributed_s"] = self_s["bench"]
        out["bench.traced_s"] = sum(
            self.end[i] - self.start[i] for i, layer in enumerate(layers) if layer == "bench"
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
