"""Seeded request streams for the benchmark workloads, and the calls that serve them.

Every workload is an endless stream of blocks.  A block holds the requests
of one draw per stratum (on `wide`, one instance per (epsilon, n) pair,
served as a phi and a phi_hat request) in an order shuffled by the seed, and a run always ends on a whole block, so every
run sees the same mix whatever its length.  Medians and p90 then move with
the program, not with the draw.  Inputs depend only on the seed and on this
file, never on the package under test.

Requests call the package through module attributes (`ts.selmer.compute_selmer`,
`ts.cli.main`, ...) so that the traced run can wrap them there.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, replace

PHI, PHI_HAT = "phi", "phi_hat"

# Claim-catalog ids per epsilon, and the search constraint sets per epsilon.
CATALOG = {
    1: ("1.1", "1.2A", "1.2B", "1.2C", "1.3", "1.4", "1.4ex", "1.5A", "1.5B"),
    -1: ("1.6", "1.7A", "1.7B", "1.8", "1.9", "1.9ex", "1.10A", "1.10B"),
}
SEARCH_IDS = {
    "1.2A": 1, "1.2B": 1, "1.2C": 1, "1.4ex": 1, "1.5A": 1, "1.5B": 1,
    "1.7A": -1, "1.7B": -1, "1.9ex": -1, "1.10A": -1, "1.10B": -1,
}
# find_family queries whose constraints push the twin pair up (p = 809 to
# 4127), so verification at l = p dominates: (catalog id, n, bound range).
# 1.2C/1.5B with n = 3 and bound < 250 reach p = 63599 and take 2-5 s each;
# they are left out to keep a run within its time budget.
TIGHT_QUERIES = (
    ("1.2C", 2, 100, 250),
    ("1.5B", 2, 100, 250),
    ("1.10B", 2, 100, 250),
    ("1.10B", 3, 100, 250),
    ("1.7B", 3, 100, 250),
    ("1.2C", 3, 275, 400),
    ("1.5B", 3, 275, 400),
)


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(3, n) if sieve[i]]


_PRIMES = _primes_below(100_003)
_PRIME_SET = set(_PRIMES)


def _odd_primes_below(n: int) -> list[int]:
    return _PRIMES[: bisect.bisect_left(_PRIMES, n)]


def _twins_below(n: int) -> list[tuple[int, int]]:
    return [(p, p + 2) for p in _odd_primes_below(n - 2) if p + 2 in _PRIME_SET]


@dataclass(frozen=True)
class Instance:
    """One curve family: epsilon, twin pair (p, q) and the D primes.

    kind names the one group a `wide` or `bigprime` request computes.
    """

    epsilon: int
    p: int
    q: int
    d_primes: tuple[int, ...]
    kind: str | None = None

    def cli_args(self) -> list[str]:
        return [
            "--epsilon", "+1" if self.epsilon == 1 else "-1",
            "--p", str(self.p), "--q", str(self.q),
            "--D", ",".join(str(d) for d in self.d_primes),
        ]


@dataclass(frozen=True)
class Query:
    """One search: find_family(epsilon, target, n, bound), or
    demonstrate_large_selmer(epsilon, target kind, n = target_dim)."""

    mode: str  # "find" | "demo"
    epsilon: int
    target: str  # catalog id for "find", kind for "demo"
    n: int
    bound: int | None = None


_STEP = (math.sqrt(5) - 1) / 2


class _Spread:
    """Evenly spread draws: the k-th draw for a key is frac(offset + k * 0.618...).

    Each key gets a seeded offset, so any run, whatever its number of blocks,
    sees that key's values spread evenly over their range; the seed moves the
    values, not their spread.  All keys share the step, so two keys move in
    lockstep: use at most one key per request, other choices of the same
    request come from the plain generator.
    """

    def __init__(self, rng):
        self.rng = rng
        self._state: dict = {}

    def __call__(self, key) -> float:
        offset, k = self._state.get(key) or (self.rng.random(), 0)
        self._state[key] = (offset, k + 1)
        return (offset + k * _STEP) % 1.0

    def pick(self, key, seq):
        return seq[int(self(key) * len(seq))]


def _instance(rng, spread, key, eps, twins, pool, n) -> Instance:
    """Twin pair spread over the sorted twin pairs, n distinct D primes drawn at random."""
    p, q = spread.pick(key, twins)
    return Instance(eps, p, q, tuple(rng.sample([r for r in pool if r not in (p, q)], n)))


def _distinct(seen, draw) -> Instance:
    """Draw until the instance is new to this stream (cache-bypassing keys)."""
    while True:
        inst = draw()
        key = (inst.epsilon, inst.p, tuple(sorted(inst.d_primes)))
        if key not in seen:
            seen.add(key)
            return inst


def _both_kinds(instances: list[Instance]) -> list[Instance]:
    """One request per group: each instance is served as a phi and a phi_hat request."""
    return [replace(inst, kind=kind) for inst in instances for kind in (PHI, PHI_HAT)]


def _sweep_blocks(rng):
    spread = _Spread(rng)
    twins = _twins_below(300)
    pool = _odd_primes_below(300)
    while True:
        yield [
            _instance(rng, spread, (eps, n), eps, twins, pool, n) for eps in (1, -1) for n in (1, 2, 3)
        ]


def _wide_blocks(rng):
    spread = _Spread(rng)
    twins = _twins_below(100)
    pool = _odd_primes_below(400)
    seen: set = set()
    while True:
        yield _both_kinds([
            _distinct(seen, lambda: _instance(rng, spread, (eps, n), eps, twins, pool, n))
            for eps in (1, -1)
            for n in (4, 5, 6)
        ])


_BIGPRIME_BINS = 5  # log-uniform D in [1e3, 1e5), one stratum per 0.4 decade


def _legendre(a: int, l: int) -> int:
    r = pow(a % l, (l - 1) // 2, l)
    return -1 if r == l - 1 else r


def _bigprime_blocks(rng):
    """Per epsilon, requests cycle through a seeded order of the 64 arithmetic
    types (p mod 8, D mod 8, (D|p), (D|q)).  The type shapes how many square
    classes reach the place D and fail there, each failure costing a full
    scan of D residues, so balancing it narrows the cost mix across seeds."""
    spread = _Spread(rng)
    twins = _twins_below(5000)
    width = 2 / _BIGPRIME_BINS
    types = [(pm, dm, sp, sq) for pm in (1, 3, 5, 7) for dm in (1, 3, 5, 7)
             for sp in (1, -1) for sq in (1, -1)]
    order = {eps: rng.sample(types, len(types)) for eps in (1, -1)}
    served = {1: 0, -1: 0}
    top = bisect.bisect_left(_PRIMES, 100_000)

    def draw(eps, k):
        pm, dm, sp, sq = order[eps][served[eps] % len(types)]
        served[eps] += 1
        p, q = rng.choice([t for t in twins if t[0] % 8 == pm])
        j = bisect.bisect_left(_PRIMES, 10 ** (3 + width * (k + spread((eps, k)))))
        while True:
            d = _PRIMES[j]
            if d % 8 == dm and _legendre(d, p) == sp and _legendre(d, q) == sq and d not in (p, q):
                return Instance(eps, p, q, (d,))
            j = j + 1 if j + 1 < top else bisect.bisect_left(_PRIMES, 10 ** (3 + width * k))

    seen: set = set()
    while True:
        yield _both_kinds([
            _distinct(seen, lambda: draw(eps, k)) for eps in (1, -1) for k in range(_BIGPRIME_BINS)
        ])


def _search_blocks(rng):
    """Every block asks each catalog id, each tight query and each (epsilon, kind)
    once; n and target_dim cycle over the blocks, bounds are spread draws."""
    spread = _Spread(rng)
    ids = sorted(SEARCH_IDS)
    n_shift = {cid: rng.randrange(3) for cid in ids}
    dim_shift = {key: rng.randrange(4) for key in ((1, PHI), (1, PHI_HAT), (-1, PHI), (-1, PHI_HAT))}
    lo, hi = math.log10(300), math.log10(2000)
    k = 0
    while True:
        block = []
        for cid in ids:
            n = 1 + (k + n_shift[cid]) % 3
            bound = int(10 ** (lo + (hi - lo) * spread(("find", cid, n))))
            block.append(Query("find", SEARCH_IDS[cid], cid, n, bound))
        for cid, n, b_lo, b_hi in TIGHT_QUERIES:
            bound = b_lo + int((b_hi - b_lo) * spread(("tight", cid, n)))
            block.append(Query("find", SEARCH_IDS[cid], cid, n, bound))
        for (eps, kind), shift in dim_shift.items():
            block.append(Query("demo", eps, kind, 2 + (k + shift) % 4))
        yield block
        k += 1


_BLOCKS = {
    "sweep": _sweep_blocks,
    "wide": _wide_blocks,
    "bigprime": _bigprime_blocks,
    "search": _search_blocks,
}
WORKLOADS = tuple(_BLOCKS)


def blocks(workload: str, seed: int):
    """Endless iterator of request blocks for one workload; same seed, same blocks."""
    rng = random.Random(f"{workload}:{seed}")
    for block in _BLOCKS[workload](rng):
        rng.shuffle(block)
        yield block


# ---- serving one request -------------------------------------------------


class RequestFailed(Exception):
    """A request that raised, hit the depth cap or exited unexpectedly."""


def _sweep_session(inst: Instance) -> list[list[str]]:
    fam = inst.cli_args()
    argvs = [
        ["compute", *fam, "--kind", kind, "--format", "json", "--seed-table"]
        for kind in (PHI, PHI_HAT)
    ]
    argvs.append(["audit", *fam, "--format", "json"])
    argvs += [["verify", "--theorem", tid, *fam, "--format", "json"] for tid in CATALOG[inst.epsilon]]
    return argvs


def serve(ts, workload: str, request):
    """Run one request against the package; return its raw output."""
    if workload == "sweep":
        outs = []
        for argv in _sweep_session(request):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ts.cli.main(argv)
            outs.append((argv[0], code, out.getvalue()))
        return outs
    if workload in ("wide", "bigprime"):
        params = ts.validate_params(request.epsilon, request.p, request.q, request.d_primes)
        return ts.selmer.compute_selmer(params, request.kind)
    notes: list[str] = []
    if request.mode == "find":
        found = ts.search.find_family(
            request.epsilon, request.target, request.n, request.bound, progress=notes.append
        )
    else:
        found = ts.search.demonstrate_large_selmer(
            request.epsilon, request.target, request.n, progress=notes.append
        )
    return found, notes


# ---- canonical answers ---------------------------------------------------


def class_bits(value: int, basis: tuple[int, ...]) -> int:
    """Exponent bits of a squarefree value on the basis (-1, 2, p, q, D_1..D_n)."""
    bits, rest = 0, value
    if rest < 0:
        bits, rest = 1, -rest
    for j, b in enumerate(basis[1:], start=1):
        if rest % b == 0:
            bits |= 1 << j
            rest //= b
    if rest != 1:
        raise RequestFailed(f"{value} is not a square class on {basis}")
    return bits


def rref(rows) -> list[int]:
    """Reduced row-echelon form over GF(2): the canonical basis of a span."""
    pivots: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            top = cur.bit_length() - 1
            if top not in pivots:
                pivots[top] = cur
                break
            cur ^= pivots[top]
    for top in sorted(pivots):
        for other in pivots:
            if other != top and (pivots[other] >> top) & 1:
                pivots[other] ^= pivots[top]
    return [pivots[top] for top in sorted(pivots)]


def group_answer(inst: Instance, dim2: int, order: int, values, complete: bool = True) -> dict:
    """Group as mathematical content: dim2, order and the canonical basis bits.

    values are all the elements (complete) or only a basis.  closed records
    whether a complete element list is exactly the span of its elements.
    """
    basis = (-1, 2, inst.p, inst.q) + tuple(inst.d_primes)
    bits = {class_bits(v, basis) for v in values}
    span = rref(bits)
    closed = not complete or len(bits) == 1 << len(span)
    return {"dim2": dim2, "order": order, "rref": span, "closed": closed}


def answer(workload: str, request, raw) -> dict:
    """Mathematical content of a raw output, independent of output formats."""
    if workload == "sweep":
        out = {"verify": {}}
        for (command, code, text), argv in zip(raw, _sweep_session(request)):
            try:
                payload = json.loads(text)
            except ValueError:
                raise RequestFailed(f"{command} exited {code} without JSON output")
            if command == "compute":
                kind = argv[argv.index("--kind") + 1]
                complete = "elements" in payload
                values = payload["elements"] if complete else payload["basis"]
                out[kind] = group_answer(
                    request, payload["dim2"], payload["order"], values, complete
                )
                expected = 0
            elif command == "audit":
                out["audit"] = payload["count"]
                expected = 0 if payload["count"] == 0 else 1
            else:
                out["verify"][payload["theorem"]] = payload["verdict"]
                expected = 1 if payload["verdict"] == "fail" else 0
            if code != expected:
                raise RequestFailed(f"{command} exited {code}, expected {expected}")
        return out
    if workload in ("wide", "bigprime"):
        return {raw.kind: group_answer(request, raw.dim2, raw.order, raw.element_values())}
    found, _ = raw
    params = None
    if found is not None:
        params = [found.epsilon, found.p, found.q, list(found.d_primes)]
    return {"found": params}


def candidates(notes: list[str]) -> int:
    """Candidate sets tested, summed over the search's progress lines."""
    total = 0
    for line in notes:
        _, sep, tail = line.rpartition(" after ")
        if sep and tail.endswith(" candidate sets"):
            total += int(tail.split()[0])
    return total
