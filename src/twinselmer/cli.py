"""Command-line front end: compute groups, verify catalog claims, search, audit engines."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache, partial

from .criteria import audit_params
from .family import PHI, PHI_HAT, InvalidParamsError, validate_params
from .localsolve import OracleUndecidedError
from .search import CONSTRAINTS, ClaimFailedError, demonstrate_large_selmer, find_family
from .selmer import compute_selmer, to_jsonable
from .theorems import THEOREM_IDS, verify_theorem

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3

CSV_VERSION = "# twinselmer-csv v3"


def _parse_epsilon(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"epsilon must be +1 or -1, got {text!r}")


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twinselmer",
        description="Descent Selmer groups of twin-prime curve families: "
        "compute, verify catalog claims, search instances, audit the two engines.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--config", help="key=value file overriding flags")

    def add_family(sp):
        sp.add_argument("--epsilon", type=_parse_epsilon, help="+1 or -1")
        sp.add_argument("--p", type=int, help="smaller twin prime")
        sp.add_argument("--q", type=int, help="larger twin prime (p + 2)")
        sp.add_argument("--D", dest="D", type=_parse_primes,
                        help="comma-separated prime factors of D (pre-factored)")

    sp = sub.add_parser("compute", help="compute one Selmer group")
    add_family(sp)
    sp.add_argument("--kind", choices=(PHI, PHI_HAT), default=PHI)
    sp.add_argument("--seed-table", dest="seed_table", action="store_true",
                    help="emit the full per-place verdict table")
    sp.add_argument("--elements", action="store_true",
                    help="also list all 2^dim2 members (default: the basis only)")
    add_common(sp)

    sp = sub.add_parser("verify", help="verify one catalog claim on an instance")
    add_family(sp)
    sp.add_argument("--theorem", choices=THEOREM_IDS, required=False)
    sp.add_argument("--strict", action="store_true",
                    help="treat not-applicable as failure for the exit status")
    add_common(sp)

    sp = sub.add_parser("search", help="find instances satisfying catalog hypotheses")
    sp.add_argument("--epsilon", type=_parse_epsilon)
    sp.add_argument("--corollary", choices=sorted(CONSTRAINTS),
                    help="catalog entry whose hypotheses to sieve for")
    sp.add_argument("--n", type=int, default=1, help="number of D primes")
    sp.add_argument("--target-dim", dest="target_dim", type=int,
                    help="instead: stack primes until dim2 >= this value")
    sp.add_argument("--kind", choices=(PHI, PHI_HAT), default=PHI_HAT,
                    help="group to grow when using --target-dim")
    sp.add_argument("--bound", type=int, default=10**4, help="largest allowed D prime")
    sp.add_argument("--time-budget", dest="time_budget", type=float,
                    help="seconds before the search gives up (default: none)")
    add_common(sp)

    sp = sub.add_parser("audit", help="closed-form criteria vs oracle discrepancy table")
    add_family(sp)
    add_common(sp)

    return ap


# argparse trees are costly to build, and an in-process session calls main many times
_parser = cache(build_parser)


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Load key=value pairs; per the interface contract they override flags.

    Each value passes the same type and choices checks as its flag.
    """
    commands = next(a for a in parser._actions if a.dest == "command").choices
    flags = {
        a.dest: a
        for a in commands[args.command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    with open(args.config, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{args.config}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            flag = flags.get(key)
            if flag is None:
                raise ValueError(f"{args.config}:{lineno}: unknown key {key!r}")
            if flag.nargs == 0:  # store_true
                setattr(args, key, value.lower() in ("1", "true", "yes"))
                continue
            try:
                parsed = flag.type(value) if flag.type else value
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"{args.config}:{lineno}: {key}: {exc}") from None
            if flag.choices is not None and parsed not in flag.choices:
                choices = ", ".join(flag.choices)
                raise ValueError(f"{args.config}:{lineno}: {key}: invalid choice {parsed!r}"
                                 f" (choose from {choices})")
            setattr(args, key, parsed)


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_csv(tag: str, header: list[str], rows: list[list]) -> None:
    print(f"{CSV_VERSION} {tag}")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _params_from(args) -> "FamilyParams":
    missing = [name for name in ("epsilon", "p", "q", "D") if getattr(args, name) is None]
    if missing:
        raise InvalidParamsError(f"missing required flags: {', '.join('--' + m for m in missing)}")
    return validate_params(args.epsilon, args.p, args.q, args.D)


_VERDICT_HEADER = ["place", "class", "d", "solvable", "search_depth", "witness"]


def _verdict_rows(group) -> list[list]:
    """One _VERDICT_HEADER row per local_images() entry; the witness is sorted JSON, or ""."""
    rows = []
    for (place, _), entry in group.local_images().items():
        verdict = entry.verdict
        witness = ""
        if verdict.witness is not None:
            witness = json.dumps({k: str(v) for k, v in verdict.witness.items()}, sort_keys=True)
        rows.append([place, entry.label, entry.d, verdict.solvable, verdict.search_depth, witness])
    return rows


def _cmd_compute(args) -> int:
    params = _params_from(args)
    group = compute_selmer(params, args.kind)
    if args.format == "json":
        payload = to_jsonable(group, include_table=args.seed_table, include_elements=args.elements)
        print(_canonical_json(payload), end="")
    elif args.format == "csv":
        if args.seed_table:
            _emit_csv("verdicts", _VERDICT_HEADER, _verdict_rows(group))
        else:
            values = group.element_values() if args.elements else group.basis
            in_basis = set(group.basis)
            _emit_csv("selmer", ["d", "basis"], [[v, v in in_basis] for v in values])
    else:
        print(f"{group.kind} Selmer group for {params.label()}")
        basis = ", ".join(map(str, group.basis))
        print(f"dim2={group.dim2}, order={group.order}, basis={{{basis}}}")
        if args.seed_table:
            for row in _verdict_rows(group):
                print("  " + " ".join(f"{k}={v}" for k, v in zip(_VERDICT_HEADER, row)))
        if args.elements:
            values = ", ".join(str(v) for v in group.element_values())
            print(f"elements={{{values}}}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.theorem is None:
        raise InvalidParamsError("missing required flag: --theorem")
    params = _params_from(args)
    report = verify_theorem(params, args.theorem)
    if args.format == "json":
        print(_canonical_json(report.as_dict()), end="")
    elif args.format == "csv":
        _emit_csv(
            "verify",
            ["theorem", "verdict", "hypotheses_hold", "branch", "claimed", "observed"],
            [[
                report.theorem_id,
                report.verdict,
                report.hypotheses_hold,
                report.branch or "",
                report.claimed,
                json.dumps(report.observed, sort_keys=True),
            ]],
        )
    else:
        print(f"theorem {report.theorem_id} on {params.label()}: {report.verdict}")
        if report.verdict != "not-applicable":
            print(f"  claimed:  {report.claimed}")
            print(f"  observed: {json.dumps(report.observed, sort_keys=True)}")
    if report.verdict == "pass":
        return EXIT_OK
    if report.verdict == "not-applicable":
        return EXIT_FAILURE if args.strict else EXIT_OK
    return EXIT_FAILURE


def _cmd_search(args) -> int:
    progress = lambda msg: print(f"search: {msg}", file=sys.stderr)  # noqa: E731
    if args.epsilon is None:
        raise InvalidParamsError("missing required flag: --epsilon")
    if args.target_dim is not None:
        run = partial(demonstrate_large_selmer, args.epsilon, args.kind, args.target_dim,
                      bound=args.bound, time_budget=args.time_budget, progress=progress)
        query = {"mode": "target-dim", "kind": args.kind, "target_dim": args.target_dim}
    elif args.corollary is not None:
        run = partial(find_family, args.epsilon, args.corollary, args.n, args.bound,
                      time_budget=args.time_budget, progress=progress)
        query = {"mode": "corollary", "corollary": args.corollary, "n": args.n}
    else:
        raise InvalidParamsError("search needs --corollary or --target-dim")
    query.update({"epsilon": args.epsilon, "bound": args.bound})
    failure = None
    try:
        found = run()
    except ClaimFailedError as exc:  # printed like a hit, then reported on stderr
        found, failure = exc.report.params, exc
    verdict = "fail" if failure is not None else "pass" if found is not None else None
    payload = {
        "schema": "twinselmer/search-v2",
        "query": query,
        "found": found is not None,
        "verdict": verdict,
        "params": found.as_dict() if found is not None else None,
    }
    if args.format == "json":
        print(_canonical_json(payload), end="")
    elif args.format == "csv":
        row = [found is not None]
        row += [found.epsilon, found.p, found.q, ",".join(map(str, found.d_primes))] if found else ["", "", "", ""]
        _emit_csv("search", ["found", "epsilon", "p", "q", "D", "verdict"], [row + [verdict or ""]])
    elif failure is not None:
        print(f"{found.label()}: fail")
    else:
        print(found.label() if found is not None else "none")
    if failure is not None:
        print(f"counterexample: {failure}", file=sys.stderr)
    return EXIT_OK if verdict == "pass" else EXIT_FAILURE


def _cmd_audit(args) -> int:
    params = _params_from(args)
    rows = audit_params(params)
    payload = {
        "schema": "twinselmer/audit-v2",
        "params": params.as_dict(),
        "count": len(rows),
        "discrepancies": rows,
    }
    if args.format == "json":
        print(_canonical_json(payload), end="")
    elif args.format == "csv":
        _emit_csv(
            "audit",
            ["check", "kind", "d", "place", "rule", "closed_form", "oracle"],
            [[r["check"], r["kind"], r["d"], r["place"], r["rule"], r["closed_form"], r["oracle"]] for r in rows],
        )
    else:
        print(f"{len(rows)} discrepancies for {params.label()}")
        for r in rows:
            print(
                f"  {r['check']} kind={r['kind']} d={r['d']} place={r['place']}"
                f" rule={r['rule']} closed_form={r['closed_form']} oracle={r['oracle']}"
            )
    return EXIT_OK if not rows else EXIT_FAILURE


_HANDLERS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    """Run one command and return its exit code (EXIT_OK .. EXIT_UNDECIDED).

    argv defaults to sys.argv[1:].  The argument parser is built once per
    process and reused, so an in-process session pays for it once.  Usage
    errors from argparse exit with status 2 via SystemExit.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args, parser)
        return _HANDLERS[args.command](args)
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleUndecidedError as exc:
        print(f"error: oracle undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
