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
from .search import ClaimFailedError, demonstrate_large_selmer, find_family
from .selmer import compute_selmer, to_jsonable
from .theorems import CONSTRAINTS, THEOREM_IDS, verify_theorem

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3

CSV_VERSION = "# twinselmer-csv v4"


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
    sp.add_argument("--n", type=int, help="number of D primes with --corollary (default: 1)")
    sp.add_argument("--target-dim", dest="target_dim", type=int,
                    help="instead: stack primes until dim2 >= this value")
    sp.add_argument("--kind", choices=(PHI, PHI_HAT),
                    help=f"group to grow with --target-dim (default: {PHI_HAT})")
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


def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser, built with and kept by the cached top-level one."""
    return next(a for a in _parser()._actions if a.dest == "command").choices


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Load key=value pairs into args, parsed by the command's parser; they override flags.

    Each value passes the same type and choices checks as its flag.
    """
    flags = {
        a.dest: a
        for a in parser._actions
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
                if value.lower() not in _BOOLEANS:
                    raise ValueError(f"{args.config}:{lineno}: {key}: expected a boolean")
                setattr(args, key, _BOOLEANS[value.lower()])
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
    """json.dumps(payload, sort_keys=True, indent=2) + "\\n", written in one pass."""
    return _json_value(payload, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    """One value as sorted, two-space-indented JSON; newline is "\\n" plus its indent.

    The exact types a payload holds are written here; anything else (a float,
    a subclass, a dict with non-str keys) is left to json.dumps, whose output
    this matches byte for byte.
    """
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in value]) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        try:
            items = [_json_string(k) + ": " + _json_value(v, inner) for k, v in sorted(value.items())]
        except TypeError:  # a key that is not a str: json.dumps converts or refuses it
            pass
        else:
            return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)


_json_string = json.encoder.encode_basestring_ascii


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
    for verdict in group.local_images().values():
        witness = ""
        if verdict.witness is not None:
            witness = json.dumps({k: str(v) for k, v in verdict.witness.items()}, sort_keys=True)
        rows.append([verdict.place, verdict.label, verdict.d, verdict.solvable,
                     verdict.search_depth, witness])
    return rows


def _cmd_compute(args) -> int:
    params = _params_from(args)
    group = compute_selmer(params, args.kind)
    if args.format == "json":
        payload = to_jsonable(group, include_table=args.seed_table, include_elements=args.elements)
        print(_canonical_json(payload), end="")
    elif args.format == "csv":
        values = group.element_values() if args.elements else group.basis
        in_basis = set(group.basis)
        _emit_csv("selmer", ["d", "basis"], [[v, v in in_basis] for v in values])
        if args.seed_table:
            _emit_csv("verdicts", _VERDICT_HEADER, _verdict_rows(group))
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
    if args.target_dim is not None and args.corollary is not None:
        raise InvalidParamsError("search takes --corollary or --target-dim, not both")
    if args.target_dim is not None:
        if args.n is not None:
            raise InvalidParamsError("search --target-dim derives n from the target; drop --n")
        kind = PHI_HAT if args.kind is None else args.kind
        run = partial(demonstrate_large_selmer, args.epsilon, kind, args.target_dim,
                      bound=args.bound, time_budget=args.time_budget, progress=progress)
        query = {"mode": "target-dim", "kind": kind, "target_dim": args.target_dim}
    elif args.corollary is not None:
        if args.kind is not None:
            raise InvalidParamsError("search --corollary fixes the groups by its claim; drop --kind")
        n = 1 if args.n is None else args.n
        run = partial(find_family, args.epsilon, args.corollary, n, args.bound,
                      time_budget=args.time_budget, progress=progress)
        query = {"mode": "corollary", "corollary": args.corollary, "n": n}
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

    argv defaults to sys.argv[1:].  The argument parsers are built once per
    process and reused, so an in-process session pays for them once.  When
    argv starts with a command name, the rest goes straight to that
    command's own parser; the top-level parser sees only argv without one
    (-h, no command, an unknown command).  Usage errors from argparse exit
    with status 2 via SystemExit, named by the parser that found them.
    """
    if argv is None:
        argv = sys.argv[1:]
    commands = _commands()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:
        args = _parser().parse_args(argv)
    try:
        if args.config:
            _apply_config(args, commands[args.command])
        return _HANDLERS[args.command](args)
    except OracleUndecidedError as exc:
        print(f"error: oracle undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
