"""Command-line interface: formats, exit codes, config handling."""

import argparse
import collections
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinselmer import cli, criteria, localsolve, search, selmer, theorems
from twinselmer.arith import primes_up_to
from twinselmer.family import PHI, PHI_HAT, validate_params
from twinselmer.localsolve import OracleUndecidedError
from twinselmer.selmer import compute_selmer

from helpers import failing_verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text_golden(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "61", "--kind", "phi",
    )
    assert code == cli.EXIT_OK
    assert "dim2=1, order=2, basis={61}" in out
    assert "elements" not in out


def test_compute_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "61", "--kind", "phi", "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "twinselmer/selmer-v4"
    assert payload["basis"] == [61] and "elements" not in payload
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_compute_elements_flag(capsys):
    # --elements adds the full member list in every format
    base = ("compute", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61", "--elements")
    code, out, _ = run_cli(capsys, *base, "--format", "json")
    assert code == cli.EXIT_OK and json.loads(out)["elements"] == [1, 61]
    code, out, _ = run_cli(capsys, *base)
    assert code == cli.EXIT_OK
    assert out.splitlines()[1:] == ["dim2=1, order=2, basis={61}", "elements={1, 61}"]
    code, out, _ = run_cli(capsys, *base, "--format", "csv")
    assert code == cli.EXIT_OK
    assert out.splitlines() == ["# twinselmer-csv v4 selmer", "d,basis", "1,False", "61,True"]


def test_compute_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "61", "--format", "csv",
    )
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    # basis rows only: the phi group of (+1, 3, 5, 61) is {1, 61}
    assert lines == ["# twinselmer-csv v4 selmer", "d,basis", "61,True"]


def test_compute_seed_table(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "61", "--seed-table", "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "twinselmer/selmer-v4"
    verdicts = payload["verdicts"]
    # one verdict per (place, local class), each with its representative d
    assert set(verdicts) == {"inf", "2", "3", "5", "61"}
    assert set(verdicts["inf"]) == {"sign=+1", "sign=-1"}
    assert len(verdicts["2"]) == 8
    assert verdicts["61"]["val=1,unit=1"]["d"] == 61
    assert verdicts["61"]["val=1,unit=1"]["solvable"] is True
    code, out, _ = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "61", "--seed-table", "--format", "csv",
    )
    lines = out.splitlines()
    # the selmer block (the basis 61), then the verdicts block
    assert lines[3:5] == ["# twinselmer-csv v4 verdicts", "place,class,d,solvable,search_depth,witness"]
    assert len(lines) == 5 + sum(len(classes) for classes in verdicts.values())
    assert lines[5].startswith("inf,sign=+1,1,True,0,")


def test_compute_csv_seed_table_prints_the_group_then_the_verdicts(capsys):
    base = ("compute", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61", "--format", "csv")
    _, plain, _ = run_cli(capsys, *base)
    code, out, _ = run_cli(capsys, *base, "--seed-table")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[:3] == plain.splitlines() == ["# twinselmer-csv v4 selmer", "d,basis", "61,True"]
    assert lines[3] == "# twinselmer-csv v4 verdicts"
    assert [line for line in lines if line.startswith("#")] == lines[0:1] + lines[3:4]
    _, both, _ = run_cli(capsys, *base, "--seed-table", "--elements")
    assert both.splitlines() == lines[:2] + ["1,False"] + lines[2:]


def test_compute_text_seed_table(capsys):
    # text prints one verdict line per local_images() entry after the basis line
    base = ("compute", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61")
    _, plain, _ = run_cli(capsys, *base)
    code, out, _ = run_cli(capsys, *base, "--seed-table")
    assert code == cli.EXIT_OK and out != plain
    lines = out.splitlines()
    assert lines[:2] == plain.splitlines()
    images = compute_selmer(validate_params(1, 3, 5, [61]), PHI).local_images()
    assert len(lines) == 2 + len(images)
    assert lines[2].startswith("  place=inf class=sign=+1 d=1 solvable=True search_depth=0 witness={")
    assert "  place=61 class=val=1,unit=1 d=61 solvable=True search_depth=1 witness={" in out
    assert "  place=61 class=val=0,unit=-1 d=2 solvable=False search_depth=2 witness=\n" in out
    _, both, _ = run_cli(capsys, *base, "--seed-table", "--elements")
    assert both.splitlines() == lines + ["elements={1, 61}"]


def _timed_compute(capsys, *argv):
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, "compute", *argv)
    return code, out, time.monotonic() - t0


def test_compute_reaches_the_n_cap(capsys):
    # 20 D primes in every format: each run under 1 s
    primes = [r for r in primes_up_to(200) if r > 7][:20]
    fam = ("--epsilon", "+1", "--p", "5", "--q", "7", "--D", ",".join(map(str, primes)))
    for kind in ("phi", "phi_hat"):
        for fmt in ("text", "json", "csv"):
            for table in ((), ("--seed-table",)):
                argv = (*fam, "--kind", kind, "--format", fmt, *table)
                code, out, elapsed = _timed_compute(capsys, *argv)
                assert code == cli.EXIT_OK and elapsed < 1.0, (argv, elapsed)
                if fmt == "json":
                    payload = json.loads(out)
                    assert len(payload["params"]["d_primes"]) == 20
                    assert payload["order"] == 1 << payload["dim2"] == 1 << len(payload["basis"])
                    assert "elements" not in payload and ("verdicts" in payload) == bool(table)
                elif fmt == "csv" and not table:
                    assert out.splitlines()[1] == "d,basis"
                elif fmt == "text":
                    assert out.splitlines()[1].startswith("dim2=")


def test_compute_prints_a_dim_20_group_by_its_basis(capsys):
    # 2^20 members: the element list is 29.8 MB of JSON, the basis a few hundred bytes
    d_primes = "41,73,89,97,193,281,313,337,401,433,449,457,521,569,577,641,673"
    code, out, elapsed = _timed_compute(
        capsys, "--epsilon", "+1", "--p", "3", "--q", "5", "--D", d_primes,
        "--kind", "phi_hat", "--format", "json",
    )
    assert code == cli.EXIT_OK and elapsed < 1.0 and len(out) < 10_000, (elapsed, len(out))
    payload = json.loads(out)
    assert payload["dim2"] == len(payload["basis"]) == 20 and payload["order"] == 1 << 20


def test_main_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    fam = ("--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61")
    for _ in range(2):
        for argv in (("compute", *fam), ("verify", *fam, "--theorem", "1.2B"), ("audit", *fam),
                     ("search", "--epsilon", "+1", "--corollary", "1.2B", "--bound", "100")):
            code, _, _ = run_cli(capsys, *argv)
            assert code == cli.EXIT_OK, argv
    # the top-level parser and each command's own, once each
    assert sorted(built) == ["twinselmer", "twinselmer audit", "twinselmer compute",
                             "twinselmer search", "twinselmer verify"]


def test_verify_pass_and_strictness(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "1.2B", "--epsilon", "+1",
        "--p", "3", "--q", "5", "--D", "61",
    )
    assert code == cli.EXIT_OK and "pass" in out
    # not-applicable is success unless --strict
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "1.2C", "--epsilon", "+1",
        "--p", "3", "--q", "5", "--D", "7",
    )
    assert code == cli.EXIT_OK and "not-applicable" in out
    code, _, _ = run_cli(
        capsys, "verify", "--theorem", "1.2C", "--epsilon", "+1",
        "--p", "3", "--q", "5", "--D", "7", "--strict",
    )
    assert code == cli.EXIT_FAILURE


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_exits_one_on_a_failing_claim(capsys, monkeypatch, fmt):
    # a failing claim is reported as fail and never exits 0, strict or not
    monkeypatch.setattr(cli, "verify_theorem", failing_verify)
    argv = ("verify", "--theorem", "1.2B", "--epsilon", "+1", "--p", "3", "--q", "5",
            "--D", "61", "--format", fmt)
    for strict in ((), ("--strict",)):
        code, out, _ = run_cli(capsys, *argv, *strict)
        assert code == cli.EXIT_FAILURE and "fail" in out and "pass" not in out, (fmt, strict)


def test_verify_theorem_example_size_16(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "1.4ex", "--epsilon", "+1",
        "--p", "3", "--q", "5", "--D", "41",
    )
    assert code == cli.EXIT_OK
    assert "pass" in out and '"order_phi_hat": 16' in out


def test_search_corollary(capsys):
    code, out, err = run_cli(
        capsys, "search", "--epsilon", "+1", "--corollary", "1.2B",
        "--n", "1", "--bound", "100",
    )
    assert code == cli.EXIT_OK
    assert "D=61" in out
    assert "search:" in err  # progress lines on the diagnostic stream


def test_search_none_found(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--epsilon", "+1", "--corollary", "1.2C",
        "--n", "1", "--bound", "10",
    )
    assert code == cli.EXIT_FAILURE and "none" in out
    code, out, _ = run_cli(
        capsys, "search", "--epsilon", "+1", "--corollary", "1.2C",
        "--n", "1", "--bound", "10", "--format", "json",
    )
    payload = json.loads(out)
    assert code == cli.EXIT_FAILURE and payload["found"] is False and payload["verdict"] is None


def test_search_counterexample_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(search, "verify_theorem", failing_verify)
    code, out, err = run_cli(
        capsys, "search", "--epsilon", "+1", "--corollary", "1.2B",
        "--n", "1", "--bound", "100",
    )
    # the failing instance goes to stdout like a hit, the exit code stays 1
    assert code == cli.EXIT_FAILURE and out == "eps=+1 p=3 q=5 D=61: fail\n"
    assert "counterexample: claim 1.2B fails on eps=+1 p=3 q=5 D=61" in err
    code, out, err = run_cli(
        capsys, "search", "--epsilon", "+1", "--corollary", "1.2B",
        "--n", "1", "--bound", "100", "--format", "json",
    )
    assert code == cli.EXIT_FAILURE
    assert "counterexample: claim 1.2B fails on eps=+1 p=3 q=5 D=61" in err
    payload = json.loads(out)
    assert payload["schema"] == "twinselmer/search-v2"
    assert payload["verdict"] == "fail" and payload["found"] is True
    assert payload["params"] == {"epsilon": 1, "p": 3, "q": 5, "d_primes": [61]}
    code, out, _ = run_cli(
        capsys, "search", "--epsilon", "+1", "--corollary", "1.2B",
        "--n", "1", "--bound", "100", "--format", "csv",
    )
    assert code == cli.EXIT_FAILURE
    assert out.splitlines()[1:] == ["found,epsilon,p,q,D,verdict", "True,1,3,5,61,fail"]


def test_search_target_dim(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--epsilon", "+1", "--target-dim", "4",
        "--kind", "phi_hat", "--bound", "10000", "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["found"] is True and payload["verdict"] == "pass"
    assert payload["params"]["d_primes"] == [41]


def test_search_time_budget_flag_and_config(capsys, tmp_path):
    # a zero budget expires before the first candidate, as a flag or a config key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("time_budget=0\n")
    base = ("search", "--epsilon", "+1", "--corollary", "1.2B", "--n", "1", "--bound", "100")
    for extra in (("--time-budget", "0"), ("--config", str(cfg))):
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == cli.EXIT_FAILURE and "none" in out, extra
    # a nan budget is a usage error, not "no budget"
    cfg.write_text("time_budget=nan\n")
    for extra in (("--time-budget", "nan"), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == cli.EXIT_USAGE and out == "" and "nan" in err, extra


@pytest.mark.parametrize("argv, message", [
    (("verify", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61"), "--theorem"),
    (("search", "--corollary", "1.2B"), "--epsilon"),
    (("search", "--epsilon", "+1"), "--corollary or --target-dim"),
    (("search", "--epsilon", "+1", "--corollary", "1.2B", "--target-dim", "3",
      "--kind", "phi_hat", "--bound", "1000"), "--corollary or --target-dim, not both"),
    (("search", "--epsilon", "+1", "--target-dim", "3", "--n", "7", "--bound", "1000"),
     "--target-dim derives n from the target; drop --n"),
    (("search", "--epsilon", "+1", "--corollary", "1.2B", "--kind", "phi", "--bound", "100"),
     "--corollary fixes the groups by its claim; drop --kind"),
])
def test_missing_required_flag_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == "" and message in err


def test_audit_agrees(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--epsilon", "-1", "--p", "5", "--q", "7", "--D", "11,13",
    )
    assert code == cli.EXIT_OK
    assert "0 discrepancies" in out


def test_audit_json(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "7", "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "twinselmer/audit-v2"
    assert payload["count"] == 0 and payload["discrepancies"] == []


def test_audit_reaches_the_n_cap(capsys):
    # the audit checks rule cells, not the 2^24 square classes: each sign well under 5 s
    primes = [r for r in primes_up_to(200) if r > 7][:20]
    for eps in ("+1", "-1"):
        t0 = time.monotonic()
        code, out, _ = run_cli(
            capsys, "audit", "--epsilon", eps, "--p", "5", "--q", "7",
            "--D", ",".join(map(str, primes)), "--format", "json",
        )
        elapsed = time.monotonic() - t0
        assert code == cli.EXIT_OK and elapsed < 5.0, (eps, elapsed)
        payload = json.loads(out)
        assert payload["count"] == 0 and len(payload["params"]["d_primes"]) == 20


@pytest.mark.parametrize("module", ["twinselmer", "twinselmer.cli"])
def test_python_dash_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", module, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
         "--D", "61"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "dim2=1, order=2, basis={61}" in proc.stdout


def test_invalid_params_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "4", "--q", "6", "--D", "7",
    )
    assert code == cli.EXIT_USAGE and "error" in err
    code, _, err = run_cli(capsys, "compute", "--epsilon", "+1", "--p", "3")
    assert code == cli.EXIT_USAGE and "--q" in err


def test_no_cap_on_the_number_of_d_primes(capsys):
    # n has no natural bound: the 22-prime hit of a dim2 >= 25 search, and 40
    # D primes, each run through compute, verify and audit
    code, out, _ = run_cli(
        capsys, "search", "--epsilon", "+1", "--kind", "phi_hat", "--target-dim", "25",
        "--format", "json",
    )
    hit = json.loads(out)["params"]
    assert code == cli.EXIT_OK and (hit["p"], hit["q"], len(hit["d_primes"])) == (3, 5, 22)
    forty = [r for r in primes_up_to(200) if r > 7][:40]
    for p, q, d_primes, theorem, min_dim in (
        (3, 5, hit["d_primes"], "1.4ex", 25),
        (5, 7, forty, "1.3", 0),
    ):
        fam = ("--epsilon", "+1", "--p", str(p), "--q", str(q), "--D", ",".join(map(str, d_primes)))
        code, out, err = run_cli(capsys, "compute", *fam, "--kind", "phi_hat", "--format", "json")
        assert code == cli.EXIT_OK and err == "", (d_primes, err)
        payload = json.loads(out)
        assert payload["params"]["d_primes"] == d_primes and payload["dim2"] >= min_dim
        code, out, _ = run_cli(capsys, "verify", *fam, "--theorem", theorem, "--format", "json")
        assert code == cli.EXIT_OK and json.loads(out)["verdict"] == "pass", (theorem, out)
        code, out, _ = run_cli(capsys, "audit", *fam, "--format", "json")
        assert code == cli.EXIT_OK and json.loads(out)["count"] == 0


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "1.2B", "--epsilon", "+1",
        "--p", "3", "--q", "5", "--D", "61", "--format", "csv",
    )
    assert code == cli.EXIT_OK
    assert out.splitlines() == [
        "# twinselmer-csv v4 verify",
        "theorem,verdict,hypotheses_hold,branch,claimed,observed",
        '1.2B,pass,True,,order(phi) == 2^1,"{""order_phi"": 2}"',
    ]


def test_audit_reports_a_flipped_rule(capsys, monkeypatch):
    # flip the real-sign rule of C: every format reports the discrepancy and exits 1
    rule = criteria._rule
    monkeypatch.setattr(criteria, "_rule", lambda ok, r: rule(ok != (r == "C:real-sign"), r))
    fam = ("--epsilon", "+1", "--p", "3", "--q", "5", "--D", "7")
    code, out, _ = run_cli(capsys, "audit", *fam, "--format", "json")
    rows = json.loads(out)["discrepancies"]
    assert code == cli.EXIT_FAILURE and rows and {r["rule"] for r in rows} == {"C:real-sign"}
    code, out, _ = run_cli(capsys, "audit", *fam)
    lines = out.splitlines()
    assert code == cli.EXIT_FAILURE
    assert lines[0] == f"{len(rows)} discrepancies for eps=+1 p=3 q=5 D=7"
    assert len(lines) == 1 + len(rows) and all(" rule=C:real-sign " in line for line in lines[1:])
    code, out, _ = run_cli(capsys, "audit", *fam, "--format", "csv")
    lines = out.splitlines()
    assert code == cli.EXIT_FAILURE
    assert lines[:2] == ["# twinselmer-csv v4 audit", "check,kind,d,place,rule,closed_form,oracle"]
    assert len(lines) == 2 + len(rows) and all(",C:real-sign," in line for line in lines[2:])


def test_oracle_undecided_exits_three(capsys, monkeypatch):
    def undecided(space, place):
        raise OracleUndecidedError(f"depth cap exceeded at {place}")

    monkeypatch.setattr(selmer, "local_verdict", undecided)
    code, out, err = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61",
    )
    assert code == cli.EXIT_UNDECIDED and out == ""
    assert err.startswith("error: oracle undecided: depth cap exceeded at ")


def test_depth_cap_in_the_real_oracle_exits_three(capsys, monkeypatch):
    # no stand-in oracle: the digit search itself hits a cap at or below depth 0
    monkeypatch.setattr(localsolve, "_DEPTH_MARGIN", -1000)
    code, out, err = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61",
    )
    assert code == cli.EXIT_UNDECIDED and out == ""
    assert err.startswith("error: oracle undecided: depth cap ") and " exceeded at l=" in err


def _session(params) -> list[list[str]]:
    """compute both kinds with their verdict tables, audit, then verify every id of eps."""
    fam = ["--epsilon", f"{params.epsilon:+d}", "--p", str(params.p), "--q", str(params.q),
           "--D", ",".join(map(str, params.d_primes)), "--format", "json"]
    ids = [tid for tid in theorems.THEOREM_IDS if theorems._CLAIMS[tid].epsilon == params.epsilon]
    return (
        [["compute", *fam, "--kind", kind, "--seed-table"] for kind in (PHI, PHI_HAT)]
        + [["audit", *fam]]
        + [["verify", *fam, "--theorem", tid] for tid in ids]
    )


@pytest.mark.parametrize("instance", [(1, 3, 5, [61]), (-1, 5, 7, [11, 13])])
def test_session_decides_each_local_class_once(capsys, monkeypatch, instance):
    # the groups compute_selmer keeps are shared by compute, audit and verify:
    # one oracle call per (kind, place, local class), the seed tables' own
    calls = []

    def counting(space, place):
        calls.append((space.kind, place))
        return localsolve.local_verdict(space, place)

    monkeypatch.setattr(selmer, "local_verdict", counting)
    params = validate_params(*instance)
    session = _session(params)
    outputs = [run_cli(capsys, *argv)[:2] for argv in session]
    decided = len(calls)
    assert decided == sum(len(compute_selmer(params, kind).local_images()) for kind in (PHI, PHI_HAT))
    assert len(calls) == decided
    # and each command prints what it prints in a fresh process
    for argv, shared in zip(session, outputs):
        compute_selmer.cache_clear()
        assert run_cli(capsys, *argv)[:2] == shared, argv


def test_config_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# golden instance\nD=61\nformat=json\nelements=true\n")
    code, out, _ = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "7", "--config", str(cfg),
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["elements"] == [1, 61]


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("unknown_key=1\n")
    code, _, err = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "7", "--config", str(cfg),
    )
    assert code == cli.EXIT_USAGE and "unknown key" in err


def test_negative_epsilon_parses(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--epsilon", "-1", "--p", "3", "--q", "5", "--D", "41",
        "--kind", "phi_hat",
    )
    assert code == cli.EXIT_OK and "dim2=3" in out


def test_config_values_pass_flag_checks(capsys, tmp_path):
    # a config value meets the same type and choices as its flag
    cfg = tmp_path / "run.cfg"
    base = ("compute", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61")
    for line, message in (
        ("format=xml", "invalid choice 'xml'"),
        ("kind=psi", "invalid choice 'psi'"),
        ("epsilon=2", "epsilon must be +1 or -1"),
        ("p=three", "p: invalid literal"),
        ("elements=maybe", "elements: expected a boolean"),
        ("D=7,x", "D: expected comma-separated integers"),
        ("D 61", "expected key=value"),
    ):
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, *base, "--config", str(cfg))
        assert code == cli.EXIT_USAGE and out == "", line
        assert f"{cfg}:1:" in err and message in err, (line, err)
    # the same value as a flag is refused by argparse with the same status
    for flag in (("--format", "xml"), ("--D", "7,x")):
        with pytest.raises(SystemExit) as caught:
            cli.main([*base, *flag])
        assert caught.value.code == cli.EXIT_USAGE


def _dispatch_grid(cfg):
    fam = ("--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61")
    neg = ("--epsilon", "-1", "--p", "5", "--q", "7", "--D", "61,73")
    yield ("compute",)
    for f in (fam, neg, ("--epsilon=-1", "--D=61,73")):
        yield ("compute", *f)
        yield ("audit", *f, "--format", "csv")
        yield ("verify", *f, "--theorem", "1.2B")
    yield ("compute", *fam, "--kind", "phi_hat", "--seed-table", "--elements", "--format", "json")
    yield ("compute", *neg, "--seed", "--elem", "--kind", "phi")  # abbreviated switches
    yield ("compute", *fam, "--config", cfg)
    yield ("verify", *neg, "--theorem", "1.7B", "--strict", "--format", "json", "--config", cfg)
    yield ("audit", *neg, "--config", cfg)
    yield ("search", "--epsilon", "-1", "--corollary", "1.7A", "--n", "2", "--bound", "300",
           "--time-budget", "1.5", "--format", "csv")
    yield ("search", "--epsilon", "+1", "--target-dim", "3", "--kind", "phi", "--config", cfg)


def test_main_parses_as_the_top_level_parser(monkeypatch, tmp_path):
    # each command's own parser reads what the top-level parser read before
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=text\n")
    seen = []
    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, lambda args: seen.append(args) or 0))
    for argv in _dispatch_grid(str(cfg)):
        assert cli.main(list(argv)) == cli.EXIT_OK, argv
        expected = cli._parser().parse_args(argv)
        if expected.config:
            expected.format = "text"
        assert seen.pop() == expected, argv


def _exit_of(call, capsys):
    with pytest.raises(SystemExit) as caught:
        call()
    captured = capsys.readouterr()
    return caught.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    (), ("-h",), ("--help",), ("frobnicate",), ("Compute", "--epsilon", "+1"),
    ("compute", "-h"), ("search", "--help"),
    ("compute", "--epsilon", "2"), ("verify", "--theorem", "9.9"), ("audit", "--p", "three"),
])
def test_usage_exits_as_the_top_level_parser(capsys, argv):
    code, out, err = _exit_of(lambda: cli.main(list(argv)), capsys)
    assert (code, out, err) == _exit_of(lambda: cli._parser().parse_args(argv), capsys)
    assert code == (0 if {"-h", "--help"} & set(argv) else cli.EXIT_USAGE)


def test_unknown_flag_is_named_by_its_command(capsys):
    for command in ("compute", "verify", "search", "audit"):
        code, out, err = _exit_of(lambda: cli.main([command, "--epsilon", "+1", "--bogus", "x"]), capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"usage: twinselmer {command} ")
        assert f"twinselmer {command}: error: unrecognized arguments: --bogus x" in err


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4) | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_JSON_VALUES)
@example({"z": [True, False, None, {}, [], ()], "é\"\x00\n": {"b": -0.0, "a": float("nan")}})
@example([2**70, -(2**70), float("inf"), float("-inf"), "\u2028\U0001f600\\"])
@example({"s": {1: "one", -2: [True, None]}, "t": collections.OrderedDict(b=1, a=(2,))})
def test_canonical_json_is_json_dumps(value):
    assert cli._canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_canonical_json_on_every_payload_kind(capsys, monkeypatch):
    # the payloads the commands print, compared to json.dumps on the objects themselves
    written = []
    canonical = cli._canonical_json
    monkeypatch.setattr(cli, "_canonical_json", lambda payload: written.append(payload) or canonical(payload))
    fam = ("--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61,41", "--format", "json")
    neg = ("--epsilon", "-1", "--p", "5", "--q", "7", "--D", "11,13", "--format", "json")
    search_argv = ("search", "--format", "json", "--epsilon", "+1", "--corollary")
    argvs = [("compute", *fam, "--kind", kind, *extra)
             for kind in (PHI, PHI_HAT)
             for extra in ((), ("--elements",), ("--seed-table",), ("--seed-table", "--elements"))]
    argvs += [("verify", *f, "--theorem", tid)
              for f in (fam, neg) for tid in theorems.THEOREM_IDS
              if theorems._CLAIMS[tid].epsilon == int(f[1])]
    argvs += [(*search_argv, "1.2B", "--bound", "100"), (*search_argv, "1.2C", "--bound", "10")]
    for argv in argvs:
        run_cli(capsys, *argv)
    monkeypatch.setattr(search, "verify_theorem", failing_verify)
    search._verify.cache_clear()
    run_cli(capsys, *search_argv, "1.2B", "--bound", "100")
    rule = criteria._rule
    monkeypatch.setattr(criteria, "_rule", lambda ok, r: rule(ok != (r == "C:real-sign"), r))
    run_cli(capsys, "audit", *fam)
    assert len(written) == len(argvs) + 2
    assert [p["verdict"] for p in written[-4:-1]] == ["pass", None, "fail"] and written[-1]["count"]
    for payload in written:
        assert canonical(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
