"""Command-line interface: formats, exit codes, config handling."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twinselmer import cli, criteria, search, selmer
from twinselmer.arith import primes_up_to
from twinselmer.family import PHI, validate_params
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
    assert out.splitlines() == ["# twinselmer-csv v3 selmer", "d,basis", "1,False", "61,True"]


def test_compute_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5",
        "--D", "61", "--format", "csv",
    )
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    # basis rows only: the phi group of (+1, 3, 5, 61) is {1, 61}
    assert lines == ["# twinselmer-csv v3 selmer", "d,basis", "61,True"]


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
    assert lines[:2] == ["# twinselmer-csv v3 verdicts", "place,class,d,solvable,search_depth,witness"]
    assert len(lines) == 2 + sum(len(classes) for classes in verdicts.values())
    assert lines[2].startswith("inf,sign=+1,1,True,0,")


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
    for _ in range(2):
        code, _, _ = run_cli(capsys, "compute", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61")
        assert code == cli.EXIT_OK
    assert built.count("twinselmer") == 1


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


@pytest.mark.parametrize("argv, message", [
    (("verify", "--epsilon", "+1", "--p", "3", "--q", "5", "--D", "61"), "--theorem"),
    (("search", "--corollary", "1.2B"), "--epsilon"),
    (("search", "--epsilon", "+1"), "--corollary or --target-dim"),
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
        "# twinselmer-csv v3 verify",
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
    assert lines[:2] == ["# twinselmer-csv v3 audit", "check,kind,d,place,rule,closed_form,oracle"]
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
    ):
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, *base, "--config", str(cfg))
        assert code == cli.EXIT_USAGE and out == "", line
        assert f"{cfg}:1:" in err and message in err, (line, err)
    # the same value as a flag is refused by argparse with the same status
    with pytest.raises(SystemExit) as caught:
        cli.main([*base, "--format", "xml"])
    assert caught.value.code == cli.EXIT_USAGE
