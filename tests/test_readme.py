"""README examples: every command line exits 0, every flag, claim id and output schema is named, every commented library value holds."""

import ast
import re
import shlex
from pathlib import Path

from twinselmer import cli
from twinselmer.theorems import CONSTRAINTS, THEOREM_IDS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> list[str]:
    """Lines of the first fenced block under a '## heading' section."""
    section = README.split(f"## {heading}\n", 1)[1]
    match = re.search(r"```[a-z]*\n(.*?)```", section, re.S)
    return match.group(1).splitlines()


def _leading_literal(comment: str):
    """The longest run of leading words that parses as a Python literal, or None."""
    words = comment.split()
    for k in range(len(words), 0, -1):
        try:
            return (ast.literal_eval(" ".join(words[:k])),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_command_line_block_exits_zero(capsys):
    lines = [line for line in _block("Command line") if line.startswith("twinselmer ")]
    assert len(lines) == 6
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        capsys.readouterr()
        assert code == cli.EXIT_OK, line


def test_command_line_section_names_every_flag():
    # every flag of every subcommand is documented, and nothing the parser lacks
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    flags = {
        opt
        for sp in commands.values()
        for action in sp._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    section = README.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    assert sorted(flags - named) == [] and sorted(named - flags) == []


def test_library_block_values():
    scope = {}
    checked = 0
    for line in _block("Library"):
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        if code.startswith("import ") or "=" in code.split("(")[0]:
            exec(code, scope)
            continue
        value = eval(code, scope)
        expected = _leading_literal(comment)
        if expected is not None:
            assert value == expected[0], (code, value)
            checked += 1
    assert checked == 6  # [1, 61], 1, False, 1, "pass" and []


def test_claim_catalog_has_one_row_per_id():
    section = README.split("### Claim catalog\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| [^|]+ \| ([^|]+) \|", section, re.M)
    ids = [tid for tid, _ in rows]
    assert sorted(ids) == sorted(THEOREM_IDS)  # each id once, and no other
    for tid, hypotheses in rows:
        assert (hypotheses.strip() == "`CONSTRAINTS`") == (tid in CONSTRAINTS), tid


def test_readme_names_every_output_schema():
    source = "".join(path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py"))
    schemas = set(re.findall(r"twinselmer/[a-z]+-v\d+", source))
    assert {"twinselmer/selmer-v4", "twinselmer/verify-v1"} <= schemas
    assert sorted(s for s in schemas | {cli.CSV_VERSION} if s not in README) == []
