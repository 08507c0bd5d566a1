"""README examples: every command line exits 0, every commented library value holds."""

import ast
import re
import shlex
from pathlib import Path

from twinselmer import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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
