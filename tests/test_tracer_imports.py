"""Tooling: every unused import kept in the package must be one the bench tracer wraps."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twinselmer"


def _tracer_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return set(tracing.SITES) | set(tracing.COUNTED)


def _kept_imports() -> set[str]:
    """module.name for every `# noqa: F401` import in the package."""
    kept = set()
    for path in PACKAGE.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        kept.add(f"{path.stem}.{alias.asname or alias.name}")
    return kept


def test_noqa_imports_are_tracer_sites():
    kept = _kept_imports()
    assert "selmer.enumerate_square_classes" in kept
    assert kept <= _tracer_names(), kept - _tracer_names()
