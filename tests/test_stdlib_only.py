"""Tooling: the package has no runtime dependencies.

Every import in src/twinselmer is either relative (the package itself) or of
a module in the standard library, sys.stdlib_module_names.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinselmer"


def _imported_modules(tree):
    """(line, top-level module) for every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    outside = [
        f"{path.name}:{line}: {module}"
        for path in paths
        for line, module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module not in sys.stdlib_module_names
    ]
    assert not outside, outside


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom . import arith\nfrom numpy.linalg import det\nimport hypothesis.strategies\n")
    modules = [m for _, m in _imported_modules(tree)]
    assert modules == ["os", "numpy", "hypothesis"]
    assert [m for m in modules if m not in sys.stdlib_module_names] == ["numpy", "hypothesis"]
