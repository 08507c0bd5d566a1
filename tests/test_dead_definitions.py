"""Tooling: every function, class, method, module constant and class field in the package is used.

A definition counts as used when its name is read (as a name or an
attribute) anywhere in src/twinselmer outside its own body, or when
twinselmer/__init__ exports it.  A module constant or a class field is a
name bound by an assignment directly in a module or class body; binding it
(or passing it as a keyword) is not a read.  Dunder names are used by
Python and are exempt.  The check is by name, so two definitions sharing a
name keep each other alive; it catches helpers that nothing calls any more
and fields that nothing reads.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinselmer"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree) -> Counter:
    """How often each name is read as a name or an attribute inside tree."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
    return counts


def _definitions(tree, prefix):
    """(qualified name, node) for every function, class and method, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qualname = f"{prefix}.{node.name}"
            yield qualname, node
            yield from _definitions(node, qualname)
        else:
            yield from _definitions(node, prefix)


def _assignments(body, prefix):
    """(qualified name, name, statement) for every name an assignment in body binds."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    yield f"{prefix}.{node.id}", node.id, stmt


def unused_definitions(package: Path = PACKAGE) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for module, tree in sorted(trees.items()):
        defs = [(qualname, node.name, node) for qualname, node in _definitions(tree, module)]
        bound = [*_assignments(tree.body, module)]
        for qualname, _, node in defs:
            if isinstance(node, ast.ClassDef):
                bound += _assignments(node.body, qualname)
        for qualname, name, node in defs + bound:
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if reads[name] - _reads(node)[name] == 0:
                unused.append(qualname)
    return unused


def test_every_definition_is_used():
    assert unused_definitions() == []
