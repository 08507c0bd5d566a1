"""Tooling: every definition in the package is used, and every import is read where it is imported.

A definition counts as used when its name is read (as a name or an
attribute) anywhere in src/twinselmer outside its own body, or when
twinselmer/__init__ exports it.  A module constant or a class field is a
name bound by an assignment directly in a module or class body; binding it
(or passing it as a keyword) is not a read.  Dunder names are used by
Python and are exempt.  The check is by name, so two definitions sharing a
name keep each other alive; it catches helpers that nothing calls any more
and fields that nothing reads.

An imported name must be read in the module that imports it, or sit on a
`# noqa: F401` line (test_tracer_imports ties those to the bench tracer),
so no module re-exports what another defines.  __init__, which exports,
and `from __future__` imports are exempt.  Outside __init__, a name taken
with `from .m import name` must be defined in m itself: a function, a class
or a name bound by an assignment in m's module body.
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


def unread_imports(package: Path = PACKAGE) -> list[str]:
    """module.name for every name a module imports and never reads, bar `# noqa: F401` lines."""
    unread = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        text = path.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        reads = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if not reads[name] and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unread.append(f"{path.stem}.{name}")
    return unread


def test_every_import_is_read():
    assert unread_imports() == []


def misplaced_imports(package: Path = PACKAGE) -> list[str]:
    """module.name for every `from .m import name` outside __init__ that m does not define."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    defined = {
        module: {node.name for node in tree.body if isinstance(node, _DEFS)}
        | {name for _, name, _ in _assignments(tree.body, module)}
        for module, tree in trees.items()
    }
    misplaced = []
    for module, tree in sorted(trees.items()):
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                misplaced += [f"{module}.{alias.name}" for alias in node.names
                              if alias.name not in defined[node.module]]
    return misplaced


def test_every_import_comes_from_its_definition():
    assert misplaced_imports() == []
