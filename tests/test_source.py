"""Checks on the package source itself, with the standard library only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyncomp"


def unused_imports(tree):
    """Names bound by an import and never read in the module; a name listed
    in the module's __all__ counts as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    tree = ast.parse("import os, re\nfrom x import a, b as c\n__all__ = ['c']\nos.sep\n")
    assert unused_imports(tree) == [(1, "re"), (2, "a")]


def test_package_has_no_unused_import():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def private_names(tree):
    """Module-level private names, dunders aside, that a def, a class or an
    assignment binds, with the statement that binds each."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                out[name] = node
    return out


def reads(node):
    """Names read under node, as a bare name or as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def unread_private_names(trees):
    """Module-level private names of the modules that no module reads; a
    name read only in its own definition, as a recursive call, is unread."""
    defined = {}
    for tree in trees:
        defined.update(private_names(tree))
    read_by = [(stmt, reads(stmt)) for tree in trees for stmt in tree.body]
    return sorted(name for name, node in defined.items()
                  if not any(name in names for stmt, names in read_by if stmt is not node))


def test_unread_private_names_are_found():
    tree = ast.parse("_A = 1\n_B, _C = _A, 2\ndef _f():\n    return _f()\n"
                     "class _K:\n    pass\n__dunder__ = 1\n_used = 0\nprint(x._used)\n")
    assert unread_private_names([tree]) == ["_B", "_C", "_K", "_f"]


def test_package_has_no_unread_private_name():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    assert unread_private_names(trees) == []


def test_checker_imports_only_scalars_and_errors():
    # the circle checker's trusted base stays the scalar kernel and the
    # error types: no PL, region, tower or comparison code
    tree = ast.parse((SRC / "check.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported if name.startswith(".")}
    assert package <= {".scalars", ".errors"}, package
    assert imported - package <= {"array", "bisect", "itertools", "math", "operator"}, imported
