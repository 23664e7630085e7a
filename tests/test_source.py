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
