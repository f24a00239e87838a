"""Every name a library module imports is used in that module.

A stdlib `ast` scan in place of a linter: an import with no use is dead code
left behind by a deletion.  The package `__init__` is exempt, as its
imports are the public re-exports; those must be exactly `__all__`.
"""

import ast
from pathlib import Path

import pytest

import horoindex

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "horoindex"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
    return out


def used_names(tree):
    """Names loaded anywhere, string annotations such as -> "Polytope" included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.returns for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [node.annotation for node in ast.walk(tree)
                    if isinstance(node, (ast.arg, ast.AnnAssign))]
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= used_names(ast.parse(note.value, mode="eval"))
    return used


def test_there_are_modules_to_scan():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("from .linalg import dot, vsub\n"
                     "def f(u, v) -> 'Polytope':\n"
                     "    return vsub(u, v)\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["dot"]
    assert "Polytope" in used


def test_all_lists_every_public_reexport():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    reexports = {name for name, _ in imported_names(tree)}
    assert set(horoindex.__all__) == reexports
    assert len(horoindex.__all__) == len(reexports)  # no name listed twice
    for name in horoindex.__all__:
        assert getattr(horoindex, name) is not None
