"""Every module in ``src/tabalign`` uses each name it imports, some module of the
package reads each private (``_``-prefixed) name a module defines at top level, and
some module raises each error class ``errors.py`` defines, or one derived from it.

``__init__.py`` is exempt from the import check: its imports are the package's
public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tabalign"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                quoted = ast.parse(annotation.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each ``_``-prefixed, non-dunder function, class or variable the module
    defines at top level, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    (n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, reads as an attribute, or imports."""
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _used_names(tree) | attributes | set(_imported_names(tree))


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set().union(*map(_read_names, trees.values()))
    unread = {
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    }
    assert not unread, f"private names no module reads: {sorted(unread)}"


def test_check_sees_an_unread_private_name():
    tree = ast.parse(
        "_A = 1\n_B, _C = 2, 3\n__all__ = []\ndef _f(): return _B\nclass _K: pass\nx = _K\n"
    )
    assert set(_private_definitions(tree)) - _read_names(tree) == {"_A", "_C", "_f"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads as read\nx: 'Path' = read('1')\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"os", "dumps"}


def _raised_names(tree: ast.Module) -> set[str]:
    """Every name the module raises, or calls, as a bare name: ``raise X``, ``X(...)``."""
    raised = {node.exc.id for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name)}
    return raised | {node.func.id for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def _dead_classes(errors: ast.Module, raised: set[str]) -> set[str]:
    """The classes ``errors`` defines that are neither raised nor the base of a class that is."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in errors.body if isinstance(node, ast.ClassDef)}
    live = set(raised) & set(bases)
    while grown := {b for name in live for b in bases[name] if b in bases} - live:
        live |= grown
    return set(bases) - live


def test_every_error_class_is_raised():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    dead = _dead_classes(errors, set().union(*map(_raised_names, trees)))
    assert not dead, f"error classes no module raises: {sorted(dead)}"


def test_check_sees_a_dead_error_class():
    errors = ast.parse(
        "class Base(Exception): pass\nclass Mid(Base): pass\nclass Leaf(Mid): pass\n"
        "class Dead(Base): pass\nclass Unused(Exception): pass\n"
    )
    raised = _raised_names(ast.parse("def f():\n    raise Leaf('x')\nDead\n"))
    assert _dead_classes(errors, raised) == {"Dead", "Unused"}
