"""Every module in ``src/tabalign`` uses each name it imports.

``__init__.py`` is exempt: its imports are the package's public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tabalign"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                quoted = ast.parse(annotation.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads as read\nx: 'Path' = read('1')\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"os", "dumps"}
