"""Every name a library module imports is used there or re-exported.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library: an imported name must appear as a
name (or the root of an attribute chain) somewhere in the module, or be
listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "opsparse"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keep = used_names(tree) | exported_names(tree)
    unused = sorted(set(imported_names(tree)) - keep)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_check_catches_an_unused_import():
    tree = ast.parse("from functools import lru_cache\nimport math\n"
                     "__all__ = ['f']\ndef f():\n    return math.pi\n")
    assert set(imported_names(tree)) - used_names(tree) - exported_names(tree) \
        == {"lru_cache"}
