"""Every name a library module imports is used there or re-exported.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library: an imported name must appear as a
name (or the root of an attribute chain) somewhere in the module, or be
listed in its ``__all__``.  The runtime needs numpy alone: scipy is a
test-only dependency, and a CLI run must not load it.
"""

import ast
import os
import subprocess
import sys
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


# one k-sparse trial in this process (OPSPARSE_THREADS=1), then one
# one-sparse solve of a synthesized signal, all through the CLI entry point
RUNTIME_SCRIPT = """
import sys
import opsparse
from opsparse.cli import main

assert main(["recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
             "--delta", "0.05", "--gamma", "1", "--trials", "1", "--seed", "1"]) == 0
assert main(["synth", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
             "--seed", "1", "--out", sys.argv[1]]) == 0
assert main(["recover1", "--input", sys.argv[1], "--seed", "1"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_loads_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), OPSPARSE_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNTIME_SCRIPT, str(tmp_path / "sig.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
