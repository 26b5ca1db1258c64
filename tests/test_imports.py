"""Every top-level import of a dgal module is used in that module, and
every private module-level helper is used somewhere in the package.

A stale import hides which layer a module really stands on, and a dead
helper hides which code still runs; the checks read each source file
with ``ast`` only, so they import nothing."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dgal"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by a top-level import and never read as a name."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import lcm, gcd\n"
                          "import sympy as sp\nprint(gcd, sp.S)\n") == \
        ["os", "lcm"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def unreferenced_helpers(sources):
    """Module-level functions and classes named ``_x`` (not dunder) that
    no source reads as a name, an attribute or an imported name outside
    their own definition."""
    defined, used = [], set()
    for source in sources:
        for node in ast.parse(source).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    owner.startswith("_") and not owner.startswith("__"):
                defined.append(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names = [sub.id]
                elif isinstance(sub, ast.Attribute):
                    names = [sub.attr]
                elif isinstance(sub, ast.ImportFrom):
                    names = [a.name for a in sub.names]
                else:
                    continue
                used.update(name for name in names if name != owner)
    return [name for name in defined if name not in used]


def test_unreferenced_helpers_are_found():
    assert unreferenced_helpers([
        "def _kept():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Dead:\n    pass\n"
        "def __getattr__(name):\n    pass\n",
        "from .a import _imported\n"
        "def _imported_elsewhere():\n    pass\n"
        "def public(m):\n    return _kept(), m._imported_elsewhere\n",
    ]) == ["_recursive", "_Dead"]


def test_every_private_helper_is_referenced():
    sources = [(SRC / name).read_text() for name in sorted(
        p.name for p in SRC.glob("*.py"))]
    assert unreferenced_helpers(sources) == []
