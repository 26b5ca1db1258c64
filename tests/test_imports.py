"""Every top-level import of a dgal module is used in that module, and
every module-level function, class and constant is used somewhere in
the package, but for the few public entry points that only tests call.

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


# public names that only the acceptance suite and tests/test_bounds.py
# call: the bound tower's entry points and the second-point check
CALLED_FROM_TESTS = {"max_", "gamma_bound", "gamma_comparison",
                     "dstar_nstar", "jordan_bound", "second_point_check"}


def _bound_names(node):
    """Names a module-level statement defines: a function, a class, or
    the plain names an assignment binds (constants, module state)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unreferenced_helpers(sources, allow=()):
    """Module-level functions, classes and constants (not dunder, not in
    ``allow``) that no source reads as a name, an attribute or an
    imported name outside their own definition."""
    defined, used = [], set()
    for source in sources:
        for node in ast.parse(source).body:
            owners = _bound_names(node)
            defined += [name for name in owners
                        if not name.startswith("__") and name not in allow]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names = [sub.id]
                elif isinstance(sub, ast.Attribute):
                    names = [sub.attr]
                elif isinstance(sub, ast.ImportFrom):
                    names = [a.name for a in sub.names]
                else:
                    continue
                used.update(name for name in names if name not in owners)
    return [name for name in defined if name not in used]


def test_unreferenced_helpers_are_found():
    assert unreferenced_helpers([
        "def _kept():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Dead:\n    pass\n"
        "def __getattr__(name):\n    pass\n",
        "from .a import _imported\n"
        "def _imported_elsewhere():\n    pass\n"
        "def public(m):\n    return _kept(), m._imported_elsewhere\n"
        "def dead_public():\n    return public(None)\n"
        "class Entry:\n    pass\n"
        "LIMIT = 3\n_STALE = 4\n__version__ = '1'\n"
        "def capped(k):\n    return min(k, LIMIT)\n",
    ], allow={"Entry", "capped"}) == ["_recursive", "_Dead", "dead_public",
                                      "_STALE"]


def test_every_private_helper_is_referenced():
    sources = [(SRC / name).read_text() for name in sorted(
        p.name for p in SRC.glob("*.py"))]
    assert [name for name in unreferenced_helpers(sources)
            if name.startswith("_")] == []


def test_every_public_function_and_class_is_referenced():
    sources = [(SRC / name).read_text() for name in sorted(
        p.name for p in SRC.glob("*.py"))]
    assert unreferenced_helpers(sources, allow=CALLED_FROM_TESTS) == []


def attribute_reads(source, name):
    """How often ``source`` reads ``name`` as an attribute or a name, or
    defines it at module level."""
    tree = ast.parse(source)
    return sum(isinstance(node, ast.Attribute) and node.attr == name
               or isinstance(node, ast.Name) and node.id == name
               for node in ast.walk(tree)) + \
        sum(name in _bound_names(node) for node in tree.body)


def test_attribute_reads_are_found():
    assert attribute_reads("def f(p):\n    return p.substitute({})\n"
                           "def g():\n    return f\n", "substitute") == 1
    assert attribute_reads("def f():\n    pass\n", "f") == 1


def test_product_is_read_off_integer_expansions_only():
    # P(X*Y) has one evaluator, relations._ProductPowers: the substitution
    # into a doubled ring that it replaced is gone, and no module
    # substitutes polynomials into a polynomial
    for name in MODULES:
        source = (SRC / name).read_text()
        assert attribute_reads(source, "_product_substitution") == 0, name
        assert attribute_reads(source, "substitute") == 0, name


def test_points_are_solved_for_the_transport_search_only():
    # the zero-dimensional solver serves relations.transport_factor
    # alone: a finite proto-group's exponent is read off its ideal, and
    # no stage enumerates the points of a group
    readers = [name for name in MODULES if name != "solve.py" and
               attribute_reads((SRC / name).read_text(),
                               "solve_zero_dimensional")]
    assert readers == ["relations.py"]


def test_logarithmic_derivatives_read_no_series():
    # a character's logarithmic derivative is read off the certified
    # relation basis: hyperexp builds no series store and evaluates no
    # series, and only the second-point check and its transport search,
    # in relations, evaluate a polynomial on the series store
    hyperexp = (SRC / "hyperexp.py").read_text()
    for name in ("MonomialSeries", "series_of", "Series",
                 "rational_reconstruction"):
        assert attribute_reads(hyperexp, name) == 0, name
    assert reaches(hyperexp, "logderiv_from_character", "_derivative")
    readers = [name for name in MODULES
               if attribute_reads((SRC / name).read_text(), "series_of")]
    assert readers == ["relations.py"]


def test_finite_part_splits_no_polynomial():
    # the finite part's roots of unity are the powers of one root of a
    # cyclotomic factor (fields.roots_of_unity): the pipeline never
    # splits x^M - 1, whose Trager split grows without bound in M
    pipeline = (SRC / "pipeline.py").read_text()
    assert attribute_reads(pipeline, "split_univariate") == 0
    assert reaches(pipeline, "finite_part", "roots_of_unity")


def reaches(source, func, name):
    """True when the module-level function or class ``func`` of
    ``source`` reads ``name`` as a name or an attribute, itself or
    through the module-level functions and classes of ``source`` that
    it reads."""
    defs = {node.name: node for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen, todo = {func}, [func]
    while todo:
        for sub in ast.walk(defs[todo.pop()]):
            read = sub.id if isinstance(sub, ast.Name) else \
                sub.attr if isinstance(sub, ast.Attribute) else None
            if read == name:
                return True
            if read in defs and read not in seen:
                seen.add(read)
                todo.append(read)
    return False


def test_reaches_is_found():
    source = ("def f():\n    return _g()\n"
              "def _g():\n    return m.Engine(f)\n"
              "def h():\n    return f\n"
              "def lone():\n    return 1\n")
    assert reaches(source, "h", "Engine")
    assert not reaches(source, "lone", "Engine")


def test_one_row_echelon_engine():
    # linalg.RrefAccumulator is the one Gauss-Jordan elimination: the
    # dense rref, det's elimination, the certificate's hand-rolled
    # echelon and groups' own dot product are gone, and rref, certify
    # and in_span run on an accumulator
    for name in MODULES:
        source = (SRC / name).read_text()
        for gone in ("det", "_echelon_rows", "_reduce", "_dot", "_comb"):
            assert attribute_reads(source, gone) == 0, (name, gone)
    assert reaches((SRC / "linalg.py").read_text(), "rref", "RrefAccumulator")
    relations = (SRC / "relations.py").read_text()
    for func in ("certify", "in_span"):
        assert reaches(relations, func, "RrefAccumulator"), func


def test_one_copy_of_each_rule_on_matrix_entry_polynomials():
    # the value at X = I is MultiPoly.at_identity, the Leibniz action of a
    # linear substitution is multipoly.linear_derivation, the character
    # lattice cuts H deg by one membership test, and the cofactors read
    # the residue rows: the hand-written copies, the second identity
    # component and the per-vector partial fractions are gone
    for name in MODULES:
        source = (SRC / name).read_text()
        for gone in ("_monomial_at", "_vanishes_at_identity", "build_J_barH",
                     "_combo_pf"):
            assert attribute_reads(source, gone) == 0, (name, gone)
    for name, func, rule in [("relations.py", "certify", "at_identity"),
                             ("systems.py", "MonomialSeries", "on_diagonal"),
                             ("relations.py", "_derivative",
                              "linear_derivation"),
                             ("groups.py", "_derivation_matrix",
                              "linear_derivation"),
                             ("systems.py", "MonomialSeries",
                              "linear_derivation")]:
        assert reaches((SRC / name).read_text(), func, rule), (func, rule)


def test_the_monomial_order_is_the_rings():
    # no function of multipoly takes a monomial order but the ring's
    # constructor
    tree = ast.parse((SRC / "multipoly.py").read_text())
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and "order" in
            [a.arg for a in node.args.args + node.args.kwonlyargs]] == \
        ["__init__"]
