"""Check a ``dgal galois`` output document against the group an instance's
parameters imply.

The expectation comes from the instance generator (``families``), never
from dgal's output.  Ideals are compared through reduced Groebner bases
computed by sympy, so no dgal code takes part in the check.  ``rigorous``
and ``order_used`` are not compared: they describe how the answer was
reached, and changes to the relation solve may legitimately alter them.
"""

import sympy as sp


def parse_document(text):
    """Map each key of a ``key: value`` document to its list of values."""
    doc = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            doc.setdefault(key.strip(), []).append(value.strip())
    return doc


def _vars(n):
    return [sp.Symbol("x_%d_%d" % (i, j))
            for i in range(1, n + 1) for j in range(1, n + 1)]


def _poly(text, gens):
    expr = sp.sympify(text.replace("^", "**"),
                      locals={str(v): v for v in gens})
    if not expr.free_symbols <= set(gens):
        raise ValueError("unexpected symbols in %r" % text)
    return sp.expand(expr)


def _ideal(polys, gens):
    if not polys:
        return ()
    basis = sp.groebner(polys, *gens, order="grevlex", domain=sp.QQ)
    return tuple(sorted(str(sp.expand(p)) for p in basis.exprs))


def expected_ideal(expect):
    """Generators of the expected identity component (and proto-group,
    which equals it for SL2, SO(2) and GL1) in the variables ``x_i_j``."""
    n = expect["n"]
    x = _vars(n)
    group = expect["group"]
    if group == "finite":       # identity component is the trivial group
        return [x[i * n + j] - (1 if i == j else 0)
                for i in range(n) for j in range(n)], x
    if group == "SL2":
        return [x[0] * x[3] - x[1] * x[2] - 1], x
    if group == "SO2":
        return [x[0] - x[3], x[1] + x[2], x[0] ** 2 + x[1] ** 2 - 1], x
    if group == "GL1":
        return [], x
    raise ValueError("unknown group %r" % group)


def check(expect, code, text):
    """Return None if the document matches, else the first mismatch."""
    if code != 0:
        return "exit code %r" % (code,)
    doc = parse_document(text)

    def one(key):
        values = doc.get(key, [])
        return values[0] if len(values) == 1 else None

    if one("sandwich_checked") != "yes":
        return "sandwich_checked is %r" % (doc.get("sandwich_checked"),)
    if one("n") != str(expect["n"]):
        return "n is %r" % (doc.get("n"),)
    finite = expect["group"] == "finite"
    if one("finite") != ("yes" if finite else "no"):
        return "finite is %r" % (doc.get("finite"),)
    if one("dimension") != str(expect["dimension"]):
        return "dimension is %r, expected %d" % (
            doc.get("dimension"), expect["dimension"])
    if finite:
        if one("order") != str(expect["order"]):
            return "order is %r, expected %d" % (doc.get("order"),
                                                 expect["order"])
        points = doc.get("point", [])
        if len(points) != expect["order"] or len(set(points)) != len(points):
            return "%d distinct points listed, expected %d" % (
                len(set(points)), expect["order"])
    elif "order" in doc or "point" in doc:
        return "a positive-dimensional group lists points"
    want, gens = expected_ideal(expect)
    target = _ideal(want, gens)
    keys = ["component_generator"]
    if not finite:
        keys.append("proto_generator")
    for key in keys:
        try:
            got = _ideal([_poly(p, gens) for p in doc.get(key, [])], gens)
        except (ValueError, TypeError, sp.SympifyError) as err:
            return "%s does not parse: %s" % (key, err)
        if got != target:
            return "%s ideal %s, expected %s" % (key, got, target)
    if expect["group"] == "SL2":
        # the relation basis of an SL2 answer is the determinant alone
        if len(doc.get("proto_generator", [])) != 1:
            return "proto_generator lists %d polynomials, expected 1" % (
                len(doc.get("proto_generator", [])))
    return None
