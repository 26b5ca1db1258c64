"""Zero-dimensional polynomial system solving over growing number fields.

Lex Groebner basis, staircase finiteness check, then triangular
back-substitution; roots of each univariate step are adjoined to the
constant field as needed, so every returned point is exact.  Branches
grow their own fields; the points meet in the ``fields.join`` of those
fields, which follows each field's recorded embeddings.
"""

from .errors import DgalError
from .fields import join, split_univariate
from .multipoly import (LEX, PolyRing, groebner, is_zero_dimensional)


class PositiveDimensionalError(DgalError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "ideal is not zero-dimensional: no pure power of %s among the "
            "leading monomials (witness family: %s^k for all k)" % (witness, witness))


def solve_zero_dimensional(gens):
    """All common zeros of ``gens`` (MultiPoly over a ConstField ring).

    Returns (field, points) where each point is (coords, multiplicity)
    and coords is a tuple of elements of the returned (possibly enlarged)
    constant field.
    """
    if not gens:
        raise PositiveDimensionalError("<empty system>")
    # the generators in a lex ring on the same variables; a zero generator
    # does not change the ideal, and only an all-zero system is the zero
    # ideal, whose zeros are the whole space
    field, names = gens[0].ring.field, gens[0].ring.names
    ring = PolyRing(field, names, LEX)
    gens = [ring.from_dict(g.terms) for g in gens if g.terms]
    if not gens:
        raise PositiveDimensionalError(names[0] if names else "<point>")
    gb = groebner(gens)
    if gb[0].constant_value() is not None:
        return field, []  # 1 in the ideal: no solutions
    flag, witness = is_zero_dimensional(gb, ring)
    if not flag:
        raise PositiveDimensionalError(witness)
    polys = [dict(g.terms) for g in gb]
    pts = _solve_rec(field, polys, ring.nvars)
    return _common_field(field, pts)


def _common_field(field, pts):
    """Re-embed every point into one field joining the fields of all
    points (branches may grow fields that are not nested, like QQ(sqrt 2)
    and QQ(2^(1/3)), or hold a common subfield in different ways)."""
    big = field
    for fld, _, _ in pts:
        big = join(big, fld)
    return big, [(tuple(big.coerce_from(fld, c) for c in coords), mult)
                 for fld, coords, mult in pts]


def _solve_rec(field, polys, nvars):
    """Returns list of (field, coords tuple, multiplicity)."""
    if nvars == 0:
        return [(field, (), 1)]
    uni = _univariate_in_last(field, polys, nvars)
    if uni is None:
        # substitution can destroy triangularity; recompute a lex basis
        ring = PolyRing(field, ["v%d" % i for i in range(nvars)], LEX)
        regb = groebner([ring.from_dict(p) for p in polys])
        if regb and regb[0].constant_value() is not None:
            return []
        polys = [dict(g.terms) for g in regb]
        uni = _univariate_in_last(field, polys, nvars)
    if uni is None:
        raise DgalError("triangular extraction failed: no univariate polynomial "
                        "in the last variable")
    fld, roots = split_univariate(field, uni)
    out = []
    for root, mult in roots:
        reduced = [_substitute_last(fld, field, p, root, nvars) for p in polys]
        reduced = [p for p in reduced if p]
        if any(_is_nonzero_const(fld, p, nvars - 1) for p in reduced):
            continue
        for sub_field, coords, sub_mult in _solve_rec(fld, reduced, nvars - 1):
            r = sub_field.coerce_from(fld, root)
            out.append((sub_field, coords + (r,), mult * sub_mult))
    return out


def _univariate_in_last(field, polys, nvars):
    """Ascending coefficient list of a poly using only the last variable,
    taking the one of least degree."""
    best = None
    for p in polys:
        if all(all(e == 0 for e in exp[:nvars - 1]) for exp in p):
            deg = max(exp[nvars - 1] for exp in p)
            if best is None or deg < len(best) - 1:
                coeffs = [field.zero] * (deg + 1)
                for exp, c in p.items():
                    coeffs[exp[nvars - 1]] = field.add(coeffs[exp[nvars - 1]], c)
                best = coeffs
    return best


def _substitute_last(big, small, p, value, nvars):
    """Substitute value for the last variable; coefficients move from the
    small field into the big one.  Exponent tuples shrink by one."""
    out = {}
    pw = {0: big.one}

    def power(k):
        if k not in pw:
            pw[k] = big.mul(power(k - 1), value)
        return pw[k]

    for exp, c in p.items():
        cc = big.mul(big.coerce_from(small, c), power(exp[nvars - 1]))
        key = exp[:nvars - 1]
        if key in out:
            cc = big.add(out[key], cc)
        if big.is_zero(cc):
            out.pop(key, None)
        else:
            out[key] = cc
    return out


def _is_nonzero_const(field, p, nvars):
    return all(all(e == 0 for e in exp) for exp in p) and p
