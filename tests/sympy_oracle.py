"""sympy as the reference the tests check dgal's own kernels against.

dgal itself imports no sympy; these helpers translate its elements to
and from sympy's.  A number field QQ[x]/(m) is read as the algebraic
field generated by sympy's canonical root of m: a radical for quadratics
and the binomials x^3 - c and x^4 - c, else the last ``CRootOf``.
"""

import sympy as sp
from sympy.polys.domains import QQ

_X = sp.Dummy("x")
# variable of the polynomials inside CRootOf generators; it must differ
# from _X, or a Poly in _X could not hold those generators as coefficients
_R = sp.Dummy("r")

_DOMAINS = {}


def isprime(n):
    """sympy's primality test of the int n."""
    return sp.isprime(n)


def rationals(coeffs):
    """sympy Rationals from dgal's Rationals (or ints)."""
    return [sp.Rational(int(c.numerator), int(c.denominator)) for c in coeffs]


def poly(coeffs, var=_X, domain=QQ):
    """The sympy Poly with ascending rational ``coeffs``."""
    return sp.Poly(rationals(coeffs)[::-1], var, domain=domain)


def canonical_root(minpoly):
    """The root sorted last of the QQ-irreducible polynomial with
    ascending coefficients ``minpoly``."""
    p = poly(minpoly)
    deg = p.degree()
    if deg == 2 or (deg <= 4 and p.length() == 2):
        return sorted(sp.roots(p), key=sp.default_sort_key)[-1]
    return sp.CRootOf(p.replace(_X, _R), deg - 1)


def sympy_domain(field):
    """sympy's domain for a dgal ConstField."""
    if field.degree() == 1:
        return QQ
    dom = _DOMAINS.get(field)
    if dom is None:
        mp = field.minpoly_coeffs()
        dom = _DOMAINS[field] = QQ.algebraic_field(
            (poly(mp), canonical_root(mp)))
    return dom


def to_sympy(field, a):
    """The sympy expression of a field element."""
    dom = sympy_domain(field)
    coeffs = [QQ(int(c.numerator), int(c.denominator))
              for c in field.to_rational_vector(a)]
    if field.degree() == 1:
        return dom.to_sympy(coeffs[0])
    return dom.to_sympy(dom.new(coeffs[::-1]))


def from_sympy(field, expr):
    """The field element of a sympy expression in the field."""
    elem = sympy_domain(field).from_sympy(expr)
    coeffs = [elem] if field.degree() == 1 else elem.to_list()[::-1]
    out = field.zero
    gen = field.generator()
    for c in reversed(coeffs):
        c = field.from_fraction(sp.Rational(c.numerator, c.denominator))
        out = c if gen is None else field.add(field.mul(out, gen), c)
    return out
