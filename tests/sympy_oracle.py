"""sympy as the reference the tests check dgal's own kernels against.

dgal itself imports no sympy; these helpers translate its elements to
and from sympy's.  A number field QQ[x]/(m) is read as the algebraic
field generated by sympy's canonical root of m: a radical for quadratics
and the binomials x^3 - c and x^4 - c, else the last ``CRootOf``.
"""

import sympy as sp
from sympy.polys.domains import GF, QQ
from sympy.polys.matrices import DomainMatrix

_X = sp.Dummy("x")
# variable of the polynomials inside CRootOf generators; it must differ
# from _X, or a Poly in _X could not hold those generators as coefficients
_R = sp.Dummy("r")
# variable of the rational functions over a constant field
_T = sp.Dummy("t")

_DOMAINS = {}


def isprime(n):
    """sympy's primality test of the int n."""
    return sp.isprime(n)


def rationals(coeffs):
    """sympy Rationals from dgal's Rationals (or ints)."""
    return [sp.Rational(int(c.numerator), int(c.denominator)) for c in coeffs]


def cyclotomic(d):
    """sympy's d-th cyclotomic polynomial, as ascending ints."""
    coeffs = sp.Poly(sp.cyclotomic_poly(d, _X)).all_coeffs()
    return [int(c) for c in reversed(coeffs)]


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
    return sympy_domain(field).to_sympy(to_domain(field, a))


def from_sympy(field, expr):
    """The field element of a sympy expression in the field."""
    return from_domain(field, sympy_domain(field).from_sympy(expr))


def to_domain(field, a):
    """The element of ``sympy_domain(field)`` of a field element."""
    coeffs = [QQ(int(c.numerator), int(c.denominator))
              for c in field.to_rational_vector(a)]
    if field.degree() == 1:
        return coeffs[0]
    return sympy_domain(field).new(coeffs[::-1])


def from_domain(field, elem):
    """The field element of an element of ``sympy_domain(field)``."""
    coeffs = [elem] if field.degree() == 1 else elem.to_list()[::-1]
    out = field.zero
    gen = field.generator()
    for c in reversed(coeffs):
        c = field.from_fraction(sp.Rational(c.numerator, c.denominator))
        out = c if gen is None else field.add(field.mul(out, gen), c)
    return out


def rref(field, rows):
    """sympy's reduced row echelon form of the nonempty matrix ``rows``
    over ``field``: a dgal ConstField, a RatFuncField over one (it has a
    ``const``) or a linalg.PrimeField (it has a prime ``p``).  Returns
    (its nonzero rows, pivot columns)."""
    p = getattr(field, "p", None)
    if p is not None:
        dom = GF(p)
        to, back = dom, lambda x: int(x) % p
    elif hasattr(field, "const"):
        k = field.const
        dom = sympy_domain(k).frac_field(_T)
        ring = dom.field.ring

        def to(x):
            return dom.new(tuple(
                ring.from_list([to_domain(k, c) for c in cs[::-1]])
                for cs in (field.numer_coeffs(x), field.denom_coeffs(x))))

        def back(x):
            return field.from_coeffs(*(
                [from_domain(k, c) for c in q.to_dense()[::-1]]
                for q in (x.numer, x.denom)))
    else:
        dom = sympy_domain(field)
        to, back = (lambda x: to_domain(field, x),
                    lambda x: from_domain(field, x))
    R, pivots = DomainMatrix([[to(x) for x in row] for row in rows],
                             (len(rows), len(rows[0])), dom).rref()
    return ([[back(x) for x in row] for row in R.to_list()[:len(pivots)]],
            list(pivots))


def nullspace(field, rows):
    """The kernel basis of ``rows`` read off sympy's rref: one vector per
    free column, one there, zero at the other free columns."""
    R, pivots = rref(field, rows)
    cols = len(rows[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [field.zero] * cols
        v[fc] = field.one
        for row, pc in zip(R, pivots):
            v[pc] = field.neg(row[fc])
        basis.append(v)
    return basis
