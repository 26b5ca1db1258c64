"""Exact constant fields: QQ and number fields QQ(theta).

A ConstField wraps a sympy domain and exposes a small, uniform adapter
interface (zero/one/add/mul/...), so the rest of the package never touches
sympy element types directly.  Elements are sympy domain elements and are
hashable, so they can be used as dict keys.

The algebraically closed constant field of the theory is approximated the
only way a computer can: by growing a number field whenever a root is
needed.  ``field_adjoin`` and ``split_univariate`` do the growing.
"""

from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ

from . import _grammar
from .errors import DgalError

_X = sp.Dummy("x")

# symbol used when printing/parsing number field elements
GEN_NAME = "g"


class ConstField:
    """QQ or QQ(theta_1, ..., theta_r) with a primitive element."""

    def __init__(self, gens=()):
        self.gens = tuple(gens)
        self.dom = QQ.algebraic_field(*gens) if gens else QQ
        self._minpoly = None

    # -- basic protocol -------------------------------------------------

    @property
    def zero(self):
        return self.dom.zero

    @property
    def one(self):
        return self.dom.one

    def from_int(self, n):
        return self.dom.convert(n)

    def from_fraction(self, frac):
        frac = Fraction(frac)
        return self.dom.convert(QQ(frac.numerator, frac.denominator))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError("division by zero in constant field")
        return self.dom.exquo(a, b)

    def inv(self, a):
        return self.div(self.one, a)

    def pow(self, a, n):
        if n < 0:
            return self.inv(self.pow(a, -n))
        return a ** n

    def is_zero(self, a):
        return not a

    def is_one(self, a):
        return a == self.dom.one

    def eq(self, a, b):
        return a == b

    # -- conversions ----------------------------------------------------

    def to_sympy(self, a):
        return self.dom.to_sympy(a)

    def from_sympy(self, expr):
        return self.dom.from_sympy(expr)

    def coerce_from(self, other, a):
        """Map an element of ``other`` (a subfield) into this field."""
        if other.dom == self.dom:
            return a
        return self.from_sympy(other.to_sympy(a))

    def generator(self):
        """The primitive element as a field element (None over QQ)."""
        if not self.gens:
            return None
        return self.dom.unit

    def degree(self):
        if not self.gens:
            return 1
        return self.dom.mod.degree()

    def minpoly_coeffs(self):
        """Ascending rational coefficients of the primitive element's
        minimal polynomial over QQ (None over QQ)."""
        if not self.gens:
            return None
        rep = self.dom.mod.to_list()  # descending
        return [QQ.convert(c) for c in reversed(rep)]

    def __eq__(self, other):
        return isinstance(other, ConstField) and self.dom == other.dom

    def __hash__(self):
        return hash(self.dom)

    def __repr__(self):
        if not self.gens:
            return "ConstField(QQ)"
        return "ConstField(QQ(%s))" % ", ".join(str(g) for g in self.gens)

    # -- power-basis representation ------------------------------------

    def to_rational_vector(self, a):
        """Coordinates of ``a`` in the power basis 1, g, ..., g^(deg-1),
        as Fractions (ascending)."""
        if not self.gens:
            q = QQ.convert(a)
            return [Fraction(int(q.numerator), int(q.denominator))]
        rep = a.to_list()  # descending in powers of g
        vec = [Fraction(int(QQ.convert(c).numerator), int(QQ.convert(c).denominator))
               for c in reversed(rep)]
        vec += [Fraction(0)] * (self.degree() - len(vec))
        return vec

    # -- canonical text form -------------------------------------------

    def format(self, a):
        """Canonical string for ``a``; safe to embed as a factor."""
        vec = self.to_rational_vector(a)
        den = 1
        for c in vec:
            den = den * c.denominator // sp.igcd(den, c.denominator)
        terms = []
        for k in range(len(vec) - 1, -1, -1):
            num = vec[k] * den
            assert num.denominator == 1
            num = num.numerator
            if num == 0:
                continue
            if k == 0:
                body = str(abs(num))
            elif k == 1:
                body = GEN_NAME if abs(num) == 1 else "%d*%s" % (abs(num), GEN_NAME)
            else:
                body = ("%s^%d" % (GEN_NAME, k) if abs(num) == 1
                        else "%d*%s^%d" % (abs(num), GEN_NAME, k))
            terms.append(("-" if num < 0 else "+", body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += " %s %s" % (sign, body)
        if len(terms) > 1:
            text = "(%s)" % text  # sums need parens when embedded in a product
        if den != 1:
            return "%s/%d" % (text, den)
        return text

    def parse(self, text):
        node = _grammar.parse(text)
        atoms = {}
        if self.gens:
            atoms[GEN_NAME] = self.generator()
        return _grammar.evaluate(
            node, atoms,
            from_int=self.from_int, add=self.add, sub=self.sub, neg=self.neg,
            mul=self.mul, div=self.div, power=self.pow)


def _poly_over(field, coeffs):
    """sympy expr sum(coeffs[i] * x^i) with algebraic-number coefficients."""
    return sp.Add(*[field.to_sympy(c) * _X ** i for i, c in enumerate(coeffs)])


def _canonical_root(expr):
    """Deterministic root choice for a QQ-irreducible polynomial: the last
    CRootOf index (largest real root, else the complex root sorted last).
    Quadratics come back in radical form, which prints better."""
    poly = sp.Poly(expr, _X, domain=QQ)
    deg = poly.degree()
    if deg == 2:
        rts = sorted(sp.roots(poly), key=sp.default_sort_key)
        return rts[-1]
    return sp.CRootOf(poly, deg - 1)


def field_adjoin(field, coeffs):
    """Adjoin a root of the monic irreducible polynomial with the given
    ascending coefficients (elements of ``field``).

    Returns (new_field, root) with root an element of new_field.  Degree-1
    input returns the field unchanged.  Reducible input raises DgalError
    with a factor witness in the message.
    """
    coeffs = list(coeffs)
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) < 2:
        raise DgalError("adjoin needs a polynomial of degree >= 1")
    if len(coeffs) == 2:
        return field, field.neg(field.div(coeffs[0], coeffs[1]))
    expr = _poly_over(field, coeffs)
    poly = sp.Poly(expr, _X, domain=field.dom)
    if not poly.is_irreducible:
        _, factors = poly.factor_list()
        witness = factors[0][0].as_expr()
        raise DgalError("polynomial is reducible; factor witness: %s" % witness)
    if not field.gens:
        root = _canonical_root(expr)
        new = ConstField(field.gens + (root,))
        return new, new.from_sympy(root)
    return _adjoin_over_extension(field, poly)


def _adjoin_over_extension(field, poly):
    """Adjoin a root of an irreducible polynomial whose coefficients live
    in a proper extension of QQ."""
    # try radical roots first; small degrees resolve this way
    try:
        rts = sp.roots(sp.Poly(poly.as_expr(), _X, extension=True))
    except Exception:
        rts = {}
    if sum(rts.values()) == poly.degree():
        root = sorted(rts, key=sp.default_sort_key)[-1]
        new = ConstField(field.gens + (root,))
        return new, new.from_sympy(root)
    # fall back to the absolute polynomial: Res_y(minpoly_theta(y), f_y(x))
    y = sp.Dummy("y")
    theta = field.dom.ext.as_expr()
    mtheta = sp.minimal_polynomial(theta, y)
    f_y = poly.as_expr().subs(theta, y)
    absolute = sp.Poly(sp.resultant(mtheta, f_y, y), _X, domain=QQ)
    for factor, _ in absolute.factor_list()[1]:
        for idx in range(factor.degree() - 1, -1, -1):
            cand = sp.CRootOf(factor, idx)
            new = ConstField(field.gens + (cand,))
            root = new.from_sympy(cand)
            coeffs = [new.from_sympy(c)
                      for c in reversed(sp.Poly(poly.as_expr(), _X).all_coeffs())]
            val, p = new.zero, new.one
            for c in coeffs:
                val = val + c * p
                p = p * root
            if new.is_zero(val):
                return new, root
    raise DgalError("could not adjoin a root of %s" % poly.as_expr())


def split_univariate(field, coeffs):
    """Factor the univariate polynomial with ascending ``coeffs`` over an
    extension large enough to contain every root.

    Returns (new_field, [(root, multiplicity), ...]).  The original field's
    elements embed into new_field via ``coerce_from``.
    """
    coeffs = list(coeffs)
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) < 2:
        return field, []
    fld = field
    pending = [(_poly_over(field, coeffs), 1)]
    found = []  # (sympy root expr, multiplicity)
    while pending:
        expr, mult = pending.pop()
        poly = sp.Poly(expr, _X, domain=fld.dom)
        _lead, factors = poly.factor_list()
        if (len(factors) == 1 and factors[0][1] == 1
                and factors[0][0].degree() > 1):
            # irreducible over the current field: grow it and retry
            fac = factors[0][0]
            fld, _root = field_adjoin(
                fld, [fld.dom.convert(c) for c in reversed(fac.all_coeffs())])
            pending.append((fac.as_expr(), mult))
            continue
        for fac, k in factors:
            if fac.degree() == 1:
                a1, a0 = fac.all_coeffs()
                root = fld.neg(fld.div(fld.dom.convert(a0), fld.dom.convert(a1)))
                found.append((fld.to_sympy(root), mult * k))
            else:
                # refactor over the field grown for an earlier factor
                pending.append((fac.as_expr(), mult * k))
    return fld, [(fld.from_sympy(r), m) for r, m in found]


def find_one_root(field, coeffs):
    """One root of the given univariate polynomial, adjoining only what
    that single root needs.  Returns (new_field, root)."""
    coeffs = list(coeffs)
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) < 2:
        raise DgalError("no roots: polynomial is constant")
    poly = sp.Poly(_poly_over(field, coeffs), _X, domain=field.dom)
    _, factors = poly.factor_list()
    factors.sort(key=lambda fk: fk[0].degree())
    fac = factors[0][0]
    return field_adjoin(field, [field.dom.convert(c) for c in reversed(fac.all_coeffs())])
