"""Exact constant fields: QQ and number fields QQ(theta).

A ConstField wraps a sympy domain and exposes a small, uniform adapter
interface (zero/one/add/mul/...), so the rest of the package never touches
sympy element types directly.  Elements are sympy domain elements and are
hashable, so they can be used as dict keys.

A number field is the monic minimal polynomial m of its primitive element
theta: an element is a polynomial in theta reduced modulo m, and no
arithmetic looks at what theta is (Cohen, *A Course in Computational
Algebraic Number Theory*, 3.6).  ``field_adjoin`` over QQ makes the field
from m alone, one field per m in a process.  The sympy expression of theta
(a radical or a CRootOf) is made only when something needs it: conversion
to or from sympy expressions, and extending or joining a field by way of
sympy's primitive elements.

The algebraically closed constant field of the theory is approximated the
only way a computer can: by growing a number field whenever a root is
needed.  ``field_adjoin`` and ``split_univariate`` do the growing.
"""

from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.polyerrors import CoercionFailed

from . import _grammar
from .errors import DgalError

_X = sp.Dummy("x")
# variable of the polynomials inside CRootOf generators; it must differ
# from _X, or a Poly in _X could not hold those generators as coefficients
_R = sp.Dummy("r")

# symbol used when printing/parsing number field elements
GEN_NAME = "g"


class ConstField:
    """QQ, or a number field QQ(theta) whose arithmetic works modulo the
    minimal polynomial of its primitive element theta.

    ``ConstField(gens)`` is QQ(gens) for sympy expressions ``gens``, with
    the primitive element sympy finds for them.  ``_minpoly_field(m)`` is
    QQ(theta) for a root theta of the monic irreducible m; its ``gens``,
    the canonical root of m, are made on first use."""

    def __init__(self, gens=(), minpoly=None):
        self._minpoly = minpoly  # Poly over QQ in _X, or None
        if minpoly is None:
            self._gens = tuple(gens)
            if len(self._gens) > 1:
                _check_extendable(self._gens)
            self.dom = QQ.algebraic_field(*gens) if gens else QQ
            self._sym = self.dom
        else:
            # a placeholder root per field keeps the domains of different
            # minimal polynomials unequal: sympy compares algebraic fields
            # by their root alone
            self._gens = None
            self.dom = QQ.algebraic_field((minpoly, sp.Dummy(GEN_NAME)))
            self._sym = None
        # subfield domain -> image of its primitive element here (None when
        # the subfield does not embed); filled by coerce_from
        self._images = {}

    @property
    def gens(self):
        """sympy expressions that generate the field over QQ."""
        if self._gens is None:
            self._gens = (_canonical_root(self._minpoly),)
        return self._gens

    def _sympy_dom(self):
        """The domain whose primitive element is the sympy expression of
        this field's; its elements are this field's elements."""
        if self._sym is None:
            self._sym = QQ.algebraic_field((self._minpoly, self.gens[0]))
        return self._sym

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
        return self._sympy_dom().to_sympy(a)

    def from_sympy(self, expr):
        return self._sympy_dom().from_sympy(expr)

    def coerce_from(self, other, a):
        """Map an element of ``other`` (a subfield) into this field: its
        power-basis coordinates evaluated at the image of ``other``'s
        primitive element.  When ``other`` does not embed, the element
        itself may still lie here; it is then converted on its own."""
        if other.dom == self.dom:
            return a
        if other.degree() == 1:
            return self.dom.convert(a)
        image = self._image_of(other)
        if image is None:
            return self.from_sympy(other.to_sympy(a))
        out = self.zero
        for c in a.to_list():  # Horner, descending powers
            out = out * image + self.dom.convert(c)
        return out

    def _image_of(self, other):
        """The image of ``other``'s primitive element here, or None."""
        if other.dom not in self._images:
            try:
                image = self.from_sympy(other.to_sympy(other.generator()))
            except CoercionFailed:
                image = None
            self._images[other.dom] = image
        return self._images[other.dom]

    def generator(self):
        """The primitive element as a field element (None over QQ)."""
        if self.degree() == 1:
            return None
        return self.dom.unit

    def degree(self):
        return self.dom.mod.degree() if self.dom.is_Algebraic else 1

    def minpoly_coeffs(self):
        """Ascending rational coefficients of the primitive element's
        minimal polynomial over QQ (None over QQ)."""
        if self.degree() == 1:
            return None
        rep = self.dom.mod.to_list()  # descending
        return [QQ.convert(c) for c in reversed(rep)]

    def __eq__(self, other):
        return isinstance(other, ConstField) and self.dom == other.dom

    def __hash__(self):
        return hash(self.dom)

    def __repr__(self):
        if self.degree() == 1:
            return "ConstField(QQ)"
        mod = sp.Poly(self.dom.mod.to_list(), sp.Symbol(GEN_NAME), domain=QQ)
        return "ConstField(QQ(%s), %s = 0)" % (GEN_NAME, mod.as_expr())

    # -- power-basis representation ------------------------------------

    def to_rational_vector(self, a):
        """Coordinates of ``a`` in the power basis 1, g, ..., g^(deg-1),
        as Fractions (ascending)."""
        rep = a.to_list() if self.degree() > 1 else [a]  # descending in g
        vec = [Fraction(int(q.numerator), int(q.denominator))
               for q in map(QQ.convert, reversed(rep))]
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
        if self.degree() > 1:
            atoms[GEN_NAME] = self.generator()
        return _grammar.evaluate(
            node, atoms,
            from_int=self.from_int, add=self.add, sub=self.sub, neg=self.neg,
            mul=self.mul, div=self.div, power=self.pow)


def _check_extendable(gens):
    """Refuse to extend QQ(gens) when a generator involves a complex
    CRootOf: sympy finds the primitive element of such an extension by
    evaluating that root to ever higher precision, which runs for minutes
    (extending QQ(CRootOf(x^3 - x - 1, 2)) by the other roots does not
    finish in 10 minutes).  Real CRootOf generators extend quickly."""
    for g in gens:
        for root in g.atoms(sp.CRootOf):
            if not root.is_real:
                raise DgalError("cannot extend a number field generated by the "
                                "complex root %s" % root)


def _trimmed(field, coeffs):
    """``coeffs`` (ascending) without its zero leading coefficients."""
    coeffs = list(coeffs)
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def _poly_over(field, coeffs):
    """The Poly in _X with ascending coefficients ``coeffs``, elements of
    ``field``; built from the domain elements, with no sympy expressions."""
    return sp.Poly.from_list(coeffs[::-1], _X, domain=field.dom)


def _canonical_root(poly):
    """Deterministic root choice for a QQ-irreducible polynomial: the last
    CRootOf index (largest real root, else the complex root sorted last).
    Quadratics and the binomials x^3 - c and x^4 - c come back in radical
    form instead, the root sorted last: radicals print better, and a
    field built over a complex CRootOf cannot be extended again in
    reasonable time (sympy evaluates it to high precision very slowly),
    while splitting x^3 - c must extend QQ(c^(1/3))."""
    deg = poly.degree()
    if deg == 2 or (deg <= 4 and poly.length() == 2):
        return sorted(sp.roots(poly), key=sp.default_sort_key)[-1]
    return sp.CRootOf(poly.replace(_X, _R), deg - 1)


# monic minimal polynomial (descending coefficients) -> its field.  Fields
# are values: sharing one object per polynomial lets every stage of a run
# use the same QQ(theta) and its cached embeddings.
_MINPOLY_FIELDS = {}


def _minpoly_field(poly):
    """The field QQ(theta) for the monic irreducible ``poly`` over QQ."""
    key = tuple(poly.rep.to_list())
    field = _MINPOLY_FIELDS.get(key)
    if field is None:
        field = _MINPOLY_FIELDS[key] = ConstField(minpoly=poly)
    return field


def _as_expr(field, poly):
    """The sympy expression of ``poly``, a Poly in _X over ``field``."""
    return sp.Add(*[field.to_sympy(c) * _X ** k
                    for k, c in enumerate(reversed(poly.rep.to_list()))])


def field_adjoin(field, coeffs):
    """Adjoin a root of the monic irreducible polynomial with the given
    ascending coefficients (elements of ``field``).

    Returns (new_field, root) with root an element of new_field.  Degree-1
    input returns the field unchanged.  Reducible input raises DgalError
    with a factor witness in the message.
    """
    coeffs = _trimmed(field, coeffs)
    if len(coeffs) < 2:
        raise DgalError("adjoin needs a polynomial of degree >= 1")
    if len(coeffs) == 2:
        return field, field.neg(field.div(coeffs[0], coeffs[1]))
    poly = _poly_over(field, coeffs)
    if not poly.is_irreducible:
        _, factors = poly.factor_list()
        raise DgalError("polynomial is reducible; factor witness: %s"
                        % _as_expr(field, factors[0][0]))
    if field.degree() == 1:
        new = _minpoly_field(poly.monic())
        return new, new.generator()
    return _adjoin_over_extension(field, poly)


def _adjoin_over_extension(field, poly):
    """Adjoin a root of an irreducible polynomial whose coefficients live
    in a proper extension of QQ."""
    _check_extendable(field.gens)  # before sympy rebuilds the field below
    # try radical roots first; small degrees resolve this way
    try:
        rts = sp.roots(sp.Poly(_as_expr(field, poly), _X, extension=True))
    except Exception:
        rts = {}
    if sum(rts.values()) == poly.degree():
        root = sorted(rts, key=sp.default_sort_key)[-1]
        new = ConstField(field.gens + (root,))
        return new, new.from_sympy(root)
    # fall back to the absolute polynomial Res_y(minpoly_theta(y), f(x, y)),
    # where f(x, theta) = poly: each coefficient in the power basis of theta
    y = sp.Dummy("y")
    desc = poly.rep.to_list()
    f_xy = sp.Add(*[sp.Poly.from_list(c.to_list(), y, domain=QQ).as_expr() * _X ** i
                    for i, c in enumerate(reversed(desc))])
    mtheta = sp.Poly.from_list(field.dom.mod.to_list(), y, domain=QQ).as_expr()
    absolute = sp.Poly(sp.resultant(mtheta, f_xy, y), _X, domain=QQ)
    for factor, _ in absolute.factor_list()[1]:
        for idx in range(factor.degree() - 1, -1, -1):
            cand = sp.CRootOf(factor.replace(_X, _R), idx)
            new = ConstField(field.gens + (cand,))
            root = new.from_sympy(cand)
            val = new.zero
            for c in desc:
                val = val * root + new.coerce_from(field, c)
            if new.is_zero(val):
                return new, root
    raise DgalError("could not adjoin a root of %s" % _as_expr(field, poly))


def split_univariate(field, coeffs):
    """Factor the univariate polynomial with ascending ``coeffs`` over an
    extension large enough to contain every root.

    Returns (new_field, [(root, multiplicity), ...]).  The original field's
    elements embed into new_field via ``coerce_from``.
    """
    coeffs = _trimmed(field, coeffs)
    if len(coeffs) < 2:
        return field, []
    fld = field
    # (field of the coefficients, ascending coefficients, multiplicity)
    pending = [(field, coeffs, 1)]
    found = []  # (field, root, multiplicity)
    while pending:
        src, cs, mult = pending.pop()
        poly = _poly_over(fld, [fld.coerce_from(src, c) for c in cs])
        _lead, factors = poly.factor_list()
        if (len(factors) == 1 and factors[0][1] == 1
                and factors[0][0].degree() > 1):
            # irreducible over the current field: grow it and retry
            fac = factors[0][0].rep.to_list()[::-1]
            pending.append((fld, fac, mult))
            fld, _root = field_adjoin(fld, fac)
            continue
        for fac, k in factors:
            cs = fac.rep.to_list()[::-1]
            if len(cs) == 2:
                found.append((fld, fld.neg(fld.div(cs[0], cs[1])), mult * k))
            else:
                # refactor over the field grown for an earlier factor
                pending.append((fld, cs, mult * k))
    return fld, [(fld.coerce_from(f, r), m) for f, r, m in found]


def find_one_root(field, coeffs):
    """One root of the given univariate polynomial, adjoining only what
    that single root needs.  Returns (new_field, root)."""
    coeffs = _trimmed(field, coeffs)
    if len(coeffs) < 2:
        raise DgalError("no roots: polynomial is constant")
    _, factors = _poly_over(field, coeffs).factor_list()
    fac = min(factors, key=lambda fk: fk[0].degree())[0]
    return field_adjoin(field, fac.rep.to_list()[::-1])
