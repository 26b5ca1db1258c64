"""Exact constant fields: QQ and number fields QQ[x]/(m).

A ConstField wraps a sympy domain behind a small adapter interface
(zero/one/add/mul/...), so the rest of the package never touches sympy
element types.  Elements are sympy domain elements, hashable.

A number field is QQ[x]/(m), m the monic minimal polynomial of its
generator g: no arithmetic looks at what g is (Cohen, *A Course in
Computational Algebraic Number Theory*, 3.6).  Each field records how it
was made and the image of each subfield's generator; ``coerce_from``
follows those images only.  Fields over QQ are one per m in a process.
Over a number field QQ(theta), a root beta of an irreducible f is
adjoined by Trager's norm: the squarefree norm of f(x - s*theta) is the
minimal polynomial of beta + s*theta.  Such towers are never shared by
m, which can hold QQ(theta) in different ways.

The algebraically closed constant field of the theory is approximated by
growing a number field whenever a root is needed: ``field_adjoin``,
``split_univariate`` and ``join`` do the growing.
"""

from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.polyerrors import CoercionFailed

from . import _grammar, linalg
from .errors import DgalError

_X = sp.Dummy("x")
# variable of the polynomials inside CRootOf generators; it must differ
# from _X, or a Poly in _X could not hold those generators as coefficients
_R = sp.Dummy("r")

# symbol used when printing/parsing number field elements
GEN_NAME = "g"


class ConstField:
    """QQ, or the number field QQ[x]/(minpoly) with generator g.

    ``step = (base, coeffs, s)`` records how a number field was made: g is
    beta + s*g_base for a root beta of the polynomial with ascending
    coefficients ``coeffs``, irreducible over ``base``.  ``_images`` maps
    each subfield to the image of its generator here."""

    def __init__(self, minpoly=None, step=None):
        self._minpoly = minpoly  # monic irreducible Poly over QQ in _X
        self.step = step
        # a placeholder root per field keeps the domains of different
        # fields unequal: sympy compares algebraic fields by their root alone
        self.dom = (QQ if minpoly is None
                    else QQ.algebraic_field((minpoly, sp.Dummy(GEN_NAME))))
        self._images = {}
        self._sym = None

    def _sympy_dom(self):
        """The domain generated by sympy's canonical root of the minimal
        polynomial: a reference for tests; the package never converts."""
        if self._sym is None:
            self._sym = (QQ if self._minpoly is None else QQ.algebraic_field(
                (self._minpoly, _canonical_root(self._minpoly))))
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
        """Map an element of ``other`` into this field: its power-basis
        coordinates evaluated at the recorded image of ``other``'s
        generator.  Raises CoercionFailed when none is recorded."""
        if other == self:
            return a
        if other.degree() == 1:
            return self.dom.convert(a)
        image = self._images.get(other)
        if image is None:
            raise CoercionFailed("%r holds no recorded image of %r"
                                 % (self, other))
        return self._at(a, image)

    def _at(self, a, image):
        """``a``, a polynomial in another field's generator, evaluated at
        ``image`` here (Horner, descending powers)."""
        out = self.zero
        for c in a.to_list():
            out = out * image + self.dom.convert(c)
        return out

    def _hold(self, field, image):
        """Record ``image`` as the image of field's generator here, and
        through it the images of field's subfields."""
        self._images[field] = image
        for sub, inner in field._images.items():
            self._images[sub] = self._at(inner, image)

    def generator(self):
        """The generator g as a field element (None over QQ)."""
        if self.degree() == 1:
            return None
        return self.dom.unit

    def degree(self):
        return self.dom.mod.degree() if self.dom.is_Algebraic else 1

    def minpoly_coeffs(self):
        """Ascending rational coefficients of the generator's minimal
        polynomial over QQ (None over QQ)."""
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

    def _coords(self, a):
        """Coordinates of ``a`` in the power basis 1, g, ..., g^(deg-1),
        as QQ elements (ascending)."""
        rep = a.to_list() if self.degree() > 1 else [a]  # descending in g
        vec = [QQ.convert(c) for c in reversed(rep)]
        return vec + [QQ.zero] * (self.degree() - len(vec))

    def to_rational_vector(self, a):
        """Coordinates of ``a`` in the power basis 1, g, ..., g^(deg-1),
        as Fractions (ascending)."""
        return [Fraction(int(q.numerator), int(q.denominator))
                for q in self._coords(a)]

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


_RATIONALS = ConstField()


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


def _ascending(poly):
    return poly.rep.to_list()[::-1]


def _canonical_root(poly):
    """The root sorted last of a QQ-irreducible polynomial: a radical for
    quadratics and the binomials x^3 - c and x^4 - c, else a CRootOf."""
    deg = poly.degree()
    if deg == 2 or (deg <= 4 and poly.length() == 2):
        return sorted(sp.roots(poly), key=sp.default_sort_key)[-1]
    return sp.CRootOf(poly.replace(_X, _R), deg - 1)


# monic minimal polynomial (descending coefficients) -> its field.  Fields
# over QQ are values: sharing one object per polynomial lets every stage
# of a run use the same QQ(g) and its recorded embeddings.
_MINPOLY_FIELDS = {}


def _minpoly_field(poly):
    """The field QQ(g) for the monic irreducible ``poly`` over QQ."""
    key = tuple(poly.rep.to_list())
    field = _MINPOLY_FIELDS.get(key)
    if field is None:
        field = _MINPOLY_FIELDS[key] = ConstField(
            poly, (_RATIONALS, _ascending(poly), 0))
    return field


def _adjoin_root(field, poly):
    """(new field, root) for a root of ``poly``, a Poly in _X irreducible
    over ``field``; a linear ``poly`` returns ``field`` itself."""
    if poly.degree() == 1:
        c1, c0 = poly.rep.to_list()
        return field, field.neg(field.div(c0, c1))
    if field.degree() == 1:
        new = _minpoly_field(poly.monic())
        return new, new.generator()
    s, _shifted, norm = poly.sqf_norm()
    s = s[0]  # sympy gives one shift per generator of the ground field
    monic = _ascending(poly.monic())
    new = ConstField(norm.monic(), (field, monic, s))
    theta = _base_generator_image(field, monic, s, new)
    new._hold(field, theta)
    return new, new.generator() - new.from_int(s) * theta


def _base_generator_image(field, monic, s, new):
    """field's generator theta in the generator gamma = beta + s*theta of
    ``new`` = field(beta), beta a root of ``monic``: the powers of gamma
    in the QQ-basis theta^i beta^j of ``new`` give a linear system for
    theta = sum c_k gamma^k."""
    e = len(monic) - 1
    shift = field.from_int(s) * field.generator()
    power = [field.one] + [field.zero] * (e - 1)  # gamma^k as sum v_j beta^j
    cols = []
    for _ in range(field.degree() * e):
        cols.append([q for v in power for q in field._coords(v)])
        top = power[-1]
        power = [shift * power[j] + (power[j - 1] if j else field.zero)
                 - top * monic[j] for j in range(e)]
    theta = [QQ.one if i == 1 else QQ.zero for i in range(len(cols))]
    coeffs = linalg.solve(_RATIONALS, [list(r) for r in zip(*cols)], theta)
    return new.dom.new(coeffs[::-1])


def field_adjoin(field, coeffs):
    """Adjoin a root of the monic irreducible polynomial with the given
    ascending coefficients (elements of ``field``).

    Returns (new_field, root) with root an element of new_field.  Degree-1
    input returns the field unchanged.  Reducible input raises DgalError
    with a factor witness (ascending coefficients) in the message.
    """
    coeffs = _trimmed(field, coeffs)
    if len(coeffs) < 2:
        raise DgalError("adjoin needs a polynomial of degree >= 1")
    poly = _poly_over(field, coeffs)
    if len(coeffs) > 2 and not poly.is_irreducible:
        _, factors = poly.factor_list()
        raise DgalError("polynomial is reducible; factor witness: [%s]"
                        % ", ".join(map(field.format, _ascending(factors[0][0]))))
    return _adjoin_root(field, poly)


def join(f1, f2):
    """A field holding ``f1`` and ``f2``: one of them when it holds the
    other, else f2's steps rebuilt over a copy of f1 from the deepest field
    on f2's chain that f1 holds.  No field gains images once it exists."""
    if f2 == f1 or f2.degree() == 1 or f2 in f1._images:
        return f1
    if f1.degree() == 1 or f1 in f2._images:
        return f2
    chain = []
    sub = f2
    while sub.degree() > 1 and sub not in f1._images:
        chain.append(sub)
        sub = sub.step[0]
    big = ConstField(f1._minpoly, (f1, [-f1.generator(), f1.one], 0))
    big._hold(f1, big.generator())
    joined = _rebuild(big, chain)
    if joined is None:
        raise DgalError("%r and %r hold a common subfield in ways no field "
                        "joins" % (f1, f2))
    return joined


def _rebuild(big, chain):
    """``big`` grown by a root of each step of ``chain`` (deepest last),
    or None.  A step's root must agree with every image ``big`` records
    for a subfield the step's field holds; a root that leaves a later step
    without one is undone.  The roots of one factor over ``big`` are alike
    in this, so one root per factor is tried."""
    if not chain:
        return big
    level = chain[-1]
    base, coeffs, s = level.step
    poly = _poly_over(big, [big.coerce_from(base, c) for c in coeffs])
    for fac, _ in sorted(poly.factor_list()[1], key=lambda fk: fk[0].degree()):
        grown, root = _adjoin_root(big, fac)
        if s:
            root += grown.from_int(s) * grown.coerce_from(base, base.generator())
        if any(grown._at(inner, root) != grown._images[held]
               for held, inner in level._images.items() if held in grown._images):
            continue
        saved = dict(grown._images)
        grown._hold(level, root)
        joined = _rebuild(grown, chain[:-1])
        if joined is not None:
            return joined
        grown._images = saved
    return None


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
        if len(factors) == 1 and factors[0][0].degree() > 1:
            # irreducible over the current field: adjoin one root and
            # divide it out; the quotient is split over the grown field
            fac, k = factors[0]
            small = fld
            fld, root = _adjoin_root(small, fac)
            found.append((fld, root, mult * k))
            desc = [fld.coerce_from(small, c) for c in fac.rep.to_list()]
            quotient = desc[:1]
            for c in desc[1:-1]:
                quotient.append(c + root * quotient[-1])
            pending.append((fld, quotient[::-1], mult * k))
            continue
        for fac, k in factors:
            cs = _ascending(fac)
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
    return _adjoin_root(field, min(factors, key=lambda fk: fk[0].degree())[0])
