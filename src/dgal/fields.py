"""Exact constant fields: QQ and number fields QQ[x]/(m).

A ConstField presents a small adapter interface (zero/one/add/mul/...),
so the rest of the package never looks inside an element.  An element of
QQ is a ``Rational``; an element of QQ[x]/(m) is the tuple of its
ascending power-basis coordinates (Rationals) with no zero leading
entry, reduced modulo m, so that equal elements are equal tuples and 0
is ``()``.  Products are reduced modulo m, inverses come from the
extended Euclidean algorithm (Cohen, *A Course in Computational
Algebraic Number Theory*, 4.2).  Over QQ the adapter methods are the
Rational operators themselves.

A number field is QQ[x]/(m), m the monic minimal polynomial of its
generator g: no arithmetic looks at what g is (Cohen 3.6).  Each field
records how it was made and the image of each subfield's generator;
``coerce_from`` follows those images only.  Fields over QQ are one per m
in a process.  Over a number field QQ(theta), a root beta of an
irreducible f is adjoined by Trager's norm (Trager, *Algebraic factoring
and rational function integration*, SYMSAC 1976): the squarefree norm of
f(x - s*theta) is the minimal polynomial of beta + s*theta.  Such towers
are never shared by m, which can hold QQ(theta) in different ways.

Polynomials over a field factor by Zassenhaus' algorithm over QQ
(``factor``) and by Trager's over a number field: the norm is computed
once, factored over QQ, and its factors pulled back by gcds.  The shifts
s = 0, 1, 2, ... and the order of the factors are those of sympy's
``sqf_norm`` and ``factor_list``, which earlier versions called, so the
towers built and the roots found keep their generators and their order.

The algebraically closed constant field of the theory is approximated by
growing a number field whenever a root is needed: ``field_adjoin``,
``split_univariate`` and ``join`` do the growing.
"""

import operator
from math import gcd

from . import _grammar, factor, linalg, upoly
from .errors import DgalError
from .rational import ONE, ZERO, as_rational

# symbol used when printing/parsing number field elements
GEN_NAME = "g"


class ConstField:
    """QQ, or the number field QQ[x]/(minpoly) with generator g.

    ``minpoly`` is the monic minimal polynomial over QQ, as ascending
    Rationals.  ``step = (base, coeffs, s)`` records how a number field was
    made: g is beta + s*g_base for a root beta of the polynomial with
    ascending coefficients ``coeffs``, irreducible over ``base``.
    ``_images`` maps each subfield to the image of its generator here;
    ``_powers`` keeps, per subfield, that image and its powers up to the
    subfield's degree, which make ``coerce_from`` a linear map."""

    def __init__(self, minpoly=None, step=None):
        self.step = step
        self._images = {}
        self._powers = {}
        if minpoly is None:
            self._minpoly = None
            self._degree = 1
            self.zero, self.one = ZERO, ONE
            # the Rational operators are the field operations
            self.add, self.sub = operator.add, operator.sub
            self.mul, self.neg = operator.mul, operator.neg
            self.is_zero, self.eq = operator.not_, operator.eq
            return
        self._minpoly = tuple(minpoly)
        self._degree = len(minpoly) - 1
        self.zero, self.one = (), (ONE,)
        self.add, self.sub, self.neg = _vec_add, _vec_sub, _vec_neg
        self.mul = self._nf_mul
        self.is_zero, self.eq = operator.not_, operator.eq

    # -- basic protocol -------------------------------------------------

    def from_int(self, n):
        if self._minpoly is None:
            return as_rational(n)
        return (as_rational(n),) if n else ()

    def from_fraction(self, frac):
        """An element from an int, a Rational or a Fraction."""
        return self._embed(as_rational(frac))

    def _embed(self, q):
        """The Rational q as an element."""
        if self._minpoly is None:
            return q
        return (q,) if q else ()

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError("division by zero in constant field")
        if self._minpoly is None:
            return a / b
        if len(b) == 1:  # b is rational: no gcdex
            return tuple([x / b[0] for x in a])
        return self._nf_mul(a, self._nf_inv(b))

    def inv(self, a):
        return self.div(self.one, a)

    def pow(self, a, n):
        if n < 0:
            return self.inv(self.pow(a, -n))
        if self._minpoly is None:
            return a ** n
        out = self.one
        while n:
            if n & 1:
                out = self._nf_mul(out, a)
            n >>= 1
            if n:
                a = self._nf_mul(a, a)
        return out

    def is_one(self, a):
        return a == self.one

    # rows are back-substituted as they come: an exact entry that a row
    # kept at a later pivot would grow with each row reduced by it, and
    # each of those steps costs gcd work
    defers_back_substitution = False
    reduce_row = linalg.reduce_row
    sub_multiples = linalg.sub_multiples
    recurrence_step = linalg.recurrence_step

    # -- number field arithmetic ------------------------------------------

    def _nf_mul(self, a, b):
        if not a or not b:
            return ()
        if len(a) == 1:
            c = a[0]
            return tuple([c * y for y in b])
        if len(b) == 1:
            c = b[0]
            return tuple([x * c for x in a])
        prod = [ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = prod[i + j] + x * y
        m, d = self._minpoly, self._degree
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            if c:
                base = k - d
                for j in range(d):
                    if m[j]:
                        prod[base + j] = prod[base + j] - c * m[j]
        del prod[d:]
        while prod and not prod[-1]:
            prod.pop()
        return tuple(prod)

    def _times_generator(self, a):
        """a * g: the coordinates move up one place, and the top one is
        reduced modulo the minimal polynomial."""
        if len(a) < self._degree:
            return (ZERO,) + a if a else ()
        c = a[-1]
        m = self._minpoly
        out = [ZERO] + list(a[:-1])
        for j, mj in enumerate(m[:-1]):
            if mj:
                out[j] = out[j] - c * mj
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def _nf_inv(self, a):
        s, _t, h = upoly.gcdex(_RATIONALS, list(a), list(self._minpoly))
        if h != [ONE]:
            raise ZeroDivisionError("element not invertible modulo the "
                                    "minimal polynomial")
        return tuple(s)

    # -- conversions ----------------------------------------------------

    def coerce_from(self, other, a):
        """Map an element of ``other`` into this field: its power-basis
        coordinates evaluated at the recorded image of ``other``'s
        generator.  Raises DgalError when none is recorded."""
        if other is self:
            return a
        if other._minpoly is None:
            return self._embed(a)
        image = self._images.get(other)
        if image is None:
            raise DgalError("%r holds no recorded image of %r" % (self, other))
        cached = self._powers.get(other)
        if cached is None or cached[0] is not image:
            powers = [self.one]
            for _ in range(other._degree - 1):
                powers.append(self._nf_mul(powers[-1], image))
            cached = self._powers[other] = (image, powers)
        out = [ZERO] * self._degree
        for c, power in zip(a, cached[1]):
            if c:
                for j, x in enumerate(power):
                    if x:
                        out[j] = out[j] + c * x
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def _at(self, a, image):
        """``a``, a polynomial in another field's generator, evaluated at
        ``image`` here (Horner, descending powers)."""
        out = self.zero
        for c in reversed(a):
            out = self.add(self.mul(out, image), self._embed(c))
        return out

    def _hold(self, field, image):
        """Record ``image`` as the image of field's generator here, and
        through it the images of field's subfields."""
        self._images[field] = image
        for sub, inner in field._images.items():
            self._images[sub] = self.coerce_from(field, inner)

    def generator(self):
        """The generator g as a field element (None over QQ)."""
        if self._minpoly is None:
            return None
        return (ZERO, ONE)

    def degree(self):
        return self._degree

    def minpoly_coeffs(self):
        """Ascending rational coefficients of the generator's minimal
        polynomial over QQ (None over QQ)."""
        if self._minpoly is None:
            return None
        return list(self._minpoly)

    def __eq__(self, other):
        # QQ is one field; a number field is equal to itself only
        return self is other or (isinstance(other, ConstField)
                                 and self._minpoly is None
                                 and other._minpoly is None)

    def __hash__(self):
        return 0 if self._minpoly is None else id(self)

    def __repr__(self):
        if self._minpoly is None:
            return "ConstField(QQ)"
        return "ConstField(QQ(%s), %s = 0)" % (GEN_NAME,
                                               _expr(self._minpoly))

    # -- power-basis representation ------------------------------------

    def to_rational_vector(self, a):
        """Coordinates of ``a`` in the power basis 1, g, ..., g^(deg-1),
        as Rationals (ascending)."""
        if self._minpoly is None:
            return [a]
        return list(a) + [ZERO] * (self._degree - len(a))

    # -- canonical text form -------------------------------------------

    def format(self, a):
        """Canonical string for ``a``; safe to embed as a factor."""
        vec = self.to_rational_vector(a)
        den = 1
        for c in vec:
            den = den * c.denominator // gcd(den, c.denominator)
        terms = []
        for k in range(len(vec) - 1, -1, -1):
            num = vec[k].numerator * (den // vec[k].denominator)
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


def _vec_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    if len(a) > len(b):
        return tuple([x + y for x, y in zip(a, b)]) + a[len(b):]
    out = [x + y for x, y in zip(a, b)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _vec_neg(a):
    return tuple([-x for x in a])


def _vec_sub(a, b):
    if len(a) == len(b):
        out = [x - y for x, y in zip(a, b)]
        while out and not out[-1]:
            out.pop()
        return tuple(out)
    return _vec_add(a, _vec_neg(b))


def _expr(coeffs):
    """sympy's text of the polynomial in GEN_NAME with the ascending
    Rationals ``coeffs``, such as ``g**2 - 3*g/2 + 1``."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        n, d = abs(c.numerator), c.denominator
        mono = "" if k == 0 else GEN_NAME if k == 1 else "%s**%d" % (GEN_NAME, k)
        if not mono:
            body = str(abs(c))
        else:
            body = mono if n == 1 else "%d*%s" % (n, mono)
            if d != 1:
                body += "/%d" % d
        terms.append((c < 0, body))
    text = ("-" if terms[0][0] else "") + terms[0][1]
    for negative, body in terms[1:]:
        text += (" - " if negative else " + ") + body
    return text


_RATIONALS = ConstField()


# monic minimal polynomial (ascending coefficients) -> its field.  Fields
# over QQ are values: sharing one object per polynomial lets every stage
# of a run use the same QQ(g) and its recorded embeddings.
_MINPOLY_FIELDS = {}


def _minpoly_field(monic):
    """The field QQ(g) for the monic irreducible ``monic`` over QQ."""
    key = tuple(monic)
    field = _MINPOLY_FIELDS.get(key)
    if field is None:
        field = _MINPOLY_FIELDS[key] = ConstField(key, (_RATIONALS, list(key), 0))
    return field


# -- Trager's norm and factoring over a number field ------------------------

def sqf_norm(field, f):
    """(s, norm, theta): Trager's squarefree norm of the monic squarefree
    f over the number field QQ(theta).  s is the first of 0, 1, ... for
    which the minimal polynomial ``norm`` over QQ of gamma = beta +
    s*theta, beta a root of f, has degree deg(f) [QQ(theta):QQ];
    ``theta`` is theta as a polynomial in gamma (ascending Rationals), the
    image of the base generator in QQ(gamma) once f is irreducible."""
    s = 0
    while True:
        got = _shifted_norm(field, f, s)
        if got is not None:
            return (s,) + got
        s += 1


def _shifted_norm(field, f, s):
    """(norm, theta) for gamma = beta + s*theta, or None when the norm of
    f(x - s*theta) is not squarefree.

    The powers 1, gamma, ..., gamma^n, n = deg(f) [field:QQ], are written
    in the QQ-basis theta^i beta^j of field[x]/(f).  For squarefree f that
    algebra is a product of fields, so the norm (the characteristic
    polynomial of gamma) is squarefree exactly when the first n powers
    are independent; then gamma^n and theta in that basis give the norm
    and theta's image."""
    e = len(f) - 1
    n = field.degree() * e
    scalar = field.from_int(s)
    add, mul, sub = field.add, field.mul, field.sub
    power = [field.one] + [field.zero] * (e - 1)  # gamma^k as sum v_j beta^j
    cols = []
    for _ in range(n + 1):
        cols.append([q for v in power for q in field.to_rational_vector(v)])
        top = power[-1]
        power = [sub(add(mul(scalar, field._times_generator(power[j])),
                         power[j - 1] if j else field.zero),
                     mul(top, f[j])) for j in range(e)]
    rows = [list(r) + [ONE if i == 1 else ZERO] for i, r in enumerate(zip(*cols))]
    reduced, pivots = linalg.rref(_RATIONALS, rows)
    if pivots != list(range(n)):
        return None
    norm = [-reduced[i][n] for i in range(n)] + [ONE]
    theta = upoly.trim(_RATIONALS, [reduced[i][n + 1] for i in range(n)])
    return norm, tuple(theta)


def factor_list(field, coeffs):
    """Factor the nonconstant polynomial with ascending ``coeffs`` over
    ``field``: ([(factor, multiplicity)], norm).

    The factors are sympy's: primitive integer polynomials over QQ, monic
    ones over a number field, in ``factor_list``'s order.  ``norm`` is the
    ``sqf_norm`` of the single factor over a number field when there is
    one factor, else None; adjoining a root of that factor reuses it."""
    coeffs = upoly.trim(field, coeffs)
    if field.degree() == 1:
        return [([as_rational(c) for c in g], k)
                for g, k in factor.factor_list(field, coeffs)], None
    coeffs = upoly.monic(field, coeffs)
    j = next(i for i, c in enumerate(coeffs) if not field.is_zero(c))
    f = coeffs[j:]
    out = [([field.zero, field.one], j)] if j else []
    norm = None
    if len(f) == 2:
        out.append((f, 1))
    elif len(f) > 2:
        sqf = upoly.sqf_part(field, f)
        got = sqf_norm(field, sqf)
        s, minpoly, _theta = got
        qfactors = factor.factor_list(_RATIONALS, minpoly)
        if len(qfactors) == 1:
            out.append((sqf, (len(f) - 1) // (len(sqf) - 1)))
            norm = got
        else:
            # each factor q of the norm of sqf(x - s*theta) is the norm of
            # one factor of it, its gcd with q; shifted back, a factor of f
            shift = field.mul(field.from_int(s), field.generator())
            g = upoly.shift(field, sqf, field.neg(shift))
            for q, _ in qfactors:
                h = upoly.gcd(field, [field.from_int(c) for c in q], g)
                g = upoly.exquo(field, g, h)
                h = upoly.shift(field, h, shift)
                k, f = upoly.divide_out(field, f, h)
                out.append((h, k))
    # sympy compares coefficients by their descending coordinates
    out.sort(key=lambda fk: (len(fk[0]), fk[1],
                             [list(reversed(c)) for c in reversed(fk[0])]))
    return out, (norm if len(out) == 1 else None)


# -- growing fields -----------------------------------------------------------

def _adjoin_root(field, poly, norm=None):
    """(new field, root) for a root of ``poly`` (ascending coefficients),
    irreducible over ``field``; a linear ``poly`` returns ``field`` itself.
    ``norm`` is poly's ``sqf_norm`` when already known."""
    if len(poly) == 2:
        return field, field.neg(field.div(poly[0], poly[1]))
    monic = upoly.monic(field, poly)
    if field.degree() == 1:
        new = _minpoly_field(monic)
        return new, new.generator()
    s, minpoly, theta = norm or sqf_norm(field, monic)
    new = ConstField(minpoly, (field, monic, s))
    new._hold(field, theta)
    return new, new.sub(new.generator(), new.mul(new.from_int(s), theta))


def field_adjoin(field, coeffs):
    """Adjoin a root of the monic irreducible polynomial with the given
    ascending coefficients (elements of ``field``).

    Returns (new_field, root) with root an element of new_field.  Degree-1
    input returns the field unchanged.  Reducible input raises DgalError
    with a factor witness (ascending coefficients) in the message.
    """
    coeffs = upoly.trim(field, coeffs)
    if len(coeffs) < 2:
        raise DgalError("adjoin needs a polynomial of degree >= 1")
    norm = None
    if len(coeffs) > 2:
        factors, norm = factor_list(field, coeffs)
        if len(factors) > 1 or factors[0][1] > 1:
            raise DgalError("polynomial is reducible; factor witness: [%s]"
                            % ", ".join(map(field.format, factors[0][0])))
    return _adjoin_root(field, coeffs, norm)


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
    big = ConstField(f1._minpoly, (f1, [f1.neg(f1.generator()), f1.one], 0))
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
    factors, norm = factor_list(big, [big.coerce_from(base, c) for c in coeffs])
    for fac, _ in sorted(factors, key=lambda fk: len(fk[0])):
        grown, root = _adjoin_root(big, fac, norm)
        if s:
            root = grown.add(root, grown.mul(
                grown.from_int(s), grown.coerce_from(base, base.generator())))
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
    coeffs = upoly.trim(field, coeffs)
    if len(coeffs) < 2:
        return field, []
    fld = field
    # (field of the coefficients, ascending coefficients, multiplicity)
    pending = [(field, coeffs, 1)]
    found = []  # (field, root, multiplicity)
    while pending:
        src, cs, mult = pending.pop()
        factors, norm = factor_list(fld, [fld.coerce_from(src, c) for c in cs])
        if len(factors) == 1 and len(factors[0][0]) > 2:
            # irreducible over the current field: adjoin one root and
            # divide it out; the quotient is split over the grown field
            fac, k = factors[0]
            small = fld
            fld, root = _adjoin_root(small, fac, norm)
            found.append((fld, root, mult * k))
            desc = [fld.coerce_from(small, c) for c in reversed(fac)]
            quotient = desc[:1]
            for c in desc[1:-1]:
                quotient.append(fld.add(c, fld.mul(root, quotient[-1])))
            pending.append((fld, quotient[::-1], mult * k))
            continue
        for fac, k in factors:
            if len(fac) == 2:
                found.append((fld, fld.neg(fld.div(fac[0], fac[1])), mult * k))
            else:
                # refactor over the field grown for an earlier factor
                pending.append((fld, fac, mult * k))
    return fld, [(fld.coerce_from(f, r), m) for f, r, m in found]
