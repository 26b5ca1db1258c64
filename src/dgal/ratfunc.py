"""Rational functions in one variable t over a ConstField.

Wraps sympy's sparse fraction field and presents the same adapter
interface as ConstField, plus differentiation, evaluation, canonical
text form, and partial fractions over a splitting field.
"""

from sympy.polys.fields import FracField

from . import _grammar
from .errors import DgalError, SingularPointError
from .fields import split_univariate


class RatFuncField:
    """const(t): rational functions over an exact constant field."""

    def __init__(self, const, var="t"):
        self.const = const
        self.var = var
        self.fld = FracField(var, const.dom)
        self.ring = self.fld.ring
        self.rgen = self.ring.gens[0]

    # -- constructors ---------------------------------------------------

    @property
    def zero(self):
        return self.fld.zero

    @property
    def one(self):
        return self.fld.one

    @property
    def t(self):
        return self.fld.gens[0]

    def from_int(self, n):
        return self.fld.ground_new(self.const.from_int(n))

    def from_const(self, c):
        return self.fld.ground_new(c)

    def from_coeffs(self, num_coeffs, den_coeffs=None):
        """Build num/den from ascending coefficient lists over the
        constant field."""
        num = self._poly_from_coeffs(num_coeffs)
        if den_coeffs is None:
            den = self.ring.one
        else:
            den = self._poly_from_coeffs(den_coeffs)
            if not den:
                raise ZeroDivisionError("zero denominator")
        return self.fld.new(num, den)

    def _poly_from_coeffs(self, coeffs):
        return self.ring.from_dict(
            {(i,): c for i, c in enumerate(coeffs) if not self.const.is_zero(c)})

    # -- arithmetic adapter ---------------------------------------------

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
            raise ZeroDivisionError("division by zero in rational functions")
        return a / b

    def inv(self, a):
        return self.div(self.one, a)

    def pow(self, a, n):
        if n < 0:
            return self.inv(self.pow(a, -n))
        return a ** n

    def is_zero(self, a):
        return not a

    def is_one(self, a):
        return a == self.fld.one

    def eq(self, a, b):
        # over a number field, sympy keeps num/den up to a constant
        # factor, so equal values can differ in representation
        return self.is_zero(a - b)

    def scale(self, a, c):
        """Multiply by a constant-field element."""
        return a * self.fld.ground_new(c)

    # -- calculus and evaluation ----------------------------------------

    def diff(self, a):
        n, d = a.numer, a.denom
        g = self.rgen
        num = n.diff(g) * d - n * d.diff(g)
        return self.fld.new(num, d * d)

    def numer_coeffs(self, a):
        return self._coeff_list(a.numer)

    def denom_coeffs(self, a):
        return self._coeff_list(a.denom)

    def _coeff_list(self, poly):
        if not poly:
            return [self.const.zero]
        deg = poly.degree()
        out = [self.const.zero] * (deg + 1)
        for (e,), c in poly.terms():
            out[e] = c
        return out

    def denom_lcm(self, fs):
        """The lcm of the denominators of fs, as a polynomial element."""
        q = self.ring.one
        for f in fs:
            q = q.lcm(f.denom)
        return self.fld.new(q)

    def is_polynomial(self, a):
        return a.denom.degree() == 0

    def eval_at(self, a, point):
        """Value at t = point (a constant field element); raises
        SingularPointError at a pole."""
        num = self._eval_poly(a.numer, point)
        den = self._eval_poly(a.denom, point)
        if self.const.is_zero(den):
            if self.const.is_zero(num):
                raise SingularPointError("0/0 at t = %s" % self.const.format(point))
            raise SingularPointError("pole at t = %s" % self.const.format(point))
        return self.const.div(num, den)

    def _eval_poly(self, poly, point):
        # Horner over possibly sparse support
        out = self.const.zero
        prev = None
        for (e,), c in sorted(poly.terms(), reverse=True):
            if prev is not None:
                out = self.const.mul(out, self.const.pow(point, prev - e))
            out = self.const.add(out, c)
            prev = e
        if prev is not None and prev > 0:
            out = self.const.mul(out, self.const.pow(point, prev))
        return out

    def is_regular_at(self, a, point):
        return not self.const.is_zero(self._eval_poly(a.denom, point))

    # -- field extension ------------------------------------------------

    def over(self, new_const):
        """Same variable, larger constant field."""
        return RatFuncField(new_const, self.var)

    def coerce_from(self, other, a):
        """Embed an element of ``other`` (same variable, subfield
        constants) into this field."""
        if other.fld == self.fld:
            return a
        num = [self.const.coerce_from(other.const, c) for c in other.numer_coeffs(a)]
        den = [self.const.coerce_from(other.const, c) for c in other.denom_coeffs(a)]
        return self.from_coeffs(num, den)

    # -- canonical text form --------------------------------------------

    def _format_poly(self, coeffs):
        terms = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if self.const.is_zero(c):
                continue
            cs = self.const.format(c)
            if k == 0:
                terms.append(cs)
            else:
                tpow = self.var if k == 1 else "%s^%d" % (self.var, k)
                terms.append(tpow if cs == "1" else "%s*%s" % (cs, tpow))
        return " + ".join(terms) if terms else "0"

    def format(self, a):
        """Canonical string: monic denominator, terms by falling degree."""
        if self.is_zero(a):
            return "0"
        den = self.denom_coeffs(a)
        lead = den[-1]
        num = self.numer_coeffs(a)
        if not self.const.is_one(lead):
            num = [self.const.div(c, lead) for c in num]
            den = [self.const.div(c, lead) for c in den]
        num_s = self._format_poly(num)
        if len(den) == 1:
            return num_s
        den_s = self._format_poly(den)
        return "(%s)/(%s)" % (num_s, den_s)

    def parse(self, text):
        node = _grammar.parse(text)
        atoms = {self.var: self.t}
        if self.const.degree() > 1:
            from .fields import GEN_NAME
            atoms[GEN_NAME] = self.from_const(self.const.generator())
        return _grammar.evaluate(
            node, atoms,
            from_int=self.from_int, add=self.add, sub=self.sub, neg=self.neg,
            mul=self.mul, div=self.div, power=self.pow)

    # -- partial fractions ----------------------------------------------

    def partial_fractions(self, a):
        """Decompose over a splitting field of the denominator.

        Returns (big_ratfield, poly_part, parts) where poly_part is the
        ascending coefficient list of the polynomial part over the big
        constant field and parts is a list of (pole, [c_1, ..., c_m]) with
        f containing c_j / (t - pole)^j.
        """
        kbig, pole_list = split_univariate(self.const, self.denom_coeffs(a))
        big = self.over(kbig) if kbig != self.const else self
        f = big.coerce_from(self, a)
        num = big.numer_coeffs(f)
        den = big.denom_coeffs(f)
        qc, rc = _poly_divmod(kbig, num, den)
        parts = []
        for pole, mult in pole_list:
            # h = f * (t - pole)^mult, regular at the pole; its Taylor
            # coefficients there give the principal part
            rest = _poly_shift(kbig, den, pole)[mult:]  # den/(t-pole)^m shifted
            num_sh = _poly_shift(kbig, rc, pole)
            taylor = _series_div(kbig, num_sh, rest, mult)
            coeffs = [taylor[mult - 1 - i] for i in range(mult)]
            parts.append((pole, coeffs))
        return big, qc, parts


def _poly_divmod(field, num, den):
    """Quotient and remainder of ascending-coefficient polynomials."""
    num = list(num)
    dn = len(den) - 1
    while dn > 0 and field.is_zero(den[dn]):
        dn -= 1
    q = [field.zero] * max(len(num) - dn, 1)
    for k in range(len(num) - 1 - dn, -1, -1):
        c = field.div(num[k + dn], den[dn])
        q[k] = c
        for j in range(dn + 1):
            num[k + j] = field.sub(num[k + j], field.mul(c, den[j]))
    r = num[:dn] if dn else [field.zero]
    return q, (r if r else [field.zero])


def _poly_shift(field, coeffs, a):
    """Taylor shift: coefficients of p(x + a) from those of p(x)."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            out[k] = field.add(out[k], field.mul(a, out[k + 1]))
    return out


def _series_div(field, num, den, order):
    """First ``order`` coefficients of num/den as power series; den must
    have a nonzero constant term."""
    num = list(num) + [field.zero] * order
    if field.is_zero(den[0]):
        raise DgalError("series division by a non-unit")
    inv0 = field.inv(den[0])
    out = []
    for k in range(order):
        acc = num[k]
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = field.sub(acc, field.mul(den[j], out[k - j]))
        out.append(field.mul(acc, inv0))
    return out
