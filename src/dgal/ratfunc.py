"""Rational functions in one variable t over a ConstField.

An element is a reduced pair (num, den) of dense polynomials in t
(``upoly`` lists, ascending) with gcd(num, den) = 1 and den monic, so
equal values have equal pairs; 0 is ([], [1]).  Sums and products
cancel with the gcds Knuth gives for fractions (*The Art of Computer
Programming* 2, 4.5.1): the gcd of the denominators for a sum, two cross
gcds for a product, and none at all when both denominators are 1.  The
field presents the same adapter interface as ConstField, plus
differentiation, evaluation, canonical text form, and partial fractions
over a splitting field.
"""

from . import _grammar, linalg, upoly
from .errors import DgalError, SingularPointError
from .fields import GEN_NAME, split_univariate


class RatFuncField:
    """const(t): rational functions over an exact constant field."""

    def __init__(self, const, var="t"):
        self.const = const
        self.var = var
        one = const.one
        self._unit = [one]
        self.zero = ([], self._unit)
        self.one = ([one], self._unit)
        self.t = ([const.zero, one], self._unit)

    # -- constructors ---------------------------------------------------

    def from_int(self, n):
        return self.from_const(self.const.from_int(n))

    def from_const(self, c):
        if self.const.is_zero(c):
            return self.zero
        return ([c], self._unit)

    def from_coeffs(self, num_coeffs, den_coeffs=None):
        """Build num/den from ascending coefficient lists over the
        constant field."""
        k = self.const
        num = upoly.trim(k, num_coeffs)
        if den_coeffs is None:
            return self._reduced(num, self._unit)
        den = upoly.trim(k, den_coeffs)
        if not den:
            raise ZeroDivisionError("zero denominator")
        return self._reduced(num, den)

    def _reduced(self, num, den):
        """num/den in lowest terms with a monic denominator."""
        k = self.const
        if not num:
            return self.zero
        if len(den) > 1:
            g, num1, den1 = upoly.cofactors(k, num, den)
            if len(g) > 1:
                num, den = num1, den1
        lead = den[-1]
        if not k.is_one(lead):
            inv = k.inv(lead)
            num = upoly.scale(k, num, inv)
            den = upoly.scale(k, den, inv)
        return (num, den)

    # -- arithmetic adapter ---------------------------------------------

    def add(self, a, b):
        an, ad = a
        bn, bd = b
        if not an:
            return b
        if not bn:
            return a
        k = self.const
        if ad == bd:
            num = upoly.add(k, an, bn)
            if len(ad) == 1:
                return (num, ad) if num else self.zero
            return self._reduced(num, ad)
        g, ad1, bd1 = upoly.cofactors(k, ad, bd)
        num = upoly.add(k, upoly.mul(k, an, bd1), upoly.mul(k, bn, ad1))
        if not num:
            return self.zero
        if len(g) > 1:
            # only a factor of g can divide both num and ad1 bd1 g
            g2, num1, g1 = upoly.cofactors(k, num, g)
            if len(g2) > 1:
                num, g = num1, g1
        return (num, upoly.mul(k, upoly.mul(k, ad1, bd1), g))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        neg = self.const.neg
        return ([neg(c) for c in a[0]], a[1])

    def mul(self, a, b):
        an, ad = a
        bn, bd = b
        if not an or not bn:
            return self.zero
        k = self.const
        if len(ad) == 1 and len(bd) == 1:
            return (upoly.mul(k, an, bn), self._unit)
        if len(bd) > 1:
            g, an1, bd1 = upoly.cofactors(k, an, bd)
            if len(g) > 1:
                an, bd = an1, bd1
        if len(ad) > 1:
            g, bn1, ad1 = upoly.cofactors(k, bn, ad)
            if len(g) > 1:
                bn, ad = bn1, ad1
        return (upoly.mul(k, an, bn), upoly.mul(k, ad, bd))

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError("division by zero in rational functions")
        return self.mul(a, self.inv(b))

    def inv(self, a):
        num, den = a
        if not num:
            raise ZeroDivisionError("division by zero in rational functions")
        k = self.const
        if k.is_one(num[-1]):
            return (den, num)
        c = k.inv(num[-1])
        return (upoly.scale(k, den, c), upoly.scale(k, num, c))

    def pow(self, a, n):
        if n < 0:
            return self.inv(self.pow(a, -n))
        num, den = self.one
        k = self.const
        for _ in range(n):
            num, den = upoly.mul(k, num, a[0]), upoly.mul(k, den, a[1])
        return (num, den)

    def is_zero(self, a):
        return not a[0]

    def is_one(self, a):
        return a == self.one

    def eq(self, a, b):
        return a == b

    # rows are kept reduced, as over the constant field
    defers_back_substitution = False
    reduce_row = linalg.reduce_row
    sub_multiples = linalg.sub_multiples

    def scale(self, a, c):
        """Multiply by a constant-field element."""
        if self.const.is_zero(c):
            return self.zero
        return (upoly.scale(self.const, a[0], c), a[1])

    # -- calculus and evaluation ----------------------------------------

    def diff(self, a):
        k = self.const
        n, d = a
        num = upoly.sub(k, upoly.mul(k, upoly.diff(k, n), d),
                        upoly.mul(k, n, upoly.diff(k, d)))
        return self._reduced(num, upoly.mul(k, d, d))

    def numer_coeffs(self, a):
        return list(a[0]) or [self.const.zero]

    def denom_coeffs(self, a):
        return list(a[1])

    def denom_lcm(self, fs):
        """The lcm of the denominators of fs, as a polynomial element."""
        k = self.const
        q = self._unit
        for f in fs:
            q = upoly.mul(k, q, upoly.cofactors(k, q, f[1])[2])
        return (q, self._unit)

    def is_polynomial(self, a):
        return len(a[1]) == 1

    def eval_at(self, a, point):
        """Value at t = point (a constant field element); raises
        SingularPointError at a pole."""
        k = self.const
        num = upoly.evaluate(k, a[0], point)
        den = upoly.evaluate(k, a[1], point)
        if k.is_zero(den):
            if k.is_zero(num):
                raise SingularPointError("0/0 at t = %s" % k.format(point))
            raise SingularPointError("pole at t = %s" % k.format(point))
        return k.div(num, den)

    def is_regular_at(self, a, point):
        return not self.const.is_zero(upoly.evaluate(self.const, a[1], point))

    # -- field extension ------------------------------------------------

    def over(self, new_const):
        """Same variable, larger constant field."""
        return RatFuncField(new_const, self.var)

    def coerce_from(self, other, a):
        """Embed an element of ``other`` (same variable, subfield
        constants) into this field."""
        if other.const == self.const and other.var == self.var:
            return a
        # an embedding keeps the pair coprime and the denominator monic
        k, small = self.const, other.const
        return ([k.coerce_from(small, c) for c in a[0]],
                [k.coerce_from(small, c) for c in a[1]])

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
        num, den = a
        num_s = self._format_poly(num)
        if len(den) == 1:
            return num_s
        den_s = self._format_poly(den)
        return "(%s)/(%s)" % (num_s, den_s)

    def parse(self, text):
        node = _grammar.parse(text)
        atoms = {self.var: self.t}
        if self.const.degree() > 1:
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
        qc, rc = upoly.divmod_(kbig, upoly.trim(kbig, num), den)
        parts = []
        for pole, mult in pole_list:
            # h = f * (t - pole)^mult, regular at the pole; its Taylor
            # coefficients there give the principal part
            rest = upoly.shift(kbig, den, pole)[mult:]  # den/(t-pole)^m shifted
            num_sh = upoly.shift(kbig, rc, pole)
            taylor = _series_div(kbig, num_sh, rest, mult)
            coeffs = [taylor[mult - 1 - i] for i in range(mult)]
            parts.append((pole, coeffs))
        return big, qc, parts


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
