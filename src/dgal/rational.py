"""Exact rational numbers: the element type of the field QQ.

``Rational`` is a reduced fraction of two Python ints with a positive
denominator.  It trades the generality of the standard ``Fraction`` for
speed on the operations the series recurrences and eliminations repeat:
``__slots__`` storage, construction without a gcd where the operands
already guarantee lowest terms, and the cross-cancellation of
Knuth, *The Art of Computer Programming* 2, 4.5.1 (a gcd of the
denominators for a sum, two cross gcds for a product).  It is registered
as a ``numbers.Rational``: ``Fraction(x)`` converts it, and it compares
with ints and Fractions by value.  Arithmetic mixes it with ints only.
"""

import numbers
from math import gcd
from sys import hash_info, int_info

_HASH_MODULUS = hash_info.modulus
_HASH_INF = hash_info.inf


class Rational:
    """numerator/denominator in lowest terms, denominator > 0."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator=0, denominator=1):
        """numerator/denominator of two ints, brought to lowest terms."""
        if not denominator:
            raise ZeroDivisionError("Rational(%d, 0)" % numerator)
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        g = gcd(numerator, denominator)
        if g != 1:
            numerator //= g
            denominator //= g
        return _new(numerator, denominator)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if type(other) is Rational:
            an, ad = self.numerator, self.denominator
            bn, bd = other.numerator, other.denominator
            if ad == bd:
                if ad == 1:
                    return _new(an + bn, 1)
                n = an + bn
                g = gcd(n, ad)
                return _new(n // g, ad // g) if g != 1 else _new(n, ad)
            g = gcd(ad, bd)
            if g == 1:
                return _new(an * bd + bn * ad, ad * bd)
            a1, b1 = ad // g, bd // g
            n = an * b1 + bn * a1
            g2 = gcd(n, g)
            return _new(n // g2, a1 * (bd // g2))
        if type(other) is int:
            return _new(self.numerator + other * self.denominator,
                        self.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Rational:
            an, ad = self.numerator, self.denominator
            bn, bd = other.numerator, other.denominator
            if ad == bd:
                if ad == 1:
                    return _new(an - bn, 1)
                n = an - bn
                g = gcd(n, ad)
                return _new(n // g, ad // g) if g != 1 else _new(n, ad)
            g = gcd(ad, bd)
            if g == 1:
                return _new(an * bd - bn * ad, ad * bd)
            a1, b1 = ad // g, bd // g
            n = an * b1 - bn * a1
            g2 = gcd(n, g)
            return _new(n // g2, a1 * (bd // g2))
        if type(other) is int:
            return _new(self.numerator - other * self.denominator,
                        self.denominator)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return _new(other * self.denominator - self.numerator,
                        self.denominator)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is Rational:
            an, ad = self.numerator, self.denominator
            bn, bd = other.numerator, other.denominator
            if ad == 1 and bd == 1:
                return _new(an * bn, 1)
            g1 = gcd(an, bd)
            g2 = gcd(bn, ad)
            if g1 == 1 and g2 == 1:
                return _new(an * bn, ad * bd)
            return _new((an // g1) * (bn // g2), (ad // g2) * (bd // g1))
        if type(other) is int:
            g = gcd(other, self.denominator)
            return _new(self.numerator * (other // g), self.denominator // g)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int:
            other = _new(other, 1)
        elif type(other) is not Rational:
            return NotImplemented
        bn, bd = other.numerator, other.denominator
        if not bn:
            raise ZeroDivisionError("Rational division by zero")
        if bn < 0:
            bn, bd = -bn, -bd
        an, ad = self.numerator, self.denominator
        g1 = gcd(an, bn)
        g2 = gcd(bd, ad)
        return _new((an // g1) * (bd // g2), (ad // g2) * (bn // g1))

    def __rtruediv__(self, other):
        if type(other) is int:
            return _new(other, 1) / self
        return NotImplemented

    def __neg__(self):
        return _new(-self.numerator, self.denominator)

    def __pos__(self):
        return self

    def __abs__(self):
        return self if self.numerator >= 0 else _new(-self.numerator,
                                                     self.denominator)

    def __pow__(self, exp):
        if type(exp) is not int:
            return NotImplemented
        if exp >= 0:
            return _new(self.numerator ** exp, self.denominator ** exp)
        if not self.numerator:
            raise ZeroDivisionError("Rational division by zero")
        n, d = self.denominator ** -exp, self.numerator ** -exp
        return _new(-n, -d) if d < 0 else _new(n, d)

    # -- comparison and conversion --------------------------------------

    def __eq__(self, other):
        if type(other) is Rational:
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        if type(other) is int:
            return self.denominator == 1 and self.numerator == other
        if isinstance(other, numbers.Rational):
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        return NotImplemented

    def _cross(self, other):
        """(self * d, n * self.denominator) for other = n/d, or None."""
        if type(other) is int:
            return self.numerator, other * self.denominator
        if isinstance(other, numbers.Rational):
            return (self.numerator * other.denominator,
                    other.numerator * self.denominator)
        return None

    def __lt__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __le__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] <= pair[1]

    def __gt__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] > pair[1]

    def __ge__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] >= pair[1]

    def __bool__(self):
        return self.numerator != 0

    def __hash__(self):
        # the hash of the equal int or Fraction
        try:
            dinv = pow(self.denominator, -1, _HASH_MODULUS)
        except ValueError:
            h = _HASH_INF
        else:
            h = hash(hash(abs(self.numerator)) * dinv)
        h = h if self.numerator >= 0 else -h
        return -2 if h == -1 else h

    def __int__(self):
        n, d = self.numerator, self.denominator
        return n // d if n >= 0 else -(-n // d)

    def __float__(self):
        return self.numerator / self.denominator

    def __repr__(self):
        return "Rational(%s, %s)" % (_decimal(self.numerator),
                                     _decimal(self.denominator))

    def __str__(self):
        if self.denominator == 1:
            return _decimal(self.numerator)
        return "%s/%s" % (_decimal(self.numerator),
                          _decimal(self.denominator))


# ints below 2^_CHECKED_BITS have fewer decimal digits than the least
# limit sys.set_int_max_str_digits accepts, so str() never refuses them
_CHECKED_BITS = int((int_info.str_digits_check_threshold - 1) * 3.32)


def _decimal(i):
    """The decimal digits of the int ``i``, exactly, at any length.

    str() refuses an int of more digits than the interpreter's limit
    (4300 by default); a longer one is split by a power of ten into
    halves, each converted the same way, so the process-wide limit is
    neither read nor changed."""
    if i.bit_length() < _CHECKED_BITS:
        return str(i)
    if i < 0:
        return "-" + _decimal(-i)
    k = i.bit_length() * 3 // 20    # about half the digits
    hi, lo = divmod(i, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _new(numerator, denominator):
    """A Rational from a pair already in lowest terms."""
    obj = _alloc(Rational)
    obj.numerator = numerator
    obj.denominator = denominator
    return obj


_alloc = object.__new__

numbers.Rational.register(Rational)

ZERO = _new(0, 1)
ONE = _new(1, 1)


def as_rational(x):
    """``x`` (an int, a Rational, or any exact rational such as a
    Fraction) as a Rational."""
    if type(x) is Rational:
        return x
    if type(x) is int:
        return _new(x, 1)
    if isinstance(x, numbers.Rational):
        return _new(int(x.numerator), int(x.denominator))
    raise TypeError("not an exact rational: %r" % (x,))
