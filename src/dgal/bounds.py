"""The degree-bound tower: symbolic bound expressions with dual
exact/certified-interval evaluation.

Bounds are expression trees (integers, +, -, *, ^, factorial, binomial,
central binomial, max, Jordan bound).  Evaluation returns an exact
integer when the estimated bit size fits under a cap, else a certified
bracket on log2 (or, for the top of the tower, on log2 of log2) using
outward interval arithmetic and Stirling-type enclosures.
"""

import math
from fractions import Fraction

import mpmath
from mpmath import iv

from .errors import DgalError, ResourceCapError

iv.prec = 64

_LN2 = iv.log(2)
_LOG2E = 1 / _LN2
# values below 2^(2^20) in log2 can be exponentiated (their binary
# exponent stays a megabit-sized integer at most)
_VALUE_GUARD = iv.mpf(2) ** (2 ** 20)
# bracket endpoints below 2^(2^64) print in decimal (an exponent of at
# most 20 digits); decimal conversion of larger ones costs time and
# digits without bound
_PRINT_GUARD = iv.mpf(2) ** (2 ** 64)

DEFAULT_BIT_CAP = 2 ** 20

JORDAN_TABLE = {1: 1, 2: 60, 3: 360, 4: 25920}


class BoundExpr:
    """Node of a bound expression tree."""

    __slots__ = ("kind", "children", "value")

    def __init__(self, kind, children=(), value=None):
        self.kind = kind
        self.children = tuple(children)
        self.value = value

    def key(self):
        return (self.kind, self.value,
                tuple(c.key() for c in self.children))

    def __eq__(self, other):
        return isinstance(other, BoundExpr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "BoundExpr(%s)" % render(self)


def lit(v):
    f = Fraction(v)
    if f <= 0:
        raise DgalError("bound literals must be positive")
    return BoundExpr("int", value=f)


def add(a, b):
    return BoundExpr("add", (a, b))


def sub(a, b):
    return BoundExpr("sub", (a, b))


def mul(a, b):
    return BoundExpr("mul", (a, b))


def pow_(a, b):
    return BoundExpr("pow", (a, b))


def fact(a):
    return BoundExpr("fact", (a,))


def binom(a, b):
    return BoundExpr("binom", (a, b))


def maxbinom(a):
    return BoundExpr("maxbinom", (a,))


def max_(a, b):
    return BoundExpr("max", (a, b))


def jordan(a):
    return BoundExpr("jordan", (a,))


# -- rendering and parsing ----------------------------------------------

def render(expr):
    k = expr.kind
    if k == "int":
        v = expr.value
        return str(v.numerator) if v.denominator == 1 else \
            "%d/%d" % (v.numerator, v.denominator)
    if k in ("add", "sub", "mul", "pow"):
        op = {"add": "+", "sub": "-", "mul": "*", "pow": "^"}[k]
        return "(%s %s %s)" % (render(expr.children[0]), op,
                               render(expr.children[1]))
    return "%s(%s)" % (k, ", ".join(render(c) for c in expr.children))


class _Parser:
    def __init__(self, text):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text):
        toks = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                toks.append(("int", int(text[i:j])))
                i = j
            elif c.isalpha():
                j = i
                while j < len(text) and text[j].isalpha():
                    j += 1
                toks.append(("name", text[i:j]))
                i = j
            elif c in "+-*^(),/":
                toks.append((c, c))
                i += 1
            else:
                raise DgalError("bad character %r in bound expression" % c)
        return toks

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self, kind=None):
        if self.pos >= len(self.toks):
            raise DgalError("unexpected end of bound expression")
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise DgalError("expected %s, got %s" % (kind, tok[0]))
        self.pos += 1
        return tok

    def expr(self):
        left = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            right = self.term()
            left = add(left, right) if op == "+" else sub(left, right)
        return left

    def term(self):
        left = self.power()
        while self.peek() == "*":
            self.take()
            left = mul(left, self.power())
        return left

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return pow_(base, self.power())
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            if self.peek() == "/":
                self.take()
                den = self.take("int")[1]
                return lit(Fraction(val, den))
            return lit(val)
        if kind == "(":
            e = self.expr()
            self.take(")")
            return e
        if kind == "name":
            if val not in ("fact", "binom", "maxbinom", "max", "jordan"):
                raise DgalError("unknown bound function %r" % val)
            self.take("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.take()
                args.append(self.expr())
            self.take(")")
            arity = 2 if val in ("binom", "max") else 1
            if len(args) != arity:
                raise DgalError("%s takes %d argument(s)" % (val, arity))
            return BoundExpr(val if val != "max" else "max", tuple(args))
        raise DgalError("unexpected token %r" % (val,))


def parse(text):
    p = _Parser(text)
    e = p.expr()
    if p.pos != len(p.toks):
        raise DgalError("trailing input in bound expression")
    return e


# -- magnitudes ---------------------------------------------------------

class Magnitude:
    """A positive quantity at one of three fidelity levels: exact
    Fraction, certified bracket of log2, or certified bracket of
    log2(log2)."""

    __slots__ = ("level", "exact", "ivl")

    def __init__(self, level, exact=None, ivl=None):
        self.level = level
        self.exact = exact
        self.ivl = ivl

    @classmethod
    def from_exact(cls, v):
        return cls(0, exact=Fraction(v))

    @classmethod
    def from_log(cls, ivl):
        return cls(1, ivl=iv.mpf(ivl))

    @classmethod
    def from_loglog(cls, ivl):
        return cls(2, ivl=iv.mpf(ivl))

    @property
    def is_exact(self):
        return self.level == 0

    def exact_int(self):
        if self.level != 0 or self.exact.denominator != 1:
            raise DgalError("magnitude is not an exact integer")
        return self.exact.numerator

    def log2(self):
        """Bracket of log2 at level <= 1."""
        if self.level == 0:
            return iv.log(iv.mpf(self.exact.numerator) /
                          iv.mpf(self.exact.denominator)) / _LN2
        if self.level == 1:
            return self.ivl
        raise DgalError("magnitude only known at the log-log level")

    def loglog2(self):
        if self.level == 2:
            return self.ivl
        l = self.log2()
        if not l.a > 0:
            raise DgalError("log-log bracket needs log2 > 0")
        return iv.log(l) / _LN2

    def contains_exact(self, v):
        """Certified bracket contains the given exact positive value."""
        if self.level == 0:
            return self.exact == Fraction(v)
        lv = iv.log(iv.mpf(v)) / _LN2
        tgt = self.ivl if self.level == 1 else None
        if self.level == 2:
            lv = iv.log(lv) / _LN2
            tgt = self.ivl
        return tgt.a <= lv.a and lv.b <= tgt.b

    def __repr__(self):
        if self.level == 0:
            return "Magnitude(exact=%s)" % self.exact
        tag = "log2" if self.level == 1 else "log2log2"
        return "Magnitude(%s in [%s, %s])" % (tag, self.ivl.a, self.ivl.b)


def format_bracket(ivl):
    """A certified bracket as text "[a, b]", rounded outward.  An
    endpoint beyond 2^(2^64) is written 2^(2^z), z from the bracket of
    log2(log2(endpoint))."""
    return "[%s, %s]" % (_format_endpoint(ivl.a, -1),
                         _format_endpoint(ivl.b, 1))


def _format_endpoint(x, side):
    """One endpoint, moved outward (side -1 down, 1 up) by a relative
    2^-30, which exceeds the error of printing 12 significant digits."""
    if abs(x) < _PRINT_GUARD:
        z, fmt = x, "%s"
    else:
        z, fmt = iv.log(iv.log(x) / _LN2) / _LN2, "2^(2^%s)"
    z = z + side * abs(z) * iv.mpf(2) ** -30
    z = z.a if side < 0 else z.b
    return fmt % mpmath.nstr(mpmath.mpf(z), 12)


def _value_iv(mag):
    """The quantity itself as an interval, when its binary exponent is
    of tractable size; None otherwise."""
    if mag.level == 0:
        return iv.mpf(mag.exact.numerator) / iv.mpf(mag.exact.denominator)
    if mag.level == 1 and mag.ivl.b < _VALUE_GUARD:
        return iv.exp(mag.ivl * _LN2)
    return None


def _bits(f):
    n = abs(f.numerator)
    return n.bit_length() + f.denominator.bit_length()


class _Eval:
    def __init__(self, bit_cap):
        self.cap = bit_cap
        self.memo = {}

    def run(self, expr):
        key = id(expr)
        if key not in self.memo:
            self.memo[key] = getattr(self, "_" + expr.kind)(expr)
        return self.memo[key]

    def _int(self, e):
        return Magnitude.from_exact(e.value)

    def _add(self, e):
        a, b = (self.run(c) for c in e.children)
        if a.is_exact and b.is_exact and \
                _bits(a.exact) + _bits(b.exact) <= self.cap:
            return Magnitude.from_exact(a.exact + b.exact)
        if a.level <= 1 and b.level <= 1:
            la, lb = a.log2(), b.log2()
            lmax, lmin = (la, lb) if la.a >= lb.a else (lb, la)
            if (lmax - lmin).a > 64:
                # the smaller term moves log2 by less than 2^-64
                return Magnitude.from_log(lmax + iv.mpf([0, 1e-15]))
            t = iv.exp((lmin - lmax) * _LN2)
            return Magnitude.from_log(lmax + iv.log(1 + t) / _LN2)
        lla, llb = a.loglog2(), b.loglog2()
        lo = max(lla.a, llb.a)
        hi = max(lla.b, llb.b) + 1
        return Magnitude.from_loglog(iv.mpf([lo, hi]))

    def _sub(self, e):
        a, b = (self.run(c) for c in e.children)
        if a.is_exact and b.is_exact:
            if a.exact <= b.exact:
                raise DgalError("bound subtraction went nonpositive")
            return Magnitude.from_exact(a.exact - b.exact)
        if a.level <= 1 and b.level <= 1:
            la, lb = a.log2(), b.log2()
            if (la - lb).a > 64:
                return Magnitude.from_log(la + iv.mpf([-1e-15, 0]))
            t = iv.exp((lb - la) * _LN2)
            if not t.b < 1:
                raise DgalError("bound subtraction bracket includes zero")
            return Magnitude.from_log(la + iv.log(1 - t) / _LN2)
        lla = a.loglog2()
        return Magnitude.from_loglog(iv.mpf([lla.a - 1, lla.b]))

    def _mul(self, e):
        a, b = (self.run(c) for c in e.children)
        if a.is_exact and b.is_exact and \
                _bits(a.exact) + _bits(b.exact) <= self.cap:
            return Magnitude.from_exact(a.exact * b.exact)
        if a.level <= 1 and b.level <= 1:
            return Magnitude.from_log(a.log2() + b.log2())
        lla, llb = a.loglog2(), b.loglog2()
        lo = max(lla.a, llb.a)
        hi = max(lla.b, llb.b) + 1
        return Magnitude.from_loglog(iv.mpf([lo, hi]))

    def _pow(self, e):
        a, b = (self.run(c) for c in e.children)
        if b.is_exact and b.exact.denominator == 1:
            n = b.exact.numerator
            if a.is_exact and n * _bits(a.exact) <= self.cap:
                return Magnitude.from_exact(a.exact ** n)
            if a.level <= 1:
                return Magnitude.from_log(a.log2() * n)
            lla = a.loglog2()
            lb = iv.log(iv.mpf(n)) / _LN2
            return Magnitude.from_loglog(lla + lb)
        # exponent only known by bracket
        if a.level == 2:
            raise DgalError("cannot raise a log-log magnitude to a "
                            "bracketed power")
        bval = _value_iv(b)
        la = a.log2()
        if bval is not None:
            l = la * bval
            if l.b < _VALUE_GUARD:
                return Magnitude.from_log(l)
        if not la.a > 0:
            raise DgalError("log-log power needs base above 2")
        return Magnitude.from_loglog(b.log2() + iv.log(la) / _LN2)

    def _fact(self, e):
        (a,) = (self.run(c) for c in e.children)
        if a.is_exact:
            m = a.exact_int()
            if m * max(m.bit_length(), 1) <= self.cap:
                return Magnitude.from_exact(math.factorial(m))
        x = _value_iv(a)
        if x is None:
            raise ResourceCapError("factorial argument too large even "
                                   "for log-space evaluation")
        lx = a.log2()
        base = x * (lx - _LOG2E)
        lo = base.a
        hi = (base + lx + 2).b
        return Magnitude.from_log(iv.mpf([lo, hi]))

    def _binom(self, e):
        a, b = (self.run(c) for c in e.children)
        if not (b.is_exact and b.exact.denominator == 1):
            raise DgalError("binomial needs an exact lower index")
        k = b.exact.numerator
        if a.is_exact:
            m = a.exact_int()
            if k <= m and k * max(m.bit_length(), 1) <= self.cap:
                return Magnitude.from_exact(math.comb(m, k))
        la = a.log2()
        lkfact = iv.log(iv.mpf(math.factorial(k))) / _LN2
        lk = iv.log(iv.mpf(max(k, 1))) / _LN2
        lo = (la - lk) * k
        hi = la * k - lkfact
        return Magnitude.from_log(iv.mpf([lo.a, hi.b]))

    def _maxbinom(self, e):
        (a,) = (self.run(c) for c in e.children)
        if a.is_exact:
            m = a.exact_int()
            if m <= self.cap:
                return Magnitude.from_exact(math.comb(m, m // 2))
        x = _value_iv(a)
        if x is None:
            raise ResourceCapError("central binomial argument too large "
                                   "even for log-space evaluation")
        # 2^m / (m+1) <= C(m, m//2) <= 2^m
        lo = (x - iv.log(x + 1) / _LN2).a
        hi = x.b
        return Magnitude.from_log(iv.mpf([lo, hi]))

    def _max(self, e):
        a, b = (self.run(c) for c in e.children)
        if a.is_exact and b.is_exact:
            return Magnitude.from_exact(max(a.exact, b.exact))
        if a.level <= 1 and b.level <= 1:
            la, lb = a.log2(), b.log2()
            return Magnitude.from_log(
                iv.mpf([max(la.a, lb.a), max(la.b, lb.b)]))
        lla, llb = a.loglog2(), b.loglog2()
        return Magnitude.from_loglog(
            iv.mpf([max(lla.a, llb.a), max(lla.b, llb.b)]))

    def _jordan(self, e):
        (a,) = (self.run(c) for c in e.children)
        if a.is_exact:
            m = a.exact_int()
            if m in JORDAN_TABLE:
                return Magnitude.from_exact(JORDAN_TABLE[m])
            if m >= 71:
                return self.run(fact(lit(m + 1)))
            raise DgalError("no Jordan bound configured for n = %d; "
                            "supply one explicitly" % m)
        if not a.log2().a > math.log2(71):
            raise DgalError("bracketed Jordan argument not certified "
                            "to be >= 71")
        # factorial rule (m+1)! on the bracketed argument, by Stirling
        x = _value_iv(a)
        if x is None:
            raise ResourceCapError("Jordan argument too large even for "
                                   "log-space evaluation")
        x = x + 1
        lx = iv.log(x) / _LN2
        base = x * (lx - _LOG2E)
        return Magnitude.from_log(iv.mpf([base.a, (base + lx + 2).b]))


def evaluate(expr, bit_cap=DEFAULT_BIT_CAP):
    """Evaluate a bound expression to a Magnitude."""
    return _Eval(bit_cap).run(expr)


# -- the named bounds ---------------------------------------------------

def gamma_bound(n, d):
    """2 * (d^2/2 + d) ^ (2^(n-1))."""
    if n < 1 or d < 1:
        raise DgalError("gamma bound needs n, d >= 1")
    base = lit(Fraction(d * d, 2) + d)
    return mul(lit(2), pow_(base, lit(2 ** (n - 1))))


def gamma_comparison(n, d):
    """(d+1) ^ (2^n), the cruder companion bound."""
    return pow_(lit(d + 1), lit(2 ** n))


def unipotent_family_bound(n):
    """(2n^3 + 1) ^ (8^(n^2))."""
    if n < 1:
        raise DgalError("unipotent bound needs n >= 1")
    return pow_(lit(2 * n ** 3 + 1), pow_(lit(8), lit(n * n)))


def dstar_nstar(n, d):
    """Degree and count caps for the invariant-subspace search."""
    c = binom(lit(n * n + d), lit(d))
    dstar = pow_(maxbinom(c), lit(2))
    nstar = mul(mul(dstar, lit(d)), c)
    return dstar, nstar


def kappas(n):
    """The three stacked caps used by the proto-Galois degree bound."""
    u = unipotent_family_bound(n)
    c = binom(add(lit(n * n), u), lit(n * n))
    k1 = pow_(maxbinom(c), lit(2))
    k2 = mul(mul(k1, u), c)
    k1sq1 = add(pow_(k1, lit(2)), lit(1))
    k3 = mul(mul(k2, k1sq1), maxbinom(k1sq1))
    return k1, k2, k3


def jordan_bound(n, override=None):
    """Index bound for a normal abelian subgroup of a finite linear
    group: a configured table for small n, (n+1)! for n >= 71, and an
    explicit override otherwise."""
    if override is not None:
        return lit(override)
    if n in JORDAN_TABLE or n >= 71:
        return jordan(lit(n))
    raise DgalError("no Jordan bound configured for n = %d; supply one "
                    "explicitly" % n)


def iteration_bound(n):
    """I(n): Jordan bound at the central-binomial argument."""
    k1, _k2, _k3 = kappas(n)
    return jordan(maxbinom(add(pow_(k1, lit(2)), lit(1))))


def proto_galois_degree_bound(n):
    """d-tilde: kappa3 to the power I(n) - 1."""
    _k1, _k2, k3 = kappas(n)
    return pow_(k3, sub(iteration_bound(n), lit(1)))
