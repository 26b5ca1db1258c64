"""The degree-bound tower: symbolic bound expressions, evaluated on
level-index magnitudes.

Bounds are expression trees (integers, +, -, *, ^, factorial, binomial,
central binomial, max, Jordan bound).  Evaluation returns an exact
rational while its bit size fits under a cap, else a level-index bracket
(Clenshaw and Olver, J. ACM 31, 1984) with no level cap: rationals
lo <= hi with log2 applied k times to the value in [lo, hi].  Endpoints
are rounded outward to 64 significant bits; log2 and 2^x of a rational
come from bit lengths and integer squarings and square roots alone.
"""

import math
from collections import namedtuple

from ._grammar import tokenize
from .errors import DgalError
from .rational import ONE, ZERO, Rational, as_rational

DEFAULT_BIT_CAP = 2 ** 20

JORDAN_TABLE = {1: 1, 2: 60, 3: 360, 4: 25920}


# node of a bound expression tree: a kind ("int", or an operator or
# function name), a tuple of child nodes, and the value of an "int"
BoundExpr = namedtuple("BoundExpr", "kind children value",
                       defaults=((), None))


def lit(v):
    f = as_rational(v)
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

# operator -> (node kind, priority); ^ groups to the right
_BINARY = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "^": ("pow", 3)}
_SYMBOL = {kind: op for op, (kind, _) in _BINARY.items()}
_FUNCTIONS = {"fact": 1, "binom": 2, "maxbinom": 1, "max": 2, "jordan": 1}


def render(expr):
    k = expr.kind
    if k == "int":
        return str(expr.value)
    if k in _SYMBOL:
        return "(%s %s %s)" % (render(expr.children[0]), _SYMBOL[k],
                               render(expr.children[1]))
    return "%s(%s)" % (k, ", ".join(render(c) for c in expr.children))


class _Parser:
    """Precedence climbing over the tokens of ``_grammar.tokenize``."""

    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

    def op(self):
        """The operator at the cursor, or None."""
        kind, val = self.toks[self.pos]
        return val if kind == "op" else None

    def take(self, op=None):
        kind, val = tok = self.toks[self.pos]
        if kind == "end":
            raise DgalError("unexpected end of bound expression")
        if op is not None and tok != ("op", op):
            raise DgalError("expected %s, got %s" % (op, val))
        self.pos += 1
        return tok

    def expr(self, priority=1):
        left = self.atom()
        while _BINARY.get(self.op(), (None, 0))[1] >= priority:
            kind, rank = _BINARY[self.take()[1]]
            right = self.expr(rank if kind == "pow" else rank + 1)
            left = BoundExpr(kind, (left, right))
        return left

    def atom(self):
        kind, val = self.take()
        if kind == "int" and self.op() == "/":
            self.take()
            kind, den = self.take()
            if kind != "int":
                raise DgalError("expected int, got %s" % den)
            return lit(Rational(val, den))
        if kind == "int":
            return lit(val)
        if (kind, val) == ("op", "("):
            e = self.expr()
            self.take(")")
            return e
        if kind != "var" or val not in _FUNCTIONS:
            raise DgalError("unexpected token %r" % (val,))
        self.take("(")
        args = [self.expr()]
        while self.op() == ",":
            self.take()
            args.append(self.expr())
        self.take(")")
        if len(args) != _FUNCTIONS[val]:
            raise DgalError("%s takes %d argument(s)" % (val, _FUNCTIONS[val]))
        return BoundExpr(val, tuple(args))


def parse(text):
    p = _Parser(text)
    e = p.expr()
    if p.toks[p.pos][0] != "end":
        raise DgalError("trailing input in bound expression")
    return e


# -- rational kernels ---------------------------------------------------

_PREC = 64          # significant bits of a bracket endpoint
_LIFT = 2 ** 64     # an index this large moves up one level
_SLACK = Rational(1, 2 ** 63)


def _dyadic(m, e):
    """m * 2^e as a Rational."""
    return Rational(m << e) if e >= 0 else Rational(m, 1 << -e)


def _round(x, up):
    """The rational x rounded to _PREC significant bits, up or down."""
    p, q = x.numerator, x.denominator
    s = _PREC - abs(p).bit_length() + q.bit_length()
    m, r = divmod(p << s, q) if s >= 0 else divmod(p, q << -s)
    return _dyadic(m + (up and r != 0), -s)


def _log2(x):
    """An enclosure (lo, hi) of log2 of the positive rational x, of width
    2^-64 (exact at powers of 2): the exponent from bit lengths, then one
    squaring of the mantissa y in [1, 2) per bit of the fraction, a bit
    being 1 when y^2 >= 2.  The squarings run on integers at a precision
    that doubles whenever rounding leaves a bit undecided."""
    p, q = x.numerator, x.denominator
    e = p.bit_length() - q.bit_length()
    if not p & (p - 1) and not q & (q - 1):
        return Rational(e), Rational(e)
    if p << max(-e, 0) < q << max(e, 0):
        e -= 1
    prec = 2 * _PREC
    while True:
        s = prec - e
        lo = (p << s) // q if s >= 0 else p // (q << -s)
        hi, bits, two = lo + 1, 0, 2 << prec
        for _ in range(_PREC):
            lo, hi = lo * lo >> prec, -(-hi * hi >> prec)
            bits <<= 1
            if lo >= two:
                lo, hi, bits = lo >> 1, (hi + 1) >> 1, bits | 1
            elif hi >= two:
                break
        else:
            low = (e << _PREC) + bits
            return _dyadic(low, -_PREC), _dyadic(low + 1, -_PREC)
        prec *= 2


def _exp2(x):
    """An enclosure (lo, hi) of 2^x for a rational x: 2^floor(x) times
    the square roots 2^(2^-i) of the fraction's first 64 bits, on
    integers at 128 bits.  Below 2^-1024 it is (0, 2^-1024)."""
    n = x.numerator // x.denominator
    if n < -1024:
        return ZERO, _dyadic(1, -1024)
    prec = 2 * _PREC
    frac = ((x.numerator - n * x.denominator) << _PREC) // x.denominator
    lo = hi = 1 << prec
    root_lo = root_hi = 2 << prec
    for i in range(_PREC - 1, -1, -1):
        root_lo = math.isqrt(root_lo << prec)
        root_hi = math.isqrt(root_hi << prec) + 1
        if frac >> i & 1:
            lo, hi = lo * root_lo >> prec, -(-hi * root_hi >> prec)
    # the fraction lies below (frac + 1) / 2^64
    hi = -(-hi * root_hi >> prec)
    return _dyadic(lo, n - prec), _dyadic(hi, n - prec)


def _bits(x):
    return abs(x.numerator).bit_length() + x.denominator.bit_length()


# -- magnitudes ---------------------------------------------------------

Interval = namedtuple("Interval", "a b")


class Magnitude:
    """A quantity as a level-index bracket: log2 applied ``level`` times
    to it lies in [lo, hi].  Level 0 holds the value itself, exact when
    lo == hi; a level k >= 1 holds values past E^(k-1)(64), E(x) = 2^x,
    with 64 <= hi < 2^64.  ``log2()`` and ``loglog2()`` give an Interval
    whose ends are rationals, or level-index points (lo == hi) where the
    end is too large for one."""

    __slots__ = ("level", "lo", "hi")

    def __init__(self, level, lo, hi=None):
        self.level, self.lo = level, lo
        self.hi = lo if hi is None else hi

    @property
    def is_exact(self):
        return self.level == 0 and self.lo == self.hi

    @property
    def exact(self):
        return self.lo if self.is_exact else None

    def exact_int(self):
        if not self.is_exact or self.lo.denominator != 1:
            raise DgalError("magnitude is not an exact integer")
        return int(self.lo)

    def at(self, level):
        """(lo, hi) bracketing log2 applied ``level`` >= self.level times
        to the value.  A lower end whose logarithm is undefined becomes
        None; an upper end hi <= 0 becomes 0, as E^j(hi) <= E^(j+1)(0)."""
        lo, hi = self.lo, self.hi
        for _ in range(level - self.level):
            lo = _log2(lo)[0] if lo is not None and lo > 0 else None
            hi = _log2(hi)[1] if hi > 0 else ZERO
        return lo, hi

    def log2(self, k=1):
        """Interval of log2 applied k times to the value."""
        if self.level > k:
            return Interval(Magnitude(self.level - k, self.lo),
                            Magnitude(self.level - k, self.hi))
        lo, hi = self.at(k)
        if lo is None:
            raise DgalError("bracket reaches a value with no log2^(%d)" % k)
        return Interval(lo, hi)

    def loglog2(self):
        return self.log2(2)

    def contains_exact(self, v):
        """Certified bracket contains the given exact positive value."""
        return Magnitude(self.level, self.lo) <= v <= \
            Magnitude(self.level, self.hi)

    # a < b: every value of a lies below every value of b
    __lt__ = lambda self, other: _below(self, other, True)
    __le__ = lambda self, other: _below(self, other, False)
    __gt__ = lambda self, other: _below(other, self, True)
    __ge__ = lambda self, other: _below(other, self, False)

    def __repr__(self):
        return "Magnitude(%d, %s, %s)" % (self.level, self.lo, self.hi)


def _below(a, b, strict):
    """Whether a's upper end lies below (or at, if not strict) b's lower
    end, at their common level; a and b are magnitudes or rationals."""
    a, b = (v if isinstance(v, Magnitude) else Magnitude(0, as_rational(v))
            for v in (a, b))
    k = max(a.level, b.level)
    hi, lo = a.at(k)[1], b.at(k)[0]
    return lo is not None and (hi < lo if strict else hi <= lo)


def format_bracket(ivl):
    """An Interval as text "[a, b]", each end rounded outward to 7
    decimal places; an end at level k >= 1 is written 2^(...(2^z)),
    with z its index."""
    ends = []
    for x, up in ((ivl.a, False), (ivl.b, True)):
        level, z = (x.level, x.lo) if isinstance(x, Magnitude) else (0, x)
        q, r = divmod(z.numerator * 10 ** 7, z.denominator)
        q += up and r != 0
        text = "%s%d.%07d" % ("-" * (q < 0), abs(q) // 10 ** 7,
                              abs(q) % 10 ** 7)
        for i in range(level):
            text = "2^" + (text if i == 0 else "(%s)" % text)
        ends.append(text)
    return "[%s, %s]" % tuple(ends)


_ONE, _TWO = Magnitude(0, ONE), Magnitude(0, Rational(2))
# log2(e), rounded down and up
_LOG2E = Magnitude(0, Rational(14426950408889634073, 10 ** 19),
                   Rational(14426950408889634074, 10 ** 19))


def _join(a, b):
    """The common level of a and b, and there the larger defined lower
    end, the larger upper end and the smaller one."""
    k = max(a.level, b.level)
    (alo, ahi), (blo, bhi) = a.at(k), b.at(k)
    return (k, max(v for v in (alo, blo) if v is not None),
            max(ahi, bhi), min(ahi, bhi))


class _Eval:
    """Evaluation of bound expressions at one exact-bit cap.  Each node
    kind is the method of that name; add, mul and max, and the helpers
    below them, are the arithmetic of magnitudes."""

    def __init__(self, bit_cap):
        self.cap = bit_cap
        self.memo = {}

    def run(self, expr):
        key = id(expr)
        if key not in self.memo:
            self.memo[key] = Magnitude(0, expr.value) if expr.kind == "int" \
                else getattr(self, expr.kind)(*map(self.run, expr.children))
        return self.memo[key]

    def make(self, level, lo, hi):
        """The magnitude with log2^level in [lo, hi]: exact at level 0
        with lo == hi under the cap, else rounded outward and moved to
        the level where 64 <= hi < 2^64 (level 0 below 2^64)."""
        if level == 0 and lo == hi and _bits(lo) <= self.cap:
            return Magnitude(0, lo)
        lo, hi = _round(lo, False), _round(hi, True)
        while lo > 0 and hi >= _LIFT:
            lo, hi = _round(_log2(lo)[0], False), _round(_log2(hi)[1], True)
            level += 1
        while level and hi < _PREC:
            lo, hi = _round(_exp2(lo)[0], False), _round(_exp2(hi)[1], True)
            level -= 1
        return Magnitude(level, lo, hi)

    def log2(self, a):
        if a.level:
            return Magnitude(a.level - 1, a.lo, a.hi)
        if a.lo <= 0:
            raise DgalError("log2 of a bound bracket that is not positive")
        return self.make(0, _log2(a.lo)[0], _log2(a.hi)[1])

    def exp2(self, a):
        return self.make(a.level + 1, a.lo, a.hi)

    def add(self, a, b):
        k, lo, x, y = _join(a, b)
        if not k:
            return self.make(0, a.lo + b.lo, a.hi + b.hi)
        # log2(2^x + 2^y) = x + log2(1 + 2^(y - x)); one level further up,
        # adding two values past 2^(2^64) moves log2 log2 by < 2^-63
        carry = _SLACK if k > 1 or x - y >= _PREC else \
            _log2(1 + _exp2(y - x)[1])[1]
        return self.make(k, lo, x + carry)

    def diff(self, a, b):
        """a - b: at level 0 any real interval, above it only when the
        difference is certified positive."""
        k = max(a.level, b.level)
        if not k:
            return self.make(0, a.lo - b.hi, a.hi - b.lo)
        (x, hi), (_, y) = a.at(k), b.at(k)
        # log2(2^x - 2^y) = x + log2(1 - 2^(y - x)); one level further up,
        # log2 b <= (log2 a) / 2 with log2 a >= 2^9 moves log2 log2 by
        # < 2^-63
        if x is not None and (x - y >= _PREC if k == 1 else
                              x >= 9 and y <= x - 1):
            return self.make(k, x - _SLACK, hi)
        t = 1 - _exp2(y - x)[1] if k == 1 and x is not None else ZERO
        if t > 0:
            return self.make(1, x + _log2(t)[0], hi)
        raise DgalError("bound subtraction not certified positive")

    def sub(self, a, b):
        m = self.diff(a, b)
        if m.level == 0 and m.lo <= 0:
            raise DgalError("bound subtraction went nonpositive")
        return m

    def mul(self, a, b):
        if a.level or b.level:
            return self.exp2(self.add(self.log2(a), self.log2(b)))
        ends = {x * y for x in {a.lo, a.hi} for y in {b.lo, b.hi}}
        return self.make(0, min(ends), max(ends))

    def max(self, a, b):
        k, lo, x, _ = _join(a, b)
        return self.make(k, lo, x)

    def hull(self, a, b):
        """From a's lower end to b's upper end, at their common level."""
        k = max(a.level, b.level)
        lo, hi = a.at(k)[0], b.at(k)[1]
        if lo is None:
            raise DgalError("bound bracket is not positive")
        return self.make(k, lo, hi)

    def pow(self, a, b):
        if a.is_exact and b.is_exact and b.lo.denominator == 1 and \
                b.lo * _bits(a.lo) <= self.cap:
            return Magnitude(0, a.lo ** int(b.lo))
        return self.exp2(self.mul(b, self.log2(a)))

    def log2_fact(self, x):
        """log2(x!) for x >= 1, by Stirling: between x (log2 x - log2 e)
        and that plus log2 x + 2."""
        lx = self.log2(x)
        base = self.mul(x, self.diff(lx, _LOG2E))
        return self.hull(base, self.add(base, self.add(lx, _TWO)))

    def fact(self, a):
        if a.is_exact:
            m = a.exact_int()
            if m * max(m.bit_length(), 1) <= self.cap:
                return Magnitude(0, Rational(math.factorial(m)))
        return self.exp2(self.log2_fact(a))

    def binom(self, a, b):
        if not (b.is_exact and b.lo.denominator == 1):
            raise DgalError("binomial needs an exact lower index")
        k = b.exact_int()
        if a.is_exact:
            m = a.exact_int()
            if k <= m and k * max(m.bit_length(), 1) <= self.cap:
                return Magnitude(0, Rational(math.comb(m, k)))
        # (a - k + 1)^k / k! <= C(a, k) <= a^k / k!, with one k!, exact
        # under the cap
        lfact = self.log2(self.fact(b))
        least = self.log2(self.diff(self.add(a, _ONE), b))
        lo = self.diff(self.mul(b, least), lfact)
        hi = self.diff(self.mul(b, self.log2(a)), lfact)
        return self.exp2(self.hull(lo, hi))

    def maxbinom(self, a):
        if a.is_exact:
            m = a.exact_int()
            if m <= self.cap:
                return Magnitude(0, Rational(math.comb(m, m // 2)))
        # 2^m / (m+1) <= C(m, m//2) <= 2^m
        lo = self.diff(a, self.log2(self.add(a, _ONE)))
        return self.exp2(self.hull(lo, a))

    def jordan(self, a):
        if a.is_exact and a.exact_int() in JORDAN_TABLE:
            return Magnitude(0, Rational(JORDAN_TABLE[a.exact_int()]))
        if not a >= 71:
            raise DgalError("no Jordan bound configured below n = 71 "
                            "outside the table; supply one explicitly")
        # the factorial rule (n + 1)! for n >= 71
        return self.fact(self.add(a, _ONE))


def evaluate(expr, bit_cap=DEFAULT_BIT_CAP):
    """Evaluate a bound expression to a Magnitude."""
    return _Eval(bit_cap).run(expr)


# -- the named bounds ---------------------------------------------------

def gamma_bound(n, d):
    """2 * (d^2/2 + d) ^ (2^(n-1))."""
    if n < 1 or d < 1:
        raise DgalError("gamma bound needs n, d >= 1")
    base = lit(Rational(d * d, 2) + d)
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
