"""Dense univariate polynomials over an adapter field.

A polynomial is a list of field elements in ascending order of degree
with no zero leading coefficient; the zero polynomial is ``[]``.  Every
function takes the field first (a ConstField, or any object with the
same zero/one/add/sub/mul/div/neg/is_zero protocol).  These are the
classical algorithms: schoolbook products, long division and the
Euclidean algorithm (Knuth, *The Art of Computer Programming* 2, 4.6).

Over QQ the gcd does not run Euclid on rationals, whose coefficients
swell: both polynomials are scaled to primitive integer polynomials and
their gcd is found by the heuristic gcd of Char, Geddes and Gonnet
(*GCDHEU*, J. Symbolic Computation 7, 1989), checked by exact division;
Euclid remains the fallback.
"""

from math import gcd as igcd, isqrt

from .rational import Rational


def trim(field, f):
    """``f`` without zero leading coefficients (a new list)."""
    f = list(f)
    is_zero = field.is_zero
    while f and is_zero(f[-1]):
        f.pop()
    return f


def add(field, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    plus = field.add
    for i, c in enumerate(g):
        out[i] = plus(out[i], c)
    return trim(field, out) if len(f) == len(g) else out


def sub(field, f, g):
    return add(field, f, [field.neg(c) for c in g])


def mul(field, f, g):
    if not f or not g:
        return []
    plus, times, is_zero = field.add, field.mul, field.is_zero
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = plus(out[i + j], times(a, b))
    return out


def scale(field, f, c):
    if field.is_zero(c):
        return []
    times = field.mul
    return [times(x, c) for x in f]


def monic(field, f):
    if not f or field.is_one(f[-1]):
        return list(f)
    return scale(field, f, field.inv(f[-1]))


def divmod_(field, f, g):
    """Quotient and remainder of ``f`` by the nonzero ``g``."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    rem = list(f)
    if len(rem) <= dg:
        return [], rem
    inv = field.inv(g[-1])
    sub_, times, is_zero = field.sub, field.mul, field.is_zero
    quo = [field.zero] * (len(rem) - dg)
    for k in range(len(rem) - 1 - dg, -1, -1):
        c = rem[k + dg]
        if is_zero(c):
            continue
        c = times(c, inv)
        quo[k] = c
        for j in range(dg):
            if not is_zero(g[j]):
                rem[k + j] = sub_(rem[k + j], times(c, g[j]))
    return quo, trim(field, rem[:dg])


def gcd(field, f, g):
    """The monic gcd (``[]`` when both are zero)."""
    if f and g and field.degree() == 1:
        got = _rational_cofactors(f, g)
        if got is not None:
            return got[0]
    while g:
        f, g = g, divmod_(field, f, g)[1]
    return monic(field, f)


def cofactors(field, f, g):
    """(h, f/h, g/h) for nonzero f and g, h their monic gcd.

    A constant f or g has gcd 1 with the other, and both are returned as
    they are (as new lists), with no gcd run; a rational function with a
    constant numerator or denominator meets this case in most of its
    sums and products."""
    if len(f) == 1 or len(g) == 1:
        return [field.one], list(f), list(g)
    if field.degree() == 1:
        got = _rational_cofactors(f, g)
        if got is not None:
            return got
    h = gcd(field, f, g)
    return h, exquo(field, f, h), exquo(field, g, h)


def gcdex(field, f, g):
    """(s, t, h) with s f + t g = h, h the monic gcd of f and g."""
    r0, r1 = list(f), list(g)
    s0, s1, t0, t1 = [field.one], [], [], [field.one]
    while r1:
        q, r = divmod_(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(field, s0, mul(field, q, s1))
        t0, t1 = t1, sub(field, t0, mul(field, q, t1))
    if not r0:
        return [], [], []
    inv = field.inv(r0[-1])
    return scale(field, s0, inv), scale(field, t0, inv), scale(field, r0, inv)


def diff(field, f):
    times, from_int = field.mul, field.from_int
    return trim(field, [times(from_int(k), f[k]) for k in range(1, len(f))])


def exquo(field, f, g):
    """f / g for a divisor g of f; raises ArithmeticError otherwise."""
    q, r = divmod_(field, f, g)
    if r:
        raise ArithmeticError("polynomial does not divide")
    return q


def sqf_part(field, f):
    """The monic squarefree part of ``f`` of degree >= 1 (characteristic
    0)."""
    return monic(field, cofactors(field, f, diff(field, f))[1])


def divide_out(field, f, h):
    """(k, f / h^k) for the largest k with h^k dividing f."""
    k = 0
    while True:
        q, r = divmod_(field, f, h)
        if r:
            return k, f
        f, k = q, k + 1


def shift(field, f, a):
    """Taylor shift: the coefficients of f(x + a) from those of f(x)."""
    out = list(f)
    n = len(out)
    plus, times = field.add, field.mul
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            out[k] = plus(out[k], times(a, out[k + 1]))
    return out


def evaluate(field, f, x):
    out = field.zero
    plus, times = field.add, field.mul
    for c in reversed(f):
        out = plus(times(out, x), c)
    return out


# -- integer polynomials: the gcd over QQ -----------------------------------

def primitive(f):
    """The nonzero integer polynomial f divided by its content, with a
    positive leading coefficient."""
    g = 0
    for c in f:
        g = igcd(g, c)
    f = [c // g for c in f]
    return [-c for c in f] if f[-1] < 0 else f


def exquo_int(f, g):
    """f / g over ZZ, or None when g does not divide f."""
    dg = len(g) - 1
    rem = list(f)
    if len(rem) <= dg:
        return None
    quo = [0] * (len(rem) - dg)
    for k in range(len(rem) - 1 - dg, -1, -1):
        c, r = divmod(rem[k + dg], g[-1])
        if r:
            return None
        quo[k] = c
        if c:
            for j in range(dg + 1):
                rem[k + j] -= c * g[j]
    return quo if not any(rem) else None


def integer_form(f):
    """(n, d, F): the nonzero rational polynomial f is (n/d) F, F a
    primitive integer polynomial with a positive leading coefficient."""
    d = 1
    for c in f:
        d = d * c.denominator // igcd(d, c.denominator)
    ints = [c.numerator * (d // c.denominator) for c in f]
    F = primitive(ints)
    return ints[-1] // F[-1], d, F


def _heuristic_gcd(F, G):
    """The primitive gcd of the primitive integer polynomials F and G
    (positive leading coefficients), with both cofactors: the integer gcd
    of F(x) and G(x), read back as balanced base-x digits, is the gcd
    when its primitive part divides both and x > 1 + 2 min(|F|, |G|) in
    the max norm (Geddes, Czapor and Labahn, *Algorithms for Computer
    Algebra*, 7.7).  None when six points x fail."""
    if len(F) == 1 or len(G) == 1:
        return [1], F, G
    nf, ng = max(map(abs, F)), max(map(abs, G))
    x = max(2 * min(nf, ng) + 29, 2 * min(nf // F[-1], ng // G[-1]) + 2)
    for _ in range(6):
        v = igcd(_value(F, x), _value(G, x))
        if v:
            H = primitive(_digits(v, x))
            cf = exquo_int(F, H)
            if cf is not None:
                cg = exquo_int(G, H)
                if cg is not None:
                    return H, cf, cg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _value(F, x):
    out = 0
    for c in reversed(F):
        out = out * x + c
    return out


def _digits(v, x):
    """The balanced base-x digits of v, lowest first."""
    out = []
    half = x // 2
    while v:
        d = v % x
        if d > half:
            d -= x
        out.append(d)
        v = (v - d) // x
    return out


def _rational_cofactors(f, g):
    """``cofactors`` over QQ through the integer heuristic gcd, or None."""
    fn, fd, F = integer_form(f)
    gn, gd, G = integer_form(g)
    got = _heuristic_gcd(F, G)
    if got is None:
        return None
    H, cf, cg = got
    lead = H[-1]
    return ([Rational(c, lead) for c in H],
            [Rational(fn * lead * c, fd) for c in cf],
            [Rational(gn * lead * c, gd) for c in cg])
