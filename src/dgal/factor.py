"""Factoring univariate polynomials over QQ.

Zassenhaus' algorithm (Cohen, *A Course in Computational Algebraic
Number Theory*, 3.5): factor the primitive squarefree integer polynomial
modulo a small prime p by distinct-degree and Cantor-Zassenhaus
equal-degree splitting, Hensel-lift the factors to a power of p above
the Mignotte bound, then recombine subsets of the lifted factors by
trial division over ZZ.  Modular polynomials are ascending lists of ints
in [0, p) (or [0, p^k)) with no zero leading coefficient.

The factor list is ordered as sympy's ``factor_list`` orders it (by
length, then multiplicity, then the descending coefficients), so that
callers which adjoin roots factor by factor keep the order they had.
"""

import random
from itertools import combinations
from math import isqrt

from . import upoly

# primes examined before choosing the one with the fewest factors
PRIMES_TRIED = 5
# seed of the random polynomials of the equal-degree splitting
SEED = 3


# -- polynomials modulo m -----------------------------------------------

def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _mul_mod(f, g, m):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([c % m for c in out])


def _sub_mod(f, g, m):
    if len(f) < len(g):
        f = f + [0] * (len(g) - len(f))
    out = list(f)
    for i, c in enumerate(g):
        out[i] -= c
    return _trim([c % m for c in out])


def _add_mod(f, g, m):
    return _sub_mod(f, [-c for c in g], m)


def _divmod_mod(f, g, m):
    """Quotient and remainder mod m; g's leading coefficient is a unit."""
    dg = len(g) - 1
    rem = [c % m for c in f]
    if len(rem) <= dg:
        return [], _trim(rem)
    inv = pow(g[-1], -1, m)
    quo = [0] * (len(rem) - dg)
    for k in range(len(rem) - 1 - dg, -1, -1):
        c = rem[k + dg] * inv % m
        if c:
            quo[k] = c
            for j in range(dg + 1):
                rem[k + j] = (rem[k + j] - c * g[j]) % m
    return _trim(quo), _trim(rem[:dg])


def _monic_mod(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gcd_mod(f, g, p):
    while g:
        f, g = g, _divmod_mod(f, g, p)[1]
    return _monic_mod(f, p) if f else f


def _gcdex_mod(f, g, p):
    """(s, t) with s f + t g = 1 mod p, for coprime f and g."""
    r0, r1 = f, g
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _pow_mod(f, e, g, p):
    """f^e mod (g, p)."""
    out = [1]
    f = _divmod_mod(f, g, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, f, p), g, p)[1]
        e >>= 1
        if e:
            f = _divmod_mod(_mul_mod(f, f, p), g, p)[1]
    return out


def _diff_int(f):
    return [k * f[k] for k in range(1, len(f))]


# -- factoring modulo p -------------------------------------------------

def _distinct_degree(f, p):
    """[(product of the factors of degree d, d)] of the monic squarefree
    f mod p."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """The monic irreducible factors, each of degree d, of their product
    g mod the odd prime p (Cantor and Zassenhaus)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = _sub_mod(_pow_mod(a, e, g, p), [1], p)
        h = _gcd_mod(g, b, p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_divmod_mod(g, h, p)[0], d, p, rng))


def _factor_mod(f, p):
    """The monic irreducible factors of the squarefree f mod p."""
    rng = random.Random(SEED)
    out = []
    for g, d in _distinct_degree(_monic_mod(f, p), p):
        out.extend(_equal_degree(g, d, p, rng))
    return out


def _choose_prime(f):
    """(p, count): an odd prime not dividing the leading coefficient, with
    f squarefree mod p, giving the fewest factors among the first few."""
    best = None
    tried = 0
    p = 2
    df = _diff_int(f)
    while tried < PRIMES_TRIED:
        p = _next_prime(p)
        if f[-1] % p == 0:
            continue
        fp = [c % p for c in f]
        if len(_gcd_mod(fp, _trim([c % p for c in df]), p)) > 1:
            continue
        tried += 1
        count = sum((len(g) - 1) // d
                    for g, d in _distinct_degree(_monic_mod(fp, p), p))
        if best is None or count < best[1]:
            best = (p, count)
        if count == 1:
            break
    return best


def _next_prime(p):
    p += 1
    while any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        p += 1
    return p


# -- Hensel lifting -----------------------------------------------------

def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 mod m (h monic), the same mod m^2
    (von zur Gathen and Gerhard, *Modern Computer Algebra*, 15.10)."""
    m2 = m * m
    e = _sub_mod(f, _mul_mod(g, h, m2), m2)
    q, r = _divmod_mod(_mul_mod(s, e, m2), h, m2)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, m2), _mul_mod(q, g, m2), m2), m2)
    h = _add_mod(h, r, m2)
    b = _sub_mod(_add_mod(_mul_mod(s, g, m2), _mul_mod(t, h, m2), m2), [1], m2)
    c, d = _divmod_mod(_mul_mod(s, b, m2), h, m2)
    s = _sub_mod(s, d, m2)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, m2), _mul_mod(c, g, m2), m2), m2)
    return g, h, s, t


def _hensel_lift(f, factors, p, modulus):
    """Monic lifts mod ``modulus`` (a power of p) of the monic factors mod
    p of f, with f = lc(f) * prod(factors) mod p."""
    if len(factors) == 1:
        return [_monic_mod(f, modulus)]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _mul_mod(g, u, p)
    h = [1]
    for u in factors[half:]:
        h = _mul_mod(h, u, p)
    s, t = _gcdex_mod(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    g = [c % modulus for c in g]
    h = [c % modulus for c in h]
    return (_hensel_lift(g, factors[:half], p, modulus)
            + _hensel_lift(h, factors[half:], p, modulus))


# -- recombination --------------------------------------------------------

def _symmetric(f, m):
    half = m // 2
    return _trim([c - m if c > half else c for c in f])


def factor_squarefree(f):
    """The irreducible factors over ZZ of the primitive squarefree
    integer polynomial f (ascending, positive leading coefficient), each
    primitive with a positive leading coefficient."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    p, count = _choose_prime(f)
    if count == 1:
        return [f]
    local = _factor_mod([c % p for c in f], p)
    # Mignotte: a factor of f has coefficients below 2^n |f|_2, and so
    # does lc(f) times a monic factor once brought back to ZZ
    norm2 = isqrt(sum(c * c for c in f)) + 1
    bound = 2 * abs(f[-1]) * 2 ** n * norm2 + 1
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    lifted = _hensel_lift(f, local, p, modulus)
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            lc = f[-1]
            # constant-term test before the full product
            c0 = lc
            for i in subset:
                c0 = c0 * lifted[i][0] % modulus
            c0 = c0 - modulus if c0 > modulus // 2 else c0
            if c0 == 0 or lc * f[0] % c0:
                continue
            g = [lc % modulus]
            for i in subset:
                g = _mul_mod(g, lifted[i], modulus)
            g = upoly.primitive(_symmetric(g, modulus))
            q = upoly.exquo_int(f, g)
            if q is None:
                continue
            out.append(g)
            f = q
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    out.append(upoly.primitive(f))
    return out


def factor_list(field, coeffs):
    """The factorization over QQ of the polynomial with ascending
    coefficients ``coeffs`` (elements of the rational ConstField
    ``field``, degree >= 1): [(factor, multiplicity)], each factor a
    primitive integer polynomial (ascending ints, positive leading
    coefficient), in sympy's ``factor_list`` order."""
    coeffs = upoly.trim(field, coeffs)
    j = next(i for i, c in enumerate(coeffs) if c)
    f = coeffs[j:]
    out = [([0, 1], j)] if j else []
    if len(f) > 1:
        sqf = upoly.sqf_part(field, f)
        for g in factor_squarefree(upoly.integer_form(sqf)[2]):
            k, f = upoly.divide_out(field, f, [field.from_int(c) for c in g])
            out.append((g, k))
    return sorted(out, key=lambda fk: (len(fk[0]), fk[1], fk[0][::-1]))


def is_irreducible(field, coeffs):
    """True when the polynomial over QQ of degree >= 1 is irreducible:
    of degree 1 always, of degree 2 exactly when its discriminant is not
    the square of a rational (it then has no rational root), and of a
    higher degree when ``factor_list`` finds one simple factor."""
    f = upoly.trim(field, coeffs)
    if len(f) == 2:
        return True
    if len(f) == 3:
        c, b, a = f
        disc = field.sub(field.mul(b, b),
                         field.mul(field.from_int(4), field.mul(a, c)))
        num, den = disc.numerator, disc.denominator
        # in lowest terms, a square exactly when both parts are
        return not (num >= 0 and isqrt(num) ** 2 == num
                    and isqrt(den) ** 2 == den)
    factors = factor_list(field, f)
    return len(factors) == 1 and factors[0][1] == 1
