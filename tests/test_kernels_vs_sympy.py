"""dgal's own arithmetic kernels against sympy as the oracle.

Each property draws small random inputs and checks one kernel against the
sympy function it replaces: factoring over QQ, QQ(i) and QQ(omega), the
polynomial gcd over QQ, the Hermite normal form and the integer kernel,
and arithmetic, text form and partial fractions in Q(t)."""

from fractions import Fraction

import sympy as sp
from hypothesis import assume, given, settings, strategies as st
from sympy import ZZ
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp

from dgal import upoly
from dgal.fields import ConstField, factor_list, field_adjoin
from dgal.lattice import hnf_basis, integer_kernel
from dgal.ratfunc import RatFuncField
from sympy_oracle import poly, sympy_domain

QQ = ConstField()
QQ_I = field_adjoin(QQ, [QQ.one, QQ.zero, QQ.one])[0]
QQ_OMEGA = field_adjoin(QQ, [QQ.one, QQ.one, QQ.one])[0]

small = st.integers(-4, 4)


def _product(field, factors):
    out = [field.one]
    for f in factors:
        new = [field.zero] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] = field.add(new[i + j], field.mul(a, b))
        out = new
    return out


def _element(field, a, b):
    """a + b*g in a number field, a in QQ."""
    gen = field.generator()
    if gen is None:
        return field.from_int(a)
    return field.add(field.from_int(a), field.mul(field.from_int(b), gen))


def _fractions(field, c):
    """A coefficient as its ascending rational coordinates."""
    vec = field.to_rational_vector(c)
    return [Fraction(int(x.numerator), int(x.denominator)) for x in vec]


def _sympy_factors(field, coeffs):
    """sympy's factor_list over sympy's domain for ``field``, each factor
    as ascending coefficients, each coefficient as ascending rationals."""
    dom = sympy_domain(field)
    if field.degree() == 1:
        p = poly(coeffs)
    else:
        desc = [dom.new([sp.polys.domains.QQ(int(x.numerator), int(x.denominator))
                         for x in reversed(field.to_rational_vector(c))])
                for c in reversed(coeffs)]
        p = sp.Poly.from_list(desc, sp.Dummy("x"), domain=dom)
    out = []
    for f, k in p.factor_list()[1]:
        cs = []
        for c in reversed(f.rep.to_list()):
            rep = c.to_list()[::-1] if field.degree() > 1 else [c]
            vec = [Fraction(int(x.numerator), int(x.denominator)) for x in rep]
            cs.append(vec + [Fraction(0)] * (field.degree() - len(vec)))
        out.append((cs, k))
    return out


pairs = st.tuples(small, small)
factor_lists = st.lists(st.lists(pairs, min_size=2, max_size=4)
                        .filter(lambda f: f[-1] != (0, 0)), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([QQ, QQ_I, QQ_OMEGA]), factor_lists)
def test_factor_list_matches_sympy(field, factors):
    """The factors, their multiplicities and their order are sympy's:
    primitive integer factors over QQ, monic ones over QQ(i) and
    QQ(omega).  The first factor is repeated."""
    polys = [[_element(field, a, b) for a, b in f] for f in factors]
    coeffs = _product(field, polys + polys[:1])
    if all(field.is_zero(c) for c in coeffs[1:]):
        return
    ours = [([_fractions(field, c) for c in f], k)
            for f, k in factor_list(field, coeffs)[0]]
    assert ours == _sympy_factors(field, coeffs)


polys_qq = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                   min_size=1, max_size=6).filter(lambda f: f[-1] != 0)


@settings(max_examples=40, deadline=None)
@given(polys_qq, polys_qq, polys_qq)
def test_gcd_over_qq_matches_sympy(a, b, c):
    """The monic gcd of ac and bc and both cofactors, against sympy."""
    a, b, c = ([QQ.from_fraction(x) for x in p] for p in (a, b, c))
    f, g = _product(QQ, [a, c]), _product(QQ, [b, c])
    h, cf, cg = upoly.cofactors(QQ, f, g)
    want = sp.gcd(poly(f), poly(g)).monic()
    assert poly(h) == want and upoly.gcd(QQ, f, g) == h
    assert _product(QQ, [h, cf]) == f and _product(QQ, [h, cg]) == g


QQ_SQRT2 = field_adjoin(QQ, [QQ.from_int(-2), QQ.zero, QQ.one])[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, QQ_SQRT2]),
       st.lists(st.tuples(small, small), min_size=1, max_size=5),
       st.tuples(small, small), st.booleans())
def test_cofactors_of_a_constant_match_the_gcd(field, f, c, swap):
    """A constant argument is returned with gcd 1 and no gcd run; that
    is what the general gcd and exact division give."""
    f = upoly.trim(field, [_element(field, a, b) for a, b in f])
    c = _element(field, *c)
    assume(f and not field.is_zero(c))
    f, g = ([c], f) if swap else (f, [c])
    h = upoly.gcd(field, f, g)
    assert h == [field.one]
    assert upoly.cofactors(field, f, g) == \
        (h, upoly.exquo(field, f, h), upoly.exquo(field, g, h))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_hnf_and_kernel_match_sympy(rows):
    rows = [r for r in rows if any(r)]
    if not rows:
        return
    want = hermite_normal_form(sp.Matrix(rows).T)
    assert hnf_basis(rows) == [[int(x) for x in want.col(j)]
                               for j in range(want.cols)]
    m = sp.Matrix(rows)
    a, _s, t = smith_normal_decomp(m, domain=ZZ)
    ker = [[int(x) for x in t.col(j)] for j in range(t.cols)
           if j >= a.cols or all(a[i, j] == 0 for i in range(a.rows))]
    assert integer_kernel(rows, 3) == hnf_basis(ker)


T = sp.Symbol("t")
KT, TT = sp.field("t", sp.polys.domains.QQ)
R = RatFuncField(QQ)
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
ratfuncs = st.tuples(st.lists(fractions, min_size=1, max_size=4),
                     st.lists(fractions, min_size=1, max_size=3)
                     .filter(lambda d: any(d)))


def _ours_rf(pair):
    num, den = pair
    return R.from_coeffs([QQ.from_fraction(c) for c in num],
                         [QQ.from_fraction(c) for c in den])


def _sympy_poly(coeffs):
    return sum((sp.Rational(int(c.numerator), int(c.denominator)) * TT ** i
                for i, c in enumerate(coeffs)), KT.zero)


def _sympy_rf(pair):
    """The element of sympy's sparse field QQ(t)."""
    return _sympy_poly(pair[0]) / _sympy_poly(pair[1])


def _pair(f):
    """(numerator, denominator) as ascending Fractions, denominator monic."""
    num, den = f.numer.to_dense()[::-1], f.denom.to_dense()[::-1]
    lc = den[-1]
    return ([Fraction(int(c.numerator), int(c.denominator)) / Fraction(
                int(lc.numerator), int(lc.denominator)) for c in num],
            [Fraction(int(c.numerator), int(c.denominator)) / Fraction(
                int(lc.numerator), int(lc.denominator)) for c in den])


def _check(f, expected):
    """f is the reduced pair of ``expected`` with a monic denominator."""
    ours = ([Fraction(c) for c in R.numer_coeffs(f)],
            [Fraction(c) for c in R.denom_coeffs(f)])
    want = _pair(expected)
    if not want[0]:
        want = ([Fraction(0)], want[1])
    assert ours == want


@settings(max_examples=30, deadline=None)
@given(ratfuncs, ratfuncs)
def test_ratfunc_arithmetic_and_format_match_sympy(p, q):
    f, g = _ours_rf(p), _ours_rf(q)
    ef, eg = _sympy_rf(p), _sympy_rf(q)
    _check(f, ef)
    _check(R.add(f, g), ef + eg)
    _check(R.sub(f, g), ef - eg)
    _check(R.mul(f, g), ef * eg)
    _check(R.diff(f), ef.diff(TT))
    if not R.is_zero(g):
        _check(R.div(f, g), ef / eg)
    # the text form reads back in sympy as the same function
    text = R.format(R.add(f, g)).replace("^", "**")
    assert KT.from_expr(sp.sympify(text, locals={"t": T})) == ef + eg


@settings(max_examples=20, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)),
                min_size=1, max_size=3))
def test_partial_fractions_match_sympy(num, poles):
    """Every principal part c_j / (t - p)^j and the polynomial part are
    those sympy reads off the Laurent expansion at p."""
    poles = dict(poles)
    den = [QQ.one]
    for p, m in poles.items():
        for _ in range(m):
            den = _product(QQ, [den, [QQ.from_int(-p), QQ.one]])
    f = R.from_coeffs([QQ.from_fraction(c) for c in num], den)
    expr = _sympy_rf((num, den))
    big, poly_part, parts = R.apart(f)
    assert big.const.degree() == 1
    got = dict(parts)
    remainder = expr
    x = expr.numer.ring.gens[0]
    for p, m in poles.items():
        h = expr * (TT - p) ** m
        cs = got.get(QQ.from_int(p), [])
        cs = cs + [QQ.zero] * (m - len(cs))
        for j in range(m, 0, -1):
            want = h.numer.evaluate(x, p) / h.denom.evaluate(x, p) / \
                sp.factorial(m - j)
            assert Fraction(cs[j - 1]) == Fraction(int(want.numerator),
                                                  int(want.denominator))
            remainder -= KT(want) / (TT - p) ** j
            h = h.diff(TT)
    assert remainder == _sympy_poly(poly_part)
