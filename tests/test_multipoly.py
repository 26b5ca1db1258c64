from fractions import Fraction

import sympy as sp
from hypothesis import given, settings, strategies as st

from dgal import multipoly
from dgal.errors import DgalError
from dgal.fields import ConstField, field_adjoin
from dgal.multipoly import (GRADED_LEX, GREVLEX, LEX, PolyRing, groebner,
                            normal_form, standard_monomials,
                            is_zero_dimensional)
from dgal.pipeline import PipelineConfig, proto_galois
from dgal.ratfunc import RatFuncField
from dgal.relations import group_ring
from dgal.solve import PositiveDimensionalError, solve_zero_dimensional
from dgal.systems import OdeSystem

import pytest

K = ConstField()


def ring(*names, order=GREVLEX):
    return PolyRing(K, names, order)


def test_arithmetic_and_format():
    R = ring("x", "y")
    x, y = R.gens
    p = (x + y) * (x - y)
    assert R.format(p) == "x^2 + -1*y^2"
    assert R.parse(R.format(p)) == p
    assert (p - p).is_zero()
    assert (x * y) ** 3 == x ** 3 * y ** 3


def test_normal_form_divides():
    R = ring("x")
    x, = R.gens
    p = x ** 2 - R.one
    r = normal_form(p, [x - R.one])
    assert r.is_zero()


def test_groebner_simple():
    R = ring("x")
    x, = R.gens
    gb = groebner([x ** 2 - R.one, x - R.one])
    assert gb == [x - R.one]


def test_groebner_empty():
    assert groebner([]) == []


def test_rings_in_other_orders_are_other_rings():
    # a Groebner basis is one of an ideal of its ring, in the ring's
    # order, so the order is part of the ring
    assert ring("x", "y") == ring("x", "y")
    assert ring("x", "y") != ring("x", "y", order=LEX)
    assert ring("x", "y", order=GRADED_LEX) != ring("x", "y")


def test_value_at_identity_and_leibniz_rule():
    R = group_ring(2, K)
    P = R.parse("x_1_1^2*x_2_2 + 3*x_1_2*x_2_2 + 2*x_1_1 - 5")
    assert P.at_identity() == K.from_int(-2) == \
        P.eval_consts([K.one, K.zero, K.zero, K.one])
    # D x_1 = 5 x_2 and D x_2 = 0 on x_1^2 x_2: 2 * 5 x_1 x_2^2
    assert list(multipoly.linear_derivation((2, 1), [[(1, 5)], []])) == \
        [((1, 2), 2, 5)]


def test_ideal_membership_after_groebner():
    R = ring("x", "y")
    x, y = R.gens
    gens = [x ** 2 + y ** 2 - R.one, x * y - R.one]
    gb = groebner(gens)
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_standard_monomials_and_zero_dim():
    R = ring("x", "y")
    x, y = R.gens
    gb = groebner([x ** 2 - R.one, y ** 3 - x])
    flag, _ = is_zero_dimensional(gb, R)
    assert flag
    # the staircase under leading monomials x^2, y^3 lies below degree 4
    assert len(standard_monomials(gb, R, 4)) == 6
    flag2, witness = is_zero_dimensional(groebner([x * y - R.one]), R)
    assert not flag2 and witness in ("x", "y")


def test_substitute():
    R = ring("x", "y")
    x, y = R.gens
    p = x ** 2 - y
    q = p.substitute({0: x + y})
    assert q == (x + y) ** 2 - y


def test_solve_c2_minus_1():
    R = ring("c")
    c, = R.gens
    fld, pts = solve_zero_dimensional([c ** 2 - R.one])
    vals = sorted(fld.format(p[0]) for p, _ in pts)
    assert vals == ["-1", "1"]


def test_solve_c2_plus_1_extends():
    R = ring("c")
    c, = R.gens
    fld, pts = solve_zero_dimensional([c ** 2 + R.one])
    assert fld.degree() == 2
    assert len(pts) == 2
    for (v,), _m in pts:
        assert fld.is_zero(fld.add(fld.mul(v, v), fld.one))


def test_solve_overdetermined():
    R = ring("c")
    c, = R.gens
    fld, pts = solve_zero_dimensional([c ** 2 - R.one, c - R.one])
    assert len(pts) == 1
    assert fld.eq(pts[0][0][0], fld.one)


def test_solve_bivariate():
    R = ring("a", "b")
    a, b = R.gens
    # a = b^2, b^3 = 1 -> 3 points
    fld, pts = solve_zero_dimensional([a - b ** 2, b ** 3 - R.one])
    assert len(pts) == 3
    for (av, bv), _ in pts:
        assert fld.eq(av, fld.mul(bv, bv))
        assert fld.eq(fld.pow(bv, 3), fld.one)


def test_solve_ignores_zero_generators():
    # a zero generator leaves the ideal (x - 1) as it is
    R = ring("x")
    x, = R.gens
    fld, pts = solve_zero_dimensional([x - R.one, R.zero])
    assert len(pts) == 1
    assert fld.eq(pts[0][0][0], fld.one)
    with pytest.raises(PositiveDimensionalError):
        solve_zero_dimensional([R.zero, R.zero])


def test_solve_positive_dimensional_rejected():
    R = ring("x", "y")
    x, y = R.gens
    with pytest.raises(PositiveDimensionalError):
        solve_zero_dimensional([x * y - R.one])


def test_solve_branches_in_fields_not_nested():
    """y = 1 gives x^2 = 2 and y = -1 gives x^3 = 2: the branches grow
    QQ(sqrt 2) and the splitting field of x^3 - 2, neither inside the
    other, so the points meet only in a field joining both."""
    R = ring("x", "y", order=LEX)
    x, y = R.gens
    two = R.from_int(2)
    gens = [y ** 2 - R.one, (x ** 2 - two) * (y + R.one) - (x ** 3 - two) * (y - R.one)]
    fld, pts = solve_zero_dimensional(gens)
    assert len(pts) == 5 and all(m == 1 for _, m in pts)
    assert sorted(fld.format(yv) for (_, yv), _ in pts) == ["-1", "-1", "-1", "1", "1"]
    for (xv, yv), _ in pts:
        assert fld.eq(fld.pow(xv, 2 if fld.is_one(yv) else 3), fld.from_int(2))
    assert len({fld.format(xv) for (xv, _), _ in pts}) == 5


@pytest.mark.parametrize("c,degree", [(-2, 8), (1, 4)])
def test_solve_branches_sharing_a_minimal_polynomial(c, degree):
    """y^2 = x with x^2 = -c: both branches x = +-sqrt(-c) adjoin y to
    QQ(x) by a quartic with the same minimal polynomial (x^4 - 2, or
    x^4 + 1), holding x as +g^2 in one field and -g^2 in the other, so
    the fields may not be shared by that polynomial."""
    R = PolyRing(K, ["y", "x"], LEX)
    y, x = R.gens
    fld, pts = solve_zero_dimensional([y ** 2 - x, x ** 2 + R.from_int(c)])
    assert fld.degree() == degree and len(pts) == 4
    assert len({tuple(fld.format(v) for v in p) for p, _ in pts}) == 4
    for (yv, xv), m in pts:
        assert m == 1 and fld.eq(fld.mul(yv, yv), xv)
        assert fld.is_zero(fld.add(fld.mul(xv, xv), fld.from_int(c)))


SYMS = sp.symbols("x y z")


@st.composite
def small_ideals(draw):
    """1 to 3 generators in 2 or 3 variables, each of 1 to 3 terms with
    exponents below 3 and small integer coefficients."""
    nvars = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.integers(-3, 3).filter(bool)
    return nvars, draw(st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=3),
                                min_size=1, max_size=3))


@settings(max_examples=30, deadline=None)
@given(small_ideals(), st.sampled_from([("grevlex", GREVLEX), ("lex", LEX)]))
def test_groebner_matches_sympy(ideal, order):
    """The reduced basis is sympy's reduced basis of the same ideal."""
    nvars, gens = ideal
    name, mono_order = order
    syms = SYMS[:nvars]
    R = PolyRing(K, [str(s) for s in syms], mono_order)
    ours = groebner([R.from_dict({e: K.from_int(c) for e, c in g.items()})
                     for g in gens])
    theirs = sp.groebner([sp.Poly.from_dict(g, *syms).as_expr() for g in gens],
                         *syms, order=name, domain="QQ")
    assert {sp.Poly.from_dict({e: sp.Rational(c.numerator, c.denominator)
                               for e, c in g.terms.items()}, *syms).as_expr()
            for g in ours} == set(theirs.exprs)


def test_lex_basis_of_a_swelling_ideal_matches_sympy():
    """Taking the pair of least lcm first, this lex basis ran for 90 s;
    taking the pair of least sugar first, it is sympy's in well under a
    second."""
    gens = ["-3*x*z - x*y^2 - x^2*y", "-3*y^2 - x^2 - 3*x^2*y^2*z^2",
            "3*y^2*z^2 + 2*z^2 - x^2*y^2"]
    syms = SYMS[:3]
    R = PolyRing(K, [str(s) for s in syms], LEX)
    ours = groebner([R.parse(g) for g in gens])
    theirs = sp.groebner([sp.sympify(g.replace("^", "**")) for g in gens],
                         *syms, order="lex", domain="QQ")
    assert {sp.sympify(R.format(g).replace("^", "**")) for g in ours} \
        == set(theirs.exprs)


def test_stabilizer_basis_needs_few_s_polynomials(monkeypatch):
    """The stabilizer of diag(1/(3t), 2/(3t)) at degree 3 has 5
    generators in echelon form, from the 5 of its 32 basis relations that
    generate their ideal, and a reduced basis of 5 (graded-lex) or 4
    (lex) elements.  Autoreducing the input leaves that basis or one
    step from it, so Buchberger forms at most 5 S-polynomials."""
    R = RatFuncField(K)
    sys = OdeSystem(R, [[R.parse("1/(3*t)"), R.zero],
                        [R.zero, R.parse("2/(3*t)")]])
    H, _rel = proto_galois(sys, PipelineConfig(degree=3))
    assert len(H.generators) == 5
    calls = []
    s_polynomial = multipoly.s_polynomial

    def counting(f, g):
        calls.append((f, g))
        return s_polynomial(f, g)

    monkeypatch.setattr(multipoly, "s_polynomial", counting)
    lex = PolyRing(H.ring.field, H.ring.names, LEX)
    for ring, expected in [
            (H.ring, ["x_2_1", "x_1_2", "x_2_2^2 - x_1_1",
                      "x_1_1*x_2_2 - 1", "x_1_1^2 - x_2_2"]),
            (lex, ["x_2_2^3 - 1", "x_2_1", "x_1_2", "x_1_1 - x_2_2^2"])]:
        del calls[:]
        gens = [ring.from_dict(g.terms) for g in H.generators]
        assert groebner(gens) == [ring.parse(g) for g in expected]
        assert len(calls) <= 5


QQ_SQRT2, SQRT2 = field_adjoin(K, [K.from_int(-2), K.zero, K.one])
# the element a + b*c of each field, c = 1/2 and sqrt(2)
COEFFS = {
    "QQ": (K, lambda a, b: K.from_fraction(Fraction(2 * a + b, 2))),
    "QQ(sqrt 2)": (QQ_SQRT2, lambda a, b: QQ_SQRT2.add(
        QQ_SQRT2.from_int(a), QQ_SQRT2.mul(QQ_SQRT2.from_int(b), SQRT2))),
}
ORDERS = ["grevlex", "gradedlex", "lex"]


def ring_of(field, order, nvars):
    mono_order = {"grevlex": GREVLEX, "lex": LEX,
                  "gradedlex": GRADED_LEX}[order]
    return PolyRing(field, [str(s) for s in SYMS[:nvars]], mono_order)


@st.composite
def coefficient_ideals(draw):
    """A ring over QQ or QQ(sqrt 2) in 2 or 3 variables under one of the
    three orders, and 1 to 3 generators of 1 to 3 terms with exponents
    below 3."""
    field, element = COEFFS[draw(st.sampled_from(sorted(COEFFS)))]
    nvars = draw(st.integers(2, 3))
    R = ring_of(field, draw(st.sampled_from(ORDERS)), nvars)
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda ab: element(*ab))
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=3).map(
        R.from_dict)
    return R, draw(st.lists(polys, min_size=1, max_size=3)), polys


@settings(max_examples=40, deadline=None)
@given(coefficient_ideals(), st.data())
def test_groebner_ignores_redundant_generators(ideal, data):
    """Duplicates, sums and monomial multiples of generators, in any
    order, generate the same ideal, so the reduced basis is the same."""
    R, gens, _polys = ideal
    index = st.integers(0, len(gens) - 1)
    padded = list(gens)
    for kind in data.draw(st.lists(st.sampled_from(["dup", "sum", "mul"]),
                                   max_size=4)):
        i, j = data.draw(index), data.draw(index)
        if kind == "dup":
            padded.append(gens[i])
        elif kind == "sum":
            padded.append(gens[i] + gens[j])
        else:
            exp = data.draw(st.tuples(*[st.integers(0, 1)] * R.nvars))
            padded.append(gens[i].mul_term(exp, R.field.from_int(j + 1)))
    shuffled = data.draw(st.permutations(padded))
    assert groebner(shuffled) == groebner(gens)


@settings(max_examples=40, deadline=None)
@given(coefficient_ideals(), st.data())
def test_normal_form_is_a_remainder(ideal, data):
    """p - r lies in the ideal, and no term of r is divisible by a
    leading monomial of the divisors."""
    R, gens, polys = ideal
    p = data.draw(polys)
    r = normal_form(p, gens)
    assert normal_form(p - r, groebner(gens)).is_zero()
    leads = [g.leading()[0] for g in gens if g.terms]
    assert not any(all(x <= y for x, y in zip(lead, e))
                   for lead in leads for e in r.terms)
