import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from dgal import fields, upoly
from dgal.errors import DgalError
from dgal.fields import ConstField, field_adjoin, join, split_univariate
from sympy_oracle import from_sympy, to_sympy


def QQ():
    return ConstField()


def test_rational_arithmetic():
    k = QQ()
    a = k.from_fraction(Fraction(3, 4))
    b = k.from_int(2)
    assert k.eq(k.add(a, b), k.from_fraction(Fraction(11, 4)))
    assert k.eq(k.div(a, b), k.from_fraction(Fraction(3, 8)))
    assert k.is_zero(k.sub(a, a))
    assert k.eq(k.pow(b, -2), k.from_fraction(Fraction(1, 4)))


def test_adjoin_i():
    k = QQ()
    ki, i = field_adjoin(k, [k.one, k.zero, k.one])  # x^2 + 1
    assert ki.degree() == 2
    assert ki.is_zero(ki.add(ki.mul(i, i), ki.one))


def test_adjoin_linear_is_noop():
    k = QQ()
    k2, r = field_adjoin(k, [k.from_int(-2), k.one])  # x - 2
    assert k2 == k
    assert k2.eq(r, k2.from_int(2))


def test_adjoin_reducible_reports_witness():
    k = QQ()
    with pytest.raises(DgalError, match="reducible"):
        field_adjoin(k, [k.from_int(-4), k.zero, k.one])  # x^2 - 4


def test_tower_sqrt2_sqrt3():
    k = QQ()
    k2, r2 = field_adjoin(k, [k.from_int(-2), k.zero, k.one])
    k3, r3 = field_adjoin(k2, [k2.from_int(-3), k2.zero, k2.one])
    assert k3.degree() == 4
    r2 = k3.coerce_from(k2, r2)
    prod = k3.mul(r2, r3)
    # (sqrt2*sqrt3)^2 = 6, and x^2-6 is the minimal polynomial of the product
    assert k3.eq(k3.mul(prod, prod), k3.from_int(6))
    mp = sp.minimal_polynomial(to_sympy(k3, prod), sp.Symbol("x"))
    assert mp == sp.Symbol("x") ** 2 - 6


def test_split_univariate_x4_minus_1():
    k = QQ()
    fld, roots = split_univariate(k, [k.from_int(-1), k.zero, k.zero, k.zero, k.one])
    assert len(roots) == 4
    assert fld.degree() == 2  # QQ(i)
    for r, m in roots:
        assert m == 1
        assert fld.eq(fld.pow(r, 4), fld.one)


def test_split_tracks_multiplicity():
    k = QQ()
    # (x-1)^2 * (x^2+1)
    coeffs = [k.from_int(1), k.from_int(-2), k.from_int(2), k.from_int(-2), k.one]
    fld, roots = split_univariate(k, coeffs)
    mults = sorted(m for _, m in roots)
    assert mults == [1, 1, 2]


def test_format_parse_roundtrip():
    k = QQ()
    ki, i = field_adjoin(k, [k.one, k.zero, k.one])
    samples = [
        ki.zero,
        ki.one,
        ki.from_int(-7),
        i,
        ki.add(ki.from_fraction(Fraction(1, 2)), ki.mul(ki.from_int(3), i)),
        ki.neg(ki.div(i, ki.from_int(6))),
    ]
    for el in samples:
        text = ki.format(el)
        back = ki.parse(text)
        assert ki.eq(el, back), (text, el, back)
        # and the printed form is stable
        assert ki.format(back) == text


def test_coerce_into_bigger_field():
    k = QQ()
    a = k.from_fraction(Fraction(5, 3))
    ki, _ = field_adjoin(k, [k.one, k.zero, k.one])
    assert ki.eq(ki.coerce_from(k, a), ki.from_fraction(Fraction(5, 3)))


def test_split_x3_minus_2():
    """The roots of x^3 - 2 need a degree-6 field over a cubic one."""
    k = QQ()
    fld, roots = split_univariate(k, [k.from_int(-2), k.zero, k.zero, k.one])
    assert fld.degree() == 6
    assert len(roots) == 3 and all(m == 1 for _, m in roots)
    assert all(fld.eq(fld.pow(r, 3), fld.from_int(2)) for r, _ in roots)
    assert len({fld.format(r) for r, _ in roots}) == 3


@contextmanager
def _within(seconds):
    """Fail the block with TimeoutError if it runs longer than ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError("took longer than %d s" % seconds)
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _value(fld, coeffs, r):
    out = fld.zero
    for c in reversed(coeffs):
        out = fld.add(fld.mul(out, r), fld.coerce_from(QQ(), c))
    return out


def test_adjoin_and_split_cyclic_cubic():
    """x^3 - 3x + 1 has three real roots and a cyclic Galois group: one
    root generates the splitting field."""
    k = QQ()
    coeffs = [k.one, k.from_int(-3), k.zero, k.one]
    with _within(5):
        fld, r = field_adjoin(k, coeffs)
        assert fld.degree() == 3 and fld.is_zero(_value(fld, coeffs, r))
        fld, roots = split_univariate(k, coeffs)
    assert fld.degree() == 3
    assert len({fld.format(r) for r, _ in roots}) == 3
    assert all(m == 1 and fld.is_zero(_value(fld, coeffs, r)) for r, m in roots)


def _check_splitting_tower(coeffs, degree):
    """Adjoin one root and split the irreducible ``coeffs`` within 5 s:
    every root is a root of the input, in a field of ``degree``."""
    k = QQ()
    coeffs = [k.from_int(c) for c in coeffs]
    with _within(5):
        fld, r = field_adjoin(k, coeffs)
        assert fld.degree() == len(coeffs) - 1 and fld.is_zero(_value(fld, coeffs, r))
        fld, roots = split_univariate(k, coeffs)
    assert fld.degree() == degree
    assert len({fld.format(r) for r, _ in roots}) == len(coeffs) - 1
    assert all(m == 1 and fld.is_zero(_value(fld, coeffs, r)) for r, m in roots)


def test_adjoin_and_split_cubic_without_real_radical_root():
    """x^3 - x - 1 has Galois group S3: the roots need a degree-6 tower
    over the cubic field, made by Trager's norm."""
    _check_splitting_tower([-1, -1, 0, 1], 6)


def test_adjoin_and_split_quartic_without_real_roots():
    """x^4 + x + 1 has Galois group S4 and no real root: its splitting
    field is a degree-24 tower of three Trager steps."""
    _check_splitting_tower([1, 1, 0, 0, 1], 24)


def test_split_computes_one_norm_per_factor_over_a_number_field(monkeypatch):
    """x^4 + x + 1 splits by three adjoins; the cubic and the quadratic
    left over are irreducible over fields of degree 4 and 12.  Each is
    factored by one Trager norm, which the adjoin of its root reuses."""
    over = []
    norm = fields.sqf_norm

    def counted(field, f):
        over.append(field.degree())
        return norm(field, f)

    monkeypatch.setattr(fields, "sqf_norm", counted)
    k = QQ()
    fld, roots = split_univariate(k, [k.from_int(c) for c in [1, 1, 0, 0, 1]])
    assert fld.degree() == 24 and len(roots) == 4
    assert over == [4, 12]


small_q = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(-2, 0), (1, 0), (1, 1)]), small_q, small_q)
def test_quadratic_inverse_matches_the_extended_euclid(m, a0, a1):
    # over g^2 - 2, g^2 + 1 and g^2 + g + 1 the inverse of a0 + a1*g is
    # the conjugate over the norm; the extended Euclid gives the same
    k = QQ()
    fld, g = field_adjoin(k, [k.from_int(m[0]), k.from_int(m[1]), k.one])
    a = fld.add(fld.from_fraction(a0), fld.mul(fld.from_fraction(a1), g))
    if fld.is_zero(a):
        with pytest.raises(ZeroDivisionError):
            fld.inv(a)
        return
    s, _t, h = upoly.gcdex(k, list(a), list(fld._minpoly))
    assert h == [k.one]
    assert fld._nf_inv(a) == tuple(s)
    assert fld.mul(a, fld.inv(a)) == fld.one


def _adjoin(k, constant):
    """k with a root of x^2 + constant adjoined."""
    return field_adjoin(k, [k.from_int(constant), k.zero, k.one])[0]


def test_join_holds_each_subfield_one_way():
    """QQ(2^(1/4)) joined with QQ(sqrt 2) holds sqrt 2 as +-g^2; the tower
    y^2 = -sqrt 2 holds it too.  Their join holds sqrt 2 one way, so it
    cannot take 2^(1/4) from the tower's roots of x^4 - 2: degree 8."""
    k = QQ()
    q2 = _adjoin(k, -2)
    q4, _ = field_adjoin(k, [k.from_int(-2), k.zero, k.zero, k.zero, k.one])
    both = join(q4, q2)
    tower, y = field_adjoin(q2, [q2.generator(), q2.zero, q2.one])
    for big in (join(tower, both), join(both, tower)):
        sqrt2 = big.coerce_from(q2, q2.generator())
        assert big.degree() == 8
        assert big.eq(big.coerce_from(both, both.coerce_from(q2, q2.generator())), sqrt2)
        assert big.eq(big.coerce_from(tower, tower.coerce_from(q2, q2.generator())), sqrt2)
        assert big.eq(big.pow(big.coerce_from(tower, y), 2), big.neg(sqrt2))


SQRT2 = _adjoin(QQ(), -2)
QQ_I = _adjoin(QQ(), 1)
SUBFIELDS = [(SQRT2, _adjoin(SQRT2, 1)), (QQ_I, _adjoin(QQ_I, -3))]
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUBFIELDS), fractions, fractions)
def test_coerce_from_matches_sympy_round_trip(fields, a, b):
    """QQ(sqrt 2) -> QQ(sqrt 2, i) and QQ(i) -> QQ(i, sqrt 3): the cached
    image of the generator gives what converting through sympy gives."""
    small, big = fields
    el = small.add(small.from_fraction(a),
                   small.mul(small.from_fraction(b), small.generator()))
    assert big.eq(big.coerce_from(small, el),
                  from_sympy(big, to_sympy(small, el)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([SQRT2, QQ_I, SUBFIELDS[0][1]]),
       st.lists(fractions, max_size=4), fractions.filter(bool))
def test_division_by_a_rational_matches_the_inverse(fld, coords, b):
    """Over a number field, dividing by a rational (one coordinate)
    divides the coordinates; the general inverse gives the same."""
    a = fld.from_fraction(0)
    for c in coords:
        a = fld.add(fld._times_generator(a), fld.from_fraction(c))
    q = fld.from_fraction(b)
    assert fld.div(a, q) == fld._nf_mul(a, fld._nf_inv(q))
    assert fld.inv(q) == fld._nf_inv(q)


def _poly_mul(k, p, q):
    out = [k.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = k.add(out[i + j], k.mul(a, b))
    return out


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=2),
       st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3)), max_size=2),
       st.integers(1, 2), st.integers(-3, 3).filter(bool))
def test_split_roots_rebuild_the_polynomial(linear, quadratic, power, lead):
    """The product of (x - r)^m over the roots is the monic input."""
    k = QQ()
    factors = [[k.from_int(-a), k.one] for a in linear]
    factors += [[k.from_int(c), k.from_int(b), k.one] for b, c in quadratic]
    poly = [k.from_int(lead)]
    for f in factors * power:
        poly = _poly_mul(k, poly, f)
    fld, roots = split_univariate(k, poly)
    if len(poly) < 2:
        assert roots == []
        return
    rebuilt = [fld.one]
    for r, m in roots:
        for _ in range(m):
            rebuilt = _poly_mul(fld, rebuilt, [fld.neg(r), fld.one])
    monic = [fld.div(fld.coerce_from(k, c), fld.coerce_from(k, poly[-1])) for c in poly]
    assert len(rebuilt) == len(monic)
    assert all(fld.eq(x, y) for x, y in zip(rebuilt, monic))


def test_one_field_per_minimal_polynomial():
    """Adjoining x^2 + x + 1 twice gives one field; x^2 + 1 gives another,
    although sympy would compare two algebraic fields with the same
    symbolic root as equal whatever their minimal polynomials."""
    k = QQ()
    omega = [k.one, k.one, k.one]
    first, _ = field_adjoin(k, omega)
    second, _ = field_adjoin(k, omega)
    assert first == second and hash(first) == hash(second)
    assert first != _adjoin(k, 1)
    assert repr(first) == "ConstField(QQ(g), g**2 + g + 1 = 0)"


MINPOLYS = [[2, 0, 1], [-3, 0, 1], [1, 1, 1], [-1, -1, 1], [5, 2, 1],
            [1, -3, 0, 1]]


@pytest.mark.parametrize("coeffs", MINPOLYS)
def test_generator_is_a_root_of_the_input(coeffs):
    k = QQ()
    fld, r = field_adjoin(k, [k.from_int(c) for c in coeffs])
    x = to_sympy(fld, r)
    assert sp.simplify(sum(c * x ** i for i, c in enumerate(coeffs))) == 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MINPOLYS), st.lists(fractions, min_size=1, max_size=3))
def test_sympy_round_trip(coeffs, vec):
    """from_sympy inverts to_sympy on a field made from its minimal
    polynomial."""
    k = QQ()
    fld, r = field_adjoin(k, [k.from_int(c) for c in coeffs])
    a = fld.zero
    for c in reversed(vec):
        a = fld.add(fld.mul(a, r), fld.from_fraction(c))
    assert fld.eq(from_sympy(fld, to_sympy(fld, a)), a)


def _is_mth_roots(fld, roots, m):
    """roots are m distinct solutions of z^m = 1, the identity first."""
    return (len(roots) == m and fld.is_one(roots[0])
            and len({fld.format(z) for z in roots}) == m
            and all(fld.is_one(fld.pow(z, m)) for z in roots))


@pytest.mark.parametrize("m", range(1, 37))
def test_roots_of_unity_keep_the_split_field(m):
    """The field of roots_of_unity is QQ adjoined a root of the factor of
    x^m - 1 that factor_list sorts last, a highest-degree one, as
    split_univariate builds it: Phi_m, or Phi_(m/2) when m = 2 mod 4 and
    the sort puts it last (m = 6, but not m = 30)."""
    k = QQ()
    xm = [k.from_int(-1)] + [k.zero] * (m - 1) + [k.one]
    fld, roots = fields.roots_of_unity(k, m)
    last = fields.factor_list(k, xm)[0][-1][0]
    if len(last) == 2:
        assert fld.degree() == 1
    else:
        assert fld.minpoly_coeffs() == last
    assert _is_mth_roots(fld, roots, m)
    if m == 30:
        # Phi_30 = x^8 + x^7 - x^5 - x^4 - x^3 + x + 1, not Phi_15
        assert fld.minpoly_coeffs() == [1, 1, 0, -1, -1, -1, 0, 1, 1]
    if m <= 10:
        split, found = split_univariate(k, xm)
        assert split is fld and all(mult == 1 for _, mult in found)
        assert sorted(map(fld.format, roots)) == \
            sorted(fld.format(r) for r, _ in found)


OMEGA = field_adjoin(QQ(), [QQ().one, QQ().one, QQ().one])[0]


@pytest.mark.parametrize("base,m,degree", [
    (QQ_I, 4, 2), (QQ_I, 8, 4), (SQRT2, 8, 4), (SQRT2, 3, 4),
    (OMEGA, 12, 4)])
def test_roots_of_unity_over_a_number_field(base, m, degree):
    """Over a number field the roots come from the first factor of the
    cyclotomic polynomial there (i is already in QQ(i); zeta_8 is a root
    of a quadratic factor of x^4 + 1 over QQ(i) or QQ(sqrt 2)), and the
    field and the roots are those split_univariate gives."""
    fld, roots = fields.roots_of_unity(base, m)
    assert fld.degree() == degree
    assert _is_mth_roots(fld, roots, m)
    split, found = split_univariate(
        base, [base.from_int(-1)] + [base.zero] * (m - 1) + [base.one])
    assert fld.minpoly_coeffs() == split.minpoly_coeffs()
    assert sorted(map(fld.format, roots)) == \
        sorted(split.format(r) for r, _ in found)
