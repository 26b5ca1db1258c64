from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgal.errors import DgalError, SingularPointError
from dgal.fields import ConstField, field_adjoin
from dgal.ratfunc import RatFuncField, _series_div
from dgal.series import (Series, ratfunc_series, rational_reconstruction,
                         reconstruct_ratfunc)

K = ConstField()
R = RatFuncField(K)


def frac(p, q=1):
    return K.from_fraction(Fraction(p, q))


def test_series_ring_ops():
    a = Series(K, [frac(1), frac(2), frac(3)])
    b = Series(K, [frac(0), frac(1), frac(0)])
    assert (a * b).coeffs == [frac(0), frac(1), frac(2)]
    assert (a + b).coeffs == [frac(1), frac(3), frac(3)]
    assert a.diff().coeffs == [frac(2), frac(6)]


def test_series_inverse():
    a = Series(K, [frac(1), frac(-1), frac(0), frac(0)])
    inv = a.inverse()
    assert inv.coeffs == [frac(1), frac(1), frac(1), frac(1)]  # geometric
    with pytest.raises(DgalError):
        Series(K, [frac(0), frac(1)]).inverse()


QQ_I, I = field_adjoin(K, [K.one, K.zero, K.one])
small = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def unit_series(draw):
    """A series over QQ or QQ(i) with a nonzero constant term."""
    field = draw(st.sampled_from([K, QQ_I]))

    def elem():
        c = field.from_fraction(draw(small))
        if field is QQ_I:
            c = field.add(c, field.mul(I, field.from_fraction(draw(small))))
        return c

    coeffs = [elem() for _ in range(draw(st.integers(1, 12)))]
    if field.is_zero(coeffs[0]):
        coeffs[0] = field.one
    return Series(field, coeffs)


@settings(max_examples=60, deadline=None)
@given(unit_series())
def test_logderiv_is_one_series_division(u):
    # u'/u by one division, as hyperexp.logderiv_from_character forms it;
    # multiplying back by u checks both sides of the first equality at once
    du = u.diff()
    w = _series_div(u.field, du.coeffs, u.coeffs, len(du.coeffs))
    assert w == (du * u.inverse()).coeffs
    assert (Series(u.field, w) * u).coeffs == du.coeffs


def test_ratfunc_series_geometric():
    # 1/(2t) at a=1: 1/2 - u/2 + u^2/2 - ...
    f = R.parse("1/(2*t)")
    s = ratfunc_series(R, f, K.from_int(1), 2)
    assert s.coeffs == [frac(1, 2), frac(-1, 2), frac(1, 2)]


def test_ratfunc_series_pole():
    with pytest.raises(SingularPointError):
        ratfunc_series(R, R.parse("1/t"), K.zero, 3)


def test_rational_reconstruction_roundtrip():
    f = R.parse("(t^2 + 3)/(t + 2)")
    a = K.from_int(1)
    s = ratfunc_series(R, f, a, 10)
    g = reconstruct_ratfunc(R, s, a, 2, 1)
    assert g is not None and R.eq(f, g)


def test_rational_reconstruction_needs_margin():
    with pytest.raises(DgalError):
        rational_reconstruction(K, [frac(1)] * 3, 2, 2)


def test_reconstruction_fails_for_exponential():
    # e^u has no rational representation: reconstruction at two orders disagrees
    import math
    coeffs = [frac(1, math.factorial(k)) for k in range(12)]
    got1 = rational_reconstruction(K, coeffs[:8], 3, 3)
    got2 = rational_reconstruction(K, coeffs[:12], 3, 3)
    # either no solution at the longer order, or the two disagree
    if got1 is not None and got2 is not None:
        assert got1 != got2
