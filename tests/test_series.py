from fractions import Fraction

import pytest

from dgal.errors import DgalError, SingularPointError
from dgal.fields import ConstField
from dgal.ratfunc import RatFuncField
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
