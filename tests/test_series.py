from fractions import Fraction

import pytest

from dgal.errors import DgalError, SingularPointError
from dgal.fields import ConstField
from dgal.ratfunc import RatFuncField
from dgal import series
from dgal.series import (Series, algebraic_series, ratfunc_series,
                         rational_reconstruction, reconstruct_ratfunc)

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


def test_algebraic_series_sqrt_t():
    # gamma^2 = t at a = 1: (1+u)^(1/2) = 1 + u/2 - u^2/8 + ...
    q = [R.neg(R.t), R.zero, R.one]
    fld, s, root = algebraic_series(R, q, K.from_int(1), 2)
    assert fld == K  # sqrt(1) = +-1 rational
    assert s.coeffs == [root,
                        fld.mul(root, frac(1, 2)),
                        fld.mul(root, frac(-1, 8))]


def test_algebraic_series_chosen_root():
    q = [R.neg(R.t), R.zero, R.one]
    fld, s, root = algebraic_series(R, q, K.from_int(1), 4, root=K.from_int(-1))
    assert K.eq(s.coeffs[0], K.from_int(-1))
    # verify Q(gamma) = 0 in series: gamma^2 - t
    t_series = ratfunc_series(R, R.t, K.from_int(1), 4)
    assert (s * s - t_series).is_zero()


def test_algebraic_series_ramified():
    q = [R.neg(R.t), R.zero, R.one]
    with pytest.raises(SingularPointError):
        algebraic_series(R, q, K.zero, 3)  # t=0 is the branch point


def full_order_newton(q, a, order, root):
    """Newton's iteration for Q(gamma) = 0 with every pass at the full
    order, stopped when the correction vanishes."""
    spec = [ratfunc_series(R, c, a, order) for c in q]
    y = Series.constant(K, root, order)
    for _ in range(order.bit_length() + 2):
        qy = series._eval_poly_series(spec, y)
        dqy = series._eval_poly_series(
            series._derivative_coeffs(K, spec), y)
        corr = qy * dqy.inverse()
        if corr.is_zero():
            break
        y = y - corr
    return y


@pytest.mark.parametrize("m", [2, 3], ids=["sqrt", "cbrt"])
def test_algebraic_series_doubling_matches_full_order(monkeypatch, m):
    # gamma^m = t at a = 1
    q = [R.neg(R.t)] + [R.zero] * (m - 1) + [R.one]
    a = K.from_int(1)
    orders = []  # the order each product works at
    mul = Series.__mul__

    def counting(self, other):
        orders.append(min(self.order, other.order))
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counting)
    for order in [0, 1, 2, 3, 4, 7, 8, 15, 16, 33]:
        orders.clear()
        fld, s, root = algebraic_series(R, q, a, order)
        doubling = list(orders)
        orders.clear()
        expected = full_order_newton(q, a, order, root)
        assert fld == K and s == expected
        assert len(doubling) < len(orders)
        if order >= 8:
            assert sum(doubling) < sum(orders)
