from fractions import Fraction

import pytest

from dgal.errors import SingularPointError
from dgal.fields import ConstField, field_adjoin
from dgal.ratfunc import RatFuncField


def make():
    return RatFuncField(ConstField())


def test_arithmetic_and_diff():
    R = make()
    t = R.t
    f = R.div(R.add(R.mul(t, t), R.one), t)  # (t^2+1)/t
    df = R.diff(f)
    # d/dt (t + 1/t) = 1 - 1/t^2 = (t^2-1)/t^2
    expect = R.div(R.sub(R.mul(t, t), R.one), R.mul(t, t))
    assert R.eq(df, expect)


def test_diff_quotient_with_composite_denominator():
    R = make()
    t = R.t
    f = R.inv(R.mul(t, R.sub(t, R.one)))  # 1/(t(t-1))
    df = R.diff(f)
    # -(2t-1)/(t^2(t-1)^2)
    num = R.neg(R.sub(R.mul(R.from_int(2), t), R.one))
    den = R.mul(R.pow(t, 2), R.pow(R.sub(t, R.one), 2))
    assert R.eq(df, R.div(num, den))


def test_eval_and_poles():
    R = make()
    k = R.const
    f = R.parse("(t^2 + 1)/(t - 2)")
    assert k.eq(R.eval_at(f, k.from_int(3)), k.from_int(10))
    with pytest.raises(SingularPointError):
        R.eval_at(f, k.from_int(2))
    assert R.is_regular_at(f, k.from_int(0))
    assert not R.is_regular_at(f, k.from_int(2))


def test_format_parse_roundtrip():
    R = make()
    samples = [
        "0",
        "1",
        "t",
        "t^2 + -2/3*t + 1",
        "(t^3 + 1)/(t^2 + -1/2)",
        "(1)/(t)",
        "-5",
    ]
    for text in samples:
        f = R.parse(text)
        printed = R.format(f)
        again = R.parse(printed)
        assert R.eq(f, again), (text, printed)
        assert R.format(again) == printed


def test_format_makes_denominator_monic():
    R = make()
    f = R.parse("(2*t + 2)/(2*t - 4)")
    assert R.format(f) == "(t + 1)/(t + -2)"


def test_roundtrip_over_number_field():
    k, _ = field_adjoin(ConstField(), [ConstField().one, ConstField().zero, ConstField().one])
    R = RatFuncField(k)
    f = R.parse("(g*t + 1)/(t - g)")
    printed = R.format(f)
    assert R.eq(R.parse(printed), f)


def test_partial_fractions_simple():
    R = make()
    k = R.const
    # (3t+1)/(t(t-1)) = -1/t + 4/(t-1)
    f = R.parse("(3*t + 1)/(t^2 - t)")
    big, poly_part, parts = R.apart(f)
    kb = big.const
    assert all(kb.is_zero(c) for c in poly_part)
    got = {}
    for pole, coeffs in parts:
        key = kb.format(pole)
        got[key] = [kb.format(c) for c in coeffs]
    assert got == {"0": ["-1"], "1": ["4"]}


def test_partial_fractions_higher_order_and_poly_part():
    R = make()
    # t + 2 + 5/(t-1)^2 expressed with a common denominator
    f = R.parse("((t + 2)*(t - 1)^2 + 5)/((t - 1)^2)")
    big, poly_part, parts = R.apart(f)
    kb = big.const
    assert [kb.format(c) for c in poly_part[:2]] == ["2", "1"]
    assert len(parts) == 1
    pole, coeffs = parts[0]
    assert kb.format(pole) == "1"
    assert [kb.format(c) for c in coeffs] == ["0", "5"]


def test_partial_fractions_extends_field():
    R = make()
    f = R.parse("1/(t^2 + 1)")  # poles at +-i
    big, poly_part, parts = R.apart(f)
    assert big.const.degree() == 2
    assert len(parts) == 2
    # reassemble and compare
    g = big.from_coeffs(poly_part)
    for pole, coeffs in parts:
        lin = big.sub(big.t, big.from_const(pole))
        for j, c in enumerate(coeffs, start=1):
            g = big.add(g, big.div(big.from_const(c), big.pow(lin, j)))
    assert big.eq(g, big.coerce_from(R, f))


def test_eval_with_fraction_point():
    R = make()
    k = R.const
    f = R.parse("t^2")
    v = R.eval_at(f, k.from_fraction(Fraction(1, 2)))
    assert k.eq(v, k.from_fraction(Fraction(1, 4)))
