"""Rational, the element type of QQ, against fractions.Fraction."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgal.rational import Rational, as_rational

fractions = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)
ints = st.integers(-10 ** 6, 10 ** 6)


def rat(f):
    return Rational(f.numerator, f.denominator)


def same(r, f):
    return (type(r) is Rational and r.numerator == f.numerator
            and r.denominator == f.denominator)


@settings(max_examples=150, deadline=None)
@given(fractions, st.one_of(fractions, ints))
def test_arithmetic_and_order_match_fraction(a, b):
    x = rat(a)
    y = rat(b) if isinstance(b, Fraction) else b
    for op in (operator.add, operator.sub, operator.mul):
        assert same(op(x, y), op(a, b)) and same(op(y, x), op(b, a))
    if b:
        assert same(x / y, a / b)
    if a:
        assert same(y / x, b / a)
    assert same(-x, -a) and same(abs(x), abs(a)) and int(x) == int(a)
    for op in (operator.eq, operator.lt, operator.le, operator.gt, operator.ge):
        assert op(x, y) == op(a, b) and op(x, b) == op(a, b)
    assert hash(x) == hash(a) and bool(x) == bool(a)
    assert str(x) == str(a) and Fraction(x) == a and as_rational(a) == x


@settings(max_examples=50, deadline=None)
@given(fractions, st.integers(-5, 5))
def test_power_matches_fraction(a, e):
    if not a and e < 0:
        with pytest.raises(ZeroDivisionError):
            rat(a) ** e
        return
    assert same(rat(a) ** e, a ** e)


def test_normal_form_and_zero_denominator():
    assert same(Rational(6, -4), Fraction(-3, 2))
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)
    with pytest.raises(ZeroDivisionError):
        Rational(1) / 0
