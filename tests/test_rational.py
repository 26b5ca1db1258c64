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


def from_digits(text):
    """The int of a decimal string of any length, 500 digits at a time,
    past the interpreter's limit on int() of a string."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(text), 500):
        chunk = text[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


@settings(max_examples=30, deadline=None)
@given(st.integers(-10 ** 9000, 10 ** 9000), st.integers(1, 10 ** 6))
def test_str_is_exact_past_the_interpreters_digit_limit(num, den):
    # str() of an int refuses more than 4300 digits by default; a
    # Rational converts exactly at any length, without that setting
    x = Rational(num, den)
    text = str(x)
    n, _, d = text.partition("/")
    assert from_digits(n) == x.numerator and from_digits(d or "1") == \
        x.denominator
    assert n.lstrip("-") == "0" or not n.lstrip("-").startswith("0")
    assert repr(x) == "Rational(%s, %s)" % (n, d or "1")


def test_str_of_a_power_of_ten_past_the_limit():
    assert str(Rational(10 ** 5000 + 7, 3)) == "1" + "0" * 4999 + "7/3"
    assert str(Rational(-10 ** 9000)) == "-1" + "0" * 9000
