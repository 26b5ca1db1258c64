import math
import time

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from dgal import bounds as B
from dgal.errors import DgalError
from dgal.rational import Rational


def ev(e, **kw):
    return B.evaluate(e, **kw)


def test_gamma_values():
    assert ev(B.gamma_bound(1, 2)).exact_int() == 8
    assert ev(B.gamma_bound(2, 2)).exact_int() == 32


def test_gamma_inequality_grid():
    for n in (1, 2, 3):
        for d in range(1, 7):
            assert ev(B.gamma_bound(n, d)).exact < \
                ev(B.gamma_comparison(n, d)).exact


def test_unipotent_values():
    assert ev(B.unipotent_family_bound(1)).exact_int() == 6561
    assert ev(B.unipotent_family_bound(2)).exact_int() == 17 ** 4096


def test_unipotent_repr_past_the_interpreters_digit_limit():
    # 17^4096 has 5040 decimal digits, past the 4300 that str() of an
    # int allows by default; the magnitude still prints exactly
    value = 17 ** 4096
    text = repr(ev(B.unipotent_family_bound(2)))
    head, digits, again = text.rstrip(")").split(", ")
    assert (head, digits) == ("Magnitude(0", again)
    assert len(digits) == math.floor(4096 * math.log10(17)) + 1 == 5040
    assert int(digits[:20]) == value // 10 ** (len(digits) - 20)
    assert int(digits[-20:]) == value % 10 ** 20


def test_unipotent_log_bracket():
    l = ev(B.unipotent_family_bound(1), bit_cap=4).log2()
    assert 12.67 <= float(l.a) and float(l.b) <= 12.68


def test_dstar_nstar():
    ds, ns = B.dstar_nstar(1, 1)
    assert (ev(ds).exact_int(), ev(ns).exact_int()) == (4, 8)
    ds, ns = B.dstar_nstar(1, 2)
    assert (ev(ds).exact_int(), ev(ns).exact_int()) == (9, 54)


def test_dstar_at_least_one():
    for n in (1, 2):
        for d in (1, 2, 3):
            ds, _ = B.dstar_nstar(n, d)
            assert ev(ds).exact >= 1


def test_kappa1_exact_and_bracketed():
    k1, k2, _ = B.kappas(1)
    v1 = ev(k1).exact_int()
    assert v1 == math.comb(6562, 3281) ** 2
    assert ev(k1, bit_cap=8).contains_exact(v1)
    assert ev(k2).exact_int() == v1 * 6561 * 6562


def test_kappa3_interval_only():
    _, _, k3 = B.kappas(1)
    m = ev(k3)
    assert not m.is_exact
    assert m.log2().a > 0


def test_jordan_table_and_factorial_rule():
    assert [ev(B.jordan_bound(n)).exact_int() for n in (1, 2, 3, 4)] == \
        [1, 60, 360, 25920]
    assert ev(B.jordan_bound(71)).exact_int() == math.factorial(72)
    with pytest.raises(DgalError):
        B.jordan_bound(10)
    assert ev(B.jordan_bound(10, override=100)).exact_int() == 100


def test_proto_galois_degree_bound_brackets():
    dt = B.proto_galois_degree_bound(1)
    m = ev(dt)
    assert not m.is_exact
    ll = m.loglog2()
    assert ll.a > 0 and ll.a <= ll.b
    _, _, k3 = B.kappas(1)
    assert ll.b >= ev(k3).loglog2().a
    # at a common level, the n = 2 bracket lies above the n = 1 bracket
    m2 = ev(B.proto_galois_degree_bound(2))
    assert m.at(m2.level)[1] < m2.lo


def test_render_parse_roundtrip():
    for e in [B.gamma_bound(2, 3), B.kappas(1)[2],
              B.proto_galois_degree_bound(1),
              B.lit(7), B.sub(B.lit(9), B.lit(2)),
              B.max_(B.lit(3), B.fact(B.lit(4)))]:
        assert B.parse(B.render(e)) == e


def test_fraction_literal_roundtrip():
    e = B.gamma_bound(1, 1)  # base 3/2
    assert B.parse(B.render(e)) == e
    assert ev(e).exact == 3


def test_maxbinom_matches_bruteforce():
    for m in range(201):
        want = max(math.comb(m, i) for i in range(m + 1))
        assert ev(B.maxbinom(B.lit(m) if m else B.lit(1))).exact_int() == \
            (want if m else 1)


def test_monotonicity_grids():
    gam = [[ev(B.gamma_bound(n, d)).exact for d in range(1, 5)]
           for n in (1, 2, 3)]
    for row in gam:
        assert row == sorted(row)
    for col in zip(*gam):
        assert list(col) == sorted(col)
    uni = [ev(B.unipotent_family_bound(n)).log2().a for n in (1, 2, 3)]
    assert uni == sorted(uni)


def test_exact_value_inside_own_bracket():
    big, other = B.pow_(B.lit(3), B.lit(100)), B.pow_(B.lit(2), B.lit(150))
    for e in [B.gamma_bound(2, 4), B.unipotent_family_bound(1),
              B.fact(B.lit(30)), B.binom(B.lit(40), B.lit(17)),
              B.binom(B.lit(10 ** 6), B.lit(9)), B.binom(B.lit(9), B.lit(9)),
              B.maxbinom(B.lit(100)), B.add(big, other), B.sub(big, other)]:
        v = ev(e).exact_int()
        assert ev(e, bit_cap=4).contains_exact(v)


def test_runtime_budget():
    t0 = time.time()
    ev(B.gamma_bound(1, 2))
    ev(B.unipotent_family_bound(2))
    B.dstar_nstar(1, 1)
    k1, _, _ = B.kappas(1)
    ev(k1)
    ev(B.proto_galois_degree_bound(1))
    assert time.time() - t0 < 10.0


# -- the rational kernels against mpmath at 200 bits ------------------------

def _exact(x):
    """An mpmath number as the Rational it equals."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return Rational(man << exp) if exp >= 0 else Rational(man, 1 << -exp)


def _encloses(lo, hi, ref):
    """lo <= ref <= hi, up to the 2^-190 relative error of a 200-bit
    reference."""
    eps = abs(_exact(ref)) / 2 ** 190 + Rational(1, 2 ** 1000)
    return lo - eps <= _exact(ref) <= hi + eps


_GRID = [Rational(p, q) for p, q in [(1, 3), (1, 2), (2, 3), (1, 1), (3, 2),
                                     (2, 1), (3, 1), (7, 5), (1023, 1024)]] + \
    [Rational(10 ** k + d) for k in range(1, 301, 13) for d in (-1, 0, 1)]
_POSITIVE = st.integers(1, 10 ** 6).flatmap(
    lambda q: st.builds(Rational, st.integers(-(-q // 3), 10 ** 300),
                        st.just(q)))


def _check_log2(x):
    lo, hi = B.evaluate(B.lit(x)).log2()
    with mpmath.workprec(200):
        ref = mpmath.log(mpmath.mpf(x.numerator) / x.denominator, 2)
        assert _encloses(lo, hi, ref)
    assert hi - lo <= Rational(1, 2 ** 60)


def test_log2_kernel_grid():
    for x in _GRID:
        _check_log2(x)
    assert B.evaluate(B.lit(2 ** 300)).log2() == (300, 300)


@settings(max_examples=200, deadline=None)
@given(_POSITIVE)
def test_log2_kernel_draws(x):
    _check_log2(x)


@settings(max_examples=200, deadline=None)
@given(st.integers(-1000, 64 * 10 ** 6), st.integers(1, 10 ** 6))
def test_exp2_kernel_draws(p, q):
    """2^x for -1000 <= x < 64, as level-index brackets step down a
    level."""
    x = Rational(p, q)
    lo, hi = B._exp2(x)
    with mpmath.workprec(200):
        assert _encloses(lo, hi, mpmath.mpf(2) ** (mpmath.mpf(p) / q))
    assert hi - lo <= hi / 2 ** 60


def test_log2e_bracket():
    with mpmath.workprec(200):
        assert _encloses(B._LOG2E.lo, B._LOG2E.hi, 1 / mpmath.log(2))
