import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dgal import linalg
from dgal.errors import DgalError, SingularPointError
from dgal.fields import ConstField, field_adjoin
from dgal.groups import group_ring
from dgal.multipoly import monomials_upto
from dgal.ratfunc import RatFuncField
from dgal.series import Series, TruncSeries, ratfunc_series
from dgal.systems import MonomialSeries, OdeSystem

K = ConstField()
R = RatFuncField(K)
K2, _ = field_adjoin(K, [K.from_int(-2), K.zero, K.one])  # g^2 = 2


def frac(p, q=1):
    return K.from_fraction(Fraction(p, q))


def sys_of(*rows):
    return OdeSystem(R, [[R.parse(e) for e in row] for row in rows])


def check_fundamental(sys, a, order):
    """delta Gamma = A Gamma through order-1, coefficient-wise."""
    G = sys.fundamental_series(a, order)
    k = sys.R.const
    A = TruncSeries.from_entries(k, a, [[ratfunc_series(sys.R, f, a, order - 1)
                                         for f in row] for row in sys.A])
    assert G.diff().sub(A.matmul(G)).is_zero()
    return G


def test_expand_at_zero_system():
    s = sys_of(["0", "0"], ["0", "0"])
    G = s.fundamental_series(K.from_int(2), 4)
    assert G.mats == [linalg.identity(K, 2)] + [linalg.zeros(K, 2, 2)] * 4


def test_expand_at_half_over_t():
    s = sys_of(["1/(2*t)"])
    G = check_fundamental(s, K.from_int(1), 6)
    # sqrt(t) at t = 1
    assert [m[0][0] for m in G.mats[:4]] == [frac(1), frac(1, 2), frac(-1, 8),
                                             frac(1, 16)]


def test_expand_at_singular():
    # the first entry in row-major order with a pole at the point is named
    s = sys_of(["1", "1/t"], ["1/(2*t)", "0"])
    with pytest.raises(SingularPointError, match=r"^pole of \(1\)/\(t\) at t = 0$"):
        s.fundamental_series(K.zero, 2)
    with pytest.raises(SingularPointError, match=r"^pole of \(1/2\)/\(t\) at t = 0$"):
        MonomialSeries(sys_of(["1/(2*t)"]), K.zero, 2)


def test_fundamental_exponential():
    s = sys_of(["1"])
    G = s.fundamental_series(K.zero, 3)
    assert [m[0][0] for m in G.mats] == [frac(1), frac(1), frac(1, 2), frac(1, 6)]


def test_fundamental_sqrt():
    s = sys_of(["1/(2*t)"])
    G = s.fundamental_series(K.from_int(1), 2)
    assert [m[0][0] for m in G.mats] == [frac(1), frac(1, 2), frac(-1, 8)]


def test_fundamental_identity_system():
    s = sys_of(["0"])
    G = s.fundamental_series(K.from_int(3), 5)
    assert G.mats[0] == [[K.one]]
    assert all(m == [[K.zero]] for m in G.mats[1:])


def test_monomials_upto_ordering():
    monos = monomials_upto(1, 2)
    assert monos == [(0,), (1,), (2,)]
    monos2 = monomials_upto(2, 1)
    assert monos2[0] == (0, 0)
    assert set(monos2[1:]) == {(1, 0), (0, 1)}


def test_monomial_table_n1():
    # y' = t y at a = 0: q = 1 and P = u, so row y^e holds e*u at y^e
    s = sys_of(["t"])
    assert MonomialSeries(s, K.zero, 0).table == [[]]
    assert MonomialSeries(s, K.zero, 1).table == [[], [(1, 1, frac(1))]]
    store = MonomialSeries(s, K.zero, 2)
    assert store.q == [K.one]
    assert store.table == [[], [(1, 1, frac(1))], [(1, 2, frac(2))]]


def table_residual_is_zero(store, vecs, order):
    """q M' = P M through u^order, coefficient-wise, for the coefficient
    vectors vecs (vecs[m][r]: monomial r at u^m)."""
    k = store.field
    q = store.q
    for m in range(order + 1):
        for r, terms in enumerate(store.table):
            lhs = k.zero
            for s, c in enumerate(q):
                if s <= m:
                    lhs = k.add(lhs, k.mul(k.mul(c, k.from_int(m + 1 - s)),
                                           vecs[m + 1 - s][r]))
            rhs = k.zero
            for s, col, c in terms:
                if s <= m:
                    rhs = k.add(rhs, k.mul(c, vecs[m - s][col]))
            if not k.is_zero(k.sub(lhs, rhs)):
                return False
    return True


def test_monomial_series_solve_the_table():
    random.seed(7)
    s = sys_of(["0", "1"], ["-1", "0"])
    a = K.zero
    order = 8
    store = MonomialSeries(s, a, 2)
    assert table_residual_is_zero(store, store.extend(order), order - 1)
    # the monomials of any other solution G c satisfy the same table
    G = s.fundamental_series(a, order)
    c = [[frac(random.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    sol = TruncSeries(K, a, [linalg.matmul(K, m, c) for m in G.mats])
    mono_series = []
    for m in store.monos:
        acc = Series.constant(K, K.one, order)
        for p, e in enumerate(m):
            for _ in range(e):
                acc = acc * sol.entry(p // 2, p % 2)
        mono_series.append(acc)
    vecs = [[ms.coeffs[i] for ms in mono_series] for i in range(order + 1)]
    assert table_residual_is_zero(store, vecs, order - 1)


def test_wronskian_identity_in_series():
    s = sys_of(["0", "1"], ["t", "0"])  # Airy
    a = K.from_int(1)
    order = 10
    G = check_fundamental(s, a, order)
    det = G.det_series()
    tr = ratfunc_series(R, R.add(s.A[0][0], s.A[1][1]), a, order - 1)
    assert (det.diff() - tr * det.truncate(order - 1)).is_zero()


def test_document_roundtrip():
    s = sys_of(["1/(2*t)", "0"], ["t^2 + 1", "-1"])
    doc = s.to_document()
    s2 = OdeSystem.from_document(doc)
    assert s2.n == 2
    for i in range(2):
        for j in range(2):
            assert s2.R.eq(s2.A[i][j], s2.R.coerce_from(s.R, s.A[i][j]))
    assert s2.to_document() == doc


def test_document_with_number_field():
    ki, _ = __import__("dgal.fields", fromlist=["field_adjoin"]).field_adjoin(
        ConstField(), [K.one, K.zero, K.one])
    Ri = RatFuncField(ki)
    s = OdeSystem(Ri, [[Ri.parse("g/t")]])
    doc = s.to_document()
    assert "field:" in doc
    s2 = OdeSystem.from_document(doc)
    assert s2.R.const.degree() == 2
    assert s2.to_document() == doc


def test_random_fundamental_series_check():
    random.seed(3)
    for _ in range(3):
        n = random.choice([1, 2])
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                num = [random.randint(-2, 2) for _ in range(2)]
                row.append("%d + %d*t" % tuple(num))
            rows.append(row)
        s = sys_of(*rows)
        check_fundamental(s, K.from_int(random.randint(2, 5)), 8)


@st.composite
def systems_at_points(draw):
    """A random n x n system (n <= 2) with entries p/q, p and q of degree
    <= 1 with small coefficients over QQ or QQ(g), and a regular point."""
    k = draw(st.sampled_from([K, K2]))
    Rk = RatFuncField(k)
    g = k.generator()

    def coeff():
        c = k.from_int(draw(st.integers(-2, 2)))
        if g is not None:
            c = k.add(c, k.mul(k.from_int(draw(st.integers(-1, 1))), g))
        return c

    n = draw(st.integers(1, 2))
    A = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num, den = [coeff(), coeff()], [coeff(), coeff()]
            assume(not all(k.is_zero(c) for c in den))
            row.append(Rk.from_coeffs(num, den))
        A.append(row)
    a = k.from_int(draw(st.integers(-3, 3)))
    assume(all(Rk.is_regular_at(f, a) for row in A for f in row))
    return OdeSystem(Rk, A), a


@settings(max_examples=25, deadline=None)
@given(systems_at_points(), st.integers(0, 3), st.integers(0, 6),
       st.integers(0, 6))
def test_store_is_products_of_fundamental_entries(case, d, n1, extra):
    s, a = case
    k = s.R.const
    n = s.n
    N1, N2 = n1, n1 + extra
    store = MonomialSeries(s, a, d)
    store.extend(N1)
    vecs = store.extend(N2)
    assert vecs == MonomialSeries(s, a, d).extend(N2)
    G = check_fundamental(s, a, N2 + 1)
    for r, m in enumerate(store.monos):
        acc = Series.constant(k, k.one, N2)
        for p, e in enumerate(m):
            for _ in range(e):
                acc = acc * G.entry(p // n, p % n).truncate(N2)
        assert acc.coeffs == [v[r] for v in vecs]


KI, I = field_adjoin(K, [K.one, K.zero, K.one])  # i^2 = -1
DENOMINATORS = ["1", "t - 3", "t^2 + 1"]  # none vanishes at 0, 1 or -2


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(0, 2),
       st.sampled_from([0, 1, -2]), st.integers(0, 6), st.booleans())
def test_store_over_gf_p_maps_the_exact_store(data, n, d, a, order,
                                              unlucky):
    # A over QQ, regular at a, mapped to GF(p) for each prime p of the
    # ladder; an unlucky system has a coefficient with p in its
    # denominator, which no table over GF(p) can hold
    fp = linalg.PrimeField(data.draw(st.sampled_from(linalg.PRIMES)))
    coeff = st.builds(Fraction, st.integers(-3, 3),
                      st.sampled_from([1, 2, 7]))
    A = [[R.div(R.from_coeffs([K.from_fraction(data.draw(coeff))
                               for _ in range(2)]),
                R.parse(data.draw(st.sampled_from(DENOMINATORS))))
          for _ in range(n)] for _ in range(n)]
    if unlucky:
        A[0][0] = R.add(A[0][0], R.from_const(frac(1, fp.p)))
    s, a = OdeSystem(R, A), K.from_int(a)
    exact = MonomialSeries(s, a, d)
    if unlucky and d:
        with pytest.raises(linalg.NotCertified,
                           match="a denominator is 0 mod p"):
            MonomialSeries(s, a, d, fp)
        return
    store = MonomialSeries(s, a, d, fp)
    assert store.field is fp
    assert store.extend(order) == [[fp.from_rational(x) for x in v]
                                   for v in exact.extend(order)]


@st.composite
def polys_on_entries(draw, n):
    """A polynomial of degree <= 3 in the n^2 entries: its coefficients
    all lie in QQ(t) (regular at 0, 1 and -2) or all in QQ(i)."""
    rational = draw(st.booleans())
    ring = group_ring(n, R if rational else KI)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exp = [0] * (n * n)
        for _ in range(draw(st.integers(0, 3))):
            exp[draw(st.integers(0, n * n - 1))] += 1
        if rational:
            num = [K.from_int(draw(st.integers(-3, 3))) for _ in range(3)]
            den = R.parse(draw(st.sampled_from(DENOMINATORS)))
            c = R.div(R.from_coeffs(num), den)
        else:
            c = KI.add(KI.from_int(draw(st.integers(-3, 3))),
                       KI.mul(KI.from_int(draw(st.integers(-3, 3))), I))
        terms[tuple(exp)] = c
    return ring.from_dict(terms)


def series_by_products(P, G, order):
    """P on the fundamental series G through u^order with Series
    products: each coefficient (expanded by ratfunc_series when it is in
    QQ(t)) times the product of its monomial's entry series."""
    n = G.n
    rational = P.ring.field == R
    big = K if rational else KI
    entries = [Series(big, [big.coerce_from(K, c) for c in
                            G.entry(p // n, p % n).coeffs[:order + 1]])
               for p in range(n * n)]
    total = Series.constant(big, big.zero, order)
    for exp, c in P.terms.items():
        term = ratfunc_series(R, c, G.a, order) if rational \
            else Series.constant(big, c, order)
        for p, e in enumerate(exp):
            for _ in range(e):
                term = term * entries[p]
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 2), st.sampled_from([0, 1, -2]),
       st.integers(0, 6))
def test_series_of_matches_series_products(data, n, a, order):
    a = K.from_int(a)
    s = OdeSystem(R, [[R.parse(data.draw(st.sampled_from(
        ["0", "1", "t", "2 - t", "1/(t - 3)", "t/(t^2 + 1)"])))
        for _ in range(n)] for _ in range(n)])
    P = data.draw(polys_on_entries(n))
    store = MonomialSeries(s, a, 3)
    assert store.series_of(P, order) == \
        series_by_products(P, s.fundamental_series(a, order), order)


def test_series_of_refuses_a_degree_beyond_the_store():
    ring = group_ring(1, K)
    store = MonomialSeries(sys_of(["1"]), K.zero, 1)
    with pytest.raises(DgalError):
        store.series_of(ring.parse("x_1_1^2"), 3)
