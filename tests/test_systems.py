import random
from fractions import Fraction

import pytest

from dgal import linalg
from dgal.errors import SingularPointError
from dgal.fields import ConstField
from dgal.ratfunc import RatFuncField
from dgal.series import TruncSeries, ratfunc_series
from dgal.systems import OdeSystem, monomials_upto

K = ConstField()
R = RatFuncField(K)


def frac(p, q=1):
    return K.from_fraction(Fraction(p, q))


def sys_of(*rows):
    return OdeSystem(R, [[R.parse(e) for e in row] for row in rows])


def check_fundamental(sys, a, order):
    """delta Gamma = A Gamma through order-1, coefficient-wise."""
    G = sys.fundamental_series(a, order)
    dG = G.diff()
    As = sys.expand_at(a, order)
    k = sys.R.const
    for m in range(order):
        acc = linalg.zeros(k, sys.n, sys.n)
        for j in range(m + 1):
            acc = linalg.mat_add(k, acc, linalg.matmul(k, As[j], G.mats[m - j]))
        assert dG.mats[m] == acc, "mismatch at order %d" % m
    return G


def test_expand_at_zero_system():
    s = sys_of(["0"])
    mats = s.expand_at(K.from_int(2), 4)
    assert all(m == [[K.zero]] for m in mats)


def test_expand_at_half_over_t():
    s = sys_of(["1/(2*t)"])
    mats = s.expand_at(K.from_int(1), 2)
    assert [m[0][0] for m in mats] == [frac(1, 2), frac(-1, 2), frac(1, 2)]


def test_expand_at_singular():
    s = sys_of(["1/t"])
    with pytest.raises(SingularPointError):
        s.expand_at(K.zero, 2)


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


def test_sym_power_n1():
    s = sys_of(["t"])
    p1, monos = s.sym_power(1)
    assert [[R.format(e) for e in row] for row in p1.A] == [["0", "0"], ["0", "t"]]
    p2, _ = s.sym_power(2)
    assert [R.format(p2.A[i][i]) for i in range(3)] == ["0", "t", "2*t"]
    p0, _ = s.sym_power(0)
    assert p0.n == 1 and R.is_zero(p0.A[0][0])


def test_sym_power_series_solves():
    random.seed(7)
    s = sys_of(["0", "1"], ["-1", "0"])
    d = 2
    sym, monos = s.sym_power(d)
    order = 8
    a = K.zero
    G = s.fundamental_series(a, order)
    # monomial vector of a random constant linear combination of solutions
    c = [[frac(random.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    # columns are solutions of the direct sum
    sol = TruncSeries(K, G.a, [linalg.matmul(K, m, c) for m in G.mats])
    vec_entries = [sol.entry(i, j) for j in range(2) for i in range(2)]
    # build series of each monomial  (direct-sum vector v indexed row-major (i,j))
    v = [sol.entry(p // 2, p % 2) for p in range(4)]
    from dgal.series import Series
    monos_series = []
    for m in monos:
        acc = Series.constant(K, K.one, order)
        for p, e in enumerate(m):
            for _ in range(e):
                acc = acc * v[p]
        monos_series.append(acc)
    # check derivative identity row by row
    for row, m in enumerate(monos):
        lhs = monos_series[row].diff()
        rhs = Series.constant(K, K.zero, order - 1)
        for col in range(len(monos)):
            f = sym.A[row][col]
            if R.is_zero(f):
                continue
            rhs = rhs + ratfunc_series(R, f, a, order - 1) * monos_series[col].truncate(order - 1)
        assert (lhs - rhs).is_zero()


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
