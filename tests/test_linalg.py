from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgal import linalg
from dgal.fields import ConstField, field_adjoin


K = ConstField()


def mk(rows):
    return [[K.from_fraction(Fraction(x)) for x in row] for row in rows]


def test_rref_and_rank():
    R, piv = linalg.rref(K, mk([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    assert piv == [0, 1]
    assert len(linalg.rref(K, mk([[1, 2], [3, 4]]))[1]) == 2


def test_nullspace_orthogonal_to_rows():
    A = mk([[1, 2, 3, 4], [0, 1, 1, 0]])
    for v in linalg.nullspace(K, A):
        for prod in linalg.matvec(K, A, v):
            assert K.is_zero(prod)
    assert len(linalg.nullspace(K, A)) == 2


def test_solve_consistent_and_inconsistent():
    A = mk([[1, 1], [1, -1]])
    x = linalg.solve(K, A, [K.from_int(3), K.from_int(1)])
    assert [K.format(c) for c in x] == ["2", "1"]
    B = mk([[1, 1], [2, 2]])
    assert linalg.solve(K, B, [K.from_int(0), K.from_int(1)]) is None


def test_det_and_inverse():
    A = mk([[2, 1], [5, 3]])
    assert K.eq(linalg.det(K, A), K.one)
    inv = linalg.inverse(K, A)
    prod = linalg.matmul(K, A, inv)
    assert prod == linalg.identity(K, 2)


small = st.integers(min_value=-9, max_value=9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_zero_iff_rank_deficient(entries):
    A = mk(entries)
    d = linalg.det(K, A)
    assert K.is_zero(d) == (len(linalg.rref(K, A)[1]) < 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small, min_size=2, max_size=2), min_size=4, max_size=4))
def test_rref_idempotent(entries):
    A = mk(entries)
    R1, p1 = linalg.rref(K, A)
    R2, p2 = linalg.rref(K, R1)
    assert R1 == R2 and p1 == p2


P61 = linalg.P61
# small rationals, with now and then an entry that p divides (above or
# below the line): those are what can make the GF(p) pass differ
entry = st.one_of(
    small,
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.sampled_from([P61, -P61, 2 * P61, Fraction(P61, 3), Fraction(1, P61)]))


def same_span(u, v):
    return linalg.rref(K, u)[0] == linalg.rref(K, v)[0] if u or v else True


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda cols: st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=1, max_size=4)))
def test_certified_kernel_spans_nullspace(entries):
    A = mk(entries)
    exact = linalg.nullspace(K, A)
    fp = linalg.PrimeField()
    acc = linalg.RrefAccumulator(fp, len(A[0]))
    try:
        for row in A:
            acc.add_row([fp.from_rational(x) for x in row])
    except linalg.NotCertified:
        lifted = None
    else:
        lifted = linalg.lift_kernel(acc)
    if lifted is None or not linalg.kernel_vanishes(A, lifted):
        # only p can make the pass fail: a denominator it divides,
        # pivots it moves, or kernel entries too large to reconstruct
        bound = (P61 // 2) ** 0.5
        assert any(x.denominator % P61 == 0 for row in A for x in row) \
            or acc.pivots != linalg.rref(K, A)[1] \
            or any(abs(x.numerator) > bound or x.denominator > bound
                   for vec in exact for x in vec)
        return
    assert same_span([[K.from_fraction(vec.get(j, 0)) for j in range(acc.cols)]
                      for vec in lifted], exact)


def test_rational_reconstruction():
    for q in (Fraction(0), Fraction(-3, 7), Fraction(10**9, 10**9 + 7)):
        u = q.numerator * pow(q.denominator, -1, P61) % P61
        assert linalg.rational_reconstruction(u, P61) == q
    # 2^30 is just above the bound sqrt(p/2), and no fraction within it
    # has the same image
    assert linalg.rational_reconstruction(1 << 30, P61) is None
    # 2^40 comes back as 1/2^21, the fraction within the bound that has
    # its image (2^61 = 1 mod p)
    assert linalg.rational_reconstruction(1 << 40, P61) == Fraction(1, 1 << 21)


# the element a + b*c of each field, c = 1/2, 2^40 and sqrt(2)
QQ_SQRT2, SQRT2 = field_adjoin(K, [K.from_int(-2), K.zero, K.one])
FIELDS = {
    "QQ": (K, lambda a, b: K.from_fraction(Fraction(2 * a + b, 2))),
    "GF(p)": (linalg.PrimeField(), lambda a, b: (a + b * (1 << 40)) % P61),
    "QQ(sqrt 2)": (QQ_SQRT2, lambda a, b: QQ_SQRT2.add(
        QQ_SQRT2.from_int(a), QQ_SQRT2.mul(QQ_SQRT2.from_int(b), SQRT2))),
}


@st.composite
def sparse_rows(draw):
    """Rows of (a, b) pairs, mostly zero, with zero and repeated rows, and
    rows of p - 1 and p - 2, whose products over GF(p) come near p^2."""
    cols = draw(st.integers(min_value=1, max_value=7))
    coeff = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.sampled_from([P61 - 1, P61 - 2]))
    row = st.lists(st.tuples(coeff, coeff), min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    near_p = st.sampled_from([(P61 - 1, 0), (P61 - 2, 0)])
    rows += draw(st.lists(st.lists(near_p, min_size=cols, max_size=cols),
                          max_size=2))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    rows += draw(st.lists(st.just([(0, 0)] * cols), max_size=1))
    return cols, draw(st.permutations(rows))


@pytest.mark.parametrize("name", FIELDS)
@settings(max_examples=40, deadline=None)
@given(sparse_rows())
def test_accumulator_matches_rref(name, data):
    field, element = FIELDS[name]
    cols, pairs = data
    acc = linalg.RrefAccumulator(field, cols)
    rows, rank = [], 0
    for pair_row in pairs:
        rows.append([element(a, b) for a, b in pair_row])
        grew = acc.add_row(rows[-1])
        pivots = linalg.rref(field, rows)[1]
        assert grew == (len(pivots) > rank)
        assert acc.pivots == pivots
        kernel = [[vec.get(j, field.zero) for j in range(cols)]
                  for vec in acc.kernel_vectors()]
        assert kernel == linalg.nullspace(field, rows)
        rank = len(pivots)
