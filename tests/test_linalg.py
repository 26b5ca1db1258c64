from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from dgal import linalg
from dgal.fields import ConstField, field_adjoin
from sympy_oracle import (isprime, nullspace as sympy_nullspace,
                          rref as sympy_rref)


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


def test_inverse():
    A = mk([[2, 1], [5, 3]])
    inv = linalg.inverse(K, A)
    prod = linalg.matmul(K, A, inv)
    assert prod == linalg.identity(K, 2)


small = st.integers(min_value=-9, max_value=9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small, min_size=2, max_size=2), min_size=4, max_size=4))
def test_rref_idempotent(entries):
    A = mk(entries)
    R1, p1 = linalg.rref(K, A)
    R2, p2 = linalg.rref(K, R1)
    assert R1 == R2 and p1 == p2


PRIMES = linalg.PRIMES
# small rationals, with now and then an entry that a prime of the ladder
# divides (above or below the line): those are what can make a GF(p)
# pass differ
entry = st.one_of(
    small,
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.sampled_from([x for p in PRIMES
                     for x in (p, -p, 2 * p, Fraction(p, 3), Fraction(1, p))]))


def same_span(u, v):
    if not (u and v):
        return not (u or v)
    return sympy_rref(K, u)[0] == sympy_rref(K, v)[0]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda cols: st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=1, max_size=4)))
def test_certified_kernel_spans_nullspace(entries):
    A = mk(entries)
    exact = sympy_nullspace(K, A)
    for p in PRIMES:
        fp = linalg.PrimeField(p)
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
            bound = (p // 2) ** 0.5
            assert any(x.denominator % p == 0 for row in A for x in row) \
                or acc.pivots != sympy_rref(K, A)[1] \
                or any(abs(x.numerator) > bound or x.denominator > bound
                       for vec in exact for x in vec)
            continue
        assert same_span([[K.from_fraction(vec.get(j, 0))
                           for j in range(acc.cols)] for vec in lifted], exact)


def test_prime_ladder():
    # the first prime keeps an element to one 30-bit CPython digit, the
    # last is the Mersenne prime 2^61 - 1, whose reconstruction bound
    # sqrt(p/2) reaches past the first's
    assert all(isprime(p) for p in PRIMES)
    assert PRIMES[0] < 1 << 30 and PRIMES[-1] == (1 << 61) - 1
    assert list(PRIMES) == sorted(set(PRIMES))
    assert linalg.PrimeField().p == PRIMES[0]


def test_rational_reconstruction():
    for p in PRIMES:
        bound = isqrt(p // 2)
        for q in (Fraction(0), Fraction(-3, 7), Fraction(bound, bound - 1),
                  Fraction(1 - bound, bound)):
            u = q.numerator * pow(q.denominator, -1, p) % p
            assert linalg.rational_reconstruction(u, p) == q
        # bound + 1 is just above the bound sqrt(p/2), and no fraction
        # within it has the same image
        assert linalg.rational_reconstruction(bound + 1, p) is None
        # the image of 1/2^k, a large int, comes back as the fraction
        # within the bound that has it
        d = 1 << (bound.bit_length() - 1)
        assert pow(d, -1, p) > bound
        assert linalg.rational_reconstruction(pow(d, -1, p), p) \
            == Fraction(1, d)


# the element a + b*c of each field, c = 1/2, 2^40 and sqrt(2); GF(p) is
# each field of the prime ladder in turn
QQ_SQRT2, SQRT2 = field_adjoin(K, [K.from_int(-2), K.zero, K.one])
FIELDS = {
    "QQ": [(K, lambda a, b: K.from_fraction(Fraction(2 * a + b, 2)))],
    "GF(p)": [(linalg.PrimeField(p), lambda a, b, p=p: (a + b * (1 << 40)) % p)
              for p in PRIMES],
    "QQ(sqrt 2)": [(QQ_SQRT2, lambda a, b: QQ_SQRT2.add(
        QQ_SQRT2.from_int(a), QQ_SQRT2.mul(QQ_SQRT2.from_int(b), SQRT2)))],
}


@st.composite
def sparse_rows(draw):
    """Rows of (a, b) pairs, mostly zero, with zero and repeated rows, and
    rows of p - 1 and p - 2 for each prime p of the ladder, whose products
    over GF(p) come near p^2."""
    near = [p - i for p in PRIMES for i in (1, 2)]
    cols = draw(st.integers(min_value=1, max_value=7))
    coeff = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.sampled_from(near))
    row = st.lists(st.tuples(coeff, coeff), min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    near_p = st.sampled_from([(x, 0) for x in near])
    rows += draw(st.lists(st.lists(near_p, min_size=cols, max_size=cols),
                          max_size=2))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    rows += draw(st.lists(st.just([(0, 0)] * cols), max_size=1))
    return cols, draw(st.permutations(rows))


@pytest.mark.parametrize("name", FIELDS)
@settings(max_examples=40, deadline=None)
@given(sparse_rows())
def test_accumulator_matches_rref(name, data):
    cols, pairs = data
    for field, element in FIELDS[name]:
        acc = linalg.RrefAccumulator(field, cols)
        rows, rank = [], 0
        for pair_row in pairs:
            rows.append([element(a, b) for a, b in pair_row])
            grew = acc.add_row(rows[-1])
            pivots = sympy_rref(field, rows)[1]
            assert grew == (len(pivots) > rank)
            assert acc.pivots == pivots
            kernel = [[vec.get(j, field.zero) for j in range(cols)]
                      for vec in acc.kernel_vectors()]
            assert kernel == sympy_nullspace(field, rows)
            rank = len(pivots)
        # linalg.rref is the accumulator's form, zero rows last
        R, pivots = sympy_rref(field, rows)
        assert linalg.rref(field, rows) == (
            R + linalg.zeros(field, len(rows) - rank, cols), pivots)


@pytest.mark.parametrize("name", FIELDS)
@settings(max_examples=40, deadline=None)
@given(sparse_rows(), st.data())
def test_kernel_vectors_of_some_columns(name, data, more):
    # a subset that names pivot columns too reads the free ones among it
    cols, pairs = data
    free = sorted(more.draw(st.sets(st.integers(0, cols - 1))))
    for field, element in FIELDS[name]:
        acc = linalg.RrefAccumulator(field, cols)
        for pair_row in pairs:
            acc.add_row([element(a, b) for a, b in pair_row])
        assert acc.kernel_vectors(free) == [
            vec for vec in acc.kernel_vectors() if max(vec) in free]
        top = acc.kernel_support_max(lambda j: -j % 3)
        assert list(top.items()) == [(max(vec), max(-j % 3 for j in vec))
                                     for vec in acc.kernel_vectors()]


def sparse(row, field):
    """A dense row as ``{column: nonzero value}``."""
    return {j: x for j, x in enumerate(row) if not field.is_zero(x)}


READS = ("row", "reduced_rows", "kernel_vectors", "kernel_support_max",
         "pivots", "rank")


@pytest.mark.parametrize("name", ["QQ", "GF(p)"])
@settings(max_examples=40, deadline=None)
@given(sparse_rows(), st.data())
def test_reads_at_any_point(name, data, more):
    # every read, at any point between rows, is the reduced echelon form
    # of the rows so far: over GF(p) the stored rows wait in echelon form
    # and are back-substituted at the first read after an add
    cols, pairs = data
    reads = [more.draw(st.lists(st.sampled_from(READS), max_size=3))
             for _ in pairs]
    free = sorted(more.draw(st.sets(st.integers(0, cols - 1))))
    for field, element in FIELDS[name]:
        acc = linalg.RrefAccumulator(field, cols)
        rows = []
        for pair_row, after in zip(pairs, reads):
            rows.append([element(a, b) for a, b in pair_row])
            acc.add_row(rows[-1])
            R, pivots = sympy_rref(field, rows)
            kernel = [sparse(vec, field)
                      for vec in sympy_nullspace(field, rows)]
            for read in after:
                if read == "row" and pivots:
                    i = more.draw(st.integers(0, len(pivots) - 1))
                    assert acc.row(pivots[i]) == sparse(R[i], field)
                elif read == "reduced_rows":
                    assert acc.reduced_rows() == [sparse(row, field)
                                                  for row in R]
                elif read == "kernel_vectors":
                    assert acc.kernel_vectors(free) == [
                        vec for vec in kernel if max(vec) in free]
                elif read == "kernel_support_max":
                    assert acc.kernel_support_max(lambda j: -j % 3) == {
                        max(vec): max(-j % 3 for j in vec) for vec in kernel}
                elif read == "pivots":
                    assert acc.pivots == pivots
                elif read == "rank":
                    assert acc.rank == len(pivots)


def test_lift_kernel_of_some_columns():
    # rows x0 + x1/2 - x3 = 0 and x2 + 3 x3 = 0: pivots 0 and 2
    A = mk([[1, Fraction(1, 2), 0, -1], [0, 0, 1, 3]])
    fp = linalg.PrimeField()
    acc = linalg.RrefAccumulator(fp, 4)
    for row in A:
        acc.add_row([fp.from_rational(x) for x in row])
    assert acc.pivots == [0, 2]
    half = Fraction(1, 2)
    assert linalg.lift_kernel(acc) == [{1: 1, 0: -half}, {3: 1, 0: 1, 2: -3}]
    assert linalg.lift_kernel(acc, [0, 2, 3]) == [{3: 1, 0: 1, 2: -3}]
    assert linalg.lift_kernel(acc, [0, 2]) == []
    assert linalg.kernel_vanishes(A, linalg.lift_kernel(acc, [1]))
