"""First order linear differential systems over k = C(t): the series of
the fundamental matrix and of the monomials in its entries, all from one
sparse linear recurrence over k or GF(p), and the system document.

``MonomialSeries`` is the one place where a polynomial in the entries of
the fundamental matrix becomes a series (``MonomialSeries.series_of``):
the relation solve, the second-point check and the character values
all read it.

Monomials are indexed graded lex over the n^2 variables in row-major
order with the constant monomial first; relation search and the
stabilizer construction rely on this exact ordering.
"""

import operator
from contextlib import contextmanager
from functools import cached_property

from . import upoly
from .errors import DgalError, InputError, SingularPointError
from .fields import ConstField, join
from .multipoly import linear_derivation, monomials_upto, on_diagonal
from .ratfunc import RatFuncField
from .series import Series, TruncSeries, ratfunc_series


class OdeSystem:
    """delta Y = A Y with A an n x n matrix of rational functions."""

    def __init__(self, R, A):
        self.R = R
        self.n = len(A)
        self.A = A

    @cached_property
    def entry_derivatives(self):
        """x_ij' = sum_l A_il x_lj, as the images of
        ``multipoly.linear_derivation``: the pairs (l*n + j, A_il) of
        nonzero A_il for each entry (i, j), row-major."""
        R, n, A = self.R, self.n, self.A
        return [[(l * n + j, A[i][l]) for l in range(n)
                 if not R.is_zero(A[i][l])] for i in range(n) for j in range(n)]

    def fundamental_series(self, a, order):
        """Gamma_a = I + D_1 u + ... with delta Gamma = A Gamma through
        u^(order-1): the degree-1 rows of MonomialSeries(self, a, 1)."""
        n = self.n
        vecs = MonomialSeries(self, a, 1).extend(order)
        return TruncSeries(self.R.const, a,
                           [[v[1 + i * n:1 + (i + 1) * n] for i in range(n)]
                            for v in vecs])

    # -- serialization --------------------------------------------------

    def to_document(self):
        lines = ["n: %d" % self.n]
        mp = self.R.const.minpoly_coeffs()
        if mp is not None:
            R0 = RatFuncField(ConstField(), "g")
            lines.append("field: %s" % R0.format(R0.from_coeffs(mp)))
        for i in range(self.n):
            for j in range(self.n):
                lines.append("A[%d][%d]: %s" % (i + 1, j + 1, self.R.format(self.A[i][j])))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_document(cls, text):
        """Read a system document; every error in it is an InputError."""
        n = None
        minpoly = None
        entries = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            try:
                if key == "n":
                    n = int(value)
                    if n < 1:
                        raise ValueError
                elif key == "field":
                    minpoly = (value, line)
                elif key.startswith("A["):
                    ij = key[1:].replace("[", " ").replace("]", " ").split()
                    entries[(int(ij[0]), int(ij[1]))] = (value, line)
                else:
                    raise InputError("malformed line %r in system document: "
                                     "unknown key %r" % (line, key))
            except (ValueError, IndexError):
                raise InputError("malformed line %r in system document"
                                 % line) from None
        if n is None:
            raise InputError("system document lacks the dimension line 'n:'")
        for (i, j), (_value, line) in entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError("malformed line %r in system document: "
                                 "outside the %d x %d matrix" % (line, n, n))
        const = ConstField()
        if minpoly is not None:
            value, line = minpoly
            R0 = RatFuncField(const, "g")
            with _document_line(line):
                poly = R0.parse(value)
                if not R0.is_polynomial(poly):
                    raise InputError("field minpoly must be a polynomial in g")
                from .fields import field_adjoin
                const, _ = field_adjoin(const, R0.numer_coeffs(poly))
        R = RatFuncField(const)
        if len(entries) != n * n:
            i, j = next((i, j) for i in range(1, n + 1)
                        for j in range(1, n + 1) if (i, j) not in entries)
            raise InputError("missing entry A[%d][%d]" % (i, j))
        A = [[R.zero for _ in range(n)] for _ in range(n)]
        for (i, j), (value, line) in entries.items():
            with _document_line(line):
                A[i - 1][j - 1] = R.parse(value)
        return cls(R, A)


class MonomialSeries:
    """Series at t = a of every monomial of degree <= d in the entries of
    the fundamental matrix Y with Y(a) = I, extended in place.

    The monomial vector satisfies M' = B_d M.  With q the lcm of A's
    denominators and P = qA, q M' = (q B_d) M read in u = t - a is a
    recurrence of length deg q + 1 on the coefficient vectors.  Row m
    of q B_d holds, for p = (i, j) and each l, the factor e_p * P[i][l]
    at column m - e_p + e_(l, j); ``table[m]`` lists its nonzero
    (u-power, column, coefficient) terms, scaled so that q(a) = 1.
    A pole of A at a is a SingularPointError naming the first such
    entry in row-major order.  With a linalg.PrimeField ``field`` (k =
    QQ), over a prime of the ladder linalg.PRIMES, the table, q and the
    first vector are built over GF(p) from the images of q and of P's
    coefficients (or NotCertified is raised), and the recurrence then
    gives the images of the vectors (``extend``)."""

    def __init__(self, sys, a, d, field=None):
        R, k, n = sys.R, sys.R.const, sys.n
        entries = [f for row in sys.A for f in row]
        for f in entries:
            if not R.is_regular_at(f, a):
                raise SingularPointError("pole of %s at t = %s"
                                         % (R.format(f), k.format(a)))
        fld, image = k, (lambda c: c)
        if field is not None:
            fld, image = field, field.from_rational
        self.field = fld
        self.a = a
        self.d = d
        self.monos = monomials_upto(n * n, d)
        q = R.denom_lcm(entries)
        q = R.scale(q, k.inv(R.eval_at(q, a)))
        self.q = [image(c) for c in _u_coeffs(R, q, a)]
        P = [[_u_coeffs(R, R.mul(f, q), a) for f in row] for row in sys.A]
        # q x_ij' = sum_l P_il x_lj, each P_il by its u-coefficients
        images = [[(l * n + j, P[i][l]) for l in range(n)]
                  for i in range(n) for j in range(n)]
        self.index = index = {m: r for r, m in enumerate(self.monos)}
        self.table = []
        for m in self.monos:
            merged = {}
            for tgt, e, cs in linear_derivation(m, images):
                col = index[tgt]
                for s, c in enumerate(cs):
                    key = (s, col)
                    merged[key] = fld.add(merged.get(key, fld.zero),
                                          fld.mul(fld.from_int(e), image(c)))
            self.table.append([(s, col, c) for (s, col), c
                               in sorted(merged.items())
                               if not fld.is_zero(c)])
        self.vecs = [[fld.one if on_diagonal(m) else fld.zero
                      for m in self.monos]]
        # per row: the table's coefficients, and a gather of the entries
        # they multiply from past, the concatenation v_m, v_{m-1}, ... of
        # the earlier vectors (entry col of v_{m-s} at s * width + col)
        width = len(self.monos)
        self._steps = [([c for _s, _col, c in terms],
                        _gather([s * width + col for s, col, _c in terms]))
                       for terms in self.table]
        self._depth = 1 + max([s for terms in self.table
                               for s, _col, _c in terms] + [len(self.q) - 2])

    def extend(self, order):
        """The coefficient vectors through u^order (vecs[m] at u^m), from
        (m+1) v_{m+1} = sum_s P_s v_{m-s} - sum_{s>=1} q_s (m+1-s) v_{m+1-s}.
        Each vector is one ``field.recurrence_step``: a row's terms come
        from the earlier vectors, concatenated, through the row's gather,
        and the q terms from the same row of each; over GF(p) the sums run
        on plain ints and each entry is reduced once."""
        k = self.field
        vecs, q, width = self.vecs, self.q, len(self.monos)
        blank = [k.zero] * width
        while len(vecs) <= order:
            m = len(vecs) - 1
            past = [x for s in range(self._depth)
                    for x in (vecs[m - s] if s <= m else blank)]
            lag = [(k.neg(k.mul(q[s], k.from_int(m + 1 - s))), (s - 1) * width)
                   for s in range(1, len(q))]
            vecs.append(k.recurrence_step(self._steps, past, lag,
                                          k.inv(k.from_int(m + 1))))
        return vecs

    def series_of(self, P, order):
        """The Series of P(Y) through u^order: the sum over P's terms of
        the coefficient times the stored series of the term's monomial.
        A coefficient in k(t) is expanded at a and convolved with it; a
        constant of an extension K of k scales it, and the Series is then
        over join(k, K).  P's variables are the entries of Y in row-major
        order, and deg P must not exceed the store's degree."""
        k = self.field
        cf = P.ring.field
        rational = isinstance(cf, RatFuncField)
        big = k if rational else join(k, cf)
        vecs = self.extend(order)
        out = [big.zero] * (order + 1)
        for e, c in P.terms.items():
            r = self.index.get(e)
            if r is None:
                raise DgalError("a monomial of degree %d is beyond the "
                                "series store's degree %d" % (sum(e), self.d))
            if rational:
                cs = ratfunc_series(cf, c, self.a, order).coeffs
            else:
                cs = [c if cf == big else big.coerce_from(cf, c)]
            cs = [(j, y) for j, y in enumerate(cs) if not big.is_zero(y)]
            for i in range(order + 1):
                x = vecs[i][r]
                if k.is_zero(x):
                    continue
                if big is not k:
                    x = big.coerce_from(k, x)
                for j, y in cs:
                    if i + j > order:
                        break
                    out[i + j] = big.add(out[i + j], big.mul(x, y))
        return Series(big, out)


def _gather(indices):
    """The entries of a sequence at ``indices``, as a sequence: an
    operator.itemgetter of the indices, or, as that returns a lone entry
    bare, of a slice when there are fewer than two."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    start = indices[0] if indices else 0
    return operator.itemgetter(slice(start, start + len(indices)))


def _u_coeffs(R, f, a):
    """Coefficients in u = t - a of a rational function that is a
    polynomial."""
    k = R.const
    inv = k.inv(R.denom_coeffs(f)[0])
    return upoly.shift(k, [k.mul(c, inv) for c in R.numer_coeffs(f)], a)


@contextmanager
def _document_line(line):
    """An error met while reading one line of a system document becomes
    an InputError that quotes the line."""
    try:
        yield
    except (DgalError, ZeroDivisionError) as err:
        raise InputError("malformed line %r in system document: %s"
                         % (line, err)) from None
