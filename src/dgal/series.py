"""Truncated power series: scalars, matrices, expansions of rational
functions, and Hermite-Pade reconstruction (rational functions are its
one-series case).  Polynomials in the entries of a fundamental matrix
become series in ``systems.MonomialSeries``, not here.

A Series is a list of coefficients in (t - a)^k for k = 0..order; the
base point lives in the surrounding context, not in the scalar.  All
arithmetic truncates to the shorter operand.
"""

from .errors import DgalError, SingularPointError
from .ratfunc import _series_div
from . import linalg, upoly


class Series:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = list(coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, field, c, order):
        return cls(field, [c] + [field.zero] * order)

    def truncate(self, order):
        if order >= self.order:
            return self
        return Series(self.field, self.coeffs[:order + 1])

    def __add__(self, other):
        n = min(self.order, other.order)
        f = self.field
        return Series(f, [f.add(a, b) for a, b in zip(self.coeffs[:n + 1],
                                                      other.coeffs[:n + 1])])

    def __sub__(self, other):
        n = min(self.order, other.order)
        f = self.field
        return Series(f, [f.sub(a, b) for a, b in zip(self.coeffs[:n + 1],
                                                      other.coeffs[:n + 1])])

    def __neg__(self):
        f = self.field
        return Series(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        n = min(self.order, other.order)
        f = self.field
        out = [f.zero] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if f.is_zero(a):
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not f.is_zero(b):
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Series(f, out)

    def diff(self):
        """d/dt, order drops by one."""
        f = self.field
        if self.order == 0:
            return Series(f, [f.zero])
        return Series(f, [f.mul(f.from_int(k), self.coeffs[k])
                          for k in range(1, self.order + 1)])

    def inverse(self):
        f = self.field
        if f.is_zero(self.coeffs[0]):
            raise DgalError("series has no inverse: zero constant term")
        return Series(f, _series_div(
            f, [f.one], self.coeffs, self.order + 1))

    def is_zero(self):
        return all(self.field.is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Series) and self.field == other.field
                and (self - other).is_zero() and self.order == other.order)

    def __repr__(self):
        return "Series(%s)" % ", ".join(self.field.format(c) for c in self.coeffs)


def ratfunc_series(R, f, a, order):
    """Expand a rational function at t = a to the given order.

    R is the RatFuncField; raises SingularPointError at poles."""
    k = R.const
    num = upoly.shift(k, R.numer_coeffs(f), a)
    den = upoly.shift(k, R.denom_coeffs(f), a)
    if k.is_zero(den[0]):
        raise SingularPointError("pole of %s at t = %s" % (R.format(f), k.format(a)))
    return Series(k, _series_div(k, num, den, order + 1))


class TruncSeries:
    """Matrix power series at a base point: D_0 + D_1 u + ... + D_N u^N."""

    __slots__ = ("field", "a", "n", "mats")

    def __init__(self, field, a, mats):
        self.field = field
        self.a = a
        self.mats = mats
        self.n = len(mats[0])

    @property
    def order(self):
        return len(self.mats) - 1

    @classmethod
    def from_entries(cls, field, a, entries):
        """entries: n x n array of Series, all the same order."""
        order = entries[0][0].order
        n = len(entries)
        mats = [[[entries[i][j].coeffs[k] for j in range(n)] for i in range(n)]
                for k in range(order + 1)]
        return cls(field, a, mats)

    def entry(self, i, j):
        return Series(self.field, [m[i][j] for m in self.mats])

    def truncate(self, order):
        if order >= self.order:
            return self
        return TruncSeries(self.field, self.a, self.mats[:order + 1])

    def matmul(self, other):
        f = self.field
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc = linalg.zeros(f, self.n, len(other.mats[0][0]))
            for i in range(k + 1):
                acc = linalg.mat_add(f, acc, linalg.matmul(f, self.mats[i], other.mats[k - i]))
            out.append(acc)
        return TruncSeries(f, self.a, out)

    def sub(self, other):
        f = self.field
        n = min(self.order, other.order)
        return TruncSeries(f, self.a, [linalg.mat_sub(f, x, y) for x, y
                                       in zip(self.mats[:n + 1], other.mats[:n + 1])])

    def diff(self):
        f = self.field
        out = [linalg.mat_scale(f, self.mats[k], f.from_int(k))
               for k in range(1, self.order + 1)]
        if not out:
            out = [linalg.zeros(f, self.n, self.n)]
        return TruncSeries(f, self.a, out)

    def is_zero(self):
        f = self.field
        return all(all(all(f.is_zero(x) for x in row) for row in m) for m in self.mats)

    def det_series(self):
        """det as a scalar Series (via the entry-series matrix)."""
        entries = [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]
        return _det_series(entries)


def _det_series(entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    field = entries[0][0].field
    order = entries[0][0].order
    total = Series.constant(field, field.zero, order)
    sign = 1
    for j in range(n):
        minor = [[entries[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = entries[0][j] * _det_series(minor)
        total = total + (term if sign > 0 else -term)
        sign = -sign
    return total


def rational_reconstruction(field, coeffs, num_deg, den_deg, basis=None):
    """Hermite-Pade: find q and p_k with q f = sum_k p_k b_k through the
    given series coefficients of f (in the local parameter), deg p_k <=
    num_deg, deg q <= den_deg and q(0) = 1.  basis lists the coefficients
    of the series b_k, at least as many as of f; the default, the one
    series 1, makes p_0/q a Pade approximant of f.  Every coefficient is a
    row.  Returns (nums, den) ascending, one numerator per b_k, or
    None."""
    N = len(coeffs)
    if basis is None:
        basis = [[field.one] + [field.zero] * (N - 1)]
    width = len(basis) * (num_deg + 1)
    if N < width + den_deg + 1:
        raise DgalError("not enough series terms for reconstruction "
                        "(%d < %d)" % (N, width + den_deg + 1))
    # unknowns: p_k,0..p_k,num_deg for each b_k, then q_1..q_den_deg
    # (q_0 = 1)
    rows = []
    for k in range(N):
        row = [field.zero] * (width + den_deg)
        for b, series in enumerate(basis):
            for i in range(min(k, num_deg) + 1):
                row[b * (num_deg + 1) + i] = series[k - i]
        for j in range(1, min(k, den_deg) + 1):
            row[width + j - 1] = field.neg(coeffs[k - j])
        rows.append(row)
    sol = linalg.solve(field, rows, coeffs)
    if sol is None:
        return None
    nums = [sol[b:b + num_deg + 1] for b in range(0, width, num_deg + 1)]
    return nums, [field.one] + sol[width:]


def reconstruct_ratfunc(R, series, a, num_deg, den_deg):
    """Reconstruct a rational function in t from its expansion at a; the
    series is in u = t - a.  Returns a RatFunc or None."""
    k = R.const
    got = rational_reconstruction(k, series.coeffs, num_deg, den_deg)
    if got is None:
        return None
    (num,), den = got
    num_t = upoly.shift(k, num, k.neg(a))
    den_t = upoly.shift(k, den, k.neg(a))
    return R.from_coeffs(num_t, den_t)
