"""Truncated power series: scalars, matrices, expansions of rational
functions, algebraic function expansions, and Hermite-Pade
reconstruction (rational functions are its one-series case).

A Series is a list of coefficients in (t - a)^k for k = 0..order; the
base point lives in the surrounding context, not in the scalar.  All
arithmetic truncates to the shorter operand.
"""

from .errors import DgalError, SingularPointError
from .fields import find_one_root
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

    def __pow__(self, e):
        """self^e for an integer e >= 0, by repeated multiplication."""
        out = self if e else Series.constant(self.field, self.field.one,
                                             self.order)
        for _ in range(e - 1):
            out = out * self
        return out

    def scale(self, c):
        f = self.field
        return Series(f, [f.mul(x, c) for x in self.coeffs])

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


class SeriesAlgebra:
    """Adapter presenting truncated Series as a coefficient ring, so
    polynomial rings can carry series coefficients (no division)."""

    def __init__(self, field, order):
        self.field = field
        self.order = order

    @property
    def zero(self):
        return Series.constant(self.field, self.field.zero, self.order)

    @property
    def one(self):
        return Series.constant(self.field, self.field.one, self.order)

    def from_int(self, n):
        return Series.constant(self.field, self.field.from_int(n), self.order)

    def from_const(self, c):
        return Series.constant(self.field, c, self.order)

    def lift(self, s):
        return Series(self.field, list(s.coeffs[:self.order + 1])
                      + [self.field.zero] * max(0, self.order - s.order))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def div(self, a, b):
        return a * b.inverse()

    def is_zero(self, a):
        return a.is_zero()

    def is_one(self, a):
        return (a - self.one).is_zero()

    def eq(self, a, b):
        return (a - b).is_zero()

    def format(self, a):
        return repr(a)

    def __eq__(self, other):
        return (isinstance(other, SeriesAlgebra) and self.field == other.field
                and self.order == other.order)


def ratfunc_series(R, f, a, order):
    """Expand a rational function at t = a to the given order.

    R is the RatFuncField; raises SingularPointError at poles."""
    k = R.const
    num = upoly.shift(k, R.numer_coeffs(f), a)
    den = upoly.shift(k, R.denom_coeffs(f), a)
    if k.is_zero(den[0]):
        raise SingularPointError("pole of %s at t = %s" % (R.format(f), k.format(a)))
    return Series(k, _series_div(k, num, den, order + 1))


def coefficient_series(cf, k, a, order):
    """The map taking a polynomial coefficient from the field cf to its
    Series over k at t = a through u^order: a rational function of t is
    expanded, a constant is moved into k."""
    if hasattr(cf, "numer_coeffs"):
        return lambda c: ratfunc_series(cf, c, a, order)
    if cf == k:
        return lambda c: Series.constant(k, c, order)
    return lambda c: Series.constant(k, k.coerce_from(cf, c), order)


def poly_on_series(P, G, order=None):
    """The Series of P evaluated on the entries of the matrix series G
    (variable i*n + j at entry (i, j)), through u^order (default and at
    most G.order); coefficients go through coefficient_series."""
    k = G.field
    n = G.n
    order = G.order if order is None else min(order, G.order)
    values = [G.entry(p // n, p % n).truncate(order) for p in range(n * n)]
    return P.evaluate(values, one=Series.constant(k, k.one, order),
                      mul=lambda x, y: x * y, add=lambda x, y: x + y,
                      from_coeff=coefficient_series(P.ring.field, k, G.a,
                                                    order))


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

    def add(self, other):
        f = self.field
        n = min(self.order, other.order)
        return TruncSeries(f, self.a, [linalg.mat_add(f, x, y) for x, y
                                       in zip(self.mats[:n + 1], other.mats[:n + 1])])

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

    def coerce_to(self, big):
        """Re-embed into a larger constant field."""
        if big == self.field:
            return self
        conv = lambda x: big.coerce_from(self.field, x)
        return TruncSeries(big, conv(self.a),
                           [[[conv(x) for x in row] for row in m] for m in self.mats])

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


def algebraic_series(R, qcoeffs, a, order, root=None):
    """Series expansion at t = a of an algebraic function gamma with
    minimal polynomial Q(x) = sum qcoeffs[i] x^i (coefficients rational
    functions in R).

    The expansion point must be regular for every coefficient and
    unramified (Q_x(a, gamma(a)) nonzero).  If ``root`` is None the
    constant field is extended by a root of Q(a, x) and the returned
    field carries it.  Returns (field, Series, root_value).
    """
    k = R.const
    spec = [ratfunc_series(R, c, a, order) for c in qcoeffs]
    if root is None:
        k, root = find_one_root(k, [s.coeffs[0] for s in spec])
        if k != R.const:
            spec = [Series(k, [k.coerce_from(R.const, c) for c in s.coeffs])
                    for s in spec]
    # check unramified: Q_x(a, root) != 0
    dconst = k.zero
    p = k.one
    for i in range(1, len(spec)):
        dconst = k.add(dconst, k.mul(k.mul(k.from_int(i), spec[i].coeffs[0]), p))
        p = k.mul(p, root)
    if k.is_zero(dconst):
        raise SingularPointError("ramified expansion point t = %s" % R.const.format(a))
    # Newton iteration: y is exact modulo u^prec, and each pass doubles
    # prec; products truncate to y's length, so a pass works only at the
    # precision it is about to reach
    dspec = _derivative_coeffs(k, spec)
    y = Series(k, [root])
    prec = 1
    while prec <= order:
        prec = min(2 * prec, order + 1)
        y = Series(k, y.coeffs + [k.zero] * (prec - len(y.coeffs)))
        qy = _eval_poly_series(spec, y)
        dqy = _eval_poly_series(dspec, y).truncate(prec - 1)
        y = y - qy * dqy.inverse()
    qy = _eval_poly_series(spec, y)
    if not qy.is_zero():
        raise DgalError("Newton iteration failed to converge")
    return k, y, root


def _derivative_coeffs(field, spec):
    return [spec[i].scale(field.from_int(i)) for i in range(1, len(spec))]


def _eval_poly_series(spec, y):
    out = None
    for c in reversed(spec):
        out = c if out is None else out * y + c
    return out
