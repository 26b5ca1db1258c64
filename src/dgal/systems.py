"""First order linear differential systems over k = C(t): fundamental
series, symmetric powers on monomial vectors, and the system document.

Monomial indexing of the symmetric power is graded lex over the n^2
variables in row-major order with the constant monomial first; relation
search and the stabilizer construction rely on this exact ordering.
"""

from contextlib import contextmanager

from . import linalg
from .errors import DgalError, InputError
from .fields import ConstField
from .ratfunc import RatFuncField
from .series import TruncSeries, ratfunc_series


class OdeSystem:
    """delta Y = A Y with A an n x n matrix of rational functions."""

    def __init__(self, R, A):
        self.R = R
        self.n = len(A)
        self.A = A

    # -- series ---------------------------------------------------------

    def expand_at(self, a, order):
        """A_0..A_order with A(t) = sum A_i (t-a)^i exactly; a pole at
        t = a is a SingularPointError (from ratfunc_series)."""
        entry_series = [[ratfunc_series(self.R, f, a, order) for f in row]
                        for row in self.A]
        return [[[entry_series[i][j].coeffs[m] for j in range(self.n)]
                 for i in range(self.n)] for m in range(order + 1)]

    def fundamental_series(self, a, order):
        """Gamma_a = I + D_1 u + ... with delta Gamma = A Gamma through
        u^(order-1), via D_{m+1} = (sum_j A_j D_{m-j}) / (m+1)."""
        k = self.R.const
        As = self.expand_at(a, order)
        D = [linalg.identity(k, self.n)]
        for m in range(order):
            acc = linalg.zeros(k, self.n, self.n)
            for j in range(m + 1):
                acc = linalg.mat_add(k, acc, linalg.matmul(k, As[j], D[m - j]))
            inv = k.inv(k.from_int(m + 1))
            D.append(linalg.mat_scale(k, acc, inv))
        return TruncSeries(k, a, D)

    # -- derived systems ------------------------------------------------

    def sym_power(self, d):
        """System satisfied by all monomials of degree <= d in the entries
        of the n-fold direct sum solution (the n^2 fundamental-matrix
        entries), constant monomial included."""
        R = self.R
        nv = self.n * self.n
        monos = monomials_upto(nv, d)
        index = {m: i for i, m in enumerate(monos)}
        size = len(monos)
        B = [[R.zero for _ in range(size)] for _ in range(size)]
        for row, m in enumerate(monos):
            for p in range(nv):
                e = m[p]
                if not e:
                    continue
                i, j = divmod(p, self.n)
                for l in range(self.n):
                    a_il = self.A[i][l]
                    if R.is_zero(a_il):
                        continue
                    tgt = list(m)
                    tgt[p] -= 1
                    tgt[l * self.n + j] += 1
                    col = index[tuple(tgt)]
                    B[row][col] = R.add(B[row][col],
                                        R.scale(a_il, R.const.from_int(e)))
        return OdeSystem(R, B), monos

    # -- serialization --------------------------------------------------

    def to_document(self):
        lines = ["n: %d" % self.n]
        mp = self.R.const.minpoly_coeffs()
        if mp is not None:
            from fractions import Fraction
            k0 = ConstField()
            coeffs = [k0.from_fraction(Fraction(int(c.numerator), int(c.denominator)))
                      for c in mp]
            R0 = RatFuncField(k0, "g")
            lines.append("field: %s" % R0.format(R0.from_coeffs(coeffs)))
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


@contextmanager
def _document_line(line):
    """An error met while reading one line of a system document becomes
    an InputError that quotes the line."""
    try:
        yield
    except (DgalError, ZeroDivisionError) as err:
        raise InputError("malformed line %r in system document: %s"
                         % (line, err)) from None


def monomials_upto(nvars, d):
    """All exponent tuples of total degree <= d: graded, and lex within
    each degree with earlier variables dominating.  Constant first."""
    out = []
    for deg in range(d + 1):
        out.extend(sorted(_fixed_degree(nvars, deg), reverse=True))
    return out


def _fixed_degree(nvars, deg):
    if nvars == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _fixed_degree(nvars - 1, deg - first):
            yield (first,) + rest

