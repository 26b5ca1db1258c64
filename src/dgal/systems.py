"""First order linear differential systems over k = C(t) and the derived
systems the algorithm needs: direct sums, symmetric powers on monomial
vectors, exterior powers, and companion systems of algebraic elements.

Monomial indexing of the symmetric power is graded lex over the n^2
variables in row-major order with the constant monomial first; relation
search and the stabilizer construction rely on this exact ordering.
"""

import itertools

from . import linalg
from .errors import DgalError, SingularPointError
from .extfield import ExtField
from .fields import ConstField
from .ratfunc import RatFuncField
from .series import TruncSeries, ratfunc_series


class OdeSystem:
    """delta Y = A Y with A an n x n matrix of rational functions."""

    def __init__(self, R, A):
        self.R = R
        self.n = len(A)
        self.A = A
        self.q = self._lcm_denominator()

    def _lcm_denominator(self):
        """Monic least common denominator of the entries, as ascending
        constant-field coefficients."""
        from .ratfunc import _poly_divmod
        R = self.R
        k = R.const
        L = [k.one]
        for row in self.A:
            for f in row:
                den = R.denom_coeffs(f)
                g = _poly_gcd(R, L, den)
                prod = _poly_mul(k, L, den)
                L, rem = _poly_divmod(k, prod, g)
                while len(L) > 1 and k.is_zero(L[-1]):
                    L.pop()
        lead = L[-1]
        return [k.div(c, lead) for c in L]

    def q_at(self, a):
        k = self.R.const
        out = k.zero
        p = k.one
        for c in self.q:
            out = k.add(out, k.mul(c, p))
            p = k.mul(p, a)
        return out

    def check_regular(self, a):
        if self.R.const.is_zero(self.q_at(a)):
            raise SingularPointError(
                "t = %s is a pole of the system (q vanishes, q = %s)"
                % (self.R.const.format(a),
                   self.R.format(self.R.from_coeffs(self.q))))

    # -- series ---------------------------------------------------------

    def expand_at(self, a, order):
        """A_0..A_order with A(t) = sum A_i (t-a)^i exactly."""
        self.check_regular(a)
        k = self.R.const
        entry_series = [[ratfunc_series(self.R, f, a, order) for f in row]
                        for row in self.A]
        return [[[entry_series[i][j].coeffs[m] for j in range(self.n)]
                 for i in range(self.n)] for m in range(order + 1)]

    def fundamental_series(self, a, order):
        """Gamma_a = I + D_1 u + ... with delta Gamma = A Gamma through
        u^(order-1), via D_{m+1} = (sum_j A_j D_{m-j}) / (m+1)."""
        self.check_regular(a)
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

    def direct_sum(self, copies=None):
        """Block diagonal diag(A, ..., A); defaults to n copies."""
        copies = self.n if copies is None else copies
        R = self.R
        m = self.n * copies
        B = [[R.zero for _ in range(m)] for _ in range(m)]
        for c in range(copies):
            for i in range(self.n):
                for j in range(self.n):
                    B[c * self.n + i][c * self.n + j] = self.A[i][j]
        return OdeSystem(R, B)

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

    def exterior_power(self, m):
        """System satisfied by wedges of m solution columns."""
        if not 1 <= m <= self.n:
            raise DgalError("exterior power index out of range")
        R = self.R
        subsets = list(itertools.combinations(range(self.n), m))
        index = {s: i for i, s in enumerate(subsets)}
        size = len(subsets)
        B = [[R.zero for _ in range(size)] for _ in range(size)]
        for row, I in enumerate(subsets):
            for pos, r in enumerate(I):
                for l in range(self.n):
                    a_rl = self.A[r][l]
                    if R.is_zero(a_rl):
                        continue
                    if l == r:
                        B[row][row] = R.add(B[row][row], a_rl)
                    elif l not in I:
                        J = sorted(set(I) - {r} | {l})
                        sign = _replace_sign(I, pos, l)
                        col = index[tuple(J)]
                        term = a_rl if sign > 0 else R.neg(a_rl)
                        B[row][col] = R.add(B[row][col], term)
        return OdeSystem(R, B)

    def trace(self):
        acc = self.R.zero
        for i in range(self.n):
            acc = self.R.add(acc, self.A[i][i])
        return acc

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
                elif key == "field":
                    minpoly = value
                elif key.startswith("A["):
                    ij = key[1:].replace("[", " ").replace("]", " ").split()
                    entries[(int(ij[0]), int(ij[1]))] = value
                else:
                    raise DgalError("unknown key %r in system document" % key)
            except (ValueError, IndexError):
                raise DgalError("malformed line %r in system document"
                                % line) from None
        if n is None:
            raise DgalError("system document lacks the dimension line 'n:'")
        if minpoly is not None:
            k0 = ConstField()
            R0 = RatFuncField(k0, "g")
            poly = R0.parse(minpoly)
            if not R0.is_polynomial(poly):
                raise DgalError("field minpoly must be a polynomial in g")
            from .fields import field_adjoin
            const, _ = field_adjoin(k0, R0.numer_coeffs(poly))
        else:
            const = ConstField()
        R = RatFuncField(const)
        A = [[R.zero for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if (i + 1, j + 1) not in entries:
                    raise DgalError("missing entry A[%d][%d]" % (i + 1, j + 1))
                A[i][j] = R.parse(entries[(i + 1, j + 1)])
        return cls(R, A)


def _replace_sign(I, pos, l):
    """Sign of moving row l into slot pos of the ordered tuple I (with the
    old row removed)."""
    J = [x for k, x in enumerate(I) if k != pos]
    newpos = sum(1 for x in J if x < l)
    return -1 if (pos - newpos) % 2 else 1


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


def companion_of_minpoly(R, qcoeffs):
    """Companion system of a monic squarefree irreducible Q over k: the
    vector (1, gamma, ..., gamma^(l-1)) solves delta Y = B Y whenever
    Q(gamma) = 0."""
    qcoeffs = list(qcoeffs)
    if not R.is_one(qcoeffs[-1]):
        raise DgalError("Q must be monic")
    ext = ExtField(R, qcoeffs)
    l = ext.deg
    if l == 1:
        return OdeSystem(R, [[R.zero]])
    try:
        gp = ext.gamma_derivative()
    except (ZeroDivisionError, DgalError):
        raise DgalError("Q is not squarefree: gamma' undefined by this construction")
    B = [[R.zero for _ in range(l)] for _ in range(l)]
    power = ext.one  # gamma^(j-1) on entry to iteration j
    for j in range(1, l):
        # (gamma^j)' = j gamma^(j-1) gamma'
        deriv = ext.mul(ext.scale(power, R.from_int(j)), gp)
        B[j] = list(deriv)
        power = ext.mul(power, ext.gamma)
    return OdeSystem(R, B)


def _poly_mul(k, a, b):
    out = [k.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if k.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = k.add(out[i + j], k.mul(x, y))
    return out


def _poly_gcd(R, a, b):
    """Monic gcd of ascending coefficient lists over the constant field,
    computed in k[t] via rational-function arithmetic on constants."""
    k = R.const

    def trim(p):
        p = list(p)
        while p and k.is_zero(p[-1]):
            p.pop()
        return p

    a, b = trim(a or []), trim(b or [])
    while b:
        # remainder of a by b
        a = list(a)
        db = len(b) - 1
        while len(a) - 1 >= db and a:
            c = k.div(a[-1], b[-1])
            for j in range(db + 1):
                a[len(a) - 1 - db + j] = k.sub(a[len(a) - 1 - db + j], k.mul(c, b[j]))
            a = trim(a)
        a, b = b, a
    if not a:
        return [k.one]
    lead = a[-1]
    return [k.div(c, lead) for c in a]
