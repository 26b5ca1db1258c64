"""Linear algebra over any adapter field.

Matrices are plain lists of lists of field elements; the field argument
supplies the arithmetic (ConstField, RatFuncField, ...).  The
elimination routines are Gaussian elimination with the first nonzero
entry as pivot; sizes stay small, so no other pivoting is needed.

``RrefAccumulator``, the row-at-a-time elimination of the relation
solve, keeps its reduced rows sparse, as dicts of their nonzero
entries.  That is cheap because a row in reduced echelon form is zero at
every pivot but its own: near full rank, a reduced row holds little
more than its pivot, and elimination touches only what is nonzero.

``PrimeField`` is one more adapter: GF(p) on Python ints.  With it the
same routines run modulo a word-size prime, which avoids the gcd work
of rational arithmetic, and its row kernel reduces each entry once per
row (delayed reduction; Dumas, Giorgi and Pernet 2008).  A result found
mod p says nothing about QQ by itself: ``lift_kernel`` lifts it by
rational reconstruction (Wang, Guy and Davenport 1982; the modular
method of Dixon 1982), and ``kernel_vanishes`` checks a lift exactly.
"""

import bisect
import operator
from math import gcd, isqrt, lcm

from .rational import Rational

# the Mersenne prime 2^61 - 1: entries and products stay cheap Python ints
P61 = (1 << 61) - 1


def zeros(field, rows, cols):
    return [[field.zero for _ in range(cols)] for _ in range(rows)]


def identity(field, n):
    out = zeros(field, n, n)
    for i in range(n):
        out[i][i] = field.one
    return out


def copy(mat):
    return [row[:] for row in mat]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_add(field, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(field, a, b):
    return [[field.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(field, a, c):
    return [[field.mul(x, c) for x in row] for row in a]


def matmul(field, a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = zeros(field, n, p)
    for i in range(n):
        for k in range(m):
            aik = a[i][k]
            if field.is_zero(aik):
                continue
            row_b = b[k]
            row_o = out[i]
            for j in range(p):
                if not field.is_zero(row_b[j]):
                    row_o[j] = field.add(row_o[j], field.mul(aik, row_b[j]))
    return out


def matvec(field, a, v):
    out = []
    for row in a:
        acc = field.zero
        for x, y in zip(row, v):
            if not (field.is_zero(x) or field.is_zero(y)):
                acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return out


def rref(field, mat):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = copy(mat)
    if not R:
        return R, []
    rows, cols = len(R), len(R[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not field.is_zero(R[i][c])), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.inv(R[r][c])
        R[r] = [field.mul(x, inv) for x in R[r]]
        for i in range(rows):
            if i != r and not field.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def nullspace(field, mat):
    """Basis of the right kernel, one vector per free column."""
    if not mat:
        return []
    R, pivots = rref(field, mat)
    cols = len(mat[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(R[r][fc])
        basis.append(v)
    return basis


def solve(field, a, b):
    """One solution of a x = b, or None if inconsistent."""
    if not a:
        return [] if all(field.is_zero(x) for x in b) else None
    cols = len(a[0])
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    R, pivots = rref(field, aug)
    if cols in pivots:
        return None
    x = [field.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][cols]
    return x


def det(field, mat):
    n = len(mat)
    A = copy(mat)
    d = field.one
    for c in range(n):
        pr = next((i for i in range(c, n) if not field.is_zero(A[i][c])), None)
        if pr is None:
            return field.zero
        if pr != c:
            A[c], A[pr] = A[pr], A[c]
            d = field.neg(d)
        d = field.mul(d, A[c][c])
        inv = field.inv(A[c][c])
        for i in range(c + 1, n):
            if field.is_zero(A[i][c]):
                continue
            f = field.mul(A[i][c], inv)
            A[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(A[i], A[c])]
    return d


def inverse(field, mat):
    n = len(mat)
    aug = [row[:] + ident_row[:] for row, ident_row in zip(mat, identity(field, n))]
    R, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in R]


class RrefAccumulator:
    """Incrementally maintained reduced row echelon form of a growing set
    of constraint rows; rank and kernel are cheap to read off at any
    point.

    Reduced rows are sparse: each is kept as ``{column: value}`` of its
    nonzero entries off the pivot (the pivot entry is one), keyed by its
    pivot column.  A row in RREF is zero at every other pivot column, so
    reducing by it changes no entry at a pivot column but its own: an
    incoming row is reduced at once by the rows whose pivot it has, with
    its entries there as multipliers (``field.sub_multiples``), touching
    only the nonzero entries of those rows (LaMacchia and Odlyzko 1990)."""

    def __init__(self, field, cols):
        self.field = field
        self.cols = cols
        self.pivots = []   # pivot columns, ascending
        self._rows = {}    # pivot column -> {free column: value}

    def add_row(self, row):
        """Reduce and insert; returns True if the rank grew."""
        f = self.field
        return self.add_sparse(
            {j: x for j, x in enumerate(row) if not f.is_zero(x)})

    def add_sparse(self, new):
        """add_row for a row given as ``{column: nonzero value}``; the
        dict is taken over, not copied."""
        f = self.field
        new = f.sub_multiples(new, [(new.pop(pc), self._rows[pc]) for pc
                                    in [j for j in new if j in self._rows]])
        if not new:
            return False
        pc = min(new)
        inv = f.inv(new.pop(pc))
        new = {j: f.mul(x, inv) for j, x in new.items()}
        # back-substitute into the stored rows that have column pc
        for pr, r in self._rows.items():
            c = r.pop(pc, None)
            if c is not None:
                self._rows[pr] = f.sub_multiples(r, [(c, new)])
        self._rows[pc] = new
        bisect.insort(self.pivots, pc)
        return True

    @property
    def rank(self):
        return len(self.pivots)

    def reduced_rows(self):
        """The nonzero rows of the reduced echelon form by ascending
        pivot, each as ``{column: value}`` in ascending column order."""
        one = self.field.one
        return [dict([(pc, one)] + sorted(self._rows[pc].items()))
                for pc in self.pivots]

    def kernel_vectors(self, free=None):
        """One kernel vector per free column, in ascending order, each as
        ``{column: nonzero value}``: the vector that is one at its free
        column, zero at every other free column, and minus that column's
        entry of the reduced row at each pivot.  ``free``, an ascending
        iterable of columns, reads only the free columns among it (all of
        them by default)."""
        f = self.field
        if free is None:
            free = range(self.cols)
        basis = {fc: {fc: f.one} for fc in free if fc not in self._rows}
        for pc, r in self._rows.items():
            for fc, x in r.items():
                vec = basis.get(fc)
                if vec is not None:
                    vec[pc] = f.neg(x)
        return list(basis.values())

    def kernel_support_max(self, key):
        """``{free column: the largest key(column) over the support of its
        kernel vector}``, by ascending free column, read off the reduced
        rows without building the vectors."""
        top = {fc: key(fc) for fc in range(self.cols) if fc not in self._rows}
        for pc, r in self._rows.items():
            k = key(pc)
            for fc in r:
                if top[fc] < k:
                    top[fc] = k
        return top


def sub_multiples(field, target, pairs):
    """target -= c * source for each (c, source) of ``pairs``, in place and
    sparse; returns target.  The row kernel over QQ, QQ(g) and k(t)."""
    zero, is_zero, sub, mul = field.zero, field.is_zero, field.sub, field.mul
    for c, source in pairs:
        for j, y in source.items():
            x = sub(target.get(j, zero), mul(c, y))
            if is_zero(x):
                del target[j]
            else:
                target[j] = x
    return target


class NotCertified(Exception):
    """A result found mod p that cannot stand for the exact one; the
    message says why."""


class PrimeField:
    """GF(p), p = P61, as an adapter field: elements are Python ints in
    [0, p)."""

    p = P61
    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("division by zero in GF(p)")
        return pow(a, -1, self.p)

    is_zero = staticmethod(operator.not_)

    def from_rational(self, q):
        """The image num * den^-1 of a rational or an int."""
        den = q.denominator % self.p
        if not den:
            raise NotCertified("a denominator is 0 mod p")
        return q.numerator * pow(den, -1, self.p) % self.p

    from_int = from_rational

    def sub_multiples(self, target, pairs):
        """The row kernel: target - sum of c * source over ``pairs``, on
        plain ints (below len(pairs) p^2 + p) with one reduction per entry;
        a single pair is reduced in place, for the delay saves it nothing."""
        get, p = target.get, self.p
        if len(pairs) == 1:
            (c, source), = pairs
            for j, y in source.items():
                target[j] = x = (get(j, 0) - c * y) % p
                if not x:
                    del target[j]
            return target
        for c, source in pairs:
            for j, y in source.items():
                target[j] = get(j, 0) - c * y
        return {j: r for j, x in target.items() if (r := x % p)}


def rational_reconstruction(u, p):
    """The Rational n/d with |n|, d <= sqrt(p/2) and n = u d mod p, or
    None when there is none (it is unique when it exists)."""
    bound = isqrt(p // 2)
    r0, r1 = p, u % p
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Rational(r1, s1)


def lift_kernel(acc, free=None):
    """The kernel_vectors of ``acc``, an RrefAccumulator over a
    PrimeField, for the free columns among ``free`` (all by default),
    lifted entry by entry by rational reconstruction, each as
    ``{column: Rational}``; None as soon as an entry has no lift."""
    p = acc.field.p
    out = []
    for vec in acc.kernel_vectors(free):
        lifted = {}
        for j, u in vec.items():
            q = rational_reconstruction(u, p)
            if q is None:
                return None
            lifted[j] = q
        out.append(lifted)
    return out


def kernel_vanishes(rows, vectors):
    """True iff every row times every vector is exactly 0.

    Rows hold rationals (anything with a numerator and a denominator),
    vectors are ``{column: rational}``.  Both are scaled to integers, so
    each check is one integer dot product over the vector's support.
    Vectors that pass lie in the exact kernel of the rows, whose
    dimension is at most cols - r, r the rank of the rows mod p (the rank
    over QQ is at least r).  So cols - r independent kernel vectors that
    pass, or that follow from vectors that pass, span it: the lifts of
    all the kernel_vectors of an RrefAccumulator over a PrimeField, or
    the relation solve's shift generators with their u-shifts
    (``relations._shift_generators``)."""
    scaled = []
    for vec in vectors:
        den = lcm(*(q.denominator for q in vec.values()))
        scaled.append([(j, q.numerator * (den // q.denominator))
                       for j, q in vec.items()])
    for row in rows:
        den = lcm(*(q.denominator for q in row))
        ints = [q.numerator * (den // q.denominator) for q in row]
        for support in scaled:
            if sum(ints[j] * c for j, c in support):
                return False
    return True
