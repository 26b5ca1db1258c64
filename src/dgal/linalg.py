"""Linear algebra over any adapter field.

Matrices are plain lists of lists of field elements; the field argument
supplies the arithmetic (ConstField, RatFuncField, ...).  There is
one elimination, ``RrefAccumulator``: Gauss-Jordan a row at a time,
with the first nonzero column as pivot; sizes stay small, so no other
pivoting is needed.  The relation solve and the relation basis with
its certificate feed it rows as they come, and ``rref``, behind
``nullspace`` and ``solve``, feeds it a whole matrix.  The
reduced echelon form is unique for a column order, so every caller
reads the same result whichever way its rows came.

The accumulator keeps its rows sparse, as dicts of their nonzero
entries, and elimination reads only those.  When its rows are read they
are in reduced echelon form: zero at every pivot but their own, so near
full rank a row holds little more than its pivot.  When the stored rows
are brought to that form is the field adapter's choice
(``defers_back_substitution``): over an exact field at every added row,
so an incoming row is reduced in one pass by the rows whose pivots it
has; over GF(p) once, at the first read after rows were added, and the
rows stay in echelon form between reads, each incoming row reduced pivot
by pivot in ascending order (``reduce_row``).

``PrimeField`` is one more adapter: GF(p) on Python ints, for p on the
ladder ``PRIMES``.  With it the same routines run modulo a word-size
prime, which avoids the gcd work of rational arithmetic, and its row and
series kernels (``reduce_row``, ``sub_multiples``, ``recurrence_step``)
reduce each entry once (delayed reduction; Dumas, Giorgi and Pernet
2008).  A result found mod p says nothing about QQ by itself:
``lift_kernel`` lifts it by rational reconstruction (Wang, Guy and
Davenport 1982; the modular method of Dixon 1982), and
``kernel_vanishes`` checks a lift exactly.
"""

import bisect
import operator
from math import gcd, isqrt, lcm

from .rational import Rational

# The primes of the modular solve, in the order it tries them.  Below
# 2^30 an element is one 30-bit CPython digit, so a product and its
# reduction stay cheap; the Mersenne prime 2^61 - 1 reconstructs entries
# up to sqrt(p/2), about 1.07e9, where the first stops at 23170.
PRIMES = ((1 << 30) - 35, (1 << 61) - 1)


def zeros(field, rows, cols):
    return [[field.zero for _ in range(cols)] for _ in range(rows)]


def identity(field, n):
    out = zeros(field, n, n)
    for i in range(n):
        out[i][i] = field.one
    return out


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
    """Reduced row echelon form; returns (R, pivot_columns), R as many
    rows as ``mat``, its zero rows last.  The rows are fed to an
    RrefAccumulator (``add_sparse``), the one elimination of dgal."""
    if not mat:
        return [], []
    cols, zero = len(mat[0]), field.zero
    acc = RrefAccumulator(field, cols)
    for row in mat:
        acc.add_sparse(row)
    R = [[row.get(j, zero) for j in range(cols)] for row in acc.reduced_rows()]
    return R + zeros(field, len(mat) - acc.rank, cols), acc.pivots


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


class RrefAccumulator:
    """Incrementally maintained reduced row echelon form of a growing set
    of constraint rows; rank and kernel are cheap to read off at any
    point.

    Rows are sparse: each is kept as ``{column: value}`` of its nonzero
    entries off the pivot (the pivot entry is one), keyed by its pivot
    column.  An incoming row is reduced by the stored row at each pivot
    column where it is nonzero (``field.reduce_row``), touching only the
    nonzero entries of those rows (LaMacchia and Odlyzko 1990), and made
    monic unless its lead is one.  Its pivot column is then cleared from
    the stored rows (back-substitution): at once, or, when
    ``field.defers_back_substitution``, at the next read (``row``,
    ``reduced_rows``, ``kernel_vectors``, ``kernel_support_max``), in one
    pass for every pivot added since the last one.  Until then the
    stored rows are in echelon form only; ``pivots`` and ``rank`` are the
    same either way."""

    def __init__(self, field, cols):
        self.field = field
        self.cols = cols
        self.pivots = []     # pivot columns, ascending
        self._rows = {}      # pivot column -> {later column: value}
        self._fresh = set()  # pivots not yet cleared from the other rows

    def add_row(self, row):
        """Reduce and insert a row, a dense list, or over an exact field
        also ``{column: nonzero value}`` (taken over, not copied), as
        ``field.reduce_row`` reads it; returns True if the rank grew."""
        f = self.field
        new = f.reduce_row(row, self._rows, self.pivots)
        if not new:
            return False
        pc = min(new)
        lead = new.pop(pc)
        if lead != f.one:
            inv = f.inv(lead)
            new = {j: f.mul(x, inv) for j, x in new.items()}
        if f.defers_back_substitution:
            self._fresh.add(pc)
        else:
            for pr, r in self._rows.items():
                c = r.pop(pc, None)
                if c is not None:
                    self._rows[pr] = f.sub_multiples(r, [(c, new)])
        self._rows[pc] = new
        bisect.insort(self.pivots, pc)
        return True

    # for rref and the relation basis, so a trace of add_row counts ansatz rows
    add_sparse = add_row

    def _back_substitute(self):
        """Clear the pivot columns added since the last read from the
        stored rows, from the largest pivot down with one
        ``field.sub_multiples`` per row: a row has entries only after its
        pivot, so the rows it is reduced by are reduced by then."""
        fresh, rows, sub = self._fresh, self._rows, self.field.sub_multiples
        if not fresh:
            return
        below = bisect.bisect_left(self.pivots, max(fresh))
        for pc in reversed(self.pivots[:below]):
            row = rows[pc]
            hits = ([j for j in fresh if j in row] if len(fresh) < len(row)
                    else [j for j in row if j in fresh])
            if hits:
                rows[pc] = sub(row, [(row.pop(j), rows[j]) for j in hits])
        fresh.clear()

    @property
    def rank(self):
        return len(self.pivots)

    def row(self, pc):
        """The reduced row at pivot column ``pc`` as ``{column: value}``,
        in ascending column order, so its pivot entry (one) first."""
        self._back_substitute()
        return dict([(pc, self.field.one)] + sorted(self._rows[pc].items()))

    def reduced_rows(self):
        """The nonzero rows of the reduced echelon form by ascending
        pivot (``row``)."""
        return [self.row(pc) for pc in self.pivots]

    def kernel_vectors(self, free=None):
        """One kernel vector per free column, in ascending order, each as
        ``{column: nonzero value}``: the vector that is one at its free
        column, zero at every other free column, and minus that column's
        entry of the reduced row at each pivot.  ``free``, an ascending
        iterable of columns, reads only the free columns among it (all of
        them by default)."""
        self._back_substitute()
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
        self._back_substitute()
        top = {fc: key(fc) for fc in range(self.cols) if fc not in self._rows}
        for pc, r in self._rows.items():
            k = key(pc)
            for fc in r:
                if top[fc] < k:
                    top[fc] = k
        return top


def reduce_row(field, target, rows, pivots):
    """The row kernel of elimination over QQ, QQ(g) and k(t): target, a
    dense list or ``{column: nonzero value}`` (taken over), reduced by
    the reduced rows ``{pivot: row}`` at the ``pivots`` it has, in one
    ``field.sub_multiples`` with its entries there as multipliers; a
    reduced row is zero at every other pivot, so no pivot entry changes."""
    if not isinstance(target, dict):
        is_zero = field.is_zero
        target = {j: x for j, x in enumerate(target) if not is_zero(x)}
    return field.sub_multiples(target, [(target.pop(pc), rows[pc]) for pc
                                        in [j for j in pivots if j in target]])


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


def dot(field, xs, ys):
    """The sum of x * y over the pairs of ``xs`` and ``ys``, skipping the
    pairs where y is zero."""
    zero, is_zero, add, mul = field.zero, field.is_zero, field.add, field.mul
    acc = zero
    for x, y in zip(xs, ys):
        if not is_zero(y):
            acc = add(acc, mul(x, y))
    return acc


def recurrence_step(field, steps, past, lag, inv):
    """The series kernel over QQ and QQ(g): one vector of a linear
    recurrence.  Entry r is inv times the sum of c * x over the
    coefficients ``cs`` and the entries ``gather(past)`` of the r-th
    (cs, gather) of ``steps``, plus the sum of c * past[offset + r] over
    the (c, offset) of ``lag``; ``past`` is the concatenated earlier
    vectors."""
    is_zero, add, mul = field.is_zero, field.add, field.mul
    out = [dot(field, cs, gather(past)) for cs, gather in steps]
    for c, offset in lag:
        out = [x if is_zero(y) else add(x, mul(c, y))
               for x, y in zip(out, past[offset:])]
    return [mul(x, inv) for x in out]


class NotCertified(Exception):
    """A result found mod p that cannot stand for the exact one; the
    message says why."""


class PrimeField:
    """GF(p) as an adapter field, p a prime of ``PRIMES`` (the first by
    default): elements are Python ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p=PRIMES[0]):
        self.p = p

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

    # the stored rows wait in echelon form for a read: a back-substitution
    # pass over them all then costs less than one per added pivot, and an
    # entry of GF(p) stays one word however many pivots it meets
    defers_back_substitution = True

    def reduce_row(self, target, rows, pivots):
        """The row kernel of elimination: target reduced by the echelon
        rows ``{pivot: row}`` in ascending pivot order (``pivots``), for a
        row may put entries at later pivots.  On a copy of target, a dense
        list of plain ints: an entry is reduced mod p when it becomes a
        multiplier, every other entry once at the end."""
        p = self.p
        dense = list(target)
        for pc in pivots:
            c = dense[pc] % p
            if c:
                dense[pc] = 0
                for j, y in rows[pc].items():
                    dense[j] -= c * y
        return {j: r for j, x in enumerate(dense) if (r := x % p)}

    def recurrence_step(self, steps, past, lag, inv):
        """The series kernel (``linalg.recurrence_step``) on plain ints,
        with one reduction per entry."""
        mul, p = operator.mul, self.p
        out = [sum(map(mul, cs, gather(past))) for cs, gather in steps]
        for c, offset in lag:
            out = [x + c * y for x, y in zip(out, past[offset:])]
        return [x * inv % p for x in out]


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
