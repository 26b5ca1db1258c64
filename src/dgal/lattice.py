"""Integer lattices: Hermite normal form bases, integer kernels,
saturation, and congruence lattices.

Lattices are given by lists of integer row vectors (plain Python ints).
The Hermite normal form is Cohen's column algorithm (*A Course in
Computational Algebraic Number Theory*, 2.4.5): unimodular column
operations, bottom row first, put the pivots in the rightmost columns,
make them positive and reduce the entries right of each pivot modulo it.
The same operations, recorded, give the integer kernel.
"""

from math import gcd

from .errors import DgalError
from .rational import as_rational


def _gcdex(a, b):
    """(x, y, g) with x a + y b = g = gcd(a, b) >= 0, and y = 0 when a
    divides b."""
    if a and b % a == 0:
        return (-1 if a < 0 else 1), 0, abs(a)
    x0, x1, y0, y1 = 1, 0, 0, 1
    r0, r1 = a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return x0, y0, r0


def _combine_columns(mats, i, j, a, b, c, d):
    """Columns i, j of each matrix become a*col_i + b*col_j and
    c*col_i + d*col_j."""
    for mat in mats:
        for row in mat:
            ri, rj = row[i], row[j]
            row[i] = a * ri + b * rj
            row[j] = c * ri + d * rj


def _column_hnf(A, U=None):
    """Bring the integer matrix A (a list of rows, changed in place) to
    Hermite normal form by column operations, applied to U as well.
    Returns k: the columns k.. of A are the HNF, the columns before k are
    zero."""
    mats = [A] if U is None else [A, U]
    m, n = len(A), len(A[0])
    k = n
    for i in range(m - 1, -1, -1):
        if k == 0:
            break
        k -= 1
        row = A[i]
        for j in range(k - 1, -1, -1):
            if row[j]:
                u, v, d = _gcdex(row[k], row[j])
                r, s = row[k] // d, row[j] // d
                _combine_columns(mats, k, j, u, v, -s, r)
        b = row[k]
        if b < 0:
            _combine_columns(mats, k, k, -1, 0, -1, 0)
            b = -b
        if b == 0:
            k += 1
        else:
            for j in range(k + 1, n):
                q = row[j] // b
                if q:
                    _combine_columns(mats, j, k, 1, -q, 0, 1)
    return k


def hnf_basis(rows):
    """Canonical basis of the lattice generated by integer row vectors:
    the columns of the Hermite normal form of the matrix whose columns are
    the generators; zero generators drop out."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    A = [list(col) for col in zip(*rows)]
    k = _column_hnf(A)
    return [[A[i][j] for i in range(len(A))] for j in range(k, len(rows))]


def integer_kernel(rows, cols=None):
    """Basis of {x in Z^cols : M x = 0} for the matrix with the given
    rows.  The result is automatically saturated (a basis of the full
    kernel lattice, not a finite-index sublattice)."""
    rows = [r for r in rows if any(r)]
    if not rows:
        if cols is None:
            raise DgalError("kernel of an empty matrix needs an explicit "
                            "column count")
        return [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    cols = len(rows[0])
    A = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    k = _column_hnf(A, U)
    # A U = [0 | H] with H of full column rank: U's first k columns are a
    # basis of the kernel, and U is unimodular, so the basis is saturated
    return hnf_basis([[U[i][j] for i in range(cols)] for j in range(k)])


def saturate(rows, cols=None):
    """Basis of the saturation (QL intersected with Z^cols) of the row
    lattice L: the integer kernel of its integer orthogonal complement."""
    if cols is None:
        if not rows:
            raise DgalError("saturation of an empty generator list needs "
                            "an explicit column count")
        cols = len(rows[0])
    perp = integer_kernel(rows, cols)
    if not perp:
        return [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    return integer_kernel(perp, cols)


def _clear_denominators(row):
    row = [as_rational(x) for x in row]
    d = 1
    for x in row:
        d = d * x.denominator // gcd(d, x.denominator)
    return [x.numerator * (d // x.denominator) for x in row], d


def rational_kernel_lattice(rows, cols=None):
    """Basis of {x in Z^cols : M x = 0} where M has rational entries."""
    cleared = [_clear_denominators(r)[0] for r in rows]
    return integer_kernel(cleared, cols)


def congruence_lattice(rows, cols=None):
    """Basis of {m in Z^cols : M m is an integer vector} for M with
    rational entries: solve M'm + Dk = 0 over Z with M = M'/D row by row
    and project out the k block."""
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        if cols is None:
            raise DgalError("congruence lattice of an empty matrix needs "
                            "an explicit column count")
        return [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    cols = len(rows[0])
    p = len(rows)
    big = []
    for i, r in enumerate(rows):
        cr, d = _clear_denominators(r)
        big.append(cr + [d if j == i else 0 for j in range(p)])
    ker = integer_kernel(big, cols + p)
    return hnf_basis([v[:cols] for v in ker])

