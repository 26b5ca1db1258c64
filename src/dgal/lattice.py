"""Integer lattices: Hermite normal form bases, integer kernels,
saturation, and congruence lattices.

Lattices are given by lists of integer row vectors (plain Python ints).
The normal-form heavy lifting is sympy's; everything here is glue with
the row-vector convention used by the rest of the package.
"""

from fractions import Fraction

import sympy as sp
from sympy import ZZ
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp

from .errors import DgalError


def hnf_basis(rows):
    """Canonical basis of the lattice generated by integer row vectors.

    sympy's Hermite normal form is column-style, so transpose around it;
    zero generators drop out.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    m = sp.Matrix(rows).T
    h = hermite_normal_form(m)
    return [[int(x) for x in h.col(j)] for j in range(h.cols)]


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
    m = sp.Matrix(rows)
    a, _s, t = smith_normal_decomp(m, domain=ZZ)
    out = []
    for j in range(t.cols):
        if j >= a.cols or all(a[i, j] == 0 for i in range(a.rows)):
            out.append([int(x) for x in t.col(j)])
    return out


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
    d = 1
    for x in row:
        d = d * Fraction(x).denominator // sp.igcd(d, Fraction(x).denominator)
    return [int(Fraction(x) * d) for x in row], d


def rational_kernel_lattice(rows, cols=None):
    """Basis of {x in Z^cols : M x = 0} where M has Fraction entries."""
    cleared = [_clear_denominators(r)[0] for r in rows]
    return integer_kernel(cleared, cols)


def congruence_lattice(rows, cols=None):
    """Basis of {m in Z^cols : M m is an integer vector} for M with
    Fraction entries: solve M'm + Dk = 0 over Z with M = M'/D row by row
    and project out the k block."""
    rows = [r for r in rows if any(Fraction(x) != 0 for x in r)]
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


def intersect_with_kernel(generators, eq_rows):
    """Basis of the sublattice of <generators> satisfying the rational
    linear equations eq_rows (Fraction entries): pull the equations back
    to coefficient space and push its kernel forward."""
    gens = hnf_basis(generators)
    if not gens:
        return []
    if not eq_rows:
        return gens
    pulled = [[sum(Fraction(e) * g[j] for j, e in enumerate(row)) for g in gens]
              for row in eq_rows]
    ck = rational_kernel_lattice(pulled, len(gens))
    out = [[sum(c * g[j] for c, g in zip(cv, gens)) for j in range(len(gens[0]))]
           for cv in ck]
    return hnf_basis(out)
