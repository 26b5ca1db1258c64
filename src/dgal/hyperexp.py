"""Hyperexponential elements and their multiplicative relation lattice.

A hyperexponential element h is known here only through its logarithmic
derivative v = h'/h, a rational function over (an extension of) the
constant field.  ``logderiv_from_character`` recovers v from the series
of a character value chi(F), read off the monomial-series store of the
fundamental matrix F.

``relation_lattice`` returns the relation lattice L of h_1, ..., h_l:
the integer vectors m for which prod h_j^{m_j} lies in k(t), that is,
for which sum m_j v_j = f'/f with f rational (then prod h_j^{m_j} is a
constant multiple of f).  By Kolchin--Ostrowski these multiplicative
relations generate every algebraic relation among the h_j over k(t)
(Kolchin, Amer. J. Math. 90, 1968).  L is given by its Hermite normal
form basis (``lattice.hnf_basis``), torsion included: in each basis
vector the pivot is the last nonzero entry, and it is positive.
"""

from functools import reduce

from . import lattice
from .errors import DgalError, ResourceCapError, UnsupportedInstanceError
from .fields import join, split_univariate
from .rational import ZERO
from .ratfunc import RatFuncField, _series_div
from .series import Series, reconstruct_ratfunc


class HyperexpElement:
    """A hyperexponential element, represented by its logarithmic
    derivative v in the rational function field R."""

    def __init__(self, R, v):
        self.R = R
        self.v = v

    def __repr__(self):
        return "HyperexpElement(v=%s)" % self.R.format(self.v)


class RelationLattice:
    """The relation lattice L as its HNF basis, with one rational
    cofactor f per basis vector m: f'/f = sum m_j v_j, all in R."""

    def __init__(self, R, basis, cofactors):
        self.R = R
        self.basis = basis
        self.cofactors = cofactors


def logderiv_from_character(chi, store, order, num_deg, den_deg):
    """Recover the rational logarithmic derivative of h = chi(F) from
    the series of u = chi(F) through u^order, F the fundamental matrix
    whose monomial series ``store`` holds (systems.MonomialSeries).

    u must have a nonzero constant term and order above 2 * (num_deg +
    den_deg).  w = u'/u through (t - a)^(order - 1) is one power-series
    division, O(order^2) field operations with no inverse series formed
    first.  w is reconstructed as a rational function and must come out
    identical at the full and the one-lower truncation order, else a
    degree-cap error is raised.
    """
    u = store.series_of(chi.poly, order)
    kf = u.field
    if kf.is_zero(u.coeffs[0]):
        raise DgalError("character series vanishes at the expansion point")
    du = u.diff().coeffs
    w = Series(kf, _series_div(kf, du, u.coeffs, len(du)))
    R = RatFuncField(kf)
    if w.order < 2 * (num_deg + den_deg) + 2:
        raise ResourceCapError("series order %d too small for degree caps "
                               "(%d, %d)" % (order, num_deg, den_deg))
    a = kf.coerce_from(store.field, store.a)
    got = reconstruct_ratfunc(R, w, a, num_deg, den_deg)
    got2 = reconstruct_ratfunc(R, w.truncate(w.order - 1), a,
                               num_deg, den_deg)
    if got is None or got2 is None or not R.eq(got, got2):
        raise ResourceCapError("logarithmic derivative did not stabilize "
                               "under the degree caps (%d, %d)"
                               % (num_deg, den_deg))
    return HyperexpElement(R, got)


def _pf_over_common(elements):
    """The partial-fraction terms of every v, each decomposed once over
    one field that splits every denominator: (R, [(poly_part, parts)],
    [v])."""
    k = reduce(join, (el.R.const for el in elements))
    for el in elements:
        k, _roots = split_univariate(k, [k.coerce_from(el.R.const, c)
                                         for c in el.R.denom_coeffs(el.v)])
    R = RatFuncField(k)
    data, vs = [], []
    for el in elements:
        v = R.coerce_from(el.R, el.v)
        big, poly_part, parts = R.apart(v)
        if big.const != k:
            raise DgalError("splitting field failed to stabilize")
        _check_recombines(R, v, poly_part, parts)
        data.append((poly_part, parts))
        vs.append(v)
    return R, data, vs


def _check_recombines(R, v, poly_part, parts):
    k = R.const
    acc = R.from_coeffs(poly_part or [k.zero])
    for pole, coeffs in parts:
        lin = R.from_coeffs([k.neg(pole), k.one])
        for j, c in enumerate(coeffs):
            acc = R.add(acc, R.div(R.from_const(c), R.pow(lin, j + 1)))
    if not R.eq(acc, v):
        raise DgalError("partial-fraction terms do not recombine to v")


def _coords(k, c):
    return k.to_rational_vector(c)


def _admissible_lattice(k, data, l):
    """Basis of the integer vectors m for which sum m_j v_j is the
    logarithmic derivative of a rational function: the combination must
    have zero polynomial part, only simple poles, and integer residues.
    Returns (basis, poles, residues): row i of ``residues`` holds the
    rational residue of each v_j at poles[i].
    """
    poles = []
    for _qc, parts in data:
        for pole, _coeffs in parts:
            if not any(k.eq(pole, p) for p in poles):
                poles.append(pole)
    deg = k.degree()
    eq_rows = []
    # polynomial parts cancel, coordinate by coordinate
    maxpoly = max((len(qc) for qc, _ in data), default=0)
    for d in range(maxpoly):
        for s in range(deg):
            row = []
            for qc, _parts in data:
                c = qc[d] if d < len(qc) else k.zero
                row.append(_coords(k, c)[s] if not k.is_zero(c) else ZERO)
            if any(row):
                eq_rows.append(row)
    # higher-order pole parts cancel
    for p in poles:
        orders = []
        for _qc, parts in data:
            got = next((cs for pole, cs in parts if k.eq(pole, p)), [])
            orders.append(got)
        maxord = max((len(cs) for cs in orders), default=0)
        for o in range(1, maxord):
            for s in range(deg):
                row = [_coords(k, cs[o])[s] if o < len(cs) else ZERO
                       for cs in orders]
                if any(row):
                    eq_rows.append(row)
    # residues: rational for each element (supported class), integral
    # for the combination
    res_rows = []
    for p in poles:
        row = []
        for _qc, parts in data:
            got = next((cs for pole, cs in parts if k.eq(pole, p)), [])
            r = got[0] if got else k.zero
            vec = _coords(k, r)
            if any(vec[1:]):
                raise UnsupportedInstanceError(
                    "residue %s is not rational; outside the supported "
                    "class" % k.format(r))
            row.append(vec[0])
        res_rows.append(row)
    E = lattice.rational_kernel_lattice(eq_rows, l) if eq_rows else \
        [[1 if i == j else 0 for j in range(l)] for i in range(l)]
    if not E:
        return [], poles, res_rows
    cong = [[sum(r * e[j] for j, r in enumerate(row)) for e in E]
            for row in res_rows]
    X = lattice.congruence_lattice(cong, len(E)) if cong else \
        [[1 if i == j else 0 for j in range(len(E))] for i in range(len(E))]
    out = [[sum(x_i * E[i][j] for i, x_i in enumerate(x)) for j in range(l)]
           for x in X]
    return lattice.hnf_basis(out), poles, res_rows


def _integrate_cofactor(R, poles, residues, w):
    """The rational f with f'/f = sum w_j v_j, given that the combination
    is admissible; f = prod (t - p)^r over the poles p and the residues
    r of the combination, read off the residue rows of
    ``_admissible_lattice``."""
    k = R.const
    f = R.one
    for p, row in zip(poles, residues):
        r = sum(wj * x for wj, x in zip(w, row))
        if r.denominator != 1:
            raise DgalError("admissible combination has non-integer "
                            "residue %s" % r)
        if r:
            f = R.mul(f, R.pow(R.from_coeffs([k.neg(p), k.one]), int(r)))
    return f


def _verify_logderiv(R, f, vbig, w):
    combo = R.zero
    for wj, v in zip(w, vbig):
        combo = R.add(combo, R.scale(v, R.const.from_int(wj)))
    lhs = R.zero if R.is_one(f) else R.div(R.diff(f), f)
    if not R.eq(lhs, combo):
        raise DgalError("cofactor fails the logarithmic derivative "
                        "identity")


def relation_lattice(elements):
    """The relation lattice L of the hyperexponential elements h_j given
    by their logarithmic derivatives v_j: every integer m with
    sum m_j v_j = f'/f for a rational f, that is, with prod h_j^{m_j}
    in k(t).  That holds exactly when the combination has no polynomial
    part, only simple poles and integer residues (Kolchin--Ostrowski:
    these relations generate all algebraic ones).

    Returns ``RelationLattice(R, basis, cofactors)``.  ``basis`` is the
    HNF basis of L itself, not of its saturation, so the torsion of
    Z^l / L stays; each vector's pivot is its last nonzero entry, and it
    is positive.  The cofactor f of each basis vector m is checked
    against the exact identity f'/f = sum m_j v_j.
    """
    R, data, vs = _pf_over_common(elements)
    k = R.const
    basis, poles, residues = _admissible_lattice(k, data, len(elements))
    cofactors = []
    for m in basis:
        f = _integrate_cofactor(R, poles, residues, m)
        _verify_logderiv(R, f, vs, m)
        cofactors.append(f)
    return RelationLattice(R, basis, cofactors)
