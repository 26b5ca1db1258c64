"""Hyperexponential elements and their multiplicative relation lattice.

A hyperexponential element h is known here only through its logarithmic
derivative v = h'/h, a rational function over (an extension of) the
constant field.  ``logderiv_from_character`` recovers v from the series
of a character value chi(F), read off the monomial-series store of the
fundamental matrix F; ``relation_lattice`` finds all multiplicative
relations h_j^{m_j} = f_j * prod h_{eta_i}^{m_{i,j}} with rational
cofactors f_j.
"""

from functools import reduce
from math import gcd

from . import lattice, linalg
from .errors import DgalError, ResourceCapError, UnsupportedInstanceError
from .fields import ConstField, join
from .rational import ONE, ZERO
from .ratfunc import RatFuncField, _series_div
from .series import Series, reconstruct_ratfunc


class HyperexpElement:
    """A hyperexponential element, represented by its logarithmic
    derivative v and the exact partial-fraction data of v."""

    def __init__(self, R, v):
        big, poly_part, parts = R.partial_fractions(v)
        self.R = big
        self.v = big.coerce_from(R, v)
        self.poly_part = poly_part
        self.parts = parts
        self._check_recombines()

    def _check_recombines(self):
        R, k = self.R, self.R.const
        acc = R.from_coeffs(self.poly_part or [k.zero])
        for pole, coeffs in self.parts:
            lin = R.from_coeffs([k.neg(pole), k.one])
            for j, c in enumerate(coeffs):
                acc = R.add(acc, R.div(R.from_const(c), R.pow(lin, j + 1)))
        if not R.eq(acc, self.v):
            raise DgalError("partial fractions do not recombine to v")

    def __repr__(self):
        return "HyperexpElement(v=%s)" % self.R.format(self.v)


class Relation:
    """h_j^m = f * prod_i h_{eta_i}^{exponents[i]}, recorded by index."""

    def __init__(self, j, m, exponents, f, R):
        self.j = j
        self.m = m
        self.exponents = dict(exponents)  # eta index -> integer exponent
        self.f = f
        self.R = R

    def __repr__(self):
        rhs = " * ".join(["f"] + ["h%d^%d" % (i, e)
                                  for i, e in sorted(self.exponents.items())])
        return "Relation(h%d^%d = %s, f=%s)" % (
            self.j, self.m, rhs, self.R.format(self.f))


class RelationLattice:
    """Independent index set eta, the relations tying every other index
    to it, and the self relations h_j^m = f for eta indices whose h is
    itself rational."""

    def __init__(self, R, eta, relations, self_relations, admissible):
        self.R = R
        self.eta = list(eta)
        self.relations = list(relations)
        self.self_relations = list(self_relations)
        self.admissible = [list(r) for r in admissible]


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


def _common_field(elements):
    """One RatFuncField containing every element's v."""
    k = reduce(join, (el.R.const for el in elements))
    R = RatFuncField(k)
    return R, [R.coerce_from(el.R, el.v) for el in elements]


def _pf_over_common(R, vs):
    """Partial fractions of every v over one splitting field big enough
    for all of them: (Rbig, [(poly_part, parts)], vbig)."""
    Rcur = R
    for v in vs:
        Rcur, _qc, _parts = Rcur.partial_fractions(Rcur.coerce_from(R, v))
    data = []
    vbig = []
    for v in vs:
        vb = Rcur.coerce_from(R, v)
        Rchk, qc, parts = Rcur.partial_fractions(vb)
        if Rchk.const != Rcur.const:
            raise DgalError("splitting field failed to stabilize")
        data.append((qc, parts))
        vbig.append(vb)
    return Rcur, data, vbig


def _coords(k, c):
    return k.to_rational_vector(c)


def _admissible_lattice(k, data, l):
    """Basis of the integer vectors m for which sum m_j v_j is the
    logarithmic derivative of a rational function: the combination must
    have zero polynomial part, only simple poles, and integer residues.
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
        return []
    cong = [[sum(r * e[j] for j, r in enumerate(row)) for e in E]
            for row in res_rows]
    X = lattice.congruence_lattice(cong, len(E)) if cong else \
        [[1 if i == j else 0 for j in range(len(E))] for i in range(len(E))]
    out = [[sum(x_i * E[i][j] for i, x_i in enumerate(x)) for j in range(l)]
           for x in X]
    return lattice.hnf_basis(out)


def _support_sublattice(admissible, support, l):
    eqs = [[ONE if i == j else ZERO for j in range(l)]
           for i in range(l) if i not in support]
    return lattice.intersect_with_kernel(admissible, eqs)


def _vector_with_min_coord(basis, j):
    """An integer combination of basis rows whose j-th entry is the gcd
    of the basis' j-th entries (positive); None if that gcd is zero."""
    g = 0
    for b in basis:
        g = gcd(g, b[j])
    if g == 0:
        return None, 0
    # accumulate with the extended euclidean algorithm over the rows
    cur = None
    for b in basis:
        if b[j] == 0:
            continue
        if cur is None:
            cur = list(b)
            continue
        a, bb = cur[j], b[j]
        # x*a + y*b == gcd(a, b)
        x0, x1, y0, y1 = 1, 0, 0, 1
        aa, bbb = abs(a), abs(bb)
        while bbb:
            q = aa // bbb
            aa, bbb = bbb, aa - q * bbb
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        x = x0 * (1 if a > 0 else -1)
        y = y0 * (1 if bb > 0 else -1)
        cur = [x * u + y * w for u, w in zip(cur, b)]
    if cur[j] < 0:
        cur = [-x for x in cur]
    assert cur[j] == g
    return cur, g


def _combo_pf(k, data, w):
    """Partial-fraction data of sum w_j v_j: (poles, residues)."""
    poles = []
    res = []
    for wj, (_qc, parts) in zip(w, data):
        if wj == 0:
            continue
        for pole, cs in parts:
            r = k.mul(k.from_int(wj), cs[0])
            hit = next((i for i, p in enumerate(poles) if k.eq(p, pole)), None)
            if hit is None:
                poles.append(pole)
                res.append(r)
            else:
                res[hit] = k.add(res[hit], r)
    return poles, res


def _integrate_cofactor(R, k, data, w):
    """The rational f with f'/f = sum w_j v_j, given that the combination
    is admissible; f = prod (t - p)^r over the integer residues r."""
    poles, res = _combo_pf(k, data, w)
    f = R.one
    for p, r in zip(poles, res):
        vec = _coords(k, r)
        if any(vec[1:]) or vec[0].denominator != 1:
            raise DgalError("admissible combination has non-integer "
                            "residue %s" % k.format(r))
        f = R.mul(f, R.pow(R.from_coeffs([k.neg(p), k.one]),
                           int(vec[0])))
    return f


def _verify_logderiv(R, f, vbig, w):
    combo = R.zero
    for wj, v in zip(w, vbig):
        combo = R.add(combo, R.scale(v, R.const.from_int(wj)))
    lhs = R.zero if R.is_one(f) else R.div(R.diff(f), f)
    if not R.eq(lhs, combo):
        raise DgalError("cofactor fails the logarithmic derivative "
                        "identity")


def _flat_coords(k, data_entry, poles, maxpoly, maxords):
    """One rational coordinate vector describing a v (for Q-span tests)."""
    qc, parts = data_entry
    deg = k.degree()
    out = []
    for d in range(maxpoly):
        c = qc[d] if d < len(qc) else k.zero
        out.extend(_coords(k, c) if not k.is_zero(c) else [ZERO] * deg)
    for p, mo in zip(poles, maxords):
        cs = next((cs for pole, cs in parts if k.eq(pole, p)), [])
        for o in range(mo):
            c = cs[o] if o < len(cs) else k.zero
            out.extend(_coords(k, c) if not k.is_zero(c)
                       else [ZERO] * deg)
    return out


def relation_lattice(elements):
    """All multiplicative relations among hyperexponential elements given
    by their logarithmic derivatives.

    eta collects the indices whose v is Q-linearly independent of the
    earlier eta members (those h are algebraically independent over the
    constants); every other index j gets a relation h_j^{m_j} =
    f_j * prod h_{eta_i}^{m_{i,j}} with minimal m_j > 0, f_j rational.
    eta indices whose h is itself rational (m v_j admissible alone) get
    a separate self relation h_j^m = f.  Every emitted relation is
    verified against the exact logarithmic derivative identity.
    """
    l = len(elements)
    R0, vs = _common_field(elements)
    R, data, vbig = _pf_over_common(R0, vs)
    k = R.const
    admissible = _admissible_lattice(k, data, l)
    poles = []
    for _qc, parts in data:
        for pole, _cs in parts:
            if not any(k.eq(pole, p) for p in poles):
                poles.append(pole)
    maxpoly = max((len(qc) for qc, _ in data), default=0)
    maxords = [max((len(cs) for _qc, parts in data
                    for pole, cs in parts if k.eq(pole, p)), default=0)
               for p in poles]
    flat = [_flat_coords(k, d, poles, maxpoly, maxords) for d in data]
    K0 = ConstField()
    eta = []
    relations = []
    self_relations = []
    for j in range(l):
        # is v_j in the Q-span of the eta logarithmic derivatives?
        rows = [[K0.from_fraction(flat[i][s]) for i in eta]
                for s in range(len(flat[j]))]
        b = [K0.from_fraction(c) for c in flat[j]]
        x = linalg.solve(K0, rows, b) if eta else (
            [] if not any(flat[j]) else None)
        if x is None:
            eta.append(j)
            basis = _support_sublattice(admissible, {j}, l)
            w, g = _vector_with_min_coord(basis, j) if basis else (None, 0)
            if w is not None:
                f = _integrate_cofactor(R, k, data, w)
                _verify_logderiv(R, f, vbig, w)
                self_relations.append(Relation(j, g, {}, f, R))
            continue
        basis = _support_sublattice(admissible, set(eta) | {j}, l)
        w, g = _vector_with_min_coord(basis, j) if basis else (None, 0)
        if w is None:
            raise DgalError("dependent index %d admits no integer "
                            "relation; admissibility lattice is "
                            "inconsistent" % j)
        # prefer the exact Q-dependence if it matches the minimal
        # exponent; then f = 1
        dep = [ZERO] * l
        dep[j] = ONE
        for i, xi in zip(eta, x):
            dep[i] = -K0.to_rational_vector(xi)[0]
        den = 1
        for c in dep:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in dep]
        gg = 0
        for c in ints:
            gg = gcd(gg, c)
        ints = [c // gg for c in ints] if gg else ints
        if ints[j] < 0:
            ints = [-c for c in ints]
        if ints[j] == g:
            w = ints
        f = _integrate_cofactor(R, k, data, w)
        _verify_logderiv(R, f, vbig, w)
        relations.append(Relation(
            j, w[j], {i: -w[i] for i in eta if w[i] != 0}, f, R))
    # eta really is independent: no admissible vector lives on it alone
    # beyond the recorded self relations, and those do not tie distinct
    # eta indices together
    return RelationLattice(R, eta, relations, self_relations, admissible)

