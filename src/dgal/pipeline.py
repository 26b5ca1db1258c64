"""End-to-end computation of the differential Galois group.

The stages compose as: relation ideal -> stabilizer (the proto-group H)
-> identity component H deg -> characters and their hyperexponential
relation lattice -> identity component of the Galois group -> finite
part over the conjugates of the algebraic data.  Every stage works from
one fundamental matrix, expanded at the one point a of PipelineConfig:
the relations, the algebraic point alpha and the logarithmic
derivatives of the characters read that expansion, and the finite part
is read off alpha.  Every
completed run carries a sandwich certificate: the kernel of the
characters of H's identity component is contained in the computed
identity component, which is contained in H (checked by Groebner
reduction).

The degree bound that makes the whole computation unconditional is
astronomically large by construction; it is only ever reported
symbolically, and executable runs take a user-supplied degree override
(results are then labeled relative to that degree).
"""

from math import isqrt, lcm

from . import linalg
from .errors import DgalError, InputError, UnsupportedInstanceError
from .fields import join, split_univariate
from .groups import (AlgebraicSubgroup, _coerce_poly, _mat_eq,
                     characters_generators, group_points_finite, group_ring,
                     identity_component, kernel_of_characters,
                     stabilizer_group, verify_group_axioms)
from .hyperexp import logderiv_from_character, relation_lattice
from .multipoly import PolyRing, groebner, normal_form
from .rational import Rational
from .relations import find_relations, membership_test
from .series import Series, TruncSeries, algebraic_series
from .solve import PositiveDimensionalError


class PipelineConfig:
    """Settings of a pipeline run.

    degree None means the symbolic-bound mode: the run refuses with the
    rendered bound tower instead of executing.  a is the one expansion
    point (None means t = 1); ell caps the t-degree of the relation
    coefficients; order_strategy None uses the heuristic default window
    (the result is then flagged non-rigorous).
    """

    def __init__(self, degree=None, a=None, ell=2, order_strategy=None):
        if degree is not None and degree < 1:
            raise InputError("relation degree must be >= 1, got %d" % degree)
        self.degree = degree
        self.a = a
        self.ell = ell
        self.order_strategy = order_strategy


class AlphaData:
    """The algebraic change of basis alpha = alphabar * gbar, and the
    fundamental matrix F_bar at the expansion point a, over the field
    that alpha needs."""

    def __init__(self, kind, field, M, exps, consts, gbar, Fbar):
        self.kind = kind          # "identity" or "radical"
        self.field = field        # constant field of the series data
        self.M = M                # gamma^M = t (M = 1 means gamma in k)
        self.exps = exps          # alpha = diag(consts_i gamma^exps[i]) gbar
        self.consts = consts      # constant factors s_i over field
        self.gbar = gbar          # constant matrix over field
        self.Fbar = Fbar          # TruncSeries at a over field

    def describe(self):
        if self.kind == "identity":
            return "alpha = I"
        return "alpha = diag(s * gamma^%s) * gbar with gamma^%d = t, s = %s" \
            % (list(self.exps), self.M,
               [self.field.format(s) for s in self.consts])


class GaloisGroupDescription:
    """The computed group: its identity component's ideal, the finite
    part when the group is finite, and the provenance of the run."""

    def __init__(self, n, proto, rel, identity_comp, finite, points_field,
                 points, component_count, dimension, rigorous, provenance):
        self.n = n
        self.proto = proto
        self.rel = rel
        self.identity_component = identity_comp
        self.finite = finite
        self.points_field = points_field
        self.points = points
        self.component_count = component_count
        self.dimension = dimension
        self.rigorous = rigorous
        self.provenance = provenance
        self.sandwich_checked = False

    @property
    def order(self):
        return len(self.points) if self.finite else None

    def to_document(self):
        comp = self.identity_component
        lines = ["n: %d" % self.n,
                 "finite: %s" % ("yes" if self.finite else "no"),
                 "dimension: %s" % ("unknown" if self.dimension is None
                                    else self.dimension)]
        if self.component_count is not None:
            lines.append("components: %d" % self.component_count)
        if self.finite:
            lines.append("order: %d" % len(self.points))
            fld = self.points_field
            for m in self.points:
                lines.append("point: [%s]" % "; ".join(
                    ", ".join(fld.format(x) for x in row) for row in m))
        for g in comp.generators:
            lines.append("component_generator: %s" % comp.ring.format(g))
        for g in self.proto.generators:
            lines.append("proto_generator: %s" % self.proto.ring.format(g))
        lines.append("rigorous: %s" % ("yes" if self.rigorous else "no"))
        lines.append("sandwich_checked: %s" %
                     ("yes" if self.sandwich_checked else "no"))
        for key, val in sorted(self.provenance.items()):
            lines.append("%s: %s" % (key, val))
        return "\n".join(lines) + "\n"


def proto_galois(sys, cfg):
    """Relation ideal, then its stabilizer with verified group axioms.

    In symbolic-bound mode (no degree override) the run refuses: the
    unconditional degree bound is not executable at desk scale, and the
    error carries its expression tree and rendering.
    """
    if cfg.degree is None:
        from .bounds import proto_galois_degree_bound, render
        expr = proto_galois_degree_bound(sys.n)
        err = UnsupportedInstanceError(
            "the unconditional relation degree bound is not executable at "
            "desk scale; pass an explicit degree override. Symbolic value: "
            + render(expr))
        err.bound_expr = expr
        raise err
    a = sys.R.const.one if cfg.a is None else cfg.a
    rel = find_relations(sys, a, cfg.degree, cfg.ell, cfg.order_strategy)
    H = stabilizer_group(rel)
    verify_group_axioms(H, rel)
    return H, rel


# -- alpha and F_bar ----------------------------------------------------

def _vanishes_at_identity(rel):
    """True when every relation, as a rational function of t, is zero at
    the identity matrix."""
    R = rel.ring.field
    vals = [R.one if p // _n(rel) == p % _n(rel) else R.zero
            for p in range(rel.ring.nvars)]
    return all(R.is_zero(P.eval_consts(vals)) for P in rel.basis)


def _n(rel):
    return isqrt(rel.ring.nvars)


def _integer_nthroot(n, m):
    """(r, exact) with r = floor(n^(1/m)) for an int n >= 0, exact when
    r^m = n: Newton's iteration from a power of two above the root,
    which decreases to the floor."""
    if n < 2 or m == 1:
        return n, True
    r = 1 << -(-n.bit_length() // m)
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r, r ** m == n
        r = s


def _fraction_nth_root(fr, m):
    """Exact m-th root of a rational (Rational or Fraction), or None (also
    for 0: a constant factor of alpha must be invertible)."""
    if fr < 0:
        if m % 2 == 0:
            return None
        neg = _fraction_nth_root(-fr, m)
        return None if neg is None else -neg
    rp, p_exact = _integer_nthroot(fr.numerator, m)
    rq, q_exact = _integer_nthroot(fr.denominator, m)
    return Rational(rp, rq) if rp and p_exact and q_exact else None


def _radical_exponents(rel):
    """Read one relation x_ii^m = c * t^j per diagonal entry.

    Returns (M, exps, consts) for alpha = diag(s_i * gamma^exps[i]),
    gamma^M = t, or raises when the basis holds no such relation for
    some diagonal entry.  consts[i] is s_i when c has a rational m-th
    root, else None: then s_i = gamma(a)^(-exps[i]) in gamma's field, since
    F_bar(a) = I forces c = a^(-j)."""
    ring = rel.ring
    R = ring.field
    n = _n(rel)
    found = {}
    for P in rel.basis:
        terms = list(P.terms.items())
        if len(terms) != 2:
            continue
        terms.sort(key=lambda item: sum(item[0]), reverse=True)
        (e1, f1), (e0, f0) = terms
        if sum(e0) != 0:
            continue
        diag_pos = [i * n + i for i in range(n)]
        live = [p for p in range(n * n) if e1[p]]
        if len(live) != 1 or live[0] not in diag_pos:
            continue
        i = live[0] // n
        m = e1[live[0]]
        r = R.div(R.neg(f0), f1)  # x_ii^m = r(t)
        den = R.denom_coeffs(r)
        num = R.numer_coeffs(r)
        if len(den) != 1:
            continue
        if any(not R.const.is_zero(c) for c in num[:-1]):
            continue
        cconst = R.const.div(num[-1], den[0])
        if R.const.is_one(cconst):
            s = R.const.one
        else:
            vec = R.const.to_rational_vector(cconst)
            root = None if any(vec[1:]) else _fraction_nth_root(vec[0], m)
            s = None if root is None else R.const.from_fraction(root)
        j = len(num) - 1
        if i not in found or m < found[i][0]:
            found[i] = (m, j, s)
    if len(found) != n:
        raise UnsupportedInstanceError(
            "no zero of the relation ideal in the supported diagonal "
            "radical class (missing a relation x_ii^m = t^j for some i)")
    M = lcm(*(m for m, _j, _s in found.values()))
    exps = [M * found[i][1] // found[i][0] for i in range(n)]
    consts = [found[i][2] for i in range(n)]
    return M, exps, consts


def find_alpha_fbar(sys, rel, H, Hcirc, order):
    """The algebraic point alpha of the relation variety and the
    fundamental matrix F_bar at the relations' point a, with
    alpha^{-1} F_bar verified (in series through the truncation order)
    to lie in H's identity component; the component witness gbar is
    folded into alpha."""
    n = sys.n
    R = sys.R
    Fbar = sys.fundamental_series(rel.a, order)
    kf = R.const
    if not rel.basis or _vanishes_at_identity(rel):
        kind, M, exps = "identity", 1, [0] * n
        consts = [kf.one] * n
        C = Fbar
    else:
        kind = "radical"
        M, exps, consts = _radical_exponents(rel)
        qcoeffs = [R.neg(R.t)] + [R.zero] * (M - 1) + [R.one]
        kf, gser, root = algebraic_series(R, qcoeffs, rel.a, order)
        consts = [kf.pow(root, -e) if s is None else kf.coerce_from(R.const, s)
                  for s, e in zip(consts, exps)]
        ring = rel.ring
        if kf != R.const:
            ring = PolyRing(R.over(kf), ring.names, ring.order)
            Fbar = Fbar.coerce_to(kf)
        # verify every relation vanishes at alpha
        zero = Series.constant(kf, kf.zero, order)
        gpow = {e: gser ** e for e in set(exps)}
        alpha_entries = [[gpow[exps[i]].scale(consts[i]) if i == j else zero
                          for j in range(n)] for i in range(n)]
        Aser = TruncSeries.from_entries(kf, Fbar.a, alpha_entries)
        for P in rel.basis:
            if not membership_test(_coerce_poly(ring, rel.ring, P), Aser,
                                   order):
                raise UnsupportedInstanceError(
                    "candidate alpha fails a relation: %s; the algebraic "
                    "point is outside the supported diagonal radical class"
                    % rel.ring.format(P))
        ginv = gser.inverse()
        ginv_pow = {e: ginv ** e for e in set(exps)}
        C_entries = [[(Fbar.entry(i, j) * ginv_pow[exps[i]]).scale(
                          kf.inv(consts[i]))
                      for j in range(n)] for i in range(n)]
        C = TruncSeries.from_entries(kf, Fbar.a, C_entries)
    gbar = linalg.identity(kf, n)
    if not _component_membership(Hcirc, C, order):
        kf, gbar = _component_witness(H, Hcirc, C, order)
        Fbar = Fbar.coerce_to(kf)
        consts = [kf.coerce_from(C.field, s) for s in consts]
    return AlphaData(kind, kf, M, exps, consts, gbar, Fbar)


def _component_membership(Hcirc, C, order):
    return all(membership_test(g, C, order) for g in Hcirc.generators)


def _component_witness(H, Hcirc, C, order):
    """Find a constant gbar in H placing gbar^{-1} C in the identity
    component; only enumerable (finite) H is supported."""
    if H.points is None:
        try:
            group_points_finite(H)
        except (DgalError, PositiveDimensionalError) as err:
            raise UnsupportedInstanceError(
                "component witness search needs an enumerable group: %s"
                % err) from err
    big = join(C.field, H.points_field)
    Cb = C.coerce_to(big)
    for p in H.points:
        g = [[big.coerce_from(H.points_field, x) for x in row] for row in p]
        ginv = linalg.inverse(big, g)
        Cg = TruncSeries(big, Cb.a,
                         [linalg.matmul(big, ginv, m) for m in Cb.mats])
        if _component_membership(Hcirc, Cg, order):
            return big, g
    raise DgalError("membership of alpha^{-1} F_bar in the identity "
                    "component could not be certified at this order")


# -- identity component of the Galois group -----------------------------

def character_binomials(chars, rl, ring):
    """Group equations from the hyperexponential relation lattice: each
    relation h_j^m = f * prod h_i^{e_i} forces chi_j^m = prod chi_i^{e_i}
    on the Galois group, and each self relation forces chi_j^m = 1."""
    gens = []

    def chi(i):
        return _coerce_poly(ring, chars[i].ring, chars[i].poly)

    for r in rl.relations:
        lhs = chi(r.j) ** r.m
        rhs = ring.one
        for i, e in sorted(r.exponents.items()):
            if e > 0:
                rhs = rhs * chi(i) ** e
            elif e < 0:
                lhs = lhs * chi(i) ** (-e)
        gens.append(lhs - rhs)
    for r in rl.self_relations:
        gens.append(chi(r.j) ** r.m - ring.one)
    return gens


def build_J_barH(alpha, Hcirc, chars, rl):
    """The constrained component: H's identity component intersected
    with the character binomials of the relation lattice, then its own
    identity component (the Galois group's identity component).  Only
    alpha = I is supported: a nontrivial alpha would be substituted into
    the component's ideal."""
    if alpha.kind != "identity":
        raise UnsupportedInstanceError(
            "substitution of a nontrivial algebraic alpha into an infinite "
            "component ideal is outside the supported class")
    n = Hcirc.n
    big = Hcirc.ring.field
    if chars:
        big = join(big, chars[0].ring.field)
    ring = group_ring(n, big)
    gens = [_coerce_poly(ring, Hcirc.ring, g) for g in Hcirc.generators]
    binoms = character_binomials(chars, rl, ring) if chars else []
    if not binoms:
        return Hcirc
    return identity_component(AlgebraicSubgroup(n, ring, gens + binoms))


# -- finite part --------------------------------------------------------

def finite_part(alpha):
    """The finite Galois group, one point per conjugate tau of gamma.

    Precondition: H's identity component is {I}, and find_alpha_fbar has
    checked C = diag(s_i^{-1} gamma^{-e_i}) F_bar = gbar through the
    truncation order.  A conjugate tau(gamma) = z gamma with z^M = 1 then
    gives the point gbar^{-1} diag(z^e_1, ..., z^e_n) gbar, read off over
    the splitting field of x^M - 1 without a polynomial solve.  Returns
    (field, points)."""
    kf = alpha.field
    M = alpha.M
    n = len(alpha.gbar)
    if M == 1:
        fld, roots = kf, [kf.one]
    else:
        fld, rts = split_univariate(
            kf, [kf.neg(kf.one)] + [kf.zero] * (M - 1) + [kf.one])
        roots = []
        for r, mult in rts:
            roots.extend([r] * mult)
        if len(roots) != M:
            raise UnsupportedInstanceError(
                "could not split the conjugate set of gamma")
        roots.sort(key=lambda r: (not fld.is_one(r), fld.format(r)))
    gbar = [[fld.coerce_from(kf, x) for x in row] for row in alpha.gbar]
    gbar_inv = linalg.inverse(fld, gbar)
    pts = []
    for z in roots:
        zdiag = [[fld.pow(z, alpha.exps[i]) if i == j else fld.zero
                  for j in range(n)] for i in range(n)]
        m = linalg.matmul(fld, gbar_inv, linalg.matmul(fld, zdiag, gbar))
        if not any(_mat_eq(fld, m, q) for q in pts):
            pts.append(m)
    if not _mat_eq(fld, pts[0], linalg.identity(fld, n)):
        raise DgalError("identity matrix missing from the tau = id part")
    _finite_closure_check(fld, pts)
    return fld, pts


def _finite_closure_check(fld, pts):
    """Cross-check on enumerated groups: closure under product and
    inverse (the intersection-of-ideals assembly agrees on these)."""
    for p in pts:
        inv = linalg.inverse(fld, p)
        if not any(_mat_eq(fld, inv, q) for q in pts):
            raise DgalError("finite part not closed under inverse")
        for q in pts:
            pq = linalg.matmul(fld, p, q)
            if not any(_mat_eq(fld, pq, r) for r in pts):
                raise DgalError("finite part not closed under product")


# -- sandwich certificate and dimension ---------------------------------

def sandwich_check(H, Hcirc, chars, Gcirc):
    """Certify kernel-of-characters(H deg) <= computed component <= H by
    ideal containment: each component generator reduces to zero modulo
    the kernel's Groebner basis, and each generator of H reduces to zero
    modulo the component's."""
    Ht = kernel_of_characters(Hcirc, chars)
    big = Ht.ring.field
    big = join(big, Gcirc.ring.field)
    big = join(big, H.ring.field)
    ring = group_ring(H.n, big)
    gb_ht = groebner([_coerce_poly(ring, Ht.ring, g) for g in Ht.generators]) \
        if Ht.generators else []
    gb_gc = groebner([_coerce_poly(ring, Gcirc.ring, g)
                      for g in Gcirc.generators]) if Gcirc.generators else []
    for g in Gcirc.generators:
        gg = _coerce_poly(ring, Gcirc.ring, g)
        if gb_ht and not normal_form(gg, gb_ht).is_zero():
            return False
        if not gb_ht and not gg.is_zero():
            return False
    for g in H.generators:
        gg = _coerce_poly(ring, H.ring, g)
        red = normal_form(gg, gb_gc) if gb_gc else gg
        if not red.is_zero():
            return False
    return True


def _dimension_estimate(comp):
    """Dimension of a certified identity component, as identity_component
    recorded it with the component's class; None when unknown."""
    return comp.component_class[1] if comp.component_class else None


def _same_ideal(G1, G2):
    big = join(G1.ring.field, G2.ring.field)
    ring = group_ring(G1.n, big)

    def basis(G):
        if G.ring == ring:
            return G.groebner_basis()
        return groebner([_coerce_poly(ring, G.ring, g)
                         for g in G.generators]) if G.generators else []
    return sorted(map(ring.format, basis(G1))) == \
        sorted(map(ring.format, basis(G2)))


# -- the full pipeline --------------------------------------------------

def galois_group(sys, cfg):
    """Compose all stages and return a GaloisGroupDescription.

    Paths: finite proto-group -> enumerate the finite part over the
    conjugates of gamma; connected proto-group with trivial character
    lattice -> the group is the proto-group; connected proto-group with
    characters -> constrain the component by the hyperexponential
    relation lattice (the group equals the proto-group when nothing
    shrinks).  Everything else refuses loudly."""
    H, rel = proto_galois(sys, cfg)
    n = sys.n
    order = rel.order_used + 2
    Hcirc = identity_component(H)
    point = sys.R.const.format(rel.a)
    provenance = {
        # the document format has three point lines; all name point a
        "point_a": point,
        "point_b": point,
        "point_c": point,
        "degree": rel.d,
        "order_used": rel.order_used,
    }
    chars = []
    if H.finite:
        alpha = find_alpha_fbar(sys, rel, H, Hcirc, order)
        fld, pts = finite_part(alpha)
        provenance["alpha"] = alpha.describe()
        desc = GaloisGroupDescription(
            n, H, rel, Hcirc, True, fld, pts, len(pts), 0,
            rel.rigorous, provenance)
    else:
        if not _same_ideal(H, Hcirc):
            raise UnsupportedInstanceError(
                "finite part over a positive dimensional component "
                "is outside the supported class")
        chars = characters_generators(Hcirc, rel.d)
        Gcirc = Hcirc
        if not chars:
            provenance["alpha"] = "not needed (trivial character lattice)"
        else:
            # u'/u of u = chi(F_bar) loses one order to d/dt and must
            # still fix a numerator and a denominator of degree ell each
            alpha = find_alpha_fbar(sys, rel, H, Hcirc,
                                    max(order, 4 * cfg.ell + 3))
            S = alpha.Fbar.coerce_to(join(alpha.field, chars[0].ring.field))
            elements = [logderiv_from_character(ch, S, cfg.ell, cfg.ell)
                        for ch in chars]
            rl = relation_lattice(elements)
            Gcirc = build_J_barH(alpha, Hcirc, chars, rl)
            provenance["alpha"] = alpha.describe()
            provenance["hyperexp_relations"] = len(rl.relations) + \
                len(rl.self_relations)
            if not _same_ideal(Gcirc, Hcirc):
                raise UnsupportedInstanceError(
                    "the character relations cut the component properly; "
                    "the finite part over a positive dimensional component "
                    "is outside the supported class")
        desc = GaloisGroupDescription(
            n, H, rel, Gcirc, False, None, None, 1,
            _dimension_estimate(Gcirc), rel.rigorous, provenance)
    if not sandwich_check(H, Hcirc, chars, desc.identity_component):
        raise DgalError("sandwich certificate failed: the computed "
                        "component is not between the character kernel "
                        "and the proto-group")
    desc.sandwich_checked = True
    return desc
