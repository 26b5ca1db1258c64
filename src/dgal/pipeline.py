"""End-to-end computation of the differential Galois group.

The stages compose as: relation ideal -> stabilizer (the proto-group H)
-> identity component H deg -> characters and their hyperexponential
relation lattice -> identity component of the Galois group -> finite
part over the conjugates of gamma.  Every stage works from one
fundamental matrix F_bar, expanded at the one point a of PipelineConfig:
the relations and the character values are read off
``systems.MonomialSeries`` stores at a, and the membership of F_bar in
the identity component off the relation basis.  When H is finite, its
exponent M, the least M with X^M = I modulo H's ideal, is read off H's
reduced Groebner basis, and no point of H is computed.  F_bar is read
off its expansion as sum_{k<M} C_k(t) gamma^k with gamma^M = t/a (one
Hermite-Pade solve per entry; the gamma^k are binomial series),
certified exactly in k(t) by the system itself, and the finite part is
read off the C_k at a, one point per power of a root of unity.  Every
completed run carries a sandwich
certificate: the kernel of the characters of H's identity component is
contained in the computed identity component, which is contained in H
(checked by Groebner reduction).

The degree bound that makes the whole computation unconditional is
astronomically large by construction; a run takes a relation degree
instead, and its results are relative to that degree.
"""

from . import linalg, upoly
from .errors import DgalError, InputError, UnsupportedInstanceError
from .fields import join, roots_of_unity
from .groups import (_coerce_poly, characters_generators, identity_component,
                     kernel_of_characters, stabilizer_group,
                     verify_group_axioms)
from .hyperexp import logderiv_from_character, relation_lattice
from .multipoly import normal_form
from .relations import find_relations, group_ring, in_span
from .series import Series, rational_reconstruction
from .systems import MonomialSeries


class PipelineConfig:
    """Settings of a pipeline run.

    degree caps the total degree of the relations; a is the one
    expansion point (None means t = 1); ell caps the t-degree of the
    relation coefficients; order None adds series orders until the
    relation basis is certified, and an explicit order N solves at order
    N, certified or not.
    """

    def __init__(self, degree, a=None, ell=2, order=None):
        if degree < 1:
            raise InputError("relation degree must be >= 1, got %d" % degree)
        self.degree = degree
        self.a = a
        self.ell = ell
        self.order = order


class AlphaData:
    """F_bar = sum_{k<M} C_k(t) gamma^k with gamma^M = t/a and gamma(a) =
    1, certified by find_alpha_fbar at coefficient degree D: C is the list
    of the n x n matrices C_k over R."""

    def __init__(self, R, a, M, D, C):
        self.R = R
        self.a = a
        self.M = M
        self.D = D
        self.C = C

    def describe(self):
        return "F_bar = sum_k C_k(t) gamma^k, gamma^M = t/a, M = %d, D = %d" \
            % (self.M, self.D)


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

    A relation basis that holds a nonzero constant is refused: a
    constant cannot vanish at the fundamental matrix, so the explicit
    order was too low.
    """
    a = sys.R.const.one if cfg.a is None else cfg.a
    rel = find_relations(sys, a, cfg.degree, cfg.ell, cfg.order)
    if any(P.constant_value() is not None for P in rel.basis):
        raise UnsupportedInstanceError(
            "the relations found at truncation order %d include a nonzero "
            "constant, which cannot vanish at the fundamental matrix; that "
            "order is too low" % rel.order_used)
    H = stabilizer_group(rel)
    verify_group_axioms(H, rel)
    return H, rel


# -- alpha and F_bar ----------------------------------------------------

def _exponent(H):
    """The exponent M of a finite H: the least M such that every entry
    of X^M - I reduces to 0 modulo H's reduced Groebner basis, with the
    powers of X built by multiplying and normal-forming.

    H is zero-dimensional, so each variable x_p has a pure power
    x_p^(d_p) among the leading monomials; the staircase lies in the box
    of the d_p, which bounds |H|, and so the exponent, by prod d_p.  Past
    that cap H is not a finite group (one of its points is not
    invertible, or its ideal is not reduced), and the run refuses."""
    n, ring = H.n, H.ring
    gb = H.groebner_basis()
    leads = [g.leading()[0] for g in gb]
    cap = 1
    for p in range(n * n):
        cap *= min((e[p] for e in leads if 0 < e[p] == sum(e)), default=0)
    X = [[ring.gen(i * n + j) for j in range(n)] for i in range(n)]
    ident = [[ring.one if i == j else ring.zero for j in range(n)]
             for i in range(n)]
    power = [[normal_form(x, gb) for x in row] for row in X]
    for M in range(1, cap + 1):
        if power == ident:
            return M
        power = [[normal_form(sum((P * Xl[j] for P, Xl in zip(row, X)),
                                  ring.zero), gb)
                  for j in range(n)] for row in power]
    raise UnsupportedInstanceError(
        "finite part: X^M - I is outside the proto-group's ideal for every "
        "M <= %d, the bound on its order from its staircase; the "
        "proto-group is not a finite group" % cap)


def find_alpha_fbar(sys, rel, H):
    """F_bar = sum_{k<M} C_k(t) gamma^k with gamma^M = t/a, M the exponent
    of the finite proto-group H and gamma(a) = 1, certified exactly.

    Each nonzero entry f of F_bar is read off its series by Hermite-Pade,
    q f = sum_k p_k gamma^k with deg p_k, deg q <= D, raising D from 0 to
    the relations' t-degree cap 2 ell.  The first D whose C_k = p_k/q
    pass C_k' + k/(M t) C_k = A C_k for every k, and sum_k C_k(a) = I,
    is taken: sum_k C_k gamma^k then solves the system with value I at
    a, so it is F_bar, whatever the truncation order."""
    R = sys.R
    a = rel.a
    M = _exponent(H)
    Fbar = None
    for D in range(2 * rel.ell + 1):
        # as many series rows as unknowns + 2
        N = M * (D + 1) + D + 2
        if Fbar is None or Fbar.order < N - 1:
            Fbar = sys.fundamental_series(a, N - 1)
            basis = [g.coeffs for g in _gamma_powers(R, M, a, N - 1)]
        C = _kummer_coefficients(R, Fbar, basis, D)
        if C is not None and _kummer_certified(sys, C, a):
            return AlphaData(R, a, M, D, C)
    raise UnsupportedInstanceError(
        "F_bar is not in k(t)(gamma), gamma^%d = t/a, at coefficient "
        "degree <= %d" % (M, 2 * rel.ell))


def _gamma_powers(R, M, a, order):
    """The series at a of gamma^k for k < M, where gamma^M = t/a and
    gamma(a) = 1: gamma^k = (1 + u/a)^(k/M) has the binomial
    coefficients c_0 = 1, c_(j+1) = c_j (k/M - j)/((j + 1) a), so no
    field and no series product is needed."""
    k = R.const
    powers = [Series.constant(k, k.one, order)]
    if M > 1:
        if k.is_zero(a):
            raise UnsupportedInstanceError(
                "gamma^%d = t/a has no expansion at the branch point a = 0"
                % M)
        inv_a = k.inv(a)
        for e in range(1, M):
            exponent = k.div(k.from_int(e), k.from_int(M))
            c = [k.one]
            for j in range(order):
                step = k.div(k.sub(exponent, k.from_int(j)), k.from_int(j + 1))
                c.append(k.mul(c[-1], k.mul(step, inv_a)))
            powers.append(Series(k, c))
    return powers


def _kummer_coefficients(R, Fbar, basis, D):
    """The candidate C_k over R from the series of F_bar and of the
    gamma^k (basis, coefficient lists as long as F_bar's), each nonzero
    entry by one Hermite-Pade solve at degree D; None when one has no
    solution."""
    k = R.const
    n = Fbar.n
    back = k.neg(Fbar.a)
    C = [linalg.zeros(R, n, n) for _ in basis]
    for i in range(n):
        for j in range(n):
            f = Fbar.entry(i, j).coeffs
            if all(k.is_zero(c) for c in f):
                continue
            got = rational_reconstruction(k, f, D, D, basis)
            if got is None:
                return None
            nums, den = got
            den = upoly.shift(k, den, back)
            for Ck, num in zip(C, nums):
                Ck[i][j] = R.from_coeffs(upoly.shift(k, num, back), den)
    return C


def _kummer_certified(sys, C, a):
    """True when C_k' + k/(M t) C_k = A C_k for every k, exactly in k(t),
    and sum_k C_k(a) = I."""
    R = sys.R
    k = R.const
    n = sys.n
    M = len(C)
    at_a = linalg.zeros(k, n, n)
    for e, Ck in enumerate(C):
        twist = R.div(R.from_int(e), R.scale(R.t, k.from_int(M)))
        ACk = linalg.matmul(R, sys.A, Ck)
        for i in range(n):
            for j in range(n):
                lhs = R.add(R.diff(Ck[i][j]), R.mul(twist, Ck[i][j]))
                if not R.eq(lhs, ACk[i][j]):
                    return False
                at_a[i][j] = k.add(at_a[i][j], R.eval_at(Ck[i][j], a))
    return _mat_eq(k, at_a, linalg.identity(k, n))


def _fbar_in_component(sys, rel, H, chars):
    """The monomial-series store of F_bar at a, of the characters' largest
    degree, once F_bar is checked to lie in H's identity component; only
    alpha = I is supported there.

    The caller has checked that H and its identity component have one
    ideal, so F_bar lies in the component when H's generators vanish at
    it.  Those generators come from the stabilizer's pieces, so each
    has constant coefficients and degree <= d (the component's own
    generators may not: a diagonal-binomial component's binomials come
    from a lattice basis and can be of higher degree).  Such a g with
    g(F_bar) = 0 is a vector of the relation solve's kernel, which the
    relation basis spans over k(t); if g lies in that span and the basis
    is certified, g(F_bar) = 0.  So g is reduced by the basis, and no
    series is evaluated.  The claim is exact when the basis is
    certified; under an explicit order whose basis is not, it is only as
    good as the truncated kernel."""
    ring = rel.ring
    R = ring.field
    if not all(R.is_zero(P.at_identity()) for P in rel.basis):
        raise UnsupportedInstanceError(
            "substitution of a nontrivial algebraic alpha into an infinite "
            "component ideal is outside the supported class")
    gens = [ring.from_dict({e: R.from_const(c) for e, c in g.terms.items()})
            for g in H.generators]
    if not in_span(rel.basis, gens):
        raise UnsupportedInstanceError(
            "membership of F_bar in the identity component could not be "
            "certified at this order")
    return MonomialSeries(sys, rel.a,
                          max(ch.poly.total_degree() for ch in chars))


# -- identity component of the Galois group -----------------------------

def character_binomials(chars, rl, ring):
    """Group equations from the relation lattice L: chi^m is a rational
    function at F_bar for each m in L's basis, so chi^(m+) = chi^(m-)
    on the Galois group, m+ and m- the positive and negative parts."""
    xs = [_coerce_poly(ring, ch.ring, ch.poly) for ch in chars]
    gens = []
    for m in rl.basis:
        pos, neg = ring.one, ring.one
        for x, e in zip(xs, m):
            if e > 0:
                pos = pos * x ** e
            elif e < 0:
                neg = neg * x ** -e
        gens.append(pos - neg)
    return gens


# -- finite part --------------------------------------------------------

def finite_part(alpha, H):
    """The finite Galois group, one point per conjugate tau of gamma.

    Precondition: H's identity component is {I}, and find_alpha_fbar has
    certified F_bar = sum_k C_k gamma^k.  A conjugate tau(gamma) = z gamma
    with z^M = 1 sends F_bar to F_bar g with g = tau(F_bar)(a) =
    sum_k z^k C_k(a).  The z are the powers of one root of a cyclotomic
    factor of x^M - 1 (``fields.roots_of_unity``), so neither x^M - 1
    nor any point equation is solved.  Each point is checked to satisfy
    H's equations (G <= H), those of the reduced Groebner basis that
    ``_exponent`` cached: it cuts out the same group as H's generators
    and is shorter.  Returns (field, points)."""
    R, M = alpha.R, alpha.M
    kf = R.const
    n = len(alpha.C[0])
    fld, roots = roots_of_unity(kf, M)
    roots.sort(key=lambda r: (not fld.is_one(r), fld.format(r)))
    at_a = [[[fld.coerce_from(kf, R.eval_at(x, alpha.a)) for x in row]
             for row in Ck] for Ck in alpha.C]
    pts = []
    for z in roots:
        m = linalg.zeros(fld, n, n)
        zk = fld.one
        for Ck in at_a:
            m = linalg.mat_add(fld, m, linalg.mat_scale(fld, Ck, zk))
            zk = fld.mul(zk, z)
        if not any(_mat_eq(fld, m, q) for q in pts):
            pts.append(m)
    if not _mat_eq(fld, pts[0], linalg.identity(fld, n)):
        raise DgalError("identity matrix missing from the tau = id part")
    _finite_closure_check(fld, pts)
    ring = group_ring(n, fld)
    gens = _basis_in(ring, H)
    for m in pts:
        vals = [x for row in m for x in row]
        if not all(fld.is_zero(g.eval_consts(vals)) for g in gens):
            raise DgalError("a point of the finite part fails an equation "
                            "of the proto-group")
    return fld, pts


def _finite_closure_check(fld, pts):
    """The points read off the conjugates of gamma form a group: their
    set is closed under product, and under inverse, which is read off
    the same products: p has its inverse among the points when I is
    among the products p q.  Each matrix is looked up by its tuple of
    entries, which are canonical in a ConstField."""
    members = {_entries(p) for p in pts}
    ident = _entries(linalg.identity(fld, len(pts[0])))
    for p in pts:
        products = {_entries(linalg.matmul(fld, p, q)) for q in pts}
        if not products <= members:
            raise DgalError("finite part not closed under product")
        if ident not in products:
            raise DgalError("finite part not closed under inverse")


def _entries(m):
    return tuple(x for row in m for x in row)


def _mat_eq(fld, a, b):
    return all(fld.eq(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# -- sandwich certificate and dimension ---------------------------------

def sandwich_check(H, Hcirc, chars, Gcirc):
    """Certify kernel-of-characters(H deg) <= computed component <= H by
    ideal containment: each element of the component's reduced Groebner
    basis reduces to zero modulo the kernel's, and, unless the component
    is H itself, each element of H's reduced basis reduces to zero
    modulo the component's.

    The three bases are the ones the kernel, the component and H cache
    (``groebner_basis``), coerced into the join of the three fields: a
    reduced Groebner basis over k is the reduced basis of the same ideal
    over any extension of k, in the same monomial order.  H's basis
    generates the same ideal as its generators, with fewer elements."""
    Ht = kernel_of_characters(Hcirc, chars)
    big = Ht.ring.field
    big = join(big, Gcirc.ring.field)
    big = join(big, H.ring.field)
    ring = group_ring(H.n, big)
    gb_ht = _basis_in(ring, Ht)
    gb_gc = _basis_in(ring, Gcirc)
    if not all(normal_form(g, gb_ht).is_zero() for g in gb_gc):
        return False
    return Gcirc is H or all(normal_form(g, gb_gc).is_zero()
                             for g in _basis_in(ring, H))


def _basis_in(ring, G):
    """G's cached reduced Groebner basis, coerced into ``ring``, whose
    field contains G's."""
    gb = G.groebner_basis()
    if G.ring == ring:
        return gb
    return [_coerce_poly(ring, G.ring, g) for g in gb]


def _dimension_estimate(comp):
    """Dimension of a certified identity component, as identity_component
    recorded it with the component's class; None when unknown."""
    return comp.component_class[1] if comp.component_class else None


def _same_ideal(G1, G2):
    if G1 is G2:
        return True
    ring = group_ring(G1.n, join(G1.ring.field, G2.ring.field))
    return _basis_in(ring, G1) == _basis_in(ring, G2)


# -- the full pipeline --------------------------------------------------

def galois_group(sys, cfg):
    """Compose all stages and return a GaloisGroupDescription.

    Paths: finite proto-group -> enumerate the finite part over the
    conjugates of gamma; connected proto-group with trivial character
    lattice -> the group is the proto-group; connected proto-group with
    characters -> constrain the component by the hyperexponential
    relation lattice (the group equals the proto-group when nothing
    shrinks).  Everything else refuses loudly; after an explicit order
    whose relation basis is not certified, the refusal says so."""
    H, rel = proto_galois(sys, cfg)
    try:
        return _group_of(sys, cfg, H, rel)
    except UnsupportedInstanceError as err:
        if rel.rigorous:
            raise
        raise UnsupportedInstanceError(
            "%s; the relation basis at order %d is not certified"
            % (err, rel.order_used)) from None


def _group_of(sys, cfg, H, rel):
    """galois_group's stages after the proto-group."""
    n = sys.n
    Hcirc = identity_component(H)
    point = sys.R.const.format(rel.a)
    provenance = {
        "point_a": point,
        "degree": rel.d,
        "order_used": rel.order_used,
    }
    chars = []
    if Hcirc.component_class == ("finite", 0):
        alpha = find_alpha_fbar(sys, rel, H)
        fld, pts = finite_part(alpha, H)
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
        if not chars:
            provenance["alpha"] = "not needed (trivial character lattice)"
        else:
            # u'/u of u = chi(F_bar) loses one order to d/dt and must
            # still fix a numerator and a denominator of degree ell each
            order = max(rel.order_used + 2, 4 * cfg.ell + 3)
            store = _fbar_in_component(sys, rel, H, chars)
            elements = [logderiv_from_character(ch, store, order, cfg.ell,
                                                cfg.ell) for ch in chars]
            rl = relation_lattice(elements)
            provenance["alpha"] = "alpha = I"
            provenance["hyperexp_relations"] = len(rl.basis)
            # H deg's ideal is certified prime, so the binomials of L cut
            # it properly exactly when one is outside that ideal
            ring = group_ring(n, join(Hcirc.ring.field, chars[0].ring.field))
            gb = _basis_in(ring, Hcirc)
            if any(normal_form(b, gb)
                   for b in character_binomials(chars, rl, ring)):
                raise UnsupportedInstanceError(
                    "the character relations cut the component properly; "
                    "the finite part over a positive dimensional component "
                    "is outside the supported class")
        # the logarithmic derivatives of the characters rest on
        # truncations
        desc = GaloisGroupDescription(
            n, H, rel, Hcirc, False, None, None, 1,
            _dimension_estimate(Hcirc), rel.rigorous and not chars,
            provenance)
    if not sandwich_check(H, Hcirc, chars, desc.identity_component):
        raise DgalError("sandwich certificate failed: the computed "
                        "component is not between the character kernel "
                        "and the proto-group")
    desc.sandwich_checked = True
    return desc
