"""Degree-bounded polynomial relations among the entries of a truncated
fundamental matrix.

The search is a linear solve: an ansatz polynomial with t-polynomial
coefficients of degree <= 2l is evaluated on the series of the
fundamental matrix, and each series order contributes one linear
constraint on the unknown coefficients.  The kernel, rewritten with
rational-function coefficients and row-reduced, is the relation basis.

The solve eliminates modulo a word-size prime and certifies the kernel
it finds exactly (``_RelationSolve``); ``find_relations`` runs it once
for both the truncation order and the kernel.  The kernel vectors are
kept as ``{column: value}`` of their nonzero entries, and both the
read-off (``_kernel_to_polys``) and the row reduction to the canonical
basis (``_row_reduce_polys``, through the sparse
``linalg.RrefAccumulator``) touch only those entries.

``_relations_at_product`` rewrites each basis relation as P(X*Y) once
for both of its readers: the stabilizer (``groups``) groups it by
x-monomial, and the transport search of ``second_point_check`` groups
it by y-monomial and evaluates each x-polynomial with the
``MonomialSeries`` store at the second point.
"""

from math import isqrt

from . import linalg, upoly
from .errors import DgalError, InputError, ResourceCapError
from .multipoly import MonomialOrder, PolyRing
from .solve import PositiveDimensionalError, solve_zero_dimensional
from .systems import MonomialSeries


def matrix_var_names(n):
    return ["x_%d_%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]


def graded_lex_order(nvars):
    """The fixed monomial order used for relation bases: total degree
    first, then lex with earlier variables dominating."""
    return MonomialOrder("gradedlex", lambda exp: (sum(exp), exp))


class RelationIdeal:
    """Basis of the degree-<= d relations found at truncation order N."""

    def __init__(self, ring, basis, *, d, a, ell, order_used, rigorous):
        self.ring = ring
        self.basis = basis
        self.d = d
        self.a = a
        self.ell = ell
        self.order_used = order_used
        self.rigorous = rigorous

    def __repr__(self):
        return "RelationIdeal(d=%d, %d relations)" % (self.d, len(self.basis))


class _AnsatzBuilder:
    """Rows of the linear system: one per series order; columns indexed by
    (monomial, t-power).  The monomial series come from one store that
    each row extends by a coefficient."""

    def __init__(self, sys, a, d, ell):
        self.R = sys.R
        self.k = sys.R.const
        self.ell = ell
        self.series = MonomialSeries(sys, a, d)
        self.monos = self.series.monos
        self.ncols = len(self.monos) * (2 * ell + 1)

    def row(self, order_k):
        """Constraint from the coefficient of u^order_k."""
        vecs = self.series.extend(order_k)
        blank = [self.k.zero] * len(self.monos)
        lagged = [vecs[order_k - i] if i <= order_k else blank
                  for i in range(2 * self.ell + 1)]
        return [v[mi] for mi in range(len(self.monos)) for v in lagged]


# the stabilize window refuses beyond this truncation order
MAX_ORDER = 500


def default_window(sys, d):
    return 25 + d * sys.n * sys.n


class _RelationSolve:
    """The incremental solve that order_bound and relation_ideal share:
    one ansatz builder and one accumulator, whose rows are added once.

    Rows are eliminated over GF(p), p = 2^61 - 1, and the kernel is
    certified exactly against every row added (linalg.certified_kernel).
    The solve reruns from the start over the exact constant field when
    that field is a number field, a denominator is 0 mod p, a
    reconstruction fails or the exact check fails; ``exact_reason`` then
    says which."""

    def __init__(self, sys, a, d, ell):
        self.builder = _AnsatzBuilder(sys, a, d, ell)
        self.exact_reason = None
        self.N = None
        self.kernel = None

    def _solve(self, run):
        """run() adds rows and returns N; sets N and the exact kernel."""
        k = self.builder.k
        if k.degree() != 1:
            self.exact_reason = "the constant field is a number field"
        while True:
            modular = self.exact_reason is None
            self.field = linalg.PrimeField() if modular else k
            self.acc = linalg.RrefAccumulator(self.field, self.builder.ncols)
            self.nrows = 0
            try:
                N = run()
                self.kernel = self._lift() if modular \
                    else self.acc.kernel_vectors()
            except linalg.NotCertified as why:
                self.exact_reason = str(why)
                continue
            self.N = N
            return N

    def _add_rows(self, last):
        """Add the rows through index ``last``."""
        b = self.builder
        while self.nrows <= last:
            row = b.row(self.nrows)
            if self.field is not b.k:
                row = self.field.reduce_row(row)
            self.acc.add_row(row)
            self.nrows += 1

    def _lift(self):
        rows = (self.builder.row(i) for i in range(self.nrows))
        k = self.builder.k
        return [{j: k.from_fraction(q) for j, q in enumerate(vec) if q}
                for vec in linalg.certified_kernel(self.acc, rows)]

    def explicit(self, N):
        """Rows 0..N+1."""
        def run():
            self._add_rows(N + 1)
            return N
        return self._solve(run)

    def stabilize(self, w):
        """Smallest M whose rank is unchanged through M..M+w; each row
        added extends the monomial series by one coefficient."""
        def run():
            streak = 0
            M = 0
            last_rank = None
            while True:
                self._add_rows(M + 1)
                if self.acc.rank == last_rank:
                    streak += 1
                    if streak >= w:
                        return M - w
                else:
                    streak = 0
                    last_rank = self.acc.rank
                M += 1
                if M > MAX_ORDER:
                    raise ResourceCapError(
                        "no stable truncation order below %d" % MAX_ORDER)
        return self._solve(run)


def order_bound(sys, a, d, ell, strategy, solver=None):
    """Truncation order for the relation solve.

    strategy: ("explicit", N) -> (N, rigorous=True);
              ("stabilize", w) -> smallest M whose constraint rank is
              unchanged through M..M+w, rigorous=False.
    The row space grows with the order, so kernel stability is exactly
    rank stability.  The window reads ranks over GF(p), p = 2^61 - 1;
    they equal the exact ranks unless p divides a minor met along the
    way.  The kernel that a shared ``solver`` hands on to relation_ideal
    is exact in every case.  The rank did not grow inside the window, so
    the rows through N+1 and all rows added (through N+w+1) have the
    same kernel, and that kernel is checked exactly (_RelationSolve).
    """
    kind = strategy[0]
    if kind == "explicit":
        return strategy[1], True
    if kind != "stabilize":
        raise DgalError("unknown order-bound strategy %r" % (kind,))
    if solver is None:
        solver = _RelationSolve(sys, a, d, ell)
    return solver.stabilize(strategy[1]), False


def relation_ideal(sys, a, d, ell, N, rigorous=False, solver=None):
    """Relations of total degree <= d with polynomial coefficients of
    t-degree <= 2*ell, valid through truncation order N+1.  A ``solver``
    shared with order_bound hands on the kernel it found for N."""
    if solver is None:
        solver = _RelationSolve(sys, a, d, ell)
    if solver.N != N:
        solver.explicit(N)
    R = sys.R
    ring = PolyRing(R, matrix_var_names(sys.n), graded_lex_order(sys.n * sys.n))
    polys = _kernel_to_polys(solver.builder, solver.kernel, ring, a)
    basis = _row_reduce_polys(ring, polys)
    # a nonzero constant never vanishes at F, so the truncation let a
    # false relation through: such a basis is not the relation ideal
    if any(P.constant_value() is not None for P in basis if P.terms):
        rigorous = False
    return RelationIdeal(ring, basis, d=d, a=a, ell=ell, order_used=N,
                         rigorous=rigorous)


def find_relations(sys, a, d, ell, strategy=None):
    """The relation ideal for a truncation-order strategy (default: the
    stabilize window), with one solve shared by order_bound and
    relation_ideal.  Caps that mean nothing raise InputError."""
    if d < 1:
        raise InputError("relation degree must be >= 1, got %d" % d)
    if ell < 0:
        raise InputError("coefficient degree must be >= 0, got %d" % ell)
    if strategy is None:
        strategy = ("stabilize", default_window(sys, d))
    kind, size = strategy
    if kind == "explicit" and size < 0:
        raise InputError("truncation order must be >= 0, got %d" % size)
    if kind == "stabilize" and size < 1:
        raise InputError("stabilization window must be >= 1, got %d" % size)
    solver = _RelationSolve(sys, a, d, ell)
    N, rigorous = order_bound(sys, a, d, ell, strategy, solver=solver)
    return relation_ideal(sys, a, d, ell, N, rigorous=rigorous, solver=solver)


def _kernel_to_polys(builder, kernel, ring, a):
    """One polynomial per kernel vector ``{column: value}``, read off the
    vector's support: column j holds the coefficient of u^(j mod width)
    in the coefficient of monomial j // width, a polynomial in u = t - a
    that is shifted back to t."""
    R = builder.R
    k = R.const
    width = 2 * builder.ell + 1
    out = []
    for vec in kernel:
        ucoeffs = {}
        for j, c in vec.items():
            mi, i = divmod(j, width)
            if mi not in ucoeffs:
                ucoeffs[mi] = [k.zero] * width
            ucoeffs[mi][i] = c
        out.append(ring.from_dict({
            builder.monos[mi]: R.from_coeffs(upoly.shift(k, cs, k.neg(a)))
            for mi, cs in sorted(ucoeffs.items())}))
    return out


def _row_reduce_polys(ring, polys):
    """Canonical basis of the span of ``polys``: the reduced row echelon
    form over the coefficient field, columns ordered by the ring's
    monomial order (largest first), leading coefficients 1, rows by
    descending leading monomial.  Each polynomial enters
    linalg.RrefAccumulator as the sparse row of its terms, so elimination
    touches only nonzero coefficients."""
    cols = sorted({e for p in polys for e in p.terms},
                  key=ring.order.key, reverse=True)
    index = {e: i for i, e in enumerate(cols)}
    acc = linalg.RrefAccumulator(ring.field, len(cols))
    for p in polys:
        acc.add_sparse({index[e]: c for e, c in p.terms.items()})
    return [ring.from_dict({cols[j]: c for j, c in row.items()})
            for row in acc.reduced_rows()]


def _product_substitution(ring_xy, n):
    """Map each x-variable to its entry of the product X*Y inside the
    doubled ring (x block then y block)."""
    values = {}
    for i in range(n):
        for j in range(n):
            acc = ring_xy.zero
            for l in range(n):
                acc = acc + ring_xy.gen(i * n + l) * ring_xy.gen(n * n + l * n + j)
            values[i * n + j] = acc
    return values


def _relations_at_product(rel):
    """Each basis relation P as P(X*Y), in the doubled ring of the x and
    the y variables y_i_j.  Returns (ring_xy, products)."""
    ring = rel.ring
    nsq = ring.nvars
    n = isqrt(nsq)
    hnames = ["y_%d_%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    ring_xy = PolyRing(ring.field, list(ring.names) + hnames, ring.order)
    subst = _product_substitution(ring_xy, n)
    return ring_xy, [ring_xy.from_dict({e + (0,) * nsq: c
                                        for e, c in P.terms.items()})
                     .substitute(subst) for P in rel.basis]


def transport_factor(rel, store, N):
    """An invertible constant matrix h with every basis relation
    vanishing on F*h through u^N, F the fundamental matrix whose
    monomial series ``store`` holds.

    Each relation splits as P(X*Y) = sum_b Q_b(X) Y^b, so P(F*h) =
    sum_b Q_b(F) h^b; the coefficient of u^i gives one equation on h per
    relation and order.  When the zeros form a positive-dimensional set,
    its witness variable is pinned to 1 and the system solved again, at
    most n^2 + 1 solves in all.  Returns (field, h), or None."""
    k = store.field
    nsq = rel.ring.nvars
    n = isqrt(nsq)
    ring_xy, products = _relations_at_product(rel)
    ring_h = PolyRing(k, ring_xy.names[nsq:], graded_lex_order(nsq))
    eqs = []
    for PXY in products:
        by_y = {}
        for e, c in PXY.terms.items():
            by_y.setdefault(e[nsq:], {})[e[:nsq]] = c
        values = [(ye, store.series_of(rel.ring.from_dict(q), N).coeffs)
                  for ye, q in by_y.items()]
        for i in range(N + 1):
            terms = {ye: s[i] for ye, s in values if not k.is_zero(s[i])}
            if terms:
                eqs.append(ring_h.from_dict(terms))
    for _ in range(nsq + 1):
        try:
            fld, pts = solve_zero_dimensional(eqs)
        except PositiveDimensionalError as err:
            if err.witness not in ring_h.names:
                return None
            pin = ring_h.gen(ring_h.names.index(err.witness))
            eqs.append(pin - ring_h.one)
            continue
        for coords, _mult in pts:
            h = [[coords[i * n + j] for j in range(n)] for i in range(n)]
            if not fld.is_zero(linalg.det(fld, h)):
                return fld, h
        return None
    return None


def second_point_check(sys, rel, b, margin=10):
    """Soundness of a relation ideal against the series at another
    regular point: either the relations vanish there directly, or a
    constant invertible transport factor h with P(G_b h) = 0 exists.

    Returns (ok, how) with how in {"empty", "direct", "transport"}."""
    if not rel.basis:
        return True, "empty"
    N = rel.order_used + margin
    store = MonomialSeries(sys, b, rel.d)
    if all(store.series_of(P, N).is_zero() for P in rel.basis):
        return True, "direct"
    if transport_factor(rel, store, N) is not None:
        return True, "transport"
    return False, "none"
