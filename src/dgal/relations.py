"""Degree-bounded polynomial relations among the entries of a truncated
fundamental matrix.

The search is a linear solve: an ansatz polynomial sum_m c_m(u) X^m,
u = t - a, with coefficients of degree <= 2l in u, is evaluated on the
series of the fundamental matrix, and each series order contributes one
linear constraint on the unknown coefficients.  The columns are ordered
by (monomial, u-power), and the kernel is closed under multiplication by
u within the cap: row k of u*v is row k-1 of v (it is the solution
module of a Hermite-Pade problem; Beckermann and Labahn 1994).  So the
kernel is read off only at its shift generators (``_shift_generators``),
kernel vectors whose u-shifts within the cap lead on each free column
once and so span it; rewritten with rational-function coefficients and
row-reduced, they give the relation basis, which u-multiples would not
change.

The solve builds its rows and eliminates modulo a word-size prime, adds
rows one order at a time, and ends at the first kernel it can certify
exactly (``_RelationSolve``, ``certify``): the closure under d/dt along
X' = A X of the k(t)-span of the kernel's relations vanishes at t = a,
X = I, so by Cauchy uniqueness every relation in it vanishes at the
fundamental matrix.  ``find_relations`` runs the solve once for both the
truncation order and the kernel.  The kernel vectors are kept as
``{column: value}`` of their nonzero entries, and both the read-off
(``_kernel_to_polys``) and the row reduction to the canonical basis
(``_row_reduce_polys``, through the sparse ``linalg.RrefAccumulator``)
touch only those entries of the shift generators.

``_relations_at_product`` rewrites each basis relation as P(X*Y) once
for both of its readers: the stabilizer (``groups``) groups it by
x-monomial, and the transport search of ``second_point_check`` groups
it by y-monomial and evaluates each x-polynomial with the
``MonomialSeries`` store at the second point.
"""

from functools import cached_property
from math import isqrt

from . import linalg, upoly
from .errors import InputError, ResourceCapError
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
    """Basis of the degree-<= d relations found at truncation order N;
    rigorous when the basis is certified (``certify``)."""

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
    (monomial, t-power).  The monomial series come from one store, over k
    or GF(p) (``field``), that each row extends by a coefficient."""

    def __init__(self, sys, a, d, ell, field=None):
        self.R = sys.R
        self.ell = ell
        self.series = MonomialSeries(sys, a, d, field)
        self.field = self.series.field
        self.monos = self.series.monos
        self.ncols = len(self.monos) * (2 * ell + 1)

    def row(self, order_k):
        """Constraint from the coefficient of u^order_k."""
        vecs = self.series.extend(order_k)
        blank = [self.field.zero] * len(self.monos)
        lagged = [vecs[order_k - i] if i <= order_k else blank
                  for i in range(2 * self.ell + 1)]
        return [v[mi] for mi in range(len(self.monos)) for v in lagged]


# the solve refuses beyond this truncation order
MAX_ORDER = 500


class _RelationSolve:
    """The incremental solve that order_bound and relation_ideal share:
    one ansatz builder and one accumulator, whose rows are added once.

    Rows are built and eliminated over GF(p), p = 2^61 - 1, the shift
    generators of the kernel (``_shift_generators``) are lifted by
    rational reconstruction, and their canonical basis is certified
    exactly (``certify``).  Their u-shifts within the cap are cols - r
    independent kernel vectors mod p, r the rank mod p; once the lifted
    generators are exact relations, so is each shift, so the shifts span
    the whole exact kernel (whose dimension is at most cols - r) and the
    generators its k(t)-span.  A certified kernel is the exact kernel of
    every truncation, so no row beyond it is needed.  An uncertified lift
    is checked exactly against every row added, built over k for it
    (``_check_exactly``).  The solve reruns from the start over the exact
    constant field, reading the same generators off its own accumulator,
    when that field is a number field, a denominator is 0 mod p, the
    exact check fails, a kernel has no lift (at an explicit order, or
    while the rank holds; ``certified``), or no kernel is certified below
    MAX_ORDER; ``exact_reason`` then says which."""

    def __init__(self, sys, a, d, ell):
        self.sys = sys
        self.a = a
        self.args = (sys, a, d, ell)
        self.ring = PolyRing(sys.R, matrix_var_names(sys.n),
                             graded_lex_order(sys.n * sys.n))
        self.exact_reason = None
        self.N = None
        self.basis = None
        self.rigorous = None

    @cached_property
    def exact(self):
        """The ansatz over k, built when an exact row is first needed."""
        return _AnsatzBuilder(*self.args)

    def _solve(self, run):
        """run() adds rows and returns (N, basis, rigorous)."""
        if self.sys.R.const.degree() != 1:
            self.exact_reason = "the constant field is a number field"
        while True:
            self.modular = self.exact_reason is None
            self.nrows = 0
            try:
                self.builder = (_AnsatzBuilder(*self.args, linalg.PrimeField())
                                if self.modular else self.exact)
                self.acc = linalg.RrefAccumulator(self.builder.field,
                                                  self.builder.ncols)
                self.N, self.basis, self.rigorous = run()
            except linalg.NotCertified as why:
                self.exact_reason = str(why)
                continue
            return self.N

    def _add_row(self):
        """Add the next row; returns True if the rank grew."""
        row = self.builder.row(self.nrows)
        self.nrows += 1
        return self.acc.add_row(row)

    def _kernel(self):
        """The shift generators of the kernel of the rows so far, as
        ``{column: value}`` over k: lifted from GF(p) to k = QQ by
        rational reconstruction when modular (None when an entry has no
        lift)."""
        free = _shift_generators(self.acc, 2 * self.builder.ell + 1)
        return (linalg.lift_kernel(self.acc, free) if self.modular
                else self.acc.kernel_vectors(free))

    def _basis(self, kernel):
        """The canonical basis of the kernel's relations, and whether it
        is certified."""
        polys = _kernel_to_polys(self.builder, kernel, self.ring, self.a)
        basis = _row_reduce_polys(self.ring, polys)
        return basis, certify(self.sys, basis, self.a)

    def _check_exactly(self, kernel):
        """Lifted shift generators that the certificate did not prove must
        vanish exactly on every row added, or p was unlucky
        (NotCertified).  Generators that pass span the exact kernel of
        those rows: a shift vanishes on every row its unshifted vector
        does, and the shifts are cols - r independent vectors."""
        if self.modular:
            rows = (self.exact.row(i) for i in range(self.nrows))
            if not linalg.kernel_vanishes(rows, kernel):
                raise linalg.NotCertified("the exact check failed")

    def explicit(self, N):
        """Rows 0..N+1; the basis is rigorous when it is certified."""
        def run():
            while self.nrows <= N + 1:
                self._add_row()
            kernel = self._kernel()
            if kernel is None:
                raise linalg.NotCertified("rational reconstruction failed")
            basis, rigorous = self._basis(kernel)
            if not rigorous:
                self._check_exactly(kernel)
            return N, basis, rigorous
        return self._solve(run)

    def certified(self):
        """Rows one order at a time until the kernel is certified.

        A kernel is tried once, at the first row that leaves its rank
        unchanged, or when the rank reaches the column count.  A kernel
        without a certificate needs more rows.  So does one without a
        lift, until the rank has held for as many rows as it took to
        reach it: the kernel mod p cannot change while the rank holds, so
        its entries are then taken to be too large for p.  The kernel of
        a certified try is the kernel of the rows through the last row
        that raised the rank, N+1; N is never below 0."""
        def run():
            tried = None
            lifted = True
            last_raise = 0
            while self.nrows <= MAX_ORDER + 1:
                if self._add_row():
                    last_raise = self.nrows - 1
                    if self.acc.rank < self.builder.ncols:
                        continue
                if self.acc.rank == tried:
                    if not lifted and self.nrows >= 2 * (last_raise + 1):
                        raise linalg.NotCertified(
                            "rational reconstruction failed")
                    continue
                tried = self.acc.rank
                kernel = self._kernel()
                lifted = kernel is not None
                if not lifted:
                    continue
                basis, rigorous = self._basis(kernel)
                if rigorous:
                    return max(last_raise - 1, 0), basis, True
                self._check_exactly(kernel)
            if self.modular:
                raise linalg.NotCertified(
                    "no kernel mod p was certified below order %d"
                    % MAX_ORDER)
            raise ResourceCapError("no relation basis was certified below "
                                   "truncation order %d" % MAX_ORDER)
        return self._solve(run)


def order_bound(sys, a, d, ell, order=None, solver=None):
    """Truncation order N of the relation solve, and whether its
    relation basis is certified: (N, rigorous).

    order None adds rows one order at a time until the kernel is
    certified (``certify``), and N is the order that kernel needs:
    rows 0..N+1 have it.  An explicit order N solves rows 0..N+1, and
    rigorous says whether their kernel is certified.  A certified kernel
    is the exact kernel of every truncation and the whole space of
    relations under the caps (d, ell).  A ``solver`` shared with
    relation_ideal hands its basis on."""
    if solver is None:
        solver = _RelationSolve(sys, a, d, ell)
    if order is None:
        return solver.certified(), True
    solver.explicit(order)
    return order, solver.rigorous


def relation_ideal(sys, a, d, ell, N, solver=None):
    """Relations of total degree <= d with polynomial coefficients of
    t-degree <= 2*ell, valid through truncation order N+1; rigorous when
    certified.  A ``solver`` shared with order_bound hands on the basis
    it found for N."""
    if solver is None:
        solver = _RelationSolve(sys, a, d, ell)
    if solver.N != N:
        solver.explicit(N)
    return RelationIdeal(solver.ring, solver.basis, d=d, a=a, ell=ell,
                         order_used=N, rigorous=solver.rigorous)


def find_relations(sys, a, d, ell, order=None):
    """The relation ideal at an explicit truncation order (default: that
    of the first certified kernel), with one solve shared by order_bound
    and relation_ideal.  Caps that mean nothing raise InputError."""
    if d < 1:
        raise InputError("relation degree must be >= 1, got %d" % d)
    if ell < 0:
        raise InputError("coefficient degree must be >= 0, got %d" % ell)
    if order is not None and order < 0:
        raise InputError("truncation order must be >= 0, got %d" % order)
    solver = _RelationSolve(sys, a, d, ell)
    N, _rigorous = order_bound(sys, a, d, ell, order, solver=solver)
    return relation_ideal(sys, a, d, ell, N, solver=solver)


# -- the certificate ----------------------------------------------------

def certify(sys, basis, a):
    """True when every relation in the k(t)-span W of ``basis`` (a reduced
    row echelon basis, as _row_reduce_polys returns it) vanishes at the
    fundamental matrix F with F(a) = I.

    W is first closed under the derivation of P(F) along X' = A X
    (``_derivative``): the closure W' keeps the degree of W and holds
    only relations exactly when W does, since the derivative of a
    relation is one.  Then a basis C of W' that is regular at a with
    k-independent values there (``_local_basis``) must vanish at t = a,
    X = I: (C_i(F))' = M (C_i(F)) with M regular at a, and a solution
    that is 0 at a is 0 (Cauchy uniqueness, the zero test for D-finite
    functions; Stanley 1980; van der Put and Singer 2003, ch. 1).  An
    element of W' regular at a with a nonzero value there ends the check
    early."""
    if not basis:
        return True
    ring = basis[0].ring
    R, n = sys.R, sys.n
    identity = [R.one if p // n == p % n else R.zero for p in range(n * n)]

    def refuted(P):
        return (all(R.is_regular_at(c, a) for c in P.terms.values())
                and not R.const.is_zero(R.eval_at(P.eval_consts(identity),
                                                  a)))

    # the closure as a reduced echelon form {lead: tail}, leads monic
    rows = {}
    for P in basis:
        lead, _one = P.leading()
        rows[lead] = {e: c for e, c in P.terms.items() if e != lead}
    todo = list(basis)
    while todo:
        D = _derivative(sys, todo.pop())
        for lead, tail in rows.items():
            c = D.pop(lead, None)
            if c is not None:
                linalg.sub_multiples(R, D, [(c, tail)])
        if not D:
            continue
        lead = max(D, key=ring.order.key)
        inv = R.inv(D.pop(lead))
        tail = {e: R.mul(c, inv) for e, c in D.items()}
        for other in rows.values():
            c = other.pop(lead, None)
            if c is not None:
                linalg.sub_multiples(R, other, [(c, tail)])
        rows[lead] = tail
        P = ring.from_dict({lead: R.one, **tail})
        if refuted(P):
            return False
        todo.append(P)
    closure = [ring.from_dict({lead: R.one, **tail})
               for lead, tail in rows.items()]
    return not any(refuted(C) for C in _local_basis(closure, a))


def _derivative(sys, P):
    """The polynomial whose value at F is P(F)', as ``{monomial:
    coefficient}``: d(c X^m) = c' X^m + c (X^m)' with X' = A X."""
    R, n, A = sys.R, sys.n, sys.A
    out = {}

    def add(e, c):
        s = R.add(out[e], c) if e in out else c
        if R.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s

    for m, c in P.terms.items():
        add(m, R.diff(c))
        for p, e in enumerate(m):
            if not e:
                continue
            i, j = divmod(p, n)
            ce = R.scale(c, R.const.from_int(e))
            for l in range(n):
                if not R.is_zero(A[i][l]):
                    tgt = list(m)
                    tgt[p] -= 1
                    tgt[l * n + j] += 1
                    add(tuple(tgt), R.mul(ce, A[i][l]))
    return out


def _local_basis(basis, a):
    """A basis of the k(t)-span of the independent ``basis`` that is
    regular at t = a, with k-independent values there.

    A reduced echelon basis without a pole at a is one.  Otherwise each
    element is scaled by the power of t - a that clears its poles, and
    while the values at a are dependent, an element of the dependency is
    replaced by the combination divided by t - a; each step lowers the
    order at a of the basis' maximal minors, so the loop ends."""
    ring = basis[0].ring
    R = ring.field
    k = R.const
    if all(R.is_regular_at(c, a) for P in basis for c in P.terms.values()):
        return basis
    u = R.from_coeffs([k.neg(a), k.one])
    rows = [P.scale(R.pow(u, max(_pole_order(R, c, a)
                                 for c in P.terms.values())))
            for P in basis]
    while True:
        monos = sorted({e for P in rows for e in P.terms})
        values = [[R.eval_at(P.terms[e], a) if e in P.terms else k.zero
                   for e in monos] for P in rows]
        deps = linalg.nullspace(k, linalg.transpose(values))
        if not deps:
            return rows
        lam = deps[0]
        j = next(i for i, x in enumerate(lam) if not k.is_zero(x))
        comb = ring.zero
        for x, P in zip(lam, rows):
            if not k.is_zero(x):
                comb = comb + P.scale(R.from_const(x))
        rows[j] = comb.scale(R.inv(u))


def _pole_order(R, c, a):
    """The order of the pole of c at t = a (0 where c is regular)."""
    k = R.const
    den = upoly.shift(k, R.denom_coeffs(c), a)
    return next(i for i, x in enumerate(den) if not k.is_zero(x))


def _shift_generators(acc, width):
    """The free columns of ``acc``, an accumulator over ansatz columns
    (monomial, u-power) with ``width`` = 2l + 1 u-powers, whose kernel
    vectors generate the kernel under multiplication by u within the cap.

    The kernel vector v_f of a free column f = (m, i) leads on f: its
    other entries are at pivot columns below f.  Its degree is the
    largest u-power in its support, so u^s v_f stays in the cap for
    s <= 2l - deg v_f and then leads on (m, i + s), again a free column,
    for the leading column of a kernel vector is free.  The walk keeps
    v_f unless a kept v_(m, i0) of the same monomial reaches f, that is
    i <= i0 + 2l - deg v_(m, i0); so each free column leads exactly one
    shift of a kept vector, and the shifts are cols - rank independent
    kernel vectors."""
    degree = acc.kernel_support_max(lambda j: j % width)
    keep, reach = [], {}
    for fc, deg in degree.items():
        mi, i = divmod(fc, width)
        if i > reach.get(mi, -1):
            keep.append(fc)
            reach[mi] = i + width - 1 - deg
    return keep


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
