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

The solve builds its rows and eliminates modulo a word-size prime (a
prime below 2^30 first, then 2^61 - 1; ``linalg.PRIMES``), adds rows one
order at a time, and ends at the first kernel it can certify exactly
(``_RelationSolve``, ``certify``): the closure under d/dt along
X' = A X of the k(t)-span of the kernel's relations vanishes at t = a,
X = I, so by Cauchy uniqueness every relation in it vanishes at the
fundamental matrix.  ``find_relations`` runs the solve once for both the
truncation order and the kernel.  The kernel vectors are kept as
``{column: value}`` of their nonzero entries, and both the read-off
(``_kernel_to_polys``) and the row reduction to the canonical basis
touch only those entries of the shift generators.  That reduction, the
closure of ``certify``, the membership test ``in_span`` and the
remainders that ``hyperexp.logderiv_from_character`` reads each run on
a ``linalg.RrefAccumulator`` whose columns are monomials in descending
order (``_Echelon``), so a pivot is a leading monomial; the solve's
certificate goes on closing the echelon that reduced its basis.

The generator theorem: when the span W is closed under multiplication
by each x_v within degree d, the relations G of the basis whose lead is
not x_v times another lead (``_ideal_generators``) give W = span(G) +
sum_v x_v*W_{<d}.  So d/dt maps W into W exactly when it maps G there,
for D(x_v*Q) = D(x_v)*Q + x_v*D(Q) with D(x_v) linear, and the certificate
differentiates G alone unless some D(G) leaves W.  The solve computes G
once per basis and hands it on the ``RelationIdeal``, whose stabilizer
(``groups``) reads the action residuals of G alone.

P(X*Y) has one evaluator, ``_ProductPowers``: it expands each (X*Y)^m
over the integers once and reads P(X*Y) = sum_m c_m (X*Y)^m off the
expansions as ``{(x-exponent, y-exponent): coefficient}``, so a
coefficient of P is only scaled by an integer.  ``_relations_at_product``
applies it to the polynomials its reader passes.  The stabilizer
(``groups``) passes G and groups each image by x-monomial.  The transport
search of ``second_point_check`` passes the whole basis, groups each
image by y-monomial and evaluates each x-polynomial with the
``MonomialSeries`` store at the second point.  The character check of
``groups`` reads the same expansions.
"""

from functools import cached_property
from math import isqrt

from . import linalg, upoly
from .errors import InputError, ResourceCapError
from .multipoly import GRADED_LEX, PolyRing, linear_derivation, monomials_upto
from .solve import PositiveDimensionalError, solve_zero_dimensional
from .systems import MonomialSeries


def matrix_var_names(n):
    return ["x_%d_%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]


def group_ring(n, field):
    """The polynomials over ``field`` in the entries x_i_j of an n x n
    matrix, graded lex: the ring of the relations and of the groups."""
    return PolyRing(field, matrix_var_names(n), GRADED_LEX)


class RelationIdeal:
    """Certified basis (``certify``) of the degree-<= d relations, read
    off the ansatz at truncation order N, and ``generators``, the basis
    relations that generate its ideal (``_ideal_generators``), the list
    that the certificate read."""

    def __init__(self, ring, basis, *, d, a, ell, order_used, generators):
        self.ring = ring
        self.basis = basis
        self.d = d
        self.a = a
        self.ell = ell
        self.order_used = order_used
        self.generators = generators

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
        self.width = 2 * ell + 1
        self.ncols = len(self.monos) * self.width

    def row(self, order_k):
        """Constraint from the coefficient of u^order_k, as a dense list
        read off the series store: column (monomial, i) holds the
        monomial's coefficient of u^(order_k - i), one slice per i."""
        vecs, width = self.series.extend(order_k), self.width
        out = [self.field.zero] * self.ncols
        for i in range(min(order_k + 1, width)):
            out[i::width] = vecs[order_k - i]
        return out


# the solve refuses beyond this truncation order
MAX_ORDER = 500


class _RelationSolve:
    """The incremental solve that order_bound and relation_ideal share:
    one ansatz builder and one accumulator, whose rows are added once.

    Rows are built and eliminated over GF(p), the shift generators of the
    kernel (``_shift_generators``) are lifted by rational reconstruction,
    and their canonical basis is certified exactly (``certify``).  Their
    u-shifts within the cap are cols - r independent kernel vectors mod
    p, r the rank mod p; once the lifted generators are exact relations,
    so is each shift, so the shifts span the whole exact kernel (whose
    dimension is at most cols - r) and the generators its k(t)-span.  A
    certified kernel is the exact kernel of every truncation, so no row
    beyond it is needed.  An uncertified lift is checked exactly against
    every row added, built over k for it (``_check_exactly``).  The pass
    mod p fails (NotCertified) when a denominator is 0 mod p, the exact
    check fails, a kernel has no lift while the rank holds, or no kernel
    is certified below MAX_ORDER.  The primes are tried in the order of
    the ladder linalg.PRIMES: the first keeps every element to one
    CPython digit, and the next, 2^61 - 1, lifts entries it cannot.
    When the last fails, or the constant field is a number field, the
    solve reruns from the start over the exact constant field, reading
    the same generators off its own accumulator; ``exact_reason`` then
    says why (the last pass's reason)."""

    def __init__(self, sys, a, d, ell):
        self.sys = sys
        self.a = a
        self.d = d
        self.args = (sys, a, d, ell)
        self.ring = group_ring(sys.n, sys.R)
        # the primes not yet failed; a number field has none
        self.primes = list(linalg.PRIMES)
        self.exact_reason = None
        if sys.R.const.degree() != 1:
            self.primes = []
            self.exact_reason = "the constant field is a number field"
        self.N = None
        self.basis = None
        self.generators = None

    @cached_property
    def exact(self):
        """The ansatz over k, built when an exact row is first needed."""
        return _AnsatzBuilder(*self.args)

    def certified(self):
        """The truncation order N of the first certified kernel, whose
        basis is kept in ``basis`` and the relations that generate its
        ideal in ``generators``: a pass over the first prime not yet
        failed, else over k."""
        while True:
            self.modular = bool(self.primes)
            self.nrows = 0
            try:
                self.builder = (
                    _AnsatzBuilder(*self.args,
                                   linalg.PrimeField(self.primes[0]))
                    if self.modular else self.exact)
                self.acc = linalg.RrefAccumulator(self.builder.field,
                                                  self.builder.ncols)
                self.N, self.basis, self.generators = self._pass()
            except linalg.NotCertified as why:
                self.primes.pop(0)
                if not self.primes:
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
        free = _shift_generators(self.acc, self.builder.width)
        return (linalg.lift_kernel(self.acc, free) if self.modular
                else self.acc.kernel_vectors(free))

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

    def _pass(self):
        """Rows one order at a time until the kernel is certified; returns
        (N, basis, generators).

        A kernel is tried once, at the first row that leaves its rank
        unchanged, or when the rank reaches the column count.  A kernel
        without a certificate needs more rows.  So does one without a
        lift, until the rank has held for as many rows as it took to
        reach it: the kernel mod p cannot change while the rank holds, so
        its entries are then taken to be too large for p.  The kernel of
        a certified try is the kernel of the rows through the last row
        that raised the rank, N+1; N is never below 0."""
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
                    raise linalg.NotCertified("rational reconstruction failed")
                continue
            tried = self.acc.rank
            kernel = self._kernel()
            lifted = kernel is not None
            if not lifted:
                continue
            # the echelon over the monomials of degree <= d that the
            # certificate goes on closing
            echelon = _Echelon(self.ring, self.builder.monos, _kernel_to_polys(
                self.builder, kernel, self.ring, self.a))
            basis = echelon.basis()
            generators = _ideal_generators(basis, self.d)
            if certify(self.sys, basis, self.a, echelon, generators):
                return max(last_raise - 1, 0), basis, generators
            self._check_exactly(kernel)
        if self.modular:
            raise linalg.NotCertified(
                "no kernel mod p was certified below order %d" % MAX_ORDER)
        raise ResourceCapError("no relation basis was certified below "
                               "truncation order %d" % MAX_ORDER)


def order_bound(sys, a, d, ell, solver=None):
    """(N, True): the truncation order N of the relation solve, and that
    its relation basis is certified, which is always so.

    Rows are added one order at a time until the kernel is certified
    (``certify``), and N is the order that kernel needs: rows 0..N+1
    have it.  A certified kernel is the exact kernel of every truncation
    and the whole space of relations under the caps (d, ell).  A
    ``solver`` shared with relation_ideal hands its basis on."""
    if solver is None:
        solver = _RelationSolve(sys, a, d, ell)
    return solver.certified(), True


def relation_ideal(sys, a, d, ell, N, solver=None):
    """The certified relations of total degree <= d with polynomial
    coefficients of t-degree <= 2*ell.  N must be the certified
    truncation order (order_bound), or InputError names that order.  A
    ``solver`` shared with order_bound hands on the basis it found."""
    if solver is None:
        solver = _RelationSolve(sys, a, d, ell)
    if solver.N is None:
        solver.certified()
    if N != solver.N:
        raise InputError("truncation order %d is not the certified order %d"
                         % (N, solver.N))
    return RelationIdeal(solver.ring, solver.basis, d=d, a=a, ell=ell,
                         order_used=N, generators=solver.generators)


def find_relations(sys, a, d, ell):
    """The relation ideal at the order of the first certified kernel,
    with one solve shared by order_bound and relation_ideal.  Caps that
    mean nothing raise InputError."""
    if d < 1:
        raise InputError("relation degree must be >= 1, got %d" % d)
    if ell < 0:
        raise InputError("coefficient degree must be >= 0, got %d" % ell)
    solver = _RelationSolve(sys, a, d, ell)
    N, _ = order_bound(sys, a, d, ell, solver=solver)
    return relation_ideal(sys, a, d, ell, N, solver=solver)


# -- the certificate ----------------------------------------------------

def certify(sys, basis, a, echelon=None, generators=None):
    """True when every relation in the k(t)-span W of ``basis`` (a reduced
    row echelon basis, as _row_reduce_polys returns it) vanishes at the
    fundamental matrix F with F(a) = I.

    W is first closed under the derivation D of P(F) along X' = A X
    (``_derivative``, with each monomial's (X^m)' tabulated once per
    call, its weights read off A): the closure W' keeps the degree of W
    and holds only relations exactly when W does, since the derivative
    of a relation is one.  Then a basis C of W' that is regular at a with
    k-independent values there (``_local_basis``) must vanish at t = a,
    X = I: (C_i(F))' = M (C_i(F)) with M regular at a, and a solution
    that is 0 at a is 0 (Cauchy uniqueness, the zero test for D-finite
    functions; Stanley 1980; van der Put and Singer 2003, ch. 1).  An
    element of W' regular at a with a nonzero value there ends the check
    early.

    The closure starts from G, the relations that generate the ideal
    (``_ideal_generators``): when W is closed under each x_v within
    degree d, W = span(G) + sum_v x_v*W_{<d}, and D(x_v*Q) = D(x_v)*Q +
    x_v*D(Q) with D(x_v) = sum_l a_il x_lj linear, so by induction on the
    degree and then on the lead D(W) lies in W exactly when D(G) does.
    Only when some D(G) leaves W are the other basis relations
    differentiated too, so W' and the verdict are those of the closure
    from the whole basis.

    The solve passes the ``_Echelon`` that reduced the basis, over the
    monomials of degree <= d, which the closure extends, and G for its
    d; by default both are built here, with d the top degree of the
    basis."""
    if not basis:
        return True
    if echelon is None:
        ring = basis[0].ring
        d = max(P.total_degree() for P in basis)
        echelon = _Echelon(ring, monomials_upto(ring.nvars, d), basis)
        generators = _ideal_generators(basis, d)
    R = sys.R
    is_zero = R.const.is_zero

    def refuted(P):
        # the value at X = I first: a zero value needs no regularity test
        # of every coefficient
        value = P.at_identity()
        return (R.is_regular_at(value, a)
                and not is_zero(R.eval_at(value, a))
                and all(R.is_regular_at(c, a) for c in P.terms.values()))

    acc = echelon.acc
    leads = set(acc.pivots)
    todo = list(generators)
    whole = len(generators) == len(basis)
    table = {}
    while todo:
        if not echelon.add(_derivative(sys, todo.pop(), table)):
            continue
        lead = next(pc for pc in acc.pivots if pc not in leads)
        leads.add(lead)
        P = echelon.poly(acc.row(lead))
        if refuted(P):
            return False
        todo.append(P)
        if not whole:
            # D(G) leaves W: the closure goes on from the whole basis
            whole = True
            todo.extend(Q for Q in basis
                        if not any(Q is G for G in generators))
    # the local basis is regular at a, so each value at t = a, X = I is
    # summed in k
    return all(is_zero(C.at_identity(a))
               for C in _local_basis(echelon.basis(), a))


def _ideal_generators(basis, d):
    """G: the relations of ``basis`` (a reduced row echelon basis, as
    _row_reduce_polys returns it) whose leading monomial is not x_v times
    another one's leading monomial, read off the graded-lex leads, when
    the span W of the basis over k(t) is closed under multiplication by
    each x_v within degree d; else the whole basis.
    - W_{<d}, its elements of degree < d, is spanned by the basis
      relations of degree < d (the echelon is graded), so W is closed
      when each x_v*Q, Q such a relation, reduces to 0 by the span.
    - Then W = span(G) + sum_v x_v*W_{<d}.  By induction on the lead: a
      lead outside G's is x_v*lead(Q) for a basis Q of degree < d, and
      P - c*x_v*Q has a smaller lead.
    So G generates the ideal of W within degree d.  The certificate
    closes W under d/dt from G (``certify``), and the stabilizer reads
    the action residuals of G alone (``groups.stabilizer_group``).
    The x-multiples of a kernel vector are kernel vectors on every path,
    for they keep its coefficients and vanish through the same order.
    But a relation of lower degree can be a k(t)-combination of kernel
    vectors whose top-degree terms cancel, and then its x-multiples
    need not lie in W: the truncated kernel of the harmonic oscillator
    at order 20, below its certified order, shows it, and no proof rules
    it out for a certified basis."""
    if not basis:
        return []
    ring = basis[0].ring
    R = ring.field
    leads = {Q.leading()[0]: Q for Q in basis}
    for le, Q in leads.items():
        if sum(le) < d:
            for v in range(ring.nvars):
                vec = {e[:v] + (e[v] + 1,) + e[v + 1:]: c
                       for e, c in Q.terms.items()}
                # most often x_v*Q is itself the relation led by x_v*le
                B = leads.get(le[:v] + (le[v] + 1,) + le[v + 1:])
                if B is None or vec != B.terms and linalg.sub_multiples(
                        R, vec, [(vec[e], leads[e].terms)
                                 for e in vec if e in leads]):
                    return basis
    return [Q for le, Q in leads.items()
            if not any(k and le[:v] + (k - 1,) + le[v + 1:] in leads
                       for v, k in enumerate(le))]


def in_span(basis, polys):
    """True when every polynomial of ``polys`` lies in the span of
    ``basis`` over the coefficient field of their ring."""
    if not polys:
        return True
    echelon = _Echelon(polys[0].ring, {e for P in basis + polys
                                       for e in P.terms}, basis)
    return not any(echelon.add(P.terms) for P in polys)


class _Echelon:
    """The reduced row echelon form of polynomials of ``ring`` over its
    coefficient field: a linalg.RrefAccumulator whose columns are the
    monomials ``monos`` by descending ring order, so that a pivot is a
    leading monomial and a reduced row a polynomial with monic lead,
    fed the sparse rows of ``polys``."""

    def __init__(self, ring, monos, polys=()):
        self.ring = ring
        self.monos = sorted(monos, key=ring.order.key, reverse=True)
        self.index = {e: j for j, e in enumerate(self.monos)}
        self.acc = linalg.RrefAccumulator(ring.field, len(self.monos))
        for P in polys:
            self.add(P.terms)

    def add(self, terms):
        """Reduce and insert the polynomial ``{monomial: coefficient}``;
        True if the span grew."""
        index = self.index
        return self.acc.add_sparse({index[e]: c for e, c in terms.items()})

    def remainder(self, terms):
        """The polynomial ``{monomial: coefficient}`` reduced by the rows,
        as ``{monomial: coefficient}``: zero at every pivot, so the one
        representative of its class modulo the span."""
        index, monos = self.index, self.monos
        row = self.acc.reduce({index[e]: c for e, c in terms.items()})
        return {monos[j]: c for j, c in row.items()}

    def poly(self, row):
        """The polynomial of a row ``{column: value}``."""
        return self.ring.from_dict({self.monos[j]: c for j, c in row.items()})

    def basis(self):
        """The reduced rows as polynomials, by descending lead."""
        return [self.poly(row) for row in self.acc.reduced_rows()]


def _monomial_derivative(sys, m):
    """(X^m)' along X' = A X, as [(target monomial, weight)], by the
    Leibniz rule (``linear_derivation``) on the entries' derivatives
    (``OdeSystem.entry_derivatives``); the weights of one target are
    summed (the diagonal ones, l = i, all land on m itself)."""
    R = sys.R
    out = {}
    for tgt, e, c in linear_derivation(m, sys.entry_derivatives):
        w = R.scale(c, R.const.from_int(e))
        out[tgt] = R.add(out[tgt], w) if tgt in out else w
    return [(tgt, w) for tgt, w in out.items() if not R.is_zero(w)]


def _derivative(sys, P, table):
    """The polynomial whose value at F is P(F)', as ``{monomial:
    coefficient}``: d(c X^m) = c' X^m + c (X^m)', with (X^m)' from
    ``table``, a dict from monomials to ``_monomial_derivative`` that
    the calls of one certificate share and fill, so each term costs one
    product per target monomial."""
    R = sys.R
    out = {}

    def add(e, c):
        s = R.add(out[e], c) if e in out else c
        if R.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s

    for m, c in P.terms.items():
        add(m, R.diff(c))
        row = table.get(m)
        if row is None:
            row = table[m] = _monomial_derivative(sys, m)
        for tgt, w in row:
            add(tgt, R.mul(c, w))
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
    width = builder.width
    out = []
    for vec in kernel:
        ucoeffs = {}
        for j, c in vec.items():
            mi, i = divmod(j, width)
            if mi not in ucoeffs:
                ucoeffs[mi] = [k.zero] * width
            ucoeffs[mi][i] = c
        # trimmed first: a constant costs no Taylor shift over the padding
        out.append(ring.from_dict({
            builder.monos[mi]: R.from_coeffs(
                upoly.shift(k, upoly.trim(k, cs), k.neg(a)))
            for mi, cs in sorted(ucoeffs.items())}))
    return out


def _row_reduce_polys(ring, polys):
    """Canonical basis of the span of ``polys``: the reduced row echelon
    form over the coefficient field, columns ordered by the ring's
    monomial order (largest first), leading coefficients 1, rows by
    descending leading monomial (``_Echelon``).  Elimination touches
    only nonzero coefficients."""
    return _Echelon(ring, {e for p in polys for e in p.terms}, polys).basis()


class _ProductPowers:
    """The monomials of the product X*Y of two n x n matrices of
    variables, expanded over the integers: ``self[m]`` is (X*Y)^m as
    ``{(x-exponent, y-exponent): int}``.  Each expansion is built once,
    from the one of m less one power of its first variable times that
    entry (X*Y)_ij = sum_l x_il y_lj, and kept.  P(X*Y) = sum_m c_m
    (X*Y)^m is then read off them (``at_product``), so a coefficient of
    P is only ever scaled by an integer."""

    def __init__(self, n):
        self.n = n
        one = (0,) * (n * n)
        self._cache = {one: {(one, one): 1}}

    def __getitem__(self, m):
        out = self._cache.get(m)
        if out is None:
            n = self.n
            p = next(p for p, k in enumerate(m) if k)
            i, j = divmod(p, n)
            out = {}
            for (xe, ye), c in self[m[:p] + (m[p] - 1,) + m[p + 1:]].items():
                for l in range(n):
                    x, y = i * n + l, l * n + j
                    key = (xe[:x] + (xe[x] + 1,) + xe[x + 1:],
                           ye[:y] + (ye[y] + 1,) + ye[y + 1:])
                    out[key] = out.get(key, 0) + c
            self._cache[m] = out
        return out

    def at_product(self, fld, P):
        """P(X*Y) as ``{(x-exponent, y-exponent): coefficient}``, P a
        polynomial in the x variables with coefficients in ``fld``."""
        add, mul, from_int = fld.add, fld.mul, fld.from_int
        out = {}
        for m, c in P.terms.items():
            for key, e in self[m].items():
                v = c if e == 1 else mul(c, from_int(e))
                out[key] = add(out[key], v) if key in out else v
        return {key: c for key, c in out.items() if not fld.is_zero(c)}


def _relations_at_product(ring, polys):
    """Each polynomial P of ``polys``, in the x variables of ``ring``, as
    P(X*Y), ``{(x-exponent, y-exponent): coefficient}``, from one table
    of expanded powers of X*Y."""
    powers = _ProductPowers(isqrt(ring.nvars))
    return [powers.at_product(ring.field, P) for P in polys]


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
    ring_h = PolyRing(k, ["y_%d_%d" % (i + 1, j + 1)
                          for i in range(n) for j in range(n)], GRADED_LEX)
    eqs = []
    for PXY in _relations_at_product(rel.ring, rel.basis):
        by_y = {}
        for (xe, ye), c in PXY.items():
            by_y.setdefault(ye, {})[xe] = c
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
            if len(linalg.rref(fld, h)[1]) == n:
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
