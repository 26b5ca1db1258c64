"""Algebraic subgroups of GL_n presented by polynomial ideals.

A subgroup is a list of polynomial generators in the matrix entries
x_i_j over an exact constant field.  Provided here: the stabilizer of a
relation ideal, a symbolic group-axiom check, identity components for
certified classes (finite groups, read off a zero-dimensional ideal with
no point computed; diagonal binomial groups; and groups whose ideal is
certified prime: a linear graph over at most one polynomial irreducible
over QQ), character groups, and kernels of characters.  A group with a
perfect Lie algebra, such as SL2, is certified to have no characters
from its tangent space at I; other groups are searched by a
multiplicativity ansatz on the common eigenlines of the derivations
D_xi, xi in that tangent space, at the weights of xi (sums of at most D
eigenvalues of xi), which stops at the first separation.
"""

from math import isqrt

from . import factor, fields, lattice, linalg
from .errors import DgalError, UnsupportedInstanceError
from .multipoly import (GRADED_LEX, PolyRing, groebner, is_zero_dimensional,
                        linear_derivation, normal_form, standard_monomials)
from .relations import (_ProductPowers, _relations_at_product,
                        _row_reduce_polys, group_ring)


class AlgebraicSubgroup:
    """Subgroup of GL_n cut out by polynomial generators in x_i_j."""

    def __init__(self, n, ring, generators, *, connected=None):
        self.n = n
        self.ring = ring
        self.generators = list(generators)
        self.group_verified = False
        self.connected = connected  # True / False / None (unknown)
        # (class name, dimension), recorded by identity_component on the
        # connected group it returns
        self.component_class = None
        # the pieces over k of the action residuals of the relations this
        # group stabilizes (one per residual and power of t), recorded by
        # stabilizer_group and read by verify_group_axioms
        self.action_residuals = None

    @property
    def field(self):
        return self.ring.field

    def identity_values(self):
        """Entries of the identity matrix, row-major, as field elements."""
        fld = self.ring.field
        return [fld.one if i == j else fld.zero
                for i in range(self.n) for j in range(self.n)]

    def vanishes_at_identity(self):
        return all(self.field.is_zero(g.at_identity())
                   for g in self.generators)

    def groebner_basis(self):
        if not hasattr(self, "_gb"):
            self._gb = groebner(self.generators)
        return self._gb

    def __repr__(self):
        return "AlgebraicSubgroup(n=%d, %d generators)" % (
            self.n, len(self.generators))


class Character:
    """Polynomial representative of a character: P(I) = 1 and
    P(X)P(Y) = P(XY) modulo the group ideal."""

    def __init__(self, poly, ring):
        self.poly = poly
        self.ring = ring

    def __eq__(self, other):
        return isinstance(other, Character) and self.poly == other.poly

    def __repr__(self):
        return "Character(%s)" % self.ring.format(self.poly)


def full_group(n, field):
    return AlgebraicSubgroup(n, group_ring(n, field), [], connected=True)


# -- stabilizer ---------------------------------------------------------

def _ideal_generators(rel):
    """G: the relations of the basis whose leading monomial is not x_v
    times another one's leading monomial, read off the graded-lex leads,
    when the span W of the basis over k(t) is closed under
    multiplication by each x_v within degree d; else the whole basis.
    The residuals of G cut out the same group as those of the whole
    basis:
    - W_{<d}, its elements of degree < d, is spanned by the basis
      relations of degree < d (the echelon is graded), so W is closed
      when each x_v*Q, Q such a relation, reduces to 0 by the span.
    - Then W = span(G) + sum_v x_v*W_{<d}.  By induction on the lead: a
      lead outside G's is x_v*lead(Q) for a basis Q of degree < d, and
      P - c*x_v*Q has a smaller lead.
    - So the residual of x_v*Q is a k(t)[h]-combination of the
      coefficients of Q's residual: Q(X*h) = M + r with M in W of degree
      < d, so (X*h)_v*Q(X*h) = sum_l h_lj x_il*(M + r), where x_il*M is in
      W and x_il*r reduces by W with coefficients in k(t).  By induction
      on the degree every residual is a k(t)[h]-combination of G's.
    - Splitting by powers of t keeps that: the pieces of such a
      combination, with its denominators cleared, are k[h]-combinations
      of the pieces of G's residuals (``_split_by_t_power``).  So both
      sets of pieces generate one ideal over k, that of the stabilizer.
    The x-multiples of a kernel vector are kernel vectors on every path,
    for they keep its coefficients and vanish through the same order.
    But a relation of lower degree can be a k(t)-combination of kernel
    vectors whose top-degree terms cancel, and then its x-multiples
    need not lie in W: the truncated kernel of the harmonic oscillator
    at order 20, below its certified order, shows it, and no proof rules
    it out for a certified basis."""
    R = rel.ring.field
    leads = {Q.leading()[0]: Q for Q in rel.basis}
    for le, Q in leads.items():
        if sum(le) < rel.d:
            for v in range(rel.ring.nvars):
                vec = {e[:v] + (e[v] + 1,) + e[v + 1:]: c
                       for e, c in Q.terms.items()}
                # most often x_v*Q is itself the relation led by x_v*le
                B = leads.get(le[:v] + (le[v] + 1,) + le[v + 1:])
                if B is None or vec != B.terms and linalg.sub_multiples(
                        R, vec, [(vec[e], leads[e].terms)
                                 for e in vec if e in leads]):
                    return rel.basis
    return [Q for le, Q in leads.items()
            if not any(k and le[:v] + (k - 1,) + le[v + 1:] in leads
                       for v, k in enumerate(le))]


def _action_residuals(rel):
    """For each relation P of G (``_ideal_generators``), the coefficient
    vector of P(X*h) with h symbolic, reduced against the span of the
    whole basis.

    Returns one residual ``{h-exponent: coefficient}`` per x-monomial and
    relation of G, coefficients in k(t); the residuals vanish exactly
    when h stabilizes the relation span.  P(X*h) is read off the integer
    expansions of (X*h)^m (relations._relations_at_product) as
    ``{x-monomial: {h-monomial: coefficient}}``.  The basis is in reduced
    row echelon form with monic leading terms
    (relations._row_reduce_polys), so reducing by the span clears each
    basis element's leading monomial in turn, and no basis element has a
    term at another one's leading monomial."""
    R = rel.ring.field
    leads = {Q.leading()[0]: Q.terms for Q in rel.basis}
    residuals = []
    for acted in _relations_at_product(rel.ring, _ideal_generators(rel)):
        vec = {}
        for (xe, he), c in acted.items():
            vec.setdefault(xe, {})[he] = c
        for le in [e for e in vec if e in leads]:
            lead = vec.pop(le)
            for e, c in leads[le].items():
                if e != le and not linalg.sub_multiples(
                        R, vec.setdefault(e, {}), [(c, lead)]):
                    del vec[e]
        residuals.extend(res for res in vec.values() if res)
    return residuals


def _split_by_t_power(R, ring_const, res):
    """The pieces of a residual ``{h-exponent: coefficient in k(t)}``:
    it is multiplied by the lcm f of its coefficients' denominators (not
    at all when they are polynomials), and one polynomial over k is
    emitted per power of t.  For nonzero f in k[t] the t-coefficients of
    f*G span the same k-space as those of G (a functional that kills
    f*phi(G) kills phi(G)), so that space does not depend on f."""
    if all(map(R.is_polynomial, res.values())):
        cleared = res
    else:
        den = R.denom_lcm(res.values())
        cleared = {e: R.mul(c, den) for e, c in res.items()}
    out = {}
    for e, c in cleared.items():
        if not R.is_polynomial(c):
            raise DgalError("denominator clearing failed")
        for m, cm in enumerate(R.numer_coeffs(c)):
            if not R.const.is_zero(cm):
                out.setdefault(m, {})[e] = cm
    return [ring_const.from_dict(d) for _, d in sorted(out.items())]


def stabilizer_group(rel):
    """The group of constant matrices h whose right action X -> X*h
    preserves the span of the relation basis.

    Its generators are the reduced row echelon form over k of the pieces
    (``_split_by_t_power``) of the action residuals of G, the relations
    of the basis that generate its ideal (``_ideal_generators``, which
    proves that they cut out the same group as the whole basis); H
    records the pieces for verify_group_axioms.  No polynomial over k(t)
    in the doubled ring is formed."""
    ring = rel.ring
    R = ring.field
    n = isqrt(ring.nvars)
    ring_const = group_ring(n, R.const)
    if not rel.basis:
        return full_group(n, R.const)
    pieces = []
    for res in _action_residuals(rel):
        pieces.extend(_split_by_t_power(R, ring_const, res))
    H = AlgebraicSubgroup(n, ring_const, _row_reduce_polys(ring_const, pieces))
    H.action_residuals = pieces
    return H


def verify_group_axioms(H, rel):
    """Symbolic closure check: the identity satisfies the generators and
    the stabilizer condition holds identically for h subject to H's
    ideal.  ``H`` is ``stabilizer_group(rel)``, whose residual pieces are
    reused: those of G's residuals, which generate the residuals of
    every basis relation (``_ideal_generators``).  Sets group_verified
    on success.

    The check runs over k.  A residual is sum_i t^i g_i / f with the
    g_i its pieces over k, and H's reduced Groebner basis over k is its
    reduced basis over k(t); dividing by it acts on each power of t
    alone, so a residual reduces to 0 modulo H's ideal exactly when every
    one of its pieces does."""
    if not H.vanishes_at_identity():
        raise DgalError("identity matrix violates a group generator")
    if rel.basis:
        gb = H.groebner_basis()
        for piece in H.action_residuals:
            if normal_form(piece, gb).terms:
                raise DgalError(
                    "group closure failed for residual piece %s"
                    % H.ring.format(piece))
    H.group_verified = True
    return H


# -- identity component -------------------------------------------------

def _diagonal_binomial_lattice(H):
    """If every element of H's reduced basis is an off-diagonal variable
    or a difference of monomials in the diagonal variables, return the
    exponent rows of the binomial part (diagonal coordinates), else
    None."""
    n = H.n
    diag = [i * n + i for i in range(n)]
    offdiag = [p for p in range(n * n) if p not in diag]
    fld = H.ring.field
    need_off = set(offdiag)
    rows = []
    for g in H.groebner_basis():
        terms = list(g.terms.items())
        if len(terms) == 1:
            e, _c = terms[0]
            if sum(e) == 1 and any(e[p] for p in offdiag):
                need_off.discard(next(p for p in offdiag if e[p]))
                continue
            return None
        if len(terms) != 2:
            return None
        (e1, c1), (e2, c2) = terms
        if not fld.is_zero(fld.add(c1, c2)):
            return None
        if any(e1[p] or e2[p] for p in offdiag):
            return None
        rows.append([e1[p] - e2[p] for p in diag])
    if need_off and n > 1:
        return None
    return rows


def _certified_irreducible(g):
    """True when g is certified irreducible over QQ, by one of two rules.

    Gauss' lemma: g = a*x + b with a a monomial is primitive in x, hence
    irreducible, when gcd(a, b) = 1, that is when every variable of a
    misses some term of b.  Specialization: the top power of some
    variable x in g has a constant coefficient, and g stays irreducible
    of the same x-degree once every other variable is set to one integer
    c.  A factor of g free of x would divide that constant, so every
    proper factor keeps a positive x-degree under the specialization.
    A generator in one variable is the case with nothing to specialize.
    Other generators get no certificate."""
    fld = g.ring.field
    if fld.degree() > 1:
        return False
    for i in sorted(g.variables_used()):
        top = g.degree_in(i)
        lead = [e for e in g.terms if e[i] == top]
        if top == 1 and len(lead) == 1:
            rest = [e for e in g.terms if not e[i]]
            if all(any(not e[j] for e in rest)
                   for j, k in enumerate(lead[0]) if j != i and k):
                return True
        if len(lead) != 1 or sum(lead[0]) != top:
            continue
        for c in range(top + 2):
            coeffs = [fld.zero] * (top + 1)
            for e, a in g.terms.items():
                coeffs[e[i]] = fld.add(coeffs[e[i]], fld.mul(
                    a, fld.from_int(c ** (sum(e) - e[i]))))
            if factor.is_irreducible(fld, coeffs):
                return True
    return False


def identity_component(H):
    """Connected component of the identity, for certified classes only.

    Supported: trivial ideal (GL_n); finite groups (a zero-dimensional
    ideal, whose component is {I}, recorded as the class ("finite", 0));
    subgroups of the diagonal torus cut out by monomials and binomials
    (lattice saturation); groups already flagged connected; and prime
    graphs: a reduced basis whose elements of degree above 1 are at most
    one g, certified irreducible over QQ, with I on the group.  The
    ideal of such a graph is prime, so H is irreducible over k; H° is
    defined over k, so H = H° (Humphreys, Linear Algebraic Groups, 1975;
    van der Put and Singer 2003, appendix A).  Its dimension is n^2
    minus the number of basis elements.
    """
    n = H.n
    ring = H.ring
    fld = ring.field
    if not H.generators:
        H.connected = True
        H.component_class = ("full", n * n)
        return H
    if H.connected:
        return H
    gb = H.groebner_basis()
    if is_zero_dimensional(gb, ring)[0]:
        comp = AlgebraicSubgroup(n, ring, [
            ring.gen(p) - ring.from_const(v)
            for p, v in enumerate(H.identity_values())], connected=True)
        comp.component_class = ("finite", 0)
        return comp
    rows = _diagonal_binomial_lattice(H)
    if rows is not None:
        sat = lattice.saturate(rows, n) if rows else []
        gens = [ring.gen(p) for p in range(n * n) if p % (n + 1)]
        for lam in sat:
            pos = {i * n + i: e for i, e in enumerate(lam) if e > 0}
            neg = {i * n + i: -e for i, e in enumerate(lam) if e < 0}
            gens.append(ring.from_dict({tuple(pos.get(p, 0) for p in range(n * n)):
                                        fld.one})
                        - ring.from_dict({tuple(neg.get(p, 0) for p in range(n * n)):
                                          fld.one}))
        comp = AlgebraicSubgroup(n, ring, gens, connected=True)
        comp.component_class = ("diagonal binomial", n - len(sat))
        return comp
    # a reduced basis holds the leading variable of a degree-1 element
    # nowhere else, so H is the graph of those elements over the zeros
    # of the rest
    rest = [g for g in gb if g.total_degree() != 1]
    if len(rest) <= 1 and all(map(_certified_irreducible, rest)) and \
            H.vanishes_at_identity():
        H.connected = True
        H.component_class = ("prime graph", n * n - len(gb))
        return H
    raise UnsupportedInstanceError(
        "identity component: group is in no certified class "
        "(not finite, not diagonal-binomial, not a graph over one "
        "certified irreducible polynomial)")


# -- characters ---------------------------------------------------------

def _doubled_ideal(ring, gb, n):
    """Reduced Groebner basis of I(x) + I(y) in the doubled ring, from
    the reduced basis gb of I in ``ring``: gb written in the x and in the
    y variables.  The doubled graded lex order restricts to the order of
    each copy, and the copies share no variable, so every S-pair of the
    union has coprime leading monomials and no leading monomial of one
    copy divides a term of the other: the union is already reduced."""
    nsq = n * n
    names = list(ring.names) + ["y_%d_%d" % (i + 1, j + 1)
                                for i in range(n) for j in range(n)]
    ring2 = PolyRing(ring.field, names, GRADED_LEX)
    both = []
    for g in gb:
        both.append(ring2.from_dict({e + (0,) * nsq: c
                                     for e, c in g.terms.items()}))
        both.append(ring2.from_dict({(0,) * nsq + e: c
                                     for e, c in g.terms.items()}))
    return ring2, both


def _charpoly(fld, A):
    """Ascending coefficients of det(x I - A), by the trace recurrence."""
    n = len(A)
    M = linalg.zeros(fld, n, n)
    cs = [fld.one]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] = fld.add(M[i][i], cs[-1])
        M = linalg.matmul(fld, A, M)
        tr = fld.zero
        for i in range(n):
            tr = fld.add(tr, M[i][i])
        cs.append(fld.neg(fld.div(tr, fld.from_int(k))))
    return list(reversed(cs))


def _coerce_vec(big, small, v):
    if big == small:
        return v
    return [big.coerce_from(small, x) for x in v]


def _shrink_invariant(fld, basis, T):
    """Largest subspace of span(basis) mapped into itself by T."""
    while True:
        if not basis:
            return []
        comp = linalg.nullspace(fld, basis)
        if not comp:
            return basis  # whole space, invariant for free
        timg = [linalg.matvec(fld, T, b) for b in basis]
        cond = [[linalg.dot(fld, q, ti) for ti in timg] for q in comp]
        ker = linalg.nullspace(fld, cond)
        if len(ker) == len(basis):
            return basis
        basis = linalg.matmul(fld, ker, basis)


def _eigen_refine(fld, spaces, T, weights):
    """Split each subspace along the eigenlines of T at the given
    candidate eigenvalues; what no candidate reaches is dropped."""
    done = []
    for basis in spaces:
        basis = _shrink_invariant(fld, basis, T)
        if not basis:
            continue
        # restricted matrix R, T basis^T = basis^T R, from one elimination
        # of [basis^T | T basis^T]: the basis columns are the pivots
        k = len(basis)
        images = [linalg.matvec(fld, T, b) for b in basis]
        red = linalg.rref(fld, [list(row) for row in zip(*basis, *images)])[0]
        R = [row[k:] for row in red[:k]]
        for lam in weights:
            shifted = [[fld.sub(x, lam) if i == j else x
                        for j, x in enumerate(row)] for i, row in enumerate(R)]
            eig = linalg.matmul(fld, linalg.nullspace(fld, shifted), basis)
            if eig:
                done.append(eig)
    return done


def _derivation_matrix(ring, gb, B, xi):
    """Matrix of D_xi P = sum_ij (X xi)_ij dP/dx_ij on the span of the
    standard monomials B, columns indexed by B.  D_xi keeps the degree of
    a monomial, and a normal form in a graded order does not raise it."""
    fld = ring.field
    n = len(xi)
    # (X xi)_ij = sum_l x_il xi_lj, as (variable, coefficient) pairs
    lin = [[(i * n + l, xi[l][j]) for l in range(n) if not fld.is_zero(xi[l][j])]
           for i in range(n) for j in range(n)]
    idx = {m: k for k, m in enumerate(B)}
    mat = linalg.zeros(fld, len(B), len(B))
    for k, m in enumerate(B):
        terms = {}
        for m2, e, c in linear_derivation(m, lin):
            terms[m2] = fld.add(terms.get(m2, fld.zero),
                                fld.mul(fld.from_int(e), c))
        val = ring.from_dict(terms)
        for e2, c in normal_form(val, gb).terms.items():
            mat[idx[e2]][k] = c
    return mat


def _weights(fld, roots, D):
    """The distinct sums of at most D of the roots, repeats allowed: on
    polynomials of degree <= D, D_xi acts on Sym^d of the linear forms,
    where its eigenvalues are the sums of d eigenvalues of xi."""
    out = {fld.zero: None}
    layer = [fld.zero]
    for _ in range(D):
        layer = list(dict.fromkeys(fld.add(w, r) for w in layer for r in roots))
        out.update(dict.fromkeys(layer))
    return list(out)


def _tangent_space(H):
    """Basis of the tangent space of H at I, as n x n matrices: the
    nullspace of the linear parts at I of H's reduced basis."""
    n = H.n
    nsq = n * n
    fld = H.ring.field
    diag = set(range(0, nsq, n + 1))
    rows = []
    for g in H.groebner_basis():
        row = [fld.zero] * nsq
        for e, c in g.terms.items():
            off = [p for p, k in enumerate(e) if k and p not in diag]
            # d/dx_p of x^e at I is e_p unless x^e / x_p meets an
            # off-diagonal variable
            for p, k in enumerate(e):
                if k and (not off or (off == [p] and k == 1)):
                    row[p] = fld.add(row[p], fld.mul(fld.from_int(k), c))
        rows.append(row)
    vecs = linalg.nullspace(fld, rows) if rows else linalg.identity(fld, nsq)
    return [[v[i * n:(i + 1) * n] for i in range(n)] for v in vecs]


def _lie_algebra_is_perfect(H, basis):
    """True when ``basis``, H's tangent space T at I, is spanned by its
    commutators and T is Lie(H).

    T always contains Lie(H), whose dimension is dim H in characteristic
    0, so T is Lie(H) when its dimension is the one identity_component
    recorded (characters_generators refuses any other).  Without a
    recorded class nothing is certified."""
    if H.component_class is None:
        return False
    fld = H.ring.field
    brackets = []
    for a, xa in enumerate(basis):
        for xb in basis[a + 1:]:
            c = linalg.mat_sub(fld, linalg.matmul(fld, xa, xb),
                               linalg.matmul(fld, xb, xa))
            brackets.append([x for row in c for x in row])
    return len(linalg.rref(fld, brackets)[1]) == len(basis)


def characters_generators(H, D):
    """Generators of the character group of a connected H, from the
    group-like polynomials of degree <= D.

    The search works in the Lie algebra L = Lie(H), read as the tangent
    space T of H at I.  T contains L, with equality exactly when the
    dimension identity_component recorded is dim T; a presentation where
    it is not is non-reduced, and is refused (in characteristic 0 a
    group scheme is reduced, Cartier's theorem, so a stabilizer and the
    components built from it do not reach that refusal).  A group
    without a recorded class is taken at T.

    A group whose Lie algebra is perfect is answered first, with nothing
    built: a character's differential is a Lie algebra map to the
    abelian k, so it vanishes on [L, L] = L, and in characteristic 0 a
    connected group has no character with zero differential (Humphreys,
    Linear Algebraic Groups, 1975, section 13).  This covers SL2.

    Otherwise a character chi is a common eigenvector of the derivations
    D_xi P = sum_ij (X xi)_ij dP/dx_ij, xi in a basis of T, acting on the
    polynomials of degree <= D modulo H's ideal (the span of the standard
    monomials of H's reduced basis): D_xi chi = dchi(xi) chi, and in
    characteristic 0 such semi-invariants of L are the semi-invariants
    of the connected H (Humphreys, section 13).  The eigenvalues of D_xi
    there are sums of at most D eigenvalues of xi, so only xi's n x n
    characteristic polynomial is split, and the eigenlines are the
    nullspaces of D_xi minus each such sum, taken inside the spaces the
    previous xi left.  The search stops at the first xi after which
    every space is a line.  Every character line lies in one of the
    spaces, and a space that is a line is that character's line; the
    finitely many eigenlines realize the zero-dimensionality of the
    underlying ansatz system.

    The candidates, normalized to P(I) = 1, are then taken by (degree,
    text) and pruned to generators of the lattice.  One that is the
    inverse of a chosen generator, or the product of two lower-degree
    characters, is a character and is skipped unchecked: in the
    coordinate ring of H x H, chi(X)chi(Y) = chi(XY) for the characters
    it is formed from, and an inverse or a product of these equalities
    is one.  Every other candidate is verified symbolically (P(X)P(Y) =
    P(XY) modulo the doubled group ideal), chosen if it passes and
    dropped if not.  A product is formed and normal-formed only when one
    of the two tests reads it, and each unordered pair at most once.
    """
    if H.connected is not True:
        raise DgalError("characters need a connected group "
                        "(run identity_component first)")
    basis = _tangent_space(H)
    if H.component_class is not None and len(basis) != H.component_class[1]:
        raise UnsupportedInstanceError(
            "characters: the tangent space at I has dimension %d, the %s "
            "group %d; its ideal is a non-reduced presentation"
            % (len(basis), H.component_class[0], H.component_class[1]))
    if _lie_algebra_is_perfect(H, basis):
        return []
    n = H.n
    ring = H.ring
    fld = ring.field
    gb = H.groebner_basis()
    B = standard_monomials(gb, ring, D)
    big = fld
    spaces = [linalg.identity(fld, len(B))]
    for xi in basis:
        if all(len(sp_) == 1 for sp_ in spaces):
            break
        T = _derivation_matrix(ring, gb, B, xi)
        ext, roots = fields.split_univariate(
            big, _coerce_vec(big, fld, _charpoly(fld, xi)))
        spaces = [[_coerce_vec(ext, big, v) for v in sp_] for sp_ in spaces]
        big = ext
        spaces = _eigen_refine(big, spaces,
                               [_coerce_vec(big, fld, row) for row in T],
                               _weights(big, [r for r, _mult in roots], D))
    if any(len(sp_) > 1 for sp_ in spaces):
        raise DgalError("character eigenspaces did not separate")
    ringF = group_ring(n, big)
    gbF = [_coerce_poly(ringF, ring, g) for g in gb]
    sols = []
    for sp_ in spaces:
        P = ringF.from_dict(dict(zip(B, sp_[0])))
        s = P.at_identity()
        if big.is_zero(s):
            continue  # no multiplicative polynomial on this line
        P = normal_form(P.scale(big.inv(s)), gbF)
        if P == ringF.one:
            continue
        if not any(P == q for q in sols):
            sols.append(P)
    # prune to lattice generators, verifying only what is kept
    ring2F, gb2F = _doubled_ideal(ringF, gbF, n)
    powers = _ProductPowers(n)
    prods = {}

    def prod(i, j):
        # sols[i] * sols[j] in normal form, each unordered pair once
        key = (min(i, j), max(i, j))
        if key not in prods:
            prods[key] = normal_form(sols[i] * sols[j], gbF)
        return prods[key]

    degs = [P.total_degree() for P in sols]
    out, verified = [], []
    for i in sorted(range(len(sols)),
                    key=lambda i: (degs[i], ringF.format(sols[i]))):
        lower = [j for j in verified if degs[j] < degs[i]]
        if any(prod(i, j) == ringF.one for j in out) or \
                any(prod(a, b) == sols[i]
                    for x, a in enumerate(lower) for b in lower[x:]):
            # the inverse of a chosen generator, or a product of two
            # lower-degree characters: a character, and not a generator
            verified.append(i)
        elif _is_character(ring2F, gb2F, sols[i], powers):
            verified.append(i)
            out.append(i)
    return [Character(sols[i], ringF) for i in out]


def _coerce_poly(ring_to, ring_from, p):
    f_to, f_from = ring_to.field, ring_from.field
    if f_to == f_from:
        return ring_to.from_dict(dict(p.terms))
    return ring_to.from_dict({e: f_to.coerce_from(f_from, c)
                              for e, c in p.terms.items()})


def _is_character(ring2, gb2, P, powers):
    """True when P(X)P(Y) = P(XY) modulo the doubled group ideal;
    ``powers`` is the relations._ProductPowers of H's size."""
    fld = ring2.field
    # the x and y copies of P share no variable: their product is the
    # sum of the products of their terms
    diff = {e1 + e2: fld.mul(c1, c2)
            for e1, c1 in P.terms.items() for e2, c2 in P.terms.items()}
    for (xe, ye), c in powers.at_product(fld, P).items():
        e = xe + ye
        diff[e] = fld.sub(diff[e], c) if e in diff else fld.neg(c)
    return normal_form(ring2.from_dict(diff), gb2).is_zero()


def kernel_of_characters(H, chars):
    """The subgroup where every character equals 1: H's reduced Groebner
    basis plus the polynomials chi - 1."""
    if not chars:
        return H
    fld = chars[0].ring.field
    ringF = group_ring(H.n, fld)
    gens = [_coerce_poly(ringF, H.ring, g) for g in H.groebner_basis()]
    for ch in chars:
        gens.append(_coerce_poly(ringF, ch.ring, ch.poly) - ringF.one)
    return AlgebraicSubgroup(H.n, ringF, gens)
