"""Sparse multivariate polynomials over an adapter field, with monomial
orders, reduction, and Buchberger's algorithm.

Exponents are tuples of ints; a polynomial is a dict exponent -> nonzero
coefficient.  The ring carries the field, the variable names and the
monomial order: a Groebner basis is one of an ideal of its ring, in the
ring's order, and a ring in another order is another ring.  The
variables of a matrix ring are the entries of a square matrix in
row-major order; ``MultiPoly.at_identity`` evaluates at X = I, and
``linear_derivation`` applies a derivation that maps each entry to a
linear form, as X' = A X and X -> X*xi do.

``groebner`` is Buchberger's algorithm with the coprimality and chain
criteria, run on an autoreduced input: generators that reduce to zero
modulo the others never enter a pair.  The ideals met here are small but
often handed over as long linear spans (a stabilizer's generators in
echelon form) whose reduced basis has a handful of elements, so pairs
are formed among that handful only.  The reduced basis is unique (Cox,
Little and O'Shea, *Ideals, Varieties, and Algorithms*, 2.7), so the
preparation does not change it.  ``normal_form`` reduces one dict in
place, so a division step touches only the terms it changes.
"""

import heapq
import itertools
import operator
from math import isqrt

from . import _grammar
from .errors import DgalError, ResourceCapError


# -- monomial orders ----------------------------------------------------

class MonomialOrder:
    """Total order on exponent tuples; bigger key means bigger monomial."""

    def __init__(self, name, key):
        self.name = name
        self.key = key

    def __repr__(self):
        return "MonomialOrder(%s)" % self.name


def _grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


GREVLEX = MonomialOrder("grevlex", _grevlex_key)
LEX = MonomialOrder("lex", lambda exp: exp)
# total degree first, then lex with earlier variables dominating: the
# order of the relation bases and of the groups in the matrix entries
GRADED_LEX = MonomialOrder("gradedlex", lambda exp: (sum(exp), exp))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(map(operator.le, a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# -- ring and elements --------------------------------------------------

class PolyRing:
    def __init__(self, field, names, order=GREVLEX):
        self.field = field
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.order = order
        self._zero_exp = (0,) * self.nvars

    @property
    def zero(self):
        return MultiPoly(self, {})

    @property
    def one(self):
        return MultiPoly(self, {self._zero_exp: self.field.one})

    def gen(self, i):
        exp = [0] * self.nvars
        exp[i] = 1
        return MultiPoly(self, {tuple(exp): self.field.one})

    @property
    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def from_const(self, c):
        if self.field.is_zero(c):
            return self.zero
        return MultiPoly(self, {self._zero_exp: c})

    def from_int(self, n):
        return self.from_const(self.field.from_int(n))

    def from_dict(self, d):
        return MultiPoly(self, {e: c for e, c in d.items()
                                if not self.field.is_zero(c)})

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.names == other.names and self.order is other.order)

    def __hash__(self):
        return hash((self.names, id(self.field.__class__)))

    def __repr__(self):
        return "PolyRing(%s; %s)" % (", ".join(self.names), self.order.name)

    # -- text form ------------------------------------------------------

    def format(self, p):
        if not p.terms:
            return "0"
        out = []
        for exp in sorted(p.terms, key=self.order.key, reverse=True):
            c = p.terms[exp]
            factors = []
            cs = self.field.format(c)
            if " + " in cs:
                cs = "(%s)" % cs
            mono = [("%s^%d" % (n, e) if e > 1 else n)
                    for n, e in zip(self.names, exp) if e]
            if not mono:
                factors.append(cs)
            else:
                if cs != "1":
                    factors.append(cs)
                factors.extend(mono)
            out.append("*".join(factors))
        return " + ".join(out)

    def parse(self, text):
        node = _grammar.parse(text)
        atoms = {n: self.gen(i) for i, n in enumerate(self.names)}
        fld = self.field
        const = getattr(fld, "const", fld)
        if const is not fld:  # rational functions
            atoms.setdefault(fld.var, self.from_const(fld.t))
        if const.degree() > 1:
            from .fields import GEN_NAME
            gen = const.generator()
            atoms.setdefault(GEN_NAME, self.from_const(
                gen if const is fld else fld.from_const(gen)))
        return _grammar.evaluate(
            node, atoms,
            from_int=self.from_int,
            add=lambda a, b: a + b, sub=lambda a, b: a - b,
            neg=lambda a: -a, mul=lambda a, b: a * b,
            div=self._div, power=lambda a, n: a ** n)

    def _div(self, a, b):
        c = b.constant_value()
        if c is None:
            raise DgalError("only division by constants is supported here")
        return a.scale(self.field.inv(c))


class MultiPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        fld = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = fld.add(out[e], c)
                if fld.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return MultiPoly(self.ring, out)

    def __neg__(self):
        fld = self.ring.field
        return MultiPoly(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        fld = self.ring.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _mono_mul(e1, e2)
                c = fld.mul(c1, c2)
                if e in out:
                    s = fld.add(out[e], c)
                    if fld.is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                elif not fld.is_zero(c):
                    out[e] = c
        return MultiPoly(self.ring, out)

    def __pow__(self, n):
        if n < 0:
            raise DgalError("negative power of a polynomial")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c):
        fld = self.ring.field
        if fld.is_zero(c):
            return self.ring.zero
        return MultiPoly(self.ring, {e: fld.mul(x, c) for e, x in self.terms.items()})

    def mul_term(self, exp, coeff):
        fld = self.ring.field
        return MultiPoly(self.ring, {_mono_mul(e, exp): fld.mul(c, coeff)
                                     for e, c in self.terms.items()})

    def __eq__(self, other):
        """Equal values: the same monomials, with coefficients equal in
        the field (which may hold one value in several forms)."""
        if not isinstance(other, MultiPoly) or \
                self.terms.keys() != other.terms.keys():
            return False
        eq = self.ring.field.eq
        return all(eq(c, other.terms[e]) for e, c in self.terms.items())

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return self.ring.format(self)

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        """The field element if the polynomial is constant, else None."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1 and self.ring._zero_exp in self.terms:
            return self.terms[self.ring._zero_exp]
        return None

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading(self):
        """(exponent, coefficient) of the leading term."""
        exp = max(self.terms, key=self.ring.order.key)
        return exp, self.terms[exp]

    def monic(self):
        if not self.terms:
            return self
        _, lc = self.leading()
        return self.scale(self.ring.field.inv(lc))

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=0)

    # -- substitution and evaluation ------------------------------------

    def substitute(self, values):
        """Substitute ring elements for variables; ``values`` maps
        variable index -> MultiPoly.  Unmapped variables stay."""
        ring = self.ring
        out = ring.zero
        cache = {}
        for exp, c in self.terms.items():
            term = ring.from_const(c)
            for i, k in enumerate(exp):
                if not k:
                    continue
                if i in values:
                    key = (i, k)
                    if key not in cache:
                        cache[key] = values[i] ** k
                    term = term * cache[key]
                else:
                    term = term * ring.gen(i) ** k
            out = out + term
        return out

    def eval_consts(self, values):
        """The value at the field elements ``values``, one per variable."""
        fld = self.ring.field
        total = fld.zero
        for exp, c in self.terms.items():
            for v, k in zip(values, exp):
                if k:
                    c = fld.mul(c, fld.pow(v, k))
            total = fld.add(total, c)
        return total

    def at_identity(self, point=None):
        """The value at X = I, the variables the entries of a square
        matrix: the sum of the coefficients of the monomials that hold
        diagonal entries only (``on_diagonal``), each 1 there.  With a
        ``point``, the coefficients are rational functions regular at
        t = point, and the value at X = I and t = point is the sum of
        their values there, in the constant field."""
        fld = self.ring.field
        diagonal = [c for exp, c in self.terms.items() if on_diagonal(exp)]
        if point is not None:
            diagonal = [fld.eval_at(c, point) for c in diagonal]
            fld = fld.const
        total = fld.zero
        for c in diagonal:
            total = fld.add(total, c)
        return total


def on_diagonal(exp):
    """True when the monomial ``exp`` in the entries of a square matrix,
    row-major, holds diagonal entries only: 1 at X = I, where any other
    monomial is 0."""
    return sum(exp[::isqrt(len(exp)) + 1]) == sum(exp)


def linear_derivation(exp, images):
    """The terms of D(x^exp) by the Leibniz rule, for the derivation D
    with D x_p = sum c*x_q over the pairs (q, c) of ``images[p]``: one
    (monomial, e, c) per such pair and variable x_p of exponent e > 0,
    the term e*c times x^exp / x_p * x_q.  The caller multiplies e*c in
    its own arithmetic and sums the terms of one monomial."""
    for p, e in enumerate(exp):
        if e:
            lower = exp[:p] + (e - 1,) + exp[p + 1:]
            for q, c in images[p]:
                yield lower[:q] + (lower[q] + 1,) + lower[q + 1:], e, c


# -- reduction and Groebner bases ---------------------------------------

# a Groebner basis growing past this many elements is a ResourceCapError
MAX_BASIS = 2000


def normal_form(p, basis):
    """Remainder of p on division by the list ``basis``.

    The dividend is one dict reduced in place: a division step removes
    the leading term and subtracts the multiple of a basis element's tail
    from the terms it touches, and a term no leading monomial divides
    moves to the remainder."""
    if not basis:
        return p
    ring = p.ring
    key = ring.order.key
    fld = ring.field
    add, mul, is_zero = fld.add, fld.mul, fld.is_zero
    lead = []
    for g in basis:
        if g.terms:
            gexp = max(g.terms, key=key)
            lead.append((gexp, g.terms[gexp],
                         [(e, c) for e, c in g.terms.items() if e != gexp]))
    work = dict(p.terms)
    rem = {}
    while work:
        exp = max(work, key=key)
        c = work.pop(exp)
        for gexp, gc, tail in lead:
            if _mono_divides(gexp, exp):
                break
        else:
            rem[exp] = c
            continue
        factor = fld.neg(fld.div(c, gc))
        shift = _mono_div(exp, gexp)
        for e, x in tail:
            e = _mono_mul(e, shift)
            y = mul(factor, x)
            if e in work:
                y = add(work[e], y)
                if is_zero(y):
                    del work[e]
                    continue
            work[e] = y
    return MultiPoly(ring, rem)


def s_polynomial(f, g):
    fld = f.ring.field
    (ef, cf) = f.leading()
    (eg, cg) = g.leading()
    l = _mono_lcm(ef, eg)
    return (f.mul_term(_mono_div(l, ef), fld.inv(cf))
            - g.mul_term(_mono_div(l, eg), fld.inv(cg)))


def groebner(gens):
    """Reduced Groebner basis of the ideal generated by ``gens``, in the
    order of their ring.

    The input is autoreduced before any pair is formed: the generators
    are taken in ascending order of leading monomial, each is reduced by
    the ones kept so far, and the nonzero monic remainders are kept.
    That leaves the ideal as it was, so the reduced basis is the same,
    while an input that is already close to a Groebner basis (a linear
    span in echelon form, say) shrinks to a few elements.  Pairs are
    pruned with the coprimality and chain criteria and taken by least
    sugar (Giovini et al., ISSAC 1991).  The MAX_BASIS cap turns runaway
    computations into ResourceCapError rather than an unbounded loop.
    """
    gens = [g for g in gens if g.terms]
    if not gens:
        return []
    key = gens[0].ring.order.key
    G, ecart = [], []  # an element's sugar less its lead's degree
    for g in sorted(gens, key=lambda g: key(g.leading()[0])):
        r = normal_form(g, G)
        if r.terms:
            G.append(r.monic())
            ecart.append(g.total_degree() - sum(r.leading()[0]))
    lead = [g.leading()[0] for g in G]

    def pair_key(i, j):  # least sugar first, then least grevlex lcm
        lcm = _mono_lcm(lead[i], lead[j])
        return max(ecart[i], ecart[j]) + sum(lcm), _grevlex_key(lcm), i, j
    pairs = set(itertools.combinations(range(len(G)), 2))
    queue = [pair_key(i, j) for i, j in pairs]
    heapq.heapify(queue)

    def chain_criterion(i, j):
        lcm_ij = _mono_lcm(lead[i], lead[j])
        for k in range(len(G)):
            if k in (i, j):
                continue
            if (_mono_divides(lead[k], lcm_ij)
                    and (min(i, k), max(i, k)) not in pairs
                    and (min(j, k), max(j, k)) not in pairs):
                return True
        return False

    while queue:
        sugar, _key, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        if _mono_lcm(lead[i], lead[j]) == _mono_mul(lead[i], lead[j]):
            continue  # coprime leading monomials
        if chain_criterion(i, j):
            continue
        s = normal_form(s_polynomial(G[i], G[j]), G)
        if not s.terms:
            continue
        s = s.monic()
        G.append(s)
        lead.append(s.leading()[0])
        ecart.append(sugar - sum(lead[-1]))
        if len(G) > MAX_BASIS:
            raise ResourceCapError("Groebner basis exceeded %d elements" % MAX_BASIS)
        new = len(G) - 1
        for k in range(new):
            pairs.add((k, new))
            heapq.heappush(queue, pair_key(k, new))
    return reduce_basis(G)


def reduce_basis(G):
    """Minimal, fully reduced, monic basis, sorted by leading monomial."""
    if not G:
        return []
    key = G[0].ring.order.key
    G = [g.monic() for g in G if g.terms]
    # minimality: drop elements whose lead is divisible by another lead
    keep = []
    leads = [g.leading()[0] for g in G]
    for i, g in enumerate(G):
        li = leads[i]
        redundant = any(
            j != i and _mono_divides(leads[j], li)
            and (leads[j] != li or j < i)
            for j in range(len(G)))
        if not redundant:
            keep.append(g)
    # full reduction of tails
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = normal_form(g, others)
        if r.terms:
            out.append(r.monic())
    out.sort(key=lambda g: key(g.leading()[0]))
    return out


def standard_monomials(gb, ring, max_degree):
    """Monomials of total degree <= max_degree not divisible by any
    leading monomial of the basis; the staircase up to a degree cap."""
    leads = [g.leading()[0] for g in gb]
    out = []
    for exp in monomials_upto(ring.nvars, max_degree):
        if not any(_mono_divides(l, exp) for l in leads):
            out.append(exp)
    out.sort(key=ring.order.key)
    return out


def monomials_upto(nvars, d):
    """All exponent tuples of total degree <= d: graded, and lex within
    each degree with earlier variables dominating.  Constant first."""
    return [e for deg in range(d + 1) for e in _fixed_degree(nvars, deg)]


def _fixed_degree(nvars, deg):
    """The exponent tuples of total degree ``deg``, descending in lex."""
    if nvars == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _fixed_degree(nvars - 1, deg - first):
            yield (first,) + rest


def is_zero_dimensional(gb, ring):
    """Finiteness test: every variable must show up as a pure power among
    the leading monomials.  Returns (flag, witness_variable_or_None)."""
    leads = [g.leading()[0] for g in gb]
    for i in range(ring.nvars):
        ok = False
        for l in leads:
            if l[i] > 0 and all(l[j] == 0 for j in range(ring.nvars) if j != i):
                ok = True
                break
        if not ok:
            return False, ring.names[i]
    return True, None
