"""Seeded instance generators for the three benchmark workloads.

Each workload yields an endless, seed-determined sequence of instance
groups.  The first group holds the family's README worked examples (they
are solved and checked, but the timed metrics aggregate only the stream
after them); every later group is one pass through a fixed cycle of
strata, and a run solves whole groups only.  A stratum fixes the shape
that sets an instance's cost (matrix size, relation degree, where the
expansion point sits); the seed only picks the parameters inside it, so
runs with different seeds solve the same mix of shapes.  Within a stratum the
parameter values are dealt from a shuffled deck, so every value appears
equally often.

Every instance carries the answer implied by its parameters (the oracle
expectation), computed here without dgal.  NOTES.md records the parameter
ranges, why each was chosen, and the instances left out.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class Instance:
    name: str
    rows: tuple            # matrix entries of A(t) as strings, row by row
    argv: tuple            # ``dgal galois`` flags after ``--system``
    expect: dict = field(compare=False)

    def document(self):
        n = len(self.rows)
        lines = ["n: %d" % n]
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                lines.append("A[%d][%d]: %s" % (i + 1, j + 1, entry))
        return "\n".join(lines) + "\n"


def _q(x):
    """A rational as a grammar term, e.g. ``(-1/2)``."""
    return "(%s)" % Fraction(x)


def _argv(degree, point=None):
    out = ("--degree-override", str(degree))
    return out if point is None else out + ("--point", str(point))


class _Deck:
    """Deals values in shuffled rounds, so each appears equally often."""

    def __init__(self, rng, values):
        self.rng, self.values, self.hand = rng, list(values), []

    def draw(self):
        if not self.hand:
            self.hand = self.values[:]
            self.rng.shuffle(self.hand)
        return self.hand.pop()


# -- sl2-airy -----------------------------------------------------------------

def airy(alpha, beta, point=None):
    """``Y' = [[0, 1], [alpha t + beta, 0]] Y``: Galois group SL2."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    entry = "%s*t + %s" % (_q(alpha), _q(beta))
    where = "" if point is None else " @%s" % point
    return Instance("airy(%s,%s)%s" % (alpha, beta, where),
                    (("0", "1"), (entry, "0")), _argv(2, point),
                    {"group": "SL2", "n": 2, "dimension": 3})


AIRY_ALPHAS = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]
AIRY_POINTS = [-2, -1, 0, 1, 2]


def sl2_airy(rng):
    yield (airy(1, 0),)                     # README worked example, a = 1
    alphas, points = _Deck(rng, AIRY_ALPHAS), _Deck(rng, AIRY_POINTS)
    while True:
        # expansion point at the zero of alpha t + beta
        alpha, point = alphas.draw(), points.draw()
        yield (airy(alpha, -alpha * point, point),)


# -- finite-radical -------------------------------------------------------------

def radical(exponents, degree):
    """``Y' = diag(q_1/t, ..., q_n/t) Y`` with rational ``q_i > 0``.

    The solutions are ``t^{q_i}``; they generate the Kummer extension
    ``Q(t)(t^{1/L})`` with ``L`` the lcm of the reduced denominators, so
    the group is finite of order ``L`` (cyclic, the ``L``-th roots of
    unity acting diagonally)."""
    qs = [Fraction(q) for q in exponents]
    n = len(qs)
    rows = tuple(tuple(("%s/(%s*t)" % (q.numerator, q.denominator)
                        if i == j else "0") for j in range(n))
                 for i, q in enumerate(qs))
    order = lcm(*(q.denominator for q in qs))
    return Instance("diag(%s)/t" % ",".join(str(q) for q in qs), rows,
                    _argv(degree),
                    {"group": "finite", "n": n, "dimension": 0,
                     "order": order})


# one-dimensional: exponent r/p with p in {2, 3, 4, 6}, relation y^p = t^r
RADICAL_1X1 = [Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3),
               Fraction(4, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1, 6)]
# two-dimensional at degree 3, denominators in {1, 3}: group order 3
RADICAL_2X2 = [(Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(2, 3)),
               (Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)),
               (Fraction(1), Fraction(1, 3)), (Fraction(1, 3), Fraction(1))]


def finite_radical(rng):
    yield (radical([Fraction(1, 2)], 2),    # README worked examples
           radical([1], 1),
           radical([Fraction(1, 2), Fraction(1, 3)], 3))
    ones, twos = _Deck(rng, RADICAL_1X1), _Deck(rng, RADICAL_2X2)
    while True:
        q = ones.draw()
        yield tuple(radical(twos.draw(), 3) for _ in range(3)) + (
            radical([q], q.denominator),)


# -- torus-characters -------------------------------------------------------------

def rotation(w, point):
    """``Y' = [[0, w], [-w, 0]] Y``: cos and sin of ``w t``, group SO(2)."""
    w = Fraction(w)
    return Instance("rotation(%s)@%s" % (w, point),
                    (("0", _q(w)), (_q(-w), "0")), _argv(2, point),
                    {"group": "SO2", "n": 2, "dimension": 1})


def exponential(c, degree, point):
    """``y' = c y``: ``exp(c t)`` is transcendental, group GL1."""
    c = Fraction(c)
    return Instance("exp(%s)@%s" % (c, point), ((_q(c),),), _argv(degree, point),
                    {"group": "GL1", "n": 1, "dimension": 1})


ROTATION_WS = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
EXP_CS = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2)]
POINTS_01 = [0, 1]


def torus_characters(rng):
    yield (rotation(1, 0), exponential(1, 3, 0))   # README worked examples
    ws, cs = _Deck(rng, ROTATION_WS), _Deck(rng, EXP_CS)
    wpts, cpts = _Deck(rng, POINTS_01), _Deck(rng, POINTS_01)
    while True:
        yield (rotation(ws.draw(), wpts.draw()),
               rotation(ws.draw(), wpts.draw()),
               exponential(cs.draw(), 3, cpts.draw()))


WORKLOADS = {
    "sl2-airy": sl2_airy,
    "finite-radical": finite_radical,
    "torus-characters": torus_characters,
}


def groups(workload, seed):
    """The endless sequence of instance groups of ``workload`` for ``seed``:
    the worked examples, then one group per cycle of strata."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
