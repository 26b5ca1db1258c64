"""A sweep over small instances of the classes the README claims.

Radical diagonals diag(q_i/t), y' = c y, rotations [[0, w], [-w, 0]] and
constant gauges P D P^-1 of diagonal systems (diag(c_i) among them).
Every run of `dgal galois` ends in exit 0 or a named refusal (2, 3 or
4), never exit 1 or a traceback.  On exit 0 the printed group is the one
the parameters imply: the radical diagonal diag(q_i/t) has the cyclic
group of order the lcm L of the reduced denominators of the q_i (the
rule perfbench/families.py checks its instances by); a conjugate
P D P^-1 has the group of D; y' = c y and a rotation have a
one-dimensional group, except that c = 0 has the trivial group.  A
constant gauge may refuse, but never with "no certified class".
"""

import contextlib
import io
import os
import tempfile
from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings, strategies as st

from dgal.cli import main


def _q(x):
    return "(%s)" % x


def rationals(numerators, denominators):
    return st.builds(Fraction, st.integers(*numerators),
                     st.integers(*denominators))


def _radical(qs):
    """diag(q_i/t): finite of order L, at relation degree max denominator."""
    degree = max(q.denominator for q in qs)
    rows = [["%s/t" % _q(q) if i == j else "0" for j in range(len(qs))]
            for i, q in enumerate(qs)]
    return rows, degree, {"order": str(lcm(*(q.denominator for q in qs))),
                          "dimension": "0"}


def _torus(c):
    return {"dimension": "1"} if c else {"order": "1", "dimension": "0"}


@st.composite
def radical_diagonals(draw):
    n = draw(st.integers(1, 2))
    qs = draw(st.lists(rationals((-2, 3), (1, 4 if n == 1 else 3)),
                       min_size=n, max_size=n))
    rows, degree, expect = _radical(qs)
    return rows, ["--degree-override", str(degree)], expect, False


@st.composite
def exponentials(draw):
    c = draw(rationals((-3, 3), (1, 3)))
    return [[_q(c)]], ["--degree-override", str(draw(st.integers(1, 3))),
                       "--point", str(draw(st.integers(0, 1)))], _torus(c), \
        False


@st.composite
def rotations(draw):
    w = draw(rationals((-3, 3), (1, 2)).filter(bool))
    return ([["0", _q(w)], [_q(-w), "0"]],
            ["--degree-override", "2", "--point", str(draw(st.integers(0, 1)))],
            {"dimension": "1"}, False)


@st.composite
def gauges(draw):
    """P D P^-1 with a small integer P and D radical (denominators <= 2)
    or constant.  The proto-group of a constant D is a conjugate of a
    subgroup of the diagonal torus, which the prime-graph certificate
    covers, so its refusals may not say "no certified class"."""
    P = draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4).filter(
        lambda p: p[0] * p[3] != p[1] * p[2]))
    det = P[0] * P[3] - P[1] * P[2]
    Pinv = [Fraction(P[3], det), Fraction(-P[1], det),
            Fraction(-P[2], det), Fraction(P[0], det)]
    if draw(st.booleans()):
        d = draw(st.lists(rationals((-2, 3), (1, 2)), min_size=2, max_size=2))
        _rows, degree, expect = _radical(d)
        entry, certified = "%s/t", False
    else:
        d = draw(st.lists(st.integers(-2, 2).map(Fraction), min_size=2,
                          max_size=2))
        degree, expect, entry = 2, _torus(any(d)), "%s"
        certified = True
    rows = [[entry % _q(sum(P[2 * i + k] * d[k] * Pinv[2 * k + j]
                            for k in range(2)))
             for j in range(2)] for i in range(2)]
    return rows, ["--degree-override", str(degree), "--point", "1"], \
        expect, certified


def galois(rows, flags):
    """Exit code and output lines of `dgal galois` on the system."""
    doc = "n: %d\n" % len(rows) + "".join(
        "A[%d][%d]: %s\n" % (i + 1, j + 1, entry)
        for i, row in enumerate(rows) for j, entry in enumerate(row))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sys.txt")
        with open(path, "w") as fh:
            fh.write(doc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["galois", "--system", path] + flags)
    return code, out.getvalue().splitlines(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.one_of(radical_diagonals(), exponentials(), rotations(), gauges()))
# diag(1, 2): a positive-dimensional torus through the diagonal-binomial
# branch, where the lattice is saturated
@example(([["(1)", "0"], ["0", "(2)"]],
          ["--degree-override", "2", "--point", "1"], {"dimension": "1"},
          True))
def test_claimed_classes_answer_or_refuse(instance):
    rows, flags, expect, certified = instance
    code, lines, err = galois(rows, flags)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if certified:
        assert "no certified class" not in err
    if code == 0:
        printed = dict(line.split(": ", 1) for line in lines)
        assert {key: printed.get(key) for key in expect} == expect
        if "order" not in expect:
            assert "order" not in printed
