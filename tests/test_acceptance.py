"""Acceptance suite: one test per top-level criterion, each printing a
single pass/fail line with the criterion number."""

import math
import random
import time
from fractions import Fraction

import pytest

from dgal import bounds as B
from dgal.fields import ConstField
from dgal.groups import (AlgebraicSubgroup, characters_generators, group_ring,
                         identity_component)
from dgal.hyperexp import HyperexpElement, relation_lattice
from dgal.pipeline import PipelineConfig, _same_ideal, galois_group
from dgal.ratfunc import RatFuncField
from dgal.relations import second_point_check
from dgal.series import Series, TruncSeries, ratfunc_series
from dgal.systems import OdeSystem

K = ConstField()
R = RatFuncField(K)


def sys_of(*rows):
    return OdeSystem(R, [[R.parse(e) for e in row] for row in rows])


def _report(num, text, fn):
    try:
        fn()
    except BaseException:
        print("criterion %d: FAIL - %s" % (num, text))
        raise
    print("criterion %d: PASS - %s" % (num, text))


_RUNS = {}


def pipeline(key, rows, d, **kw):
    if key not in _RUNS:
        t0 = time.time()
        desc = galois_group(sys_of(*rows), PipelineConfig(degree=d, **kw))
        _RUNS[key] = (desc, time.time() - t0)
    return _RUNS[key]


def test_criterion_1_known_galois_groups():
    def check():
        desc, dt = pipeline("mu2", [["1/(2*t)"]], 2)
        assert dt < 60
        assert desc.finite and desc.order == 2 and desc.dimension == 0
        assert desc.rel.basis == [desc.rel.ring.parse("x_1_1^2 - t")]

        desc, dt = pipeline("exp", [["1"]], 3, a=K.zero)
        assert dt < 60
        assert not desc.finite and desc.rel.basis == []
        assert desc.identity_component.generators == []

        desc, dt = pipeline("t", [["1/t"]], 1)
        assert dt < 60
        assert desc.finite and desc.order == 1
        assert desc.rel.basis == [desc.rel.ring.parse("x_1_1 - t")]

        desc, dt = pipeline("harmonic", [["0", "1"], ["-1", "0"]], 2, a=K.zero)
        assert dt < 60
        assert not desc.finite and desc.dimension == 1
        ring = group_ring(2, K)
        rotations = AlgebraicSubgroup(2, ring, [
            ring.parse("x_1_1^2 + x_2_1^2 - 1"),
            ring.parse("x_1_2^2 + x_2_2^2 - 1"),
            ring.parse("x_1_1*x_1_2 + x_2_1*x_2_2"),
            ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1"),
        ])
        assert _same_ideal(desc.identity_component, rotations)
        chars = characters_generators(
            identity_component(desc.proto), 2)
        assert len(chars) == 1 and chars[0].ring.field.degree() == 2

        desc, dt = pipeline("airy", [["0", "1"], ["t", "0"]], 2)
        assert dt < 60
        det1 = desc.rel.ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1")
        assert desc.rel.basis == [det1]
        assert _same_ideal(desc.identity_component, desc.proto)
        assert desc.dimension == 3

        desc, dt = pipeline("diag23", [["1/(2*t)", "0"], ["0", "1/(3*t)"]], 3)
        assert dt < 60
        assert desc.finite and desc.order == 6
        # exponent-lattice oracle: index of {m : m1/2 + m2/3 integral}
        from dgal.lattice import congruence_lattice
        basis = congruence_lattice([[Fraction(1, 2), Fraction(1, 3)]], 2)
        index = abs(basis[0][0] * basis[1][1])
        assert desc.order == index == 6
    _report(1, "six known Galois groups, each under 60 s", check)


def test_criterion_2_series_correctness():
    def check():
        rng = random.Random(7)
        order = 30
        for _ in range(20):
            n = rng.randint(1, 3)
            A = [[R.from_coeffs([K.from_int(rng.randint(-3, 3))
                                 for _ in range(rng.randint(1, 4))])
                  for _ in range(n)] for _ in range(n)]
            s = OdeSystem(R, A)
            a = K.from_int(rng.randint(-5, 5))
            G = s.fundamental_series(a, order + 1)
            Aser = TruncSeries.from_entries(K, a, [
                [ratfunc_series(R, A[i][j], a, order + 1)
                 for j in range(n)] for i in range(n)])
            lhs = G.diff()
            rhs = Aser.matmul(G)
            assert lhs.truncate(order).sub(rhs.truncate(order)).is_zero()
            det = G.det_series()
            trace = Series.constant(K, K.zero, order + 1)
            for i in range(n):
                trace = trace + Aser.entry(i, i)
            got = det.diff().truncate(order) - \
                (trace * det).truncate(order)
            assert got.is_zero()
    _report(2, "20 random systems satisfy the defining equation and the "
               "determinant identity through order 30 exactly", check)


def test_criterion_3_relation_soundness_second_point():
    def check():
        cases = [
            (sys_of(["1/(2*t)"]), K.from_int(1), 2, 1, K.from_int(9)),
            (sys_of(["1/t"]), K.from_int(1), 1, 1, K.from_int(3)),
            (sys_of(["0", "1"], ["-1", "0"]), K.zero, 2, 1, K.from_int(2)),
            (sys_of(["0", "1"], ["t", "0"]), K.from_int(1), 2, 2,
             K.from_int(2)),
        ]
        from dgal.relations import order_bound, relation_ideal
        for s, a, d, ell, b in cases:
            N, _ = order_bound(s, a, d, ell)
            rel = relation_ideal(s, a, d, ell, N)
            ok, _how = second_point_check(s, rel, b, margin=10)
            assert ok
    _report(3, "every emitted relation holds at a second regular point "
               "through order N+10", check)


def test_criterion_4_bound_arithmetic():
    def check():
        t0 = time.time()
        assert B.evaluate(B.gamma_bound(1, 2)).exact_int() == 8
        assert B.evaluate(B.gamma_bound(2, 2)).exact_int() == 32
        assert B.evaluate(B.unipotent_family_bound(1)).exact_int() == 6561
        assert B.evaluate(B.unipotent_family_bound(2)).exact_int() == \
            17 ** 4096
        ds, ns = B.dstar_nstar(1, 1)
        assert B.evaluate(ds).exact_int() == 4
        assert B.evaluate(ns).exact_int() == 8
        k1, _, _ = B.kappas(1)
        v1 = B.evaluate(k1).exact_int()
        assert v1 == math.comb(6562, 3281) ** 2
        assert B.evaluate(k1, bit_cap=8).contains_exact(v1)
        for n in (1, 2, 3):
            for d in range(1, 7):
                assert B.evaluate(B.gamma_bound(n, d)).exact < \
                    B.evaluate(B.gamma_comparison(n, d)).exact
        dt = B.proto_galois_degree_bound(1)
        assert B.parse(B.render(dt)) == dt
        mag = B.evaluate(dt)
        ll = mag.loglog2()
        assert ll.a > 0 and ll.a <= ll.b
        assert time.time() - t0 < 10
    _report(4, "bound tower exact values, brackets, and the comparison "
               "inequality, under 10 s", check)


def test_criterion_5_character_lattices():
    def check():
        from dgal.groups import full_group
        # GL1: rank 1
        chars = characters_generators(full_group(1, K), 3)
        assert len(chars) == 1
        # SL2: trivial
        ring = group_ring(2, K)
        sl2 = AlgebraicSubgroup(
            2, ring, [ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1")])
        sl2 = identity_component(sl2)
        assert characters_generators(sl2, 2) == []
        # diagonal torus in GL2: rank 2
        torus = AlgebraicSubgroup(
            2, ring, [ring.parse("x_1_2"), ring.parse("x_2_1")],
            connected=True)
        assert len(characters_generators(torus, 2)) == 2
        # rotation group: rank 1, over a degree-2 extension
        rot = AlgebraicSubgroup(2, ring, [
            ring.parse("x_1_1^2 + x_2_1^2 - 1"),
            ring.parse("x_1_2^2 + x_2_2^2 - 1"),
            ring.parse("x_1_1*x_1_2 + x_2_1*x_2_2"),
            ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1"),
        ])
        rot = identity_component(rot)
        rchars = characters_generators(rot, 2)
        assert len(rchars) == 1
        fld = rchars[0].ring.field
        assert fld.degree() == 2
        # the character is x_2_2 + c*x_2_1 with c a square root of -1
        coeffs = dict(rchars[0].poly.terms)
        c = coeffs[(0, 0, 1, 0)]
        assert fld.is_one(coeffs[(0, 0, 0, 1)])
        assert fld.eq(fld.mul(c, c), fld.neg(fld.one))
        # zero-dimensionality: the eigenline refinement inside
        # characters_generators asserts every invariant space is a line,
        # and raises otherwise; reaching this point certifies it held.
    _report(5, "character lattice ranks (with zero-dimensional solution "
               "sets) for GL1, SL2, the diagonal torus, and rotations",
            check)


def test_criterion_6_hyperexponential_lattice():
    def verifies(rl, texts):
        # exact log-derivative identity f'/f = sum m_j v_j for every
        # basis vector m of L and its cofactor f
        Rl = rl.R
        for m, f in zip(rl.basis, rl.cofactors):
            combo = Rl.zero
            for mj, text in zip(m, texts):
                combo = Rl.add(combo, Rl.scale(Rl.parse(text),
                                               K.from_int(mj)))
            if not Rl.eq(Rl.div(Rl.diff(f), f), combo):
                return False
        return True

    def check():
        from dgal.lattice import hnf_basis
        pair = ("1/t", "1/(2*t)")
        rl = relation_lattice([HyperexpElement(R, R.parse(v)) for v in pair])
        t = R.parse("t")
        assert rl.basis == [[1, 0], [0, 2]]
        assert all(R.eq(f, t) for f in rl.cofactors)
        assert verifies(rl, pair)
        # h2^2 = h1: (-1, 2) = -(1, 0) + (0, 2) lies in L, with the
        # cofactor t^-1 * t = 1
        assert hnf_basis(rl.basis + [[-1, 2]]) == rl.basis
        f = R.div(rl.cofactors[1], rl.cofactors[0])
        assert R.is_one(f)
        assert R.eq(R.scale(R.parse(pair[1]), K.from_int(2)),
                    R.parse(pair[0]))
        # a constant logarithmic derivative admits no relation
        assert relation_lattice([HyperexpElement(R, R.one)]).basis == []
        # every basis vector of a second instance verifies too
        pair2 = ("1/(2*t)", "1/(3*t)")
        rl2 = relation_lattice([HyperexpElement(R, R.parse(v))
                                for v in pair2])
        assert rl2.basis and verifies(rl2, pair2)
    _report(6, "the pair (1/t, 1/(2t)) yields exactly h2^2 = h1 with "
               "f = 1, and relations re-verify exactly", check)


def test_criterion_7_sandwich_on_every_run():
    def check():
        keys = [("mu2", [["1/(2*t)"]], 2, {}),
                ("exp", [["1"]], 3, {"a": K.zero}),
                ("t", [["1/t"]], 1, {}),
                ("harmonic", [["0", "1"], ["-1", "0"]], 2, {"a": K.zero}),
                ("airy", [["0", "1"], ["t", "0"]], 2, {}),
                ("diag23", [["1/(2*t)", "0"], ["0", "1/(3*t)"]], 3, {})]
        for key, rows, d, kw in keys:
            desc, _ = pipeline(key, rows, d, **kw)
            assert desc.sandwich_checked
    _report(7, "every completed pipeline run carries the ideal-containment "
               "sandwich certificate", check)


def test_criterion_8_symbolic_bound_refusal(tmp_path, capsys):
    def check():
        from dgal.cli import main
        doc = tmp_path / "sys.txt"
        doc.write_text("n: 1\nA[1][1]: 1/(2*t)\n")
        code = main(["galois", "--system", str(doc)])
        out = capsys.readouterr().out
        assert code == 2
        assert "not executable at desk scale" in out
        assert "jordan(" in out and "maxbinom(" in out and "^" in out
        # with an override the same instance runs to completion
        code = main(["galois", "--system", str(doc),
                     "--degree-override", "2"])
        out = capsys.readouterr().out
        assert code == 0 and "order: 2" in out
    _report(8, "the CLI refuses the symbolic degree bound with exit code 2 "
               "and prints the tower", check)
