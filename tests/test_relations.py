import importlib.util
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from dgal import cli, linalg, relations
from dgal.fields import ConstField, field_adjoin
from dgal.multipoly import GRADED_LEX, PolyRing, monomials_upto
from dgal.pipeline import PipelineConfig, galois_group, proto_galois
from dgal.ratfunc import RatFuncField
from dgal.errors import DgalError, InputError
from dgal.relations import (certify, find_relations, group_ring,
                            matrix_var_names, order_bound,
                            relation_ideal, second_point_check,
                            _AnsatzBuilder, _Echelon, _derivative,
                            _ideal_generators, _kernel_to_polys, _local_basis,
                            _ProductPowers, _RelationSolve, _row_reduce_polys,
                            _shift_generators)
from dgal.series import Series
from dgal.systems import MonomialSeries, OdeSystem
from sympy_oracle import rref as sympy_rref, sympy_domain, to_sympy
from test_sweep import exponentials, gauges, radical_diagonals, rotations
from truncation import truncated_relations

K = ConstField()
R = RatFuncField(K)
GOLDEN = Path(__file__).parent / "golden"


def sys_of(*rows):
    return OdeSystem(R, [[R.parse(e) for e in row] for row in rows])


def certified_order(sys, a, d, ell):
    N, rig = order_bound(sys, a, d, ell)
    assert rig
    return N


def test_mu2_relation():
    s = sys_of(["1/(2*t)"])
    a = K.from_int(1)
    N = certified_order(s, a, 2, 1)
    rel = relation_ideal(s, a, 2, 1, N)
    assert len(rel.basis) == 1
    expected = rel.ring.parse("x_1_1^2 - t")
    assert rel.basis[0] == expected


def test_exponential_no_relation():
    s = sys_of(["1"])
    a = K.zero
    N = certified_order(s, a, 3, 1)
    rel = relation_ideal(s, a, 3, 1, N)
    assert rel.basis == []


def test_solution_in_k():
    s = sys_of(["1/t"])
    a = K.from_int(1)
    N = certified_order(s, a, 1, 1)
    rel = relation_ideal(s, a, 1, 1, N)
    assert len(rel.basis) == 1
    assert rel.basis[0] == rel.ring.parse("x_1_1 - t")


def test_harmonic_relations():
    s = sys_of(["0", "1"], ["-1", "0"])
    a = K.zero
    N = certified_order(s, a, 2, 1)
    rel = relation_ideal(s, a, 2, 1, N)
    ring = rel.ring
    quadrics = [
        ring.parse("x_1_1^2 + x_2_1^2 - 1"),
        ring.parse("x_1_2^2 + x_2_2^2 - 1"),
        ring.parse("x_1_1*x_1_2 + x_2_1*x_2_2"),
        ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1"),
    ]
    # the orthogonality quadrics lie in the span of the computed basis
    # (which also legitimately contains linear relations such as
    # x_1_1 - x_2_2, since cos appears twice in the series matrix)
    assert _row_reduce_polys(ring, rel.basis + quadrics) == \
        _row_reduce_polys(ring, rel.basis)
    # and everything found is sound
    store = MonomialSeries(s, a, 2)
    for P in rel.basis:
        assert store.series_of(P, N + 10).is_zero()


def test_relation_soundness_second_point():
    # the relations cut out the same coset at any regular point, after
    # adjusting by a constant invertible transport factor
    s = sys_of(["1/(2*t)"])
    a = K.from_int(1)
    N = certified_order(s, a, 2, 1)
    rel = relation_ideal(s, a, 2, 1, N)
    ok, how = second_point_check(s, rel, K.from_int(4))
    assert ok and how == "transport"


def test_second_point_direct():
    # rotation systems transport by a group element, so the relations
    # vanish at the second point without any adjustment
    s = sys_of(["0", "1"], ["-1", "0"])
    a = K.zero
    N = certified_order(s, a, 2, 1)
    rel = relation_ideal(s, a, 2, 1, N)
    ok, how = second_point_check(s, rel, K.from_int(1))
    assert ok and how == "direct"


def test_membership_negative():
    s = sys_of(["1"])  # e^t
    store = MonomialSeries(s, K.zero, 1)
    ring = group_ring(1, R)
    P = ring.parse("x_1_1 - t")
    assert not store.series_of(P, 5).is_zero()
    assert store.series_of(ring.parse("x_1_1 - x_1_1"), 5).is_zero()


def test_second_point_transports_a_positive_dimensional_coset():
    # at d = 2 no relation ties x_2_2 (its own is x_2_2^3 = t), so h =
    # diag(2, c) transports every relation from a = 1 to b = 4 for any
    # c != 0: the transport equations have a curve of zeros, and pinning
    # the witness variable to 1 leaves a point
    s = sys_of(["1/(2*t)", "0"], ["0", "1/(3*t)"])
    rel = find_relations(s, K.one, 2, 2)
    assert second_point_check(s, rel, K.from_int(4)) == (True, "transport")


@pytest.mark.parametrize("rows,a,d,ell,b,how", [
    pytest.param([["1/(2*t)", "0"], ["0", "1/(3*t)"]], 1, 3, 2, 4,
                 "transport", id="diag23"),
    pytest.param([["1/(3*t)", "0"], ["0", "2/(3*t)"]], 1, 3, 2, 5,
                 "transport", id="diag-1/3-2/3"),
    pytest.param([["0", "1"], ["t", "0"]], 1, 2, 2, 3, "direct",
                 id="airy"),
])
def test_second_point_check_outcomes(rows, a, d, ell, b, how):
    s = sys_of(*rows)
    rel = find_relations(s, K.from_int(a), d, ell)
    assert second_point_check(s, rel, K.from_int(b)) == (True, how)


def test_monotone_in_degree():
    s = sys_of(["1/(2*t)"])
    a = K.from_int(1)
    rel2 = find_relations(s, a, 2, 1)
    rel3 = find_relations(s, a, 3, 1)
    ring3 = rel3.ring
    lifted = [ring3.parse(rel2.ring.format(P)) for P in rel2.basis]
    joint = _row_reduce_polys(ring3, rel3.basis + lifted)
    assert joint == _row_reduce_polys(ring3, rel3.basis)


def test_zero_system_relations():
    s = sys_of(["0"])
    a = K.from_int(2)
    N = certified_order(s, a, 1, 1)
    rel = relation_ideal(s, a, 1, 1, N)
    assert len(rel.basis) == 1
    assert rel.basis[0] == rel.ring.parse("x_1_1 - 1")


# a multiple of every prime of the modular solve's ladder
PRIMES_PRODUCT = prod(linalg.PRIMES)


def test_denominators_divisible_by_p_take_the_exact_path():
    # y = exp(t/P), P the product of the ladder: every series coefficient
    # after the first has a power of each prime in its denominator, which
    # has no image mod that prime
    s = sys_of(["1/%d" % PRIMES_PRODUCT])
    a = K.zero
    solver = _RelationSolve(s, a, 1, 1)
    N, _ = order_bound(s, a, 1, 1, solver=solver)
    assert solver.exact_reason == "a denominator is 0 mod p"
    assert relation_ideal(s, a, 1, 1, N, solver=solver).basis == []


def test_spurious_relation_mod_p_is_rejected():
    # y = exp(P t), P the product of the ladder: every series coefficient
    # after the first is 0 mod each prime, so over GF(p) alone the
    # solution looks like the constant 1
    s = sys_of(["%d" % PRIMES_PRODUCT])
    a = K.zero
    builder = _AnsatzBuilder(s, a, 1, 1)
    rows = [builder.row(i) for i in range(12)]
    ring = group_ring(1, R)
    for p in linalg.PRIMES:
        fp = linalg.PrimeField(p)
        modular = _AnsatzBuilder(s, a, 1, 1, fp)
        acc = linalg.RrefAccumulator(fp, builder.ncols)
        for i in range(12):
            acc.add_row(modular.row(i))
        lifted = [{j: K.from_fraction(linalg.rational_reconstruction(u, p))
                   for j, u in vec.items()} for vec in acc.kernel_vectors()]
        spurious = _row_reduce_polys(ring, _kernel_to_polys(builder, lifted,
                                                            ring, a))
        assert spurious == [ring.parse("x_1_1 - 1")]
        assert not linalg.kernel_vanishes(rows, linalg.lift_kernel(acc))
    # the shared solve sees the failed check at each prime and reruns
    # exactly
    solver = _RelationSolve(s, a, 1, 1)
    N, _ = order_bound(s, a, 1, 1, solver=solver)
    assert solver.exact_reason == "the exact check failed"
    assert relation_ideal(s, a, 1, 1, N, solver=solver).basis == []
    assert find_relations(s, a, 1, 1).basis == []


def test_shared_solve_matches_separate_solves():
    s = sys_of(["0", "1"], ["-1", "0"])
    a = K.zero
    N = certified_order(s, a, 2, 1)
    shared = find_relations(s, a, 2, 1)
    assert shared.order_used == N
    assert shared.basis == relation_ideal(s, a, 2, 1, N).basis


def test_relation_ideal_takes_only_the_certified_order():
    # the relation solve has one truncation order, the certified one
    s = sys_of(["0", "1"], ["-1", "0"])
    a = K.zero
    N = certified_order(s, a, 2, 1)
    for other in (N - 1, N + 1):
        with pytest.raises(InputError, match="certified order %d" % N):
            relation_ideal(s, a, 2, 1, other)


def test_number_field_takes_the_exact_path():
    s = OdeSystem.from_document("n: 1\nfield: g^2 - 2\nA[1][1]: 1/(2*t)\n")
    a = s.R.const.one
    solver = _RelationSolve(s, a, 2, 1)
    N, _ = order_bound(s, a, 2, 1, solver=solver)
    assert solver.exact_reason == "the constant field is a number field"
    rel = relation_ideal(s, a, 2, 1, N, solver=solver)
    assert rel.basis == [rel.ring.parse("x_1_1^2 - t")]


def test_relation_solve_builds_no_series_products(monkeypatch):
    # every row of the solve reads the one monomial-series store, which
    # extends by recurrence: no series product and no second store
    calls = {"mul": 0, "store": 0}
    mul, init = Series.__mul__, MonomialSeries.__init__

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_init(self, *args):
        calls["store"] += 1
        init(self, *args)

    monkeypatch.setattr(Series, "__mul__", counting_mul)
    monkeypatch.setattr(MonomialSeries, "__init__", counting_init)
    s = sys_of(["0", "1"], ["t", "0"])  # the worked Airy example
    rel = find_relations(s, K.one, 2, 2)
    assert rel.basis == [rel.ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1")]
    assert calls == {"mul": 0, "store": 1}


# the worked examples: rows of A, point a, relation degree d (ell = 2)
WORKED = {
    "mu2": ([["1/(2*t)"]], 1, 2),
    "exp": ([["1"]], 0, 3),
    "t": ([["1/t"]], 1, 1),
    "harmonic": ([["0", "1"], ["-1", "0"]], 0, 2),
    "airy": ([["0", "1"], ["t", "0"]], 1, 2),
    "diag23": ([["1/(2*t)", "0"], ["0", "1/(3*t)"]], 1, 3),
}


@pytest.mark.parametrize("name", WORKED)
def test_certificate_accepts_the_default_basis_only(name):
    # below the order where the rank last grows, the truncated kernel
    # holds a false relation, which the certificate must reject; the
    # closure from every basis relation gives each verdict too
    rows, a, d = WORKED[name]
    s = sys_of(*rows)
    rel = find_relations(s, K.from_int(a), d, 2)
    assert certify(s, rel.basis, rel.a)
    assert full_closure_certify(s, rel.basis, rel.a)
    half = truncated_relations(s, rel.a, d, 2, rel.order_used // 2)
    assert not certify(s, half.basis, half.a)
    assert not full_closure_certify(s, half.basis, half.a)


def test_local_basis_clears_a_pole_at_the_point():
    # both rows of the reduced echelon basis have a pole at t = 0; scaled
    # by t they take the same value x_2_2 there, so one of them is
    # replaced by their difference over t
    ring = PolyRing(R, matrix_var_names(2), GRADED_LEX)
    x11, x12, _x21, x22 = ring.gens
    inv_t = R.inv(R.t)
    span = _row_reduce_polys(ring, [x11 + x22.scale(inv_t),
                                    x12 + x22.scale(inv_t)])
    assert not all(R.is_regular_at(c, K.zero)
                   for P in span for c in P.terms.values())
    local = _local_basis(span, K.zero)
    assert all(R.is_regular_at(c, K.zero)
               for P in local for c in P.terms.values())
    monos = sorted({e for P in local for e in P.terms})
    values = [[R.eval_at(P.terms[e], K.zero) if e in P.terms else K.zero
               for e in monos] for P in local]
    assert len(local) == len(linalg.rref(K, values)[1]) == 2
    assert _row_reduce_polys(ring, local) == span


def count_add_row(monkeypatch):
    """A one-element list that counts RrefAccumulator.add_row calls."""
    calls = [0]
    add_row = linalg.RrefAccumulator.add_row

    def counting(self, row):
        calls[0] += 1
        return add_row(self, row)

    monkeypatch.setattr(linalg.RrefAccumulator, "add_row", counting)
    return calls


def test_solve_ends_at_the_first_certified_kernel(monkeypatch):
    # the work-count system: 104 rows with the stabilize window, while
    # the kernel is fixed by rows 0..N+1 and confirmed by one more row
    calls = count_add_row(monkeypatch)
    s = sys_of(["0", "1"], ["-t/2 + 1", "0"])
    rel = find_relations(s, K.from_int(2), 2, 2)
    assert calls[0] <= rel.order_used + 3


def test_certificate_closes_the_span_under_d_dt():
    # F = [[1, t - 1], [0, t^6]]: the derivative of x_1_2 - t + 1 is
    # x_2_2/t^6 - 1, whose relation x_2_2 - t^6 is beyond the cap 2*ell,
    # so the span of the basis alone is not closed under d/dt
    s = sys_of(["0", "1/t^6"], ["0", "6/t"])
    rel = find_relations(s, K.one, 1, 2)
    assert rel.basis == [rel.ring.parse(P) for P in
                         ("x_1_1 - 1", "x_1_2 - t + 1", "x_2_1")]


def test_unliftable_kernel_falls_back_once_its_rank_holds(monkeypatch):
    # y = (t/200)^4: the relation x_1_1 - t^4/200^4 has an entry past the
    # reconstruction bound sqrt(p/2) of every prime of the ladder, so no
    # lift exists at any order; each modular pass ends once the rank has
    # held as long as it took to reach, at row 2(N + 2), and the exact
    # pass stops one row after the kernel's, at row N + 3
    calls = count_add_row(monkeypatch)
    s = sys_of(["4/t"])
    solver = _RelationSolve(s, K.from_int(200), 1, 2)
    N, rig = order_bound(s, K.from_int(200), 1, 2, solver=solver)
    assert rig and solver.exact_reason == "rational reconstruction failed"
    assert solver.basis == [solver.ring.parse("x_1_1 - 1/1600000000*t^4")]
    assert calls[0] <= 2 * len(linalg.PRIMES) * (N + 2) + N + 3


def record_passes(monkeypatch):
    """A list that gets, for each relation solve run, whether its last
    pass was modular and the primes of the ladder it had not failed."""
    passes = []
    solve = _RelationSolve.certified

    def recording(self):
        N = solve(self)
        passes.append((self.modular, self.primes[:]))
        return N

    monkeypatch.setattr(_RelationSolve, "certified", recording)
    return passes


@pytest.mark.parametrize("a", [40000, 10**6])
def test_entries_past_the_first_prime_lift_at_the_second(monkeypatch, a):
    # y' = y/(2t) at t = a: the relation x_1_1^2 - t/a has the entry 1/a,
    # past the first prime's reconstruction bound sqrt(p/2) = 23170 and
    # within that of 2^61 - 1, so the second modular pass lifts it and no
    # exact pass runs; N and rigour are those of one pass over 2^61 - 1
    passes = record_passes(monkeypatch)
    s = sys_of(["1/(2*t)"])
    solver = _RelationSolve(s, K.from_int(a), 2, 2)
    N, rig = order_bound(s, K.from_int(a), 2, 2, solver=solver)
    assert (N, rig, solver.exact_reason) == (9, True, None)
    assert passes == [(True, [(1 << 61) - 1])]
    rel = relation_ideal(s, K.from_int(a), 2, 2, N, solver=solver)
    assert rel.basis == [rel.ring.parse("x_1_1^2 - 1/%d*t" % a)]


def load_families():
    """The benchmark's instance generators, perfbench/families.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_airy_and_benchmark_instances_take_one_modular_pass(
        monkeypatch, tmp_path, capsys):
    # the worked Airy system and the first stream instance of each
    # benchmark family: every relation solve of `dgal galois` ends at the
    # first prime of the ladder
    families = load_families()
    cases = [((GOLDEN / "airy.sys").read_text(), ["--degree-override", "2"])]
    for workload in families.WORKLOADS:
        stream = families.groups(workload, 301)
        next(stream)
        inst = next(stream)[0]
        cases.append((inst.document(), list(inst.argv)))
    passes = record_passes(monkeypatch)
    for text, flags in cases:
        passes.clear()
        doc = tmp_path / "system.sys"
        doc.write_text(text)
        assert cli.main(["galois", "--system", str(doc)] + flags) == 0
        assert passes and all(p == (True, list(linalg.PRIMES))
                              for p in passes)
    capsys.readouterr()


class _CountingPrimeField(linalg.PrimeField):
    """GF(p) that counts the entries its row kernels update: those of the
    stored rows an incoming row is reduced by, and those subtracted in
    back-substitution."""

    updates = 0

    def reduce_row(self, target, rows, pivots):
        return super().reduce_row(target, _CountingRows(self, rows), pivots)

    def sub_multiples(self, target, pairs):
        self.updates += sum(len(source) for _c, source in pairs)
        return super().sub_multiples(target, pairs)


class _CountingRows:
    """Stored rows that count the entries of each row read from them."""

    def __init__(self, field, rows):
        self.field, self.rows = field, rows

    def __getitem__(self, pc):
        row = self.rows[pc]
        self.field.updates += len(row)
        return row


def test_accumulator_reduces_only_nonzero_entries():
    # Airy-type ansatz at a = 2, d = ell = 2: 75 columns, rank 70, so a
    # reduced row is its pivot and about 5 free entries.  Eliminating on
    # dense rows updates 148,071 entries here; on sparse rows, kept in
    # echelon form until the kernel is read, 18,838 (11,651 when every
    # row is back-substituted as it comes).
    s = sys_of(["0", "1"], ["-t/2 + 1", "0"])
    fp = _CountingPrimeField()
    builder = _AnsatzBuilder(s, K.from_int(2), 2, 2, fp)
    acc = linalg.RrefAccumulator(fp, builder.ncols)
    for i in range(104):
        acc.add_row(builder.row(i))
    assert len(acc.kernel_vectors()) == builder.ncols - acc.rank == 5
    assert (builder.ncols, acc.rank) == (75, 70)
    assert fp.updates <= 20000


def test_certified_solve_does_no_exact_series_work(monkeypatch):
    # the worked Airy example: every series coefficient of the solve is
    # computed over GF(p), and no exact row is checked
    fields, checks = set(), [0]
    extend, vanishes = MonomialSeries.extend, linalg.kernel_vanishes

    def recording_extend(self, order):
        fields.add(type(self.field))
        return extend(self, order)

    def counting_vanishes(rows, vectors):
        checks[0] += 1
        return vanishes(rows, vectors)

    monkeypatch.setattr(MonomialSeries, "extend", recording_extend)
    monkeypatch.setattr(linalg, "kernel_vanishes", counting_vanishes)
    s = sys_of(["0", "1"], ["t", "0"])
    rel = find_relations(s, K.one, 2, 2)
    assert rel.basis == [rel.ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1")]
    assert fields == {linalg.PrimeField} and checks == [0]


def dense_row_reduce(ring, polys):
    """The span's canonical basis by sympy's Gauss-Jordan elimination of
    the dense coefficient matrix over the coefficient field: the
    reference for _row_reduce_polys."""
    polys = [p for p in polys if p.terms]
    if not polys:
        return []
    fld = ring.field
    cols = sorted({e for p in polys for e in p.terms},
                  key=ring.order.key, reverse=True)
    mat = [[p.terms.get(e, fld.zero) for e in cols] for p in polys]
    return [ring.from_dict(dict(zip(cols, row)))
            for row in sympy_rref(fld, mat)[0]]


QQ_SQRT2, SQRT2 = field_adjoin(K, [K.from_int(-2), K.zero, K.one])
# constants a + b*c: c = 1/2 over QQ, c = sqrt(2) over QQ(sqrt 2)
CONSTANTS = {
    "Q(t)": (K, lambda a, b: K.from_fraction(Fraction(2 * a + b, 2))),
    "QQ(sqrt 2)(t)": (QQ_SQRT2, lambda a, b: QQ_SQRT2.add(
        QQ_SQRT2.from_int(a), QQ_SQRT2.mul(QQ_SQRT2.from_int(b), SQRT2))),
}


@st.composite
def kernel_shaped_rows(draw, name):
    """Polynomials on six monomials in x_1_1..x_2_2, so that rows
    overlap, with coefficients (c0 + c1 t) / (1 + c2 t), plus what a
    kernel read-off produces: zero rows, repeated rows and t-multiples
    of rows."""
    const, element = CONSTANTS[name]
    Rt = RatFuncField(const)
    ring = PolyRing(Rt, ["x_1_1", "x_1_2", "x_2_1", "x_2_2"],
                    GRADED_LEX)
    small = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(
        lambda ab: element(*ab))
    coeff = st.tuples(small, small, st.integers(0, 2)).map(
        lambda c: Rt.div(Rt.from_coeffs([c[0], c[1]]),
                         Rt.from_coeffs([const.one, const.from_int(c[2])])))
    exps = st.sampled_from([(2, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0),
                            (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)])
    polys = draw(st.lists(st.dictionaries(exps, coeff, max_size=4).map(
        ring.from_dict), min_size=1, max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "t"]),
                              max_size=4)):
        p = draw(st.sampled_from(polys))
        polys.append(ring.zero if kind == "zero"
                     else p if kind == "repeat" else p.scale(Rt.t))
    return ring, draw(st.permutations(polys))


@pytest.mark.parametrize("name", CONSTANTS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_row_reduce_matches_dense_rref(name, data):
    ring, polys = data.draw(kernel_shaped_rows(name))
    assert _row_reduce_polys(ring, polys) == dense_row_reduce(ring, polys)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_rows_stay_reduced_after_every_add(data):
    # over QQ(sqrt 2)(t) each added row is back-substituted at once, so no
    # stored row keeps an entry at another row's pivot between reads
    ring, polys = data.draw(kernel_shaped_rows("QQ(sqrt 2)(t)"))
    echelon = _Echelon(ring, {e for P in polys for e in P.terms})
    rows = echelon.acc._rows
    for P in polys:
        echelon.add(P.terms)
        assert not any(j in rows for row in rows.values() for j in row)


def test_back_substitution_waits_for_a_kernel_read(monkeypatch):
    # the worked Airy example over GF(p): adding a row runs no row kernel
    # (one back-substitution per new pivot and stored row that has its
    # column ran 2404 of them); the stored rows are back-substituted when
    # a kernel is read
    calls, adding = {True: 0, False: 0}, [False]
    add_row = linalg.RrefAccumulator.add_row
    sub_multiples = linalg.PrimeField.sub_multiples

    def flagged_add_row(self, row):
        adding[0] = True
        try:
            return add_row(self, row)
        finally:
            adding[0] = False

    def counting_sub_multiples(self, target, pairs):
        calls[adding[0]] += 1
        return sub_multiples(self, target, pairs)

    monkeypatch.setattr(linalg.RrefAccumulator, "add_row", flagged_add_row)
    monkeypatch.setattr(linalg.PrimeField, "sub_multiples",
                        counting_sub_multiples)
    s = sys_of(["0", "1"], ["t", "0"])
    find_relations(s, K.one, 2, 2)
    assert calls[True] == 0 and calls[False] > 0


# each draws (rows, a, the largest degree cap d to try at ell)

def _radical_system(draw, ell):
    qs = draw(st.lists(st.sampled_from(["1/2", "1/3", "2/3", "1", "3/2"]),
                       min_size=1, max_size=2))
    return ([["%s/t" % q if i == j else "0" for j in range(len(qs))]
             for i, q in enumerate(qs)], draw(st.sampled_from([1, 2])), 3)


def _constant_system(draw, ell):
    n = draw(st.integers(1, 2))
    entry = st.sampled_from(["0", "1", "-1", "2", "1/2"])
    return ([[draw(entry) for _ in range(n)] for _ in range(n)],
            draw(st.sampled_from([0, 1])), 3)


def _airy_system(draw, ell):
    alpha = draw(st.sampled_from(["1", "-1", "2"]))
    beta = draw(st.sampled_from(["0", "1", "-1/2"]))
    return ([["0", "1"], ["%s*t + %s" % (alpha, beta), "0"]],
            draw(st.sampled_from([-1, 0, 1])), 2 // ell)


@st.composite
def ansatz_cases(draw):
    """A system, point and caps d <= 3, ell in {1, 2}, at its certified
    order or at a truncation order below it.  Airy-type systems keep
    d * ell <= 2, and lower orders stay below 12, so that the exact
    elimination and the row reduction of the whole kernel stay cheap."""
    ell = draw(st.sampled_from([1, 2]))
    rows, a, top = draw(st.sampled_from([_radical_system, _constant_system,
                                         _airy_system]))(draw, ell)
    s, a = sys_of(*rows), K.from_int(a)
    d = draw(st.integers(1, top))
    N = certified_order(s, a, d, ell)
    return s, a, d, ell, draw(st.one_of(st.just(N),
                                        st.integers(0, min(N, 12))))


@settings(max_examples=60, deadline=None)
@given(ansatz_cases())
def test_shift_generators_give_the_whole_kernels_basis(case):
    # exact rows 0..N+1: the u-shifts within the cap of the kept kernel
    # vectors lead on each free column once and lie in the kernel, and
    # the canonical basis of the kept vectors is that of the whole kernel
    s, a, d, ell, N = case
    builder = _AnsatzBuilder(s, a, d, ell)
    acc = linalg.RrefAccumulator(builder.field, builder.ncols)
    rows = [builder.row(k) for k in range(N + 2)]
    for row in rows:
        acc.add_row(row)
    width = 2 * ell + 1
    kept = acc.kernel_vectors(_shift_generators(acc, width))
    leads = []
    for vec in kept:
        deg = max(j % width for j in vec)
        for shift in range(width - deg):
            leads.append(max(vec) + shift)
            assert all(K.is_zero(sum((row[j + shift] * x
                                      for j, x in vec.items()), K.zero))
                       for row in rows)
    pivots = set(acc.pivots)
    assert sorted(leads) == [j for j in range(builder.ncols)
                             if j not in pivots]
    ring = PolyRing(R, matrix_var_names(s.n), GRADED_LEX)

    def basis(vectors):
        return _row_reduce_polys(ring, _kernel_to_polys(builder, vectors,
                                                         ring, a))

    assert basis(kept) == basis(acc.kernel_vectors())


@pytest.mark.parametrize("rows, a, d, lifted", [
    ((["1/(3*t)", "0"], ["0", "2/(3*t)"]), 1, 3, range(41)),
    ((["0", "1"], ["t", "0"]), 1, 2, [1]),        # the worked Airy example
    ((["0", "1"], ["-1", "0"]), 0, 2, [10]),      # rotation(1)
])
def test_solve_lifts_only_the_shift_generators(monkeypatch, rows, a, d,
                                               lifted):
    # the whole kernel at the certified order holds 156, 5 and 50 vectors
    sizes = []
    lift_kernel = linalg.lift_kernel

    def recording(acc, free=None):
        out = lift_kernel(acc, free)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(linalg, "lift_kernel", recording)
    find_relations(sys_of(*rows), K.from_int(a), d, 2)
    assert sizes and all(n in lifted for n in sizes)


# -- P(X*Y) from integer expansions of (X*Y)^m ----------------------------

QI, I_UNIT = field_adjoin(K, [K.one, K.zero, K.one])   # x^2 + 1
PRODUCT_FIELDS = {"QQ": K, "QQ(i)": QI, "QQ(t)": R}
_T = sp.Symbol("t")


def _coefficients(name):
    """A strategy for coefficients in the named field."""
    small = st.fractions(-3, 3, max_denominator=3)
    if name == "QQ":
        return small.map(K.from_fraction)
    if name == "QQ(i)":
        return st.tuples(small, small).map(lambda ab: QI.add(
            QI.from_fraction(ab[0]),
            QI.mul(QI.from_fraction(ab[1]), I_UNIT)))
    ints = st.lists(st.integers(-2, 2), min_size=1, max_size=3)
    return st.tuples(ints.filter(any), st.sampled_from([[1], [0, 1], [1, 1]])
                     ).map(lambda nd: R.from_coeffs(
                         [K.from_int(x) for x in nd[0]],
                         [K.from_int(x) for x in nd[1]]))


@st.composite
def polys_for_product(draw):
    """(field name, n, P): P of degree <= 3 in the n^2 entries x_i_j."""
    name = draw(st.sampled_from(sorted(PRODUCT_FIELDS)))
    n = draw(st.integers(1, 3))
    nsq = n * n
    exps = st.lists(st.integers(0, 3), min_size=nsq, max_size=nsq).map(
        tuple).filter(lambda e: sum(e) <= 3)
    terms = draw(st.dictionaries(exps, _coefficients(name), min_size=1,
                                 max_size=4))
    fld = PRODUCT_FIELDS[name]
    ring = PolyRing(fld, matrix_var_names(n), GRADED_LEX)
    return name, n, ring.from_dict(terms)


def _sympy_coefficient(name, c):
    if name != "QQ(t)":
        return to_sympy(PRODUCT_FIELDS[name], c)
    num, den = (sum(to_sympy(K, a) * _T ** i for i, a in enumerate(cs))
                for cs in (R.numer_coeffs(c), R.denom_coeffs(c)))
    return num / den


@settings(max_examples=60, deadline=None)
@given(polys_for_product())
def test_product_powers_expand_p_of_xy(case):
    name, n, P = case
    fld = P.ring.field
    nsq = n * n
    got = _ProductPowers(n).at_product(fld, P)
    # sympy's expansion of P(X*Y), compared as polynomials over the field
    xs = sp.symbols(matrix_var_names(n))
    ys = sp.symbols(["y_%d_%d" % (i + 1, j + 1)
                     for i in range(n) for j in range(n)])
    xy = [sum(xs[i * n + l] * ys[l * n + j] for l in range(n))
          for i in range(n) for j in range(n)]
    dom = sp.QQ.frac_field(_T) if name == "QQ(t)" else sympy_domain(fld)
    expected = sp.Poly(sum(
        _sympy_coefficient(name, c) * sp.Mul(*[v ** k for v, k in zip(xy, m)])
        for m, c in P.terms.items()), *xs, *ys, domain=dom)
    ours = sp.Poly.from_dict(
        {xe + ye: dom.from_sympy(_sympy_coefficient(name, c))
         for (xe, ye), c in got.items()}, *xs, *ys, domain=dom)
    assert ours == expected
    # and the substitution of the entries of X*Y into P in the doubled ring
    ring_xy = PolyRing(fld, list(P.ring.names) + [str(y) for y in ys],
                       P.ring.order)
    subst = {}
    for i in range(n):
        for j in range(n):
            acc = ring_xy.zero
            for l in range(n):
                acc = acc + ring_xy.gen(i * n + l) * ring_xy.gen(
                    nsq + l * n + j)
            subst[i * n + j] = acc
    substituted = ring_xy.from_dict(
        {e + (0,) * nsq: c for e, c in P.terms.items()}).substitute(subst)
    assert ring_xy.from_dict({xe + ye: c for (xe, ye), c in got.items()}) \
        == substituted


def _derivative_term_by_term(sys, P):
    """P(F)' as {monomial: coefficient}, one product per term, position
    and column: d(c X^m) = c' X^m + sum e c A_il X^(m - e_ij + e_lj)."""
    R, n, A = sys.R, sys.n, sys.A
    out = {}
    for m, c in P.terms.items():
        parts = [(m, R.diff(c))]
        for p, e in enumerate(m):
            i, j = divmod(p, n)
            for l in range(n):
                if e and not R.is_zero(A[i][l]):
                    tgt = list(m)
                    tgt[p] -= 1
                    tgt[l * n + j] += 1
                    parts.append((tuple(tgt), R.mul(
                        R.scale(c, K.from_int(e)), A[i][l])))
        for tgt, x in parts:
            out[tgt] = R.add(out.get(tgt, R.zero), x)
    return {e: c for e, c in out.items() if not R.is_zero(c)}


DERIVATIVE_SYSTEMS = {
    "airy": [["0", "1"], ["t - 1/2", "0"]],
    "diagonal": [["1/(3*t)", "0"], ["0", "2/(3*t - 1)"]],
}
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(DERIVATIVE_SYSTEMS)),
       st.lists(st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=4,
                                            max_size=4),
                                   small_q, small_q, small_q),
                         min_size=1, max_size=4), min_size=1, max_size=3))
def test_derivative_table_matches_the_term_by_term_formula(name, polys):
    # certify's derivations share one table of (X^m)'; with it each
    # derivative is the one the term-by-term formula gives
    s = sys_of(*DERIVATIVE_SYSTEMS[name])
    ring = PolyRing(R, matrix_var_names(2), GRADED_LEX)
    table = {}
    for terms in polys:
        P = ring.zero
        for m, a, b, c in terms:
            # (a + b t) / (1 + c t)
            coeff = R.from_coeffs([K.from_fraction(a), K.from_fraction(b)],
                                  [K.one, K.from_fraction(c)])
            P = P + ring.from_dict({tuple(m): coeff})
        assert _derivative(s, P, table) == _derivative_term_by_term(s, P)


# -- the ideal's generators, read by the certificate and the stabilizer ----

# diag(1/(3t), 2/(3t)) at degree 3 and t = 1: 5 of its 32 basis
# relations generate the ideal
DIAG12 = [["1/(3*t)", "0"], ["0", "2/(3*t)"]]


def full_closure_certify(sys, basis, a):
    """The certificate as it read a basis before the generator theorem,
    kept here as the reference: the span closed under d/dt from every
    basis relation, then a basis of the closure regular at a must vanish
    at t = a, X = I."""
    if not basis:
        return True
    ring = basis[0].ring
    R = sys.R
    echelon = _Echelon(ring, monomials_upto(
        ring.nvars, max(P.total_degree() for P in basis)), basis)
    leads = set(echelon.acc.pivots)
    todo = list(basis)
    table = {}
    while todo:
        if echelon.add(_derivative(sys, todo.pop(), table)):
            lead = next(pc for pc in echelon.acc.pivots if pc not in leads)
            leads.add(lead)
            todo.append(echelon.poly(echelon.acc.row(lead)))
    return all(R.const.is_zero(R.eval_at(C.at_identity(), a))
               for C in _local_basis(echelon.basis(), a))


def count_derivatives(monkeypatch):
    """A one-element list that counts the certificate's _derivative
    calls."""
    calls = [0]
    derivative = relations._derivative

    def counting(*args):
        calls[0] += 1
        return derivative(*args)

    monkeypatch.setattr(relations, "_derivative", counting)
    return calls


def test_closure_check_multiplies_by_no_one(monkeypatch):
    # diag(1/(3t), 2/(3t)) at degree 3: the closure check passes 20
    # multipliers to sub_multiples, 10 of them 1, and a 1 costs no product
    rel = find_relations(sys_of(*DIAG12), K.one, 3, 2)
    calls = [0]
    mul = RatFuncField.mul

    def counting(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(RatFuncField, "mul", counting)
    assert len(_ideal_generators(rel.basis, rel.d)) == 5
    assert calls == [14]


def test_stabilizer_expands_only_the_ideal_generators(monkeypatch):
    # diag(1/(3t), 2/(3t)) at degree 3: 5 of the 32 basis relations
    # generate the ideal, and only those are expanded at X*h
    calls = []
    at_product = _ProductPowers.at_product

    def counting(self, fld, P):
        calls.append(P)
        return at_product(self, fld, P)

    monkeypatch.setattr(_ProductPowers, "at_product", counting)
    H, rel = proto_galois(sys_of(*DIAG12), PipelineConfig(degree=3))
    assert (len(rel.basis), len(calls)) == (32, 5)
    assert len(H.generators) == 5


def test_certificate_differentiates_only_the_generators(monkeypatch):
    # diag(1/(3t), 2/(3t)) at degree 3: D maps the 5 generators into the
    # span, so no other basis relation is differentiated
    s = sys_of(*DIAG12)
    rel = find_relations(s, K.one, 3, 2)
    calls = count_derivatives(monkeypatch)
    assert certify(s, rel.basis, rel.a)
    assert (len(rel.basis), len(rel.generators), calls[0]) == (32, 5, 5)


@pytest.mark.parametrize("name", WORKED)
def test_closure_check_runs_once_per_galois_run(monkeypatch, name):
    # the solve computes the generators for the basis it certifies and
    # hands them to the stabilizer on the RelationIdeal
    rows, a, d = WORKED[name]
    calls = []
    ideal_generators = relations._ideal_generators

    def counting(basis, d):
        calls.append(len(basis))
        return ideal_generators(basis, d)

    monkeypatch.setattr(relations, "_ideal_generators", counting)
    galois_group(sys_of(*rows), PipelineConfig(degree=d, a=K.from_int(a)))
    assert len(calls) == 1


def test_certificate_falls_back_to_the_whole_basis(monkeypatch):
    # F = [[1, t - 1], [0, 1]]: the span of x_1_1 - x_2_2 and its
    # x-multiples is closed under each x_v within degree 2 and generated
    # by x_1_1 - x_2_2, whose derivative x_2_1 leaves it; the closure
    # then goes on from every basis relation
    s = sys_of(["0", "1"], ["0", "0"])
    ring = group_ring(2, R)
    P = ring.parse("x_1_1 - x_2_2")
    basis = _row_reduce_polys(ring, [P] + [x * P for x in ring.gens])
    assert _ideal_generators(basis, 2) == [P]
    calls = count_derivatives(monkeypatch)
    assert certify(s, basis, K.one)
    assert calls[0] > len(basis) == 5
    assert full_closure_certify(s, basis, K.one)


@pytest.mark.parametrize("rows, a, d, N", [
    ([["1"]], 0, 1, 6),
    ([["1"]], 0, 1, 7),
    ([["0", "1"], ["t", "0"]], 1, 2, 20),
    ([["0", "1"], ["-1", "0"]], 0, 2, 20),
], ids=["exp-constant", "exp-pade", "airy-spurious", "harmonic-not-closed"])
def test_truncated_bases_stay_refused(rows, a, d, N):
    # the truncated kernels that the CLI and stabilizer tests read: each
    # holds a false relation
    s = sys_of(*rows)
    rel = truncated_relations(s, K.from_int(a), d, 2, N)
    assert not certify(s, rel.basis, rel.a)
    assert not full_closure_certify(s, rel.basis, rel.a)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.one_of(radical_diagonals(), exponentials(), rotations(), gauges()))
def test_certificate_agrees_with_the_full_closure_on_the_sweep(instance):
    rows, flags, _expect, _certified = instance
    d = int(flags[flags.index("--degree-override") + 1])
    a = K.from_int(int(flags[flags.index("--point") + 1])
                   if "--point" in flags else 1)
    s = sys_of(*rows)
    try:
        rel = find_relations(s, a, d, 2)
    except DgalError:
        # a pole at the point, which the sweep allows
        return
    assert certify(s, rel.basis, a) and full_closure_certify(s, rel.basis, a)
    half = truncated_relations(s, a, d, 2, rel.order_used // 2)
    assert certify(s, half.basis, a) == full_closure_certify(s, half.basis, a)
