import sys
from fractions import Fraction

import pytest

import dgal.pipeline
from hypothesis import assume, given, settings, strategies as st

from dgal import fields, multipoly, upoly
from dgal.errors import DgalError, UnsupportedInstanceError
from dgal.fields import ConstField, field_adjoin
from dgal.groups import (AlgebraicSubgroup, Character, _coerce_poly,
                         characters_generators, group_ring,
                         identity_component)
from dgal.lattice import congruence_lattice
from dgal.multipoly import standard_monomials
from dgal.pipeline import (AlphaData, GaloisGroupDescription,
                           PipelineConfig, _exponent, _fbar_in_component,
                           _finite_closure_check, _gamma_powers,
                           _kummer_certified,
                           _kummer_coefficients, _same_ideal,
                           find_alpha_fbar, finite_part, galois_group,
                           proto_galois, sandwich_check)
from dgal.ratfunc import RatFuncField
from dgal.relations import in_span
from dgal.series import Series, TruncSeries, ratfunc_series
from dgal.solve import solve_zero_dimensional
from dgal.systems import MonomialSeries, OdeSystem
from sympy_oracle import cyclotomic

K = ConstField()
R = RatFuncField(K)


def sys_of(*rows):
    return OdeSystem(R, [[R.parse(e) for e in row] for row in rows])


def run(sys_, d, **kw):
    return galois_group(sys_, PipelineConfig(degree=d, **kw))


def fmt_points(desc):
    fld = desc.points_field
    return sorted(", ".join(fld.format(x) for row in m for x in row)
                  for m in desc.points)


def exponent_lattice_order(*rs):
    """Brute-force oracle for diagonal systems y_i' = (r_i / t) y_i: the
    group order is the index in Z^k of the lattice of integer vectors m
    with sum m_i r_i integral."""
    rs = [Fraction(r) for r in rs]
    basis = congruence_lattice([rs], len(rs))
    # index = |det| of the (square, triangular) basis
    det = 1
    for i, row in enumerate(basis):
        det *= row[i]
    return abs(det)


def test_mu2_full_pipeline():
    desc = run(sys_of(["1/(2*t)"]), 2)
    assert desc.finite and desc.order == 2
    assert fmt_points(desc) == ["-1", "1"]
    comp = desc.identity_component
    assert [comp.ring.format(g) for g in comp.generators] == ["x_1_1 + -1"]
    assert desc.rel.basis == [desc.rel.ring.parse("x_1_1^2 - t")]
    assert desc.dimension == 0 and desc.component_count == 2
    assert desc.sandwich_checked


def test_exponential_full_group():
    desc = run(sys_of(["1"]), 3, a=K.zero)
    assert not desc.finite
    assert desc.rel.basis == []
    assert desc.identity_component.generators == []
    assert desc.proto.generators == []
    assert desc.dimension == 1 and desc.component_count == 1


def test_character_stage_reads_one_store(monkeypatch):
    """The rotation group's characters are read off the store that
    checks F_bar against the identity component: the run builds two
    monomial-series stores, the relation solve's and that one, and no
    fundamental_series."""
    calls = {"store": 0, "fundamental_series": 0}
    init, fundamental = MonomialSeries.__init__, OdeSystem.fundamental_series

    def counting_init(self, *args):
        calls["store"] += 1
        init(self, *args)

    def counting_fundamental(self, *args):
        calls["fundamental_series"] += 1
        return fundamental(self, *args)

    monkeypatch.setattr(MonomialSeries, "__init__", counting_init)
    monkeypatch.setattr(OdeSystem, "fundamental_series", counting_fundamental)
    desc = run(sys_of(["0", "1"], ["-1", "0"]), 2, a=K.zero)
    assert desc.provenance["alpha"] == "alpha = I"
    assert calls == {"store": 2, "fundamental_series": 0}


def test_rational_solution_trivial_group():
    desc = run(sys_of(["1/t"]), 1)
    assert desc.finite and desc.order == 1
    assert fmt_points(desc) == ["1"]
    assert desc.rel.basis == [desc.rel.ring.parse("x_1_1 - t")]


def test_harmonic_rotation_group():
    desc = run(sys_of(["0", "1"], ["-1", "0"]), 2, a=K.zero)
    assert not desc.finite
    assert desc.dimension == 1 and desc.component_count == 1
    ring = group_ring(2, K)
    rotations = AlgebraicSubgroup(2, ring, [
        ring.parse("x_1_1^2 + x_2_1^2 - 1"),
        ring.parse("x_1_2^2 + x_2_2^2 - 1"),
        ring.parse("x_1_1*x_1_2 + x_2_1*x_2_2"),
        ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1"),
    ])
    assert _same_ideal(desc.identity_component, rotations)


def test_airy_sl2():
    desc = run(sys_of(["0", "1"], ["t", "0"]), 2)
    assert not desc.finite
    det1 = desc.rel.ring.parse("x_1_1*x_2_2 - x_1_2*x_2_1 - 1")
    assert desc.rel.basis == [det1]
    comp = desc.identity_component
    assert [comp.ring.format(g) for g in comp.generators] == \
        ["x_1_1*x_2_2 + -1*x_1_2*x_2_1 + -1"]
    assert desc.dimension == 3
    assert _same_ideal(desc.identity_component, desc.proto)


def test_diagonal_half_third_order_six():
    desc = run(sys_of(["1/(2*t)", "0"], ["0", "1/(3*t)"]), 3)
    assert desc.finite
    assert desc.order == exponent_lattice_order("1/2", "1/3") == 6
    fld = desc.points_field
    for m in desc.points:
        assert fld.is_zero(m[0][1]) and fld.is_zero(m[1][0])
        assert fld.is_one(fld.pow(m[0][0], 2))
        assert fld.is_one(fld.pow(m[1][1], 3))


def test_diagonal_oracle_equivalence():
    cases = [(("1/2", "1/2"), 3), (("1", "2"), 2), (("1/2", "1/3"), 3)]
    for rs, d in cases:
        A = [["(%s)/t" % rs[0], "0"], ["0", "(%s)/t" % rs[1]]]
        desc = run(sys_of(*A), d)
        assert desc.finite
        assert desc.order == exponent_lattice_order(*rs)


def test_conjugation_coherence():
    # running from two base points yields the same finite point set
    d1 = run(sys_of(["1/(2*t)"]), 2, a=K.from_int(1))
    d2 = run(sys_of(["1/(2*t)"]), 2, a=K.from_int(4))
    assert fmt_points(d1) == fmt_points(d2)


def test_sandwich_reported_and_rechecked():
    desc = run(sys_of(["0", "1"], ["-1", "0"]), 2, a=K.zero)
    assert desc.sandwich_checked
    from dgal.groups import characters_generators, identity_component
    Hc = identity_component(desc.proto)
    chars = characters_generators(Hc, 2)
    assert sandwich_check(desc.proto, Hc, chars, desc.identity_component)


QQ_I, I = field_adjoin(K, [K.one, K.zero, K.one])


def rotations_and_character():
    """SO2 over QQ, and its character x_2_2 + i*x_2_1 over QQ(i), whose
    kernel is {I}."""
    ring = group_ring(2, K)
    H = AlgebraicSubgroup(2, ring, map(ring.parse, [
        "x_1_1 - x_2_2", "x_1_2 + x_2_1", "x_1_1^2 + x_2_1^2 - 1"]),
        connected=True)
    ring_i = group_ring(2, QQ_I)
    return H, ring_i.gen(3) + ring_i.gen(2).scale(I), ring_i


def test_sandwich_rejects_a_component_outside_h():
    # the kernel {I} lies in the diagonal torus over QQ, but the torus is
    # not inside SO2
    H, chi, ring_i = rotations_and_character()
    chars = [Character(chi, ring_i)]
    torus = AlgebraicSubgroup(2, H.ring, map(H.ring.parse,
                                             ["x_1_2", "x_2_1"]))
    assert sandwich_check(H, H, chars, H)
    assert not sandwich_check(H, H, chars, torus)


def test_sandwich_rejects_a_kernel_outside_the_component():
    # the trivial group over QQ lies in SO2 and holds the kernel {I} of
    # chi, but not the kernel {I, -I} of chi^2
    H, chi, ring_i = rotations_and_character()
    trivial = AlgebraicSubgroup(2, H.ring, map(H.ring.parse, [
        "x_1_1 - 1", "x_1_2", "x_2_1", "x_2_2 - 1"]))
    assert sandwich_check(H, H, [Character(chi, ring_i)], trivial)
    assert not sandwich_check(H, H, [Character(chi * chi, ring_i)], trivial)


def test_harmonic_run_reduces_two_ideals(monkeypatch):
    """One run on the harmonic oscillator (a = 0, d = 2) forms no inverse
    series, since u'/u is one division, and computes two Groebner bases:
    the proto-group's, which every later stage reads from its cache, and
    the character kernel's.  The sandwich certificate and the character
    check reduce nothing else."""
    calls = {"groebner": 0, "inverse": 0}
    groebner, inverse = multipoly.groebner, Series.inverse

    def counting_groebner(*args, **kw):
        calls["groebner"] += 1
        return groebner(*args, **kw)

    def counting_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    for name, mod in list(sys.modules.items()):
        if name.startswith("dgal") and \
                getattr(mod, "groebner", None) is groebner:
            monkeypatch.setattr(mod, "groebner", counting_groebner)
    monkeypatch.setattr(Series, "inverse", counting_inverse)
    desc = run(sys_of(["0", "1"], ["-1", "0"]), 2, a=K.zero)
    assert desc.dimension == 1 and desc.sandwich_checked
    assert calls["inverse"] == 0
    assert calls["groebner"] <= 2


def harmonic_stages():
    """The harmonic oscillator's relations (a = 0, d = 2), its proto-group
    H, H's identity component and H deg's characters."""
    sys_ = sys_of(["0", "1"], ["-1", "0"])
    H, rel = proto_galois(sys_, PipelineConfig(degree=2, a=K.zero))
    Hcirc = identity_component(H)
    return sys_, rel, Hcirc, characters_generators(Hcirc, rel.d)


def over_kt(rel, polys):
    ring = rel.ring
    return [ring.from_dict({e: ring.field.from_const(c)
                            for e, c in g.terms.items()}) for g in polys]


def test_component_generators_reduce_by_the_relation_basis():
    sys_, rel, Hcirc, chars = harmonic_stages()
    assert rel.rigorous and Hcirc.generators and chars
    for g in over_kt(rel, Hcirc.generators):
        assert in_span(rel.basis, [g])


def test_membership_refuses_a_constant_polynomial_off_the_span():
    # cos t - 1 has constant coefficients and is 0 at I, but it is no
    # relation, so it is outside the span of the relation basis
    sys_, rel, Hcirc, chars = harmonic_stages()
    ring = Hcirc.ring
    g = ring.parse("x_1_1 - 1")
    assert not in_span(rel.basis, over_kt(rel, [g]))
    shifted = AlgebraicSubgroup(2, ring, [g], connected=True)
    with pytest.raises(UnsupportedInstanceError,
                       match="membership of F_bar in the identity component"):
        _fbar_in_component(sys_, rel, shifted, chars)


def test_membership_of_a_torus_with_a_component_generator_above_d():
    # diag(1, 2, 4) at d = 2: H is cut out by x11^2 - x22 and x22^2 - x33,
    # and its identity component has the lattice binomial x33 - x11^4, of
    # degree 4 > d; F_bar's membership is read off H's generators
    desc = run(sys_of(["1", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]),
               2, a=K.zero)
    comp = desc.identity_component
    assert max(g.total_degree() for g in comp.generators) > desc.rel.d
    assert _same_ideal(comp, desc.proto)
    assert not desc.finite and desc.dimension == 1
    assert desc.provenance["alpha"] == "alpha = I"
    assert desc.sandwich_checked


def test_harmonic_character_path_work(monkeypatch):
    """One harmonic run evaluates one series per character, none of H
    deg's generators, from a store of the characters' degree 1; the
    sandwich certificate normal-forms at most the component's reduced
    basis."""
    calls = {"series_of": 0, "normal_form": 0, "gb_len": 0, "chars": 0}
    degrees = []
    init, series_of = MonomialSeries.__init__, MonomialSeries.series_of
    check, nf = dgal.pipeline.sandwich_check, dgal.pipeline.normal_form

    def recording_init(self, sys_, a, d, *rest):
        degrees.append(d)
        init(self, sys_, a, d, *rest)

    def counting_series_of(self, *args):
        calls["series_of"] += 1
        return series_of(self, *args)

    def counting_nf(*args):
        calls["normal_form"] += 1
        return nf(*args)

    def recording_check(H, Hcirc, chars, Gcirc):
        calls["gb_len"] = len(Gcirc.groebner_basis())
        calls["chars"] = len(chars)
        monkeypatch.setattr(dgal.pipeline, "normal_form", counting_nf)
        try:
            return check(H, Hcirc, chars, Gcirc)
        finally:
            monkeypatch.setattr(dgal.pipeline, "normal_form", nf)

    monkeypatch.setattr(MonomialSeries, "__init__", recording_init)
    monkeypatch.setattr(MonomialSeries, "series_of", counting_series_of)
    monkeypatch.setattr(dgal.pipeline, "sandwich_check", recording_check)
    desc = run(sys_of(["0", "1"], ["-1", "0"]), 2, a=K.zero)
    assert desc.sandwich_checked and calls["chars"] >= 1
    # the relation solve's store, then the characters' one
    assert len(degrees) == 2 and degrees[-1] == 1
    assert calls["series_of"] == calls["chars"]
    assert 0 < calls["normal_form"] <= calls["gb_len"]


def test_same_ideal_of_one_group():
    # answered without a Groebner basis, which H has not computed
    H, _chi, _ring = rotations_and_character()
    assert _same_ideal(H, H)
    assert not hasattr(H, "_gb")


def test_degree_override_validation():
    with pytest.raises(Exception):
        PipelineConfig(degree=0)


def test_description_document():
    desc = run(sys_of(["1/(2*t)"]), 2)
    doc = desc.to_document()
    assert "finite: yes" in doc
    assert "order: 2" in doc
    assert "component_generator: x_1_1 + -1" in doc
    assert "sandwich_checked: yes" in doc


def test_singular_point_rejected():
    from dgal.errors import SingularPointError
    with pytest.raises(SingularPointError):
        run(sys_of(["1/(2*t)"]), 2, a=K.zero)


@pytest.mark.parametrize("rows,d", [
    pytest.param([["1/(2*t)"]], 2, id="mu2"),
    pytest.param([["1/(2*t)", "0"], ["0", "1/(3*t)"]], 3, id="diag23"),
    pytest.param([["1/(2*t)", "0"], ["0", "1/(2*t)"]], 3, id="diag22"),
])
def test_finite_part_is_read_off_alpha(monkeypatch, rows, d):
    """Each point of the finite part satisfies the proto-group's
    equations (G <= H), the order divides H's exponent, finite_part
    reads the points off the C_k at a with no series product, and the
    run makes no zero-dimensional solve: H's exponent is read off its
    ideal, not its points."""
    inside, calls = [0], []

    def counted(name, fn, everywhere=False):
        def wrapper(*args, **kwargs):
            if everywhere or inside[0]:
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    # rebind every dgal module's copy of the name, as `from` imports made
    wrapped = counted("solve_zero_dimensional", solve_zero_dimensional,
                      everywhere=True)
    for name, mod in list(sys.modules.items()):
        if name.startswith("dgal") and getattr(
                mod, "solve_zero_dimensional", None) is solve_zero_dimensional:
            monkeypatch.setattr(mod, "solve_zero_dimensional", wrapped)
    monkeypatch.setattr(Series, "__mul__",
                        counted("Series.__mul__", Series.__mul__))
    real = dgal.pipeline.finite_part

    def finite_part(*args):
        inside[0] += 1
        try:
            return real(*args)
        finally:
            inside[0] -= 1
    monkeypatch.setattr(dgal.pipeline, "finite_part", finite_part)

    desc = run(sys_of(*rows), d)
    assert desc.finite and calls == []
    H = desc.proto
    fld = desc.points_field
    ring = group_ring(H.n, fld)
    for m in desc.points:
        vals = [m[i][j] for i in range(H.n) for j in range(H.n)]
        for g in H.generators:
            assert fld.is_zero(
                _coerce_poly(ring, H.ring, g).eval_consts(vals))
    assert _exponent(H) % desc.order == 0


@pytest.mark.parametrize("rows,d,M", [
    pytest.param([["1/(6*t)"]], 6, 6, id="sixth"),
    pytest.param([["1/(3*t)", "0"], ["0", "2/(3*t)"]], 3, 3, id="thirds"),
    # the Trager split of x^11 - 1 took seconds
    pytest.param([["1/(11*t)"]], 11, 11, id="eleventh"),
])
def test_finite_path_factors_one_cyclotomic_polynomial(monkeypatch, rows, d,
                                                       M):
    # the finite path factors no polynomial of degree M: H's exponent is
    # read off its ideal, with no point solve, and the M-th roots of
    # unity are the powers of a root of one cyclotomic factor of
    # x^M - 1, the only one factored.  The system gets a QQ of its own
    Rq = RatFuncField(ConstField())
    factored = []
    factor_list = fields.factor_list

    def recording(field, coeffs):
        factored.append(list(coeffs))
        return factor_list(field, coeffs)

    monkeypatch.setattr(fields, "factor_list", recording)
    desc = run(OdeSystem(Rq, [[Rq.parse(e) for e in row] for row in rows]), d)
    assert desc.finite and desc.order == M
    assert all(len(f) - 1 != M for f in factored)
    phis = [cyclotomic(e) for e in range(1, M + 1) if M % e == 0]
    assert sum(f in phis for f in factored) == 1


def _diag23_proto():
    H, _rel = proto_galois(sys_of(["1/(2*t)", "0"], ["0", "1/(3*t)"]),
                           PipelineConfig(degree=3))
    return H


def _group(n, *texts):
    ring = group_ring(n, K)
    return AlgebraicSubgroup(n, ring, [ring.parse(g) for g in texts])


@pytest.mark.parametrize("make,M,order", [
    pytest.param(lambda: _group(1, "x_1_1^4 - 1"), 4, 4, id="mu4"),
    # four points, each of order at most 2: the exponent is not the order
    pytest.param(lambda: _group(2, "x_1_1^2 - 1", "x_1_2", "x_2_1",
                                "x_2_2^2 - 1"), 2, 4, id="diag-signs"),
    pytest.param(_diag23_proto, 6, 6, id="diag23"),
])
def test_exponent(make, M, order):
    H = make()
    assert _exponent(H) == M
    # the ideals are reduced, so their staircases count the points
    assert len(standard_monomials(H.groebner_basis(), H.ring, 6)) == order


def test_exponent_refuses_a_non_invertible_point():
    # the points 0 and 1 of x^2 = x: x^M reduces to x for every M >= 1,
    # so no power reaches I, and the run stops at the cap 2, not later
    with pytest.raises(UnsupportedInstanceError, match="M <= 2,") as err:
        _exponent(_group(1, "x_1_1^2 - x_1_1"))
    assert err.value.exit_code == 2


def test_finite_part_reads_the_projections():
    # gamma^2 = t/a, F_bar = C_1 gamma + C_0 with C_1 and C_0 the
    # projections P^-1 e_11 P and P^-1 e_22 P, P = [[1, 1], [0, 1]]: the
    # conjugate -gamma gives -C_1 + C_0
    c = R.from_int
    C = [[[R.zero, c(-1)], [R.zero, R.one]], [[R.one, R.one], [R.zero, R.zero]]]
    ring = group_ring(2, K)
    H = AlgebraicSubgroup(2, ring, [ring.parse(g) for g in [
        "x_1_1^2 - 1", "x_1_2 - x_1_1 + 1", "x_2_1", "x_2_2 - 1"]])
    alpha = AlphaData(R, K.one, 2, 0, C)
    fld, pts = finite_part(alpha, H)
    assert [[[fld.format(x) for x in row] for row in m] for m in pts] == \
        [[["1", "0"], ["0", "1"]], [["-1", "-2"], ["0", "1"]]]
    # a point outside H breaks G <= H
    bad = AlgebraicSubgroup(2, ring, [ring.parse(g) for g in [
        "x_1_1^2 - 1", "x_1_2", "x_2_1", "x_2_2 - 1"]])
    with pytest.raises(DgalError):
        finite_part(alpha, bad)


def _diagonal_points(fld, *diagonals):
    return [[[d[i] if i == j else fld.zero for j in range(len(d))]
             for i in range(len(d))] for d in diagonals]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_closure_check_accepts_roots_of_unity(m):
    fld, roots = fields.roots_of_unity(K, m)
    _finite_closure_check(fld, _diagonal_points(
        fld, *([z, fld.mul(z, z)] for z in roots)))


def test_closure_check_refuses_a_missing_inverse_or_product():
    one, zero, m1 = K.one, K.zero, K.from_int(-1)
    # {I, e_11} is closed under product, but e_11 has no inverse
    with pytest.raises(DgalError, match="inverse"):
        _finite_closure_check(K, _diagonal_points(K, [one, one],
                                                  [one, zero]))
    # each sign change is its own inverse, but their product -I is missing
    with pytest.raises(DgalError, match="product"):
        _finite_closure_check(K, _diagonal_points(K, [one, one], [m1, one],
                                                  [one, m1]))


def _kummer_sum_series(C, M, a, order):
    """The TruncSeries at a of sum_k C_k gamma^k, gamma^M = t/a."""
    n = len(C[0])
    powers = _gamma_powers(R, M, a, order)
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = Series.constant(K, K.zero, order)
            for Ck, g in zip(C, powers):
                s = s + ratfunc_series(R, Ck[i][j], a, order) * g
            entries[i][j] = s
    return TruncSeries.from_entries(K, a, entries)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.sampled_from([(1, 1), (2, 1), (-3, 1), (1, 2)]),
       st.integers(0, 12))
def test_gamma_powers_are_roots_of_t_over_a(M, a, order):
    """The binomial series of gamma^k, gamma^M = t/a and gamma(a) = 1,
    through u^order: gamma^0 = 1, (gamma^1)^M = t/a = 1 + u/a, and
    gamma^j gamma^k = gamma^(j+k) for j + k < M."""
    a = K.from_fraction(Fraction(*a))
    powers = _gamma_powers(R, M, a, order)
    assert len(powers) == M
    assert powers[0] == Series.constant(K, K.one, order)
    if M > 1:
        t_over_a = ratfunc_series(R, R.scale(R.t, K.inv(a)), a, order)
        power = powers[1]
        for _ in range(M - 1):
            power = power * powers[1]
        assert power == t_over_a
    for j in range(M):
        for k in range(M - j):
            assert powers[j] * powers[k] == powers[j + k]


def test_gamma_powers_refuse_the_branch_point():
    assert len(_gamma_powers(R, 1, K.zero, 3)) == 1
    with pytest.raises(UnsupportedInstanceError, match="branch point a = 0"):
        _gamma_powers(R, 2, K.zero, 3)


small_poly = st.lists(st.integers(-3, 3), min_size=3, max_size=3)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.sampled_from([1, 2, -3]), st.data())
def test_hermite_pade_recovers_kummer_coefficients(M, a, data):
    """Random C_k over QQ(t) of degree <= 2 (one denominator per entry)
    come back from the series of sum_k C_k gamma^k at D = 2."""
    a = K.from_int(a)
    C = [[[None] * 2 for _ in range(2)] for _ in range(M)]
    for i in range(2):
        for j in range(2):
            den = data.draw(small_poly.filter(
                lambda q: any(q[1:]) or q[0]).map(
                    lambda q: [K.from_int(x) for x in q]))
            assume(not K.is_zero(upoly.evaluate(K, den, a)))
            for Ck in C:
                num = [K.from_int(x) for x in data.draw(small_poly)]
                Ck[i][j] = R.from_coeffs(num, den)
    N = 3 * M + 4
    basis = [g.coeffs for g in _gamma_powers(R, M, a, N - 1)]
    got = _kummer_coefficients(R, _kummer_sum_series(C, M, a, N - 1),
                               basis, 2)
    assert got is not None
    assert all(R.eq(x, y) for Ck, Gk in zip(C, got)
               for row, grow in zip(Ck, Gk) for x, y in zip(row, grow))


def test_kummer_certificate_refuses_an_altered_candidate():
    """The gauge P diag(1/(2t), 1/(3t)) P^-1, P = [[1, 1], [0, 1]]:
    the certified C_k pass; one entry altered by t - a keeps F_bar(a) = I
    but breaks the system, and scaling every C_k keeps the system but
    breaks F_bar(a) = I."""
    s = sys_of(["1/(2*t)", "-1/(6*t)"], ["0", "1/(3*t)"])
    H, rel = proto_galois(s, PipelineConfig(degree=3))
    identity_component(H)
    alpha = find_alpha_fbar(s, rel, H)
    assert (alpha.M, alpha.D) == (6, 0)
    assert _kummer_certified(s, alpha.C, rel.a)
    altered = [[row[:] for row in Ck] for Ck in alpha.C]
    altered[3][0][1] = R.add(altered[3][0][1], R.parse("t - 1"))
    assert not _kummer_certified(s, altered, rel.a)
    doubled = [[[R.scale(x, K.from_int(2)) for x in row] for row in Ck]
               for Ck in alpha.C]
    assert not _kummer_certified(s, doubled, rel.a)
