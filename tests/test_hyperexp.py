import importlib.util
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dgal import upoly
from dgal.errors import (DgalError, ResourceCapError,
                         UnsupportedInstanceError)
from dgal.fields import ConstField, field_adjoin
from dgal.groups import (Character, characters_generators, group_ring,
                         identity_component)
from dgal.hyperexp import (HyperexpElement, logderiv_from_character,
                           relation_lattice)
from dgal.lattice import hnf_basis, saturate
from dgal.pipeline import PipelineConfig, proto_galois
from dgal.ratfunc import RatFuncField, _series_div
from dgal.relations import RelationIdeal, find_relations
from dgal.series import rational_reconstruction
from dgal.systems import MonomialSeries, OdeSystem
from test_sweep import exponentials, gauges, rotations

K = ConstField()
R = RatFuncField(K)
FAMILIES = Path(__file__).resolve().parent.parent / "perfbench" / \
    "families.py"


def he(text):
    return HyperexpElement(R, R.parse(text))


def sys_of(*rows):
    return OdeSystem(R, [[R.parse(e) for e in row] for row in rows])


def relations_of_t(degree):
    """y' = y/t at a = 1, whose fundamental matrix is F = t, with its
    certified relations of degree <= ``degree``."""
    s = sys_of(["1/t"])
    return s, find_relations(s, K.from_int(1), degree, 2)


def pade_logderiv(chi, store, order, deg):
    """The read-off that the relation basis replaced, kept here as the
    reference: w = u'/u of u = chi(F) by one series division through
    u^order, F the fundamental matrix whose monomial series ``store``
    holds, then the Pade approximant of w of degree (deg, deg), taken
    when the one of w one order lower agrees with it (None otherwise)."""
    u = store.series_of(chi.poly, order)
    kf = u.field
    du = u.diff().coeffs
    w = _series_div(kf, du, u.coeffs, len(du))
    Rk = RatFuncField(kf)
    back = kf.neg(kf.coerce_from(store.field, store.a))
    got = []
    for coeffs in (w, w[:-1]):
        one = [kf.one] + [kf.zero] * (len(coeffs) - 1)
        pade = rational_reconstruction(kf, coeffs, deg, deg, [one])
        if pade is None:
            return None
        (num,), den = pade
        got.append(Rk.from_coeffs(upoly.shift(kf, num, back),
                                  upoly.shift(kf, den, back)))
    return HyperexpElement(Rk, got[0]) if Rk.eq(*got) else None


def character_stages(sys_, d, a, ell=2):
    """The relation ideal and the characters of the identity component
    of the proto-group, as ``galois`` reads them; None off the character
    path (a finite or refused proto-group, or no character)."""
    try:
        H, rel = proto_galois(sys_, PipelineConfig(d, a=K.from_int(a),
                                                   ell=ell))
        chars = characters_generators(identity_component(H), rel.d)
    except DgalError:
        return None
    return (rel, chars) if chars else None


def assert_logderivs_match_the_reference(sys_, d, a, ell=2):
    """On the character path, v from the relation basis equals the
    series and Pade read-off, at the order and the degree cap the
    pipeline gave that read-off; returns the number of characters."""
    stages = character_stages(sys_, d, a, ell)
    if stages is None:
        return 0
    rel, chars = stages
    store = MonomialSeries(sys_, rel.a,
                           max(ch.poly.total_degree() for ch in chars))
    order = max(rel.order_used + 2, 4 * ell + 3)
    for ch in chars:
        got = logderiv_from_character(sys_, rel, ch)
        want = pade_logderiv(ch, store, order, ell)
        assert want is not None
        assert got.R.eq(got.v, got.R.coerce_from(want.R, want.v)), ch
    return len(chars)


def lattice_text(rl):
    """L's HNF basis and its cofactors, formatted."""
    return rl.basis, [rl.R.format(f) for f in rl.cofactors]


def in_lattice(basis, m):
    return hnf_basis(basis + [list(m)]) == hnf_basis(basis)


def assert_cofactors_verify(rl, elements):
    """f'/f = sum m_j v_j exactly, for every basis vector m and its
    cofactor f, each v_j coerced into the lattice's field."""
    R = rl.R
    for m, f in zip(rl.basis, rl.cofactors):
        combo = R.zero
        for mj, el in zip(m, elements):
            combo = R.add(combo, R.scale(R.coerce_from(el.R, el.v),
                                         R.const.from_int(mj)))
        assert R.eq(R.div(R.diff(f), f), combo), m


def checked_lattice(texts):
    elements = [he(text) for text in texts]
    rl = relation_lattice(elements)
    assert_cofactors_verify(rl, elements)
    return rl


def saturated_exponents(rl, l):
    """Saturation of L; all of Z^l means the subtorus of (C*)^l that
    the relations cut out is trivial."""
    return saturate(rl.basis, l)


def test_logderiv_of_t():
    # x_1_1 - t is a relation: x_1_1 leaves the remainder t, and its
    # derivative x_1_1/t the remainder 1
    s, rel = relations_of_t(1)
    ring = group_ring(1, K)
    el = logderiv_from_character(s, rel, Character(ring.parse("x_1_1"), ring))
    assert el.R.format(el.v) == "(1)/(t)"


def test_logderiv_of_t_squared_character():
    s, rel = relations_of_t(2)
    ring = group_ring(1, K)
    el = logderiv_from_character(s, rel,
                                 Character(ring.parse("x_1_1^2"), ring))
    assert el.R.format(el.v) == "(2)/(t)"


def test_logderiv_trivial_character():
    s, rel = relations_of_t(1)
    ring = group_ring(1, K)
    el = logderiv_from_character(s, rel, Character(ring.one, ring))
    assert el.R.is_zero(el.v)


def harmonic_without_a_relation():
    """The harmonic oscillator at a = 0, its character, and a hand-built
    relation ideal that lacks x_1_2 + x_2_1 from its certified basis."""
    s = sys_of(["0", "1"], ["-1", "0"])
    rel, chars = character_stages(s, 2, 0)
    gone = rel.ring.parse("x_1_2 + x_2_1")
    assert any(P == gone for P in rel.basis)
    basis = [P for P in rel.basis if P != gone]
    cut = RelationIdeal(rel.ring, basis, d=rel.d, a=rel.a, ell=rel.ell,
                        order_used=rel.order_used, generators=basis)
    return s, cut, chars[0]


def test_logderiv_refused_beyond_the_caps():
    # without x_1_2 + x_2_1 the remainders of chi = -g*x_2_1 + x_2_2 and
    # of its derivative are not proportional: no v is read, and the
    # refusal names the character and the caps
    s, cut, chi = harmonic_without_a_relation()
    assert chi.ring.format(chi.poly) == "-g*x_2_1 + x_2_2"
    with pytest.raises(ResourceCapError) as err:
        logderiv_from_character(s, cut, chi)
    assert str(err.value) == (
        "no logarithmic derivative of the character -g*x_2_1 + x_2_2 is "
        "read off the certified relations under the caps d = 2, ell = 2")
    assert err.value.exit_code == 3


def test_logderiv_on_the_worked_examples():
    # y' = y and the harmonic oscillator, with their README flags: the
    # two worked examples that take the character path
    golden = Path(__file__).parent / "golden"
    for name, d, v in [("exp", 3, "1"), ("harmonic", 2, "g")]:
        s = OdeSystem.from_document((golden / (name + ".sys")).read_text())
        assert assert_logderivs_match_the_reference(s, d, 0) == 1
        rel, (chi,) = character_stages(s, d, 0)
        el = logderiv_from_character(s, rel, chi)
        assert el.R.format(el.v) == v


@pytest.mark.parametrize("rows, d, a", [
    ([["t"]], 3, 0),
    ([["t"]], 2, 1),
    ([["1/(2*t) + t"]], 3, 1),
    ([["t", "0"], ["0", "-1"]], 2, 1),
], ids=["t-at-0", "t-at-1", "sqrt-t-gauss", "diag-t-minus-1"])
def test_logderiv_matches_the_reference_t_dependent(rows, d, a):
    assert assert_logderivs_match_the_reference(sys_of(*rows), d, a) >= 1


def load_families():
    spec = importlib.util.spec_from_file_location("perfbench_families",
                                                  FAMILIES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_logderiv_matches_the_reference_on_the_torus_families():
    # every rotation and exponential that torus-characters deals
    families = load_families()
    instances = [families.rotation(w, p) for w in families.ROTATION_WS
                 for p in families.POINTS_01] + [
        families.exponential(c, 3, p) for c in families.EXP_CS
        for p in families.POINTS_01]
    for inst in instances:
        argv = list(inst.argv)
        d = int(argv[argv.index("--degree-override") + 1])
        a = int(argv[argv.index("--point") + 1])
        assert assert_logderivs_match_the_reference(
            sys_of(*inst.rows), d, a) == 1, inst.name


@pytest.mark.parametrize("family", [rotations, exponentials, gauges],
                         ids=["rotations", "exponentials", "gauges"])
def test_logderiv_matches_the_reference_on_the_sweep(family):
    # 12 derandomized draws of each family; the characters met are counted
    met = []

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(family())
    def check(instance):
        rows, flags, _expect, _certified = instance
        d = int(flags[flags.index("--degree-override") + 1])
        a = int(flags[flags.index("--point") + 1])
        met.append(assert_logderivs_match_the_reference(sys_of(*rows), d, a))

    check()
    assert sum(met) > 0


def test_half_lattice():
    # h2^2 = h1: the tie (-1, 2) lies in L = <(1, 0), (0, 2)>
    rl = checked_lattice(["1/t", "1/(2*t)"])
    assert lattice_text(rl) == ([[1, 0], [0, 2]], ["t", "t"])
    assert in_lattice(rl.basis, [-1, 2]) and not in_lattice(rl.basis, [0, 1])


def test_constant_logderiv_no_relation():
    rl = checked_lattice(["1"])
    assert lattice_text(rl) == ([], [])


def test_self_rational_stays_independent():
    rl = checked_lattice(["2/t"])
    assert lattice_text(rl) == ([[1]], ["t^2"])


def test_diagonal_half_third():
    rl = checked_lattice(["1/(2*t)", "1/(3*t)"])
    assert lattice_text(rl) == ([[2, 0], [0, 3]], ["t", "t"])
    assert in_lattice(rl.basis, [-2, 3])
    assert hnf_basis(saturated_exponents(rl, 2)) == [[1, 0], [0, 1]]


def test_cofactor_dependence_keeps_both_independent():
    # v2 = v1 + 1/(t-1): h2 = h1 * (t-1) * c, and both h are rational,
    # so L is all of Z^2 and the tie (-1, 1) needs no extra basis vector
    rl = checked_lattice(["1/t", "1/t + 1/(t - 1)"])
    assert lattice_text(rl) == ([[1, 0], [0, 1]], ["t", "t^2 + -1*t"])
    assert in_lattice(rl.basis, [-1, 1])
    assert hnf_basis(saturated_exponents(rl, 2)) == [[1, 0], [0, 1]]


def test_poles_in_fields_not_nested():
    """The poles of 2t/(t^2 + 1) and 2t/(t^2 - 2) lie in QQ(i) and
    QQ(sqrt 2), neither inside the other: the lattice is found over
    their join, of degree 4."""
    rl = checked_lattice(["2*t/(t^2 + 1)", "2*t/(t^2 - 2)", "1/(2*t)"])
    assert rl.R.const.degree() == 4
    assert lattice_text(rl) == ([[1, 0, 0], [0, 1, 0], [0, 0, 2]],
                                ["t^2 + 1", "t^2 + -2", "t"])


def test_irrational_residue_rejected():
    K2, _ = field_adjoin(K, [K.from_int(-2), K.zero, K.one])
    R2 = RatFuncField(K2)
    g = K2.generator()
    v = R2.div(R2.from_const(g), R2.t)  # residue sqrt(2)
    with pytest.raises(UnsupportedInstanceError):
        relation_lattice([HyperexpElement(R2, v)])


def test_half_residue_needs_square():
    # v2 has a half-integer residue at 0, so its own power needs m = 2
    rl = checked_lattice(["1/t", "3/(2*t) + 1/(t + 1)"])
    assert lattice_text(rl) == ([[1, 0], [0, 2]], ["t", "t^5 + 2*t^4 + t^3"])


def test_relation_between_two_independent_elements():
    # sqrt(t) e^t * sqrt(t) e^(-t) = t: neither h has a rational power,
    # yet their product is rational
    rl = checked_lattice(["1/(2*t) + 1", "1/(2*t) - 1"])
    assert lattice_text(rl) == ([[1, 1]], ["t"])


# -- completeness of L against a Fraction-only oracle -------------------

POLES = (-1, 0, 1)
CONSTS = [Fraction(x) for x in ("0", "1", "-1", "1/2", "-1/3", "2/3")]
RESIDUES = [Fraction(x) for x in
            ("0", "1", "-1", "1/2", "-1/2", "1/3", "2/3", "-3/4", "3/2")]


def oracle_in_lattice(spec, m):
    """sum m_j v_j = f'/f for a rational f, for v_j = c_j +
    sum_p r_jp/(t - p): no constant part and integer residues."""
    if sum(mj * c for mj, (c, _) in zip(m, spec)) != 0:
        return False
    return all(sum(mj * rs[i] for mj, (_, rs) in zip(m, spec))
               .denominator == 1 for i in range(len(POLES)))


def spec_element(c, rs):
    v = R.from_const(K.from_fraction(c))
    for p, r in zip(POLES, rs):
        pole = R.from_coeffs([K.from_int(-p), K.one])
        v = R.add(v, R.div(R.from_const(K.from_fraction(r)), pole))
    return HyperexpElement(R, v)


def check_complete(spec):
    elements = [spec_element(c, rs) for c, rs in spec]
    rl = relation_lattice(elements)
    assert_cofactors_verify(rl, elements)
    for m in product(range(-4, 5), repeat=len(spec)):
        assert in_lattice(rl.basis, m) == oracle_in_lattice(spec, m), m


@pytest.mark.parametrize("spec", [
    [(1, (Fraction(1, 2), 0, 0)), (-1, (Fraction(1, 2), 0, 0))],
    [(0, (Fraction(1, 2), Fraction(1, 3), 0)),
     (0, (0, Fraction(2, 3), Fraction(-3, 4))),
     (Fraction(1, 2), (1, 0, 0))],
    [(Fraction(2, 3), (0, Fraction(1, 2), 0)),
     (Fraction(-1, 3), (0, Fraction(1, 2), 0))],
    [(0, (0, 0, 0))],
], ids=["sum-of-two", "three-poles", "constants-tie", "zero"])
def test_lattice_complete_on_fixed_inputs(spec):
    check_complete([(Fraction(c), tuple(map(Fraction, rs)))
                    for c, rs in spec])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CONSTS),
                          st.tuples(*[st.sampled_from(RESIDUES)] * 3)),
                min_size=1, max_size=3))
def test_lattice_complete(spec):
    check_complete(spec)
