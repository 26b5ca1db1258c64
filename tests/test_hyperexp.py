from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dgal.errors import ResourceCapError, UnsupportedInstanceError
from dgal.fields import ConstField, field_adjoin
from dgal.groups import Character, group_ring
from dgal.hyperexp import (HyperexpElement, logderiv_from_character,
                           relation_lattice)
from dgal.lattice import hnf_basis, saturate
from dgal.ratfunc import RatFuncField
from dgal.systems import MonomialSeries, OdeSystem

K = ConstField()
R = RatFuncField(K)


def he(text):
    return HyperexpElement(R, R.parse(text))


def series_of_t(degree):
    """The monomial-series store of y' = y/t at a = 1, whose fundamental
    matrix is F = t."""
    s = OdeSystem(R, [[R.parse("1/t")]])
    return MonomialSeries(s, K.from_int(1), degree)


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
    ring = group_ring(1, K)
    el = logderiv_from_character(Character(ring.parse("x_1_1"), ring),
                                 series_of_t(1), 20, 3, 3)
    assert el.R.format(el.v) == "(1)/(t)"


def test_logderiv_of_t_squared_character():
    ring = group_ring(1, K)
    el = logderiv_from_character(Character(ring.parse("x_1_1^2"), ring),
                                 series_of_t(2), 20, 3, 3)
    assert el.R.format(el.v) == "(2)/(t)"


def test_logderiv_trivial_character():
    ring = group_ring(1, K)
    el = logderiv_from_character(Character(ring.one, ring), series_of_t(0),
                                 20, 3, 3)
    assert el.R.is_zero(el.v)


def test_logderiv_order_too_small():
    ring = group_ring(1, K)
    with pytest.raises(ResourceCapError):
        logderiv_from_character(Character(ring.parse("x_1_1"), ring),
                                series_of_t(1), 5, 3, 3)


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
