import pytest

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


def rel_text(r):
    return (r.j, r.m, dict(r.exponents), r.R.format(r.f))


def saturated_exponents(rl, l):
    """Saturation of the exponent rows of every relation (m at j, minus
    e at each i of h_j^m = f prod h_i^e); all of Z^l means the subtorus
    of (C*)^l that the relations cut out is trivial."""
    rows = []
    for rel in rl.relations + rl.self_relations:
        row = [0] * l
        row[rel.j] = rel.m
        for i, e in rel.exponents.items():
            row[i] -= e
        rows.append(row)
    return saturate(rows, l)


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


def test_partial_fraction_invariant():
    el = he("(t^2 + 3)/(t^2 - 1)")
    # poles at 1 and -1, one polynomial coefficient
    assert len(el.parts) == 2
    assert el.poly_part and el.R.const.is_one(el.poly_part[0])


def test_half_lattice():
    rl = relation_lattice([he("1/t"), he("1/(2*t)")])
    assert rl.eta == [0]
    assert [rel_text(r) for r in rl.relations] == [(1, 2, {0: 1}, "1")]
    assert [rel_text(r) for r in rl.self_relations] == [(0, 1, {}, "t")]


def test_constant_logderiv_no_relation():
    rl = relation_lattice([he("1")])
    assert rl.eta == [0]
    assert rl.relations == [] and rl.self_relations == []


def test_self_rational_stays_independent():
    rl = relation_lattice([he("2/t")])
    assert rl.eta == [0]
    assert rl.relations == []
    assert [rel_text(r) for r in rl.self_relations] == [(0, 1, {}, "t^2")]


def test_diagonal_half_third():
    rl = relation_lattice([he("1/(2*t)"), he("1/(3*t)")])
    assert rl.eta == [0]
    assert [rel_text(r) for r in rl.relations] == [(1, 3, {0: 2}, "1")]
    assert [rel_text(r) for r in rl.self_relations] == [(0, 2, {}, "t")]
    assert hnf_basis(saturated_exponents(rl, 2)) == [[1, 0], [0, 1]]


def test_cofactor_dependence_keeps_both_independent():
    # v2 = v1 + 1/(t-1): h2 = h1 * (t-1) * c, but h1 and h2 are still
    # algebraically independent over the constants, so both stay in eta;
    # the tie shows up in the admissible lattice and the self relations
    rl = relation_lattice([he("1/t"), he("1/t + 1/(t - 1)")])
    assert rl.eta == [0, 1]
    assert rl.relations == []
    assert [rel_text(r) for r in rl.self_relations] == \
        [(0, 1, {}, "t"), (1, 1, {}, "t^2 + -1*t")]
    assert hnf_basis(rl.admissible) == hnf_basis(rl.admissible + [[-1, 1]])
    assert hnf_basis(saturated_exponents(rl, 2)) == [[1, 0], [0, 1]]


def test_poles_in_fields_not_nested():
    """The poles of 2t/(t^2 + 1) and 2t/(t^2 - 2) lie in QQ(i) and
    QQ(sqrt 2), neither inside the other: the lattice is found over
    their join, of degree 4."""
    rl = relation_lattice([he("2*t/(t^2 + 1)"), he("2*t/(t^2 - 2)"),
                           he("1/(2*t)")])
    assert rl.R.const.degree() == 4
    assert rl.eta == [0, 1, 2] and rl.relations == []
    assert [rel_text(r) for r in rl.self_relations] == [
        (0, 1, {}, "t^2 + 1"), (1, 1, {}, "t^2 + -2"), (2, 2, {}, "t")]


def test_irrational_residue_rejected():
    K2, _ = field_adjoin(K, [K.from_int(-2), K.zero, K.one])
    R2 = RatFuncField(K2)
    g = K2.generator()
    v = R2.div(R2.from_const(g), R2.t)  # residue sqrt(2)
    with pytest.raises(UnsupportedInstanceError):
        relation_lattice([HyperexpElement(R2, v)])


def test_half_residue_needs_square():
    # v2 has a half-integer residue at 0, so its self relation needs m=2
    rl = relation_lattice([he("1/t"), he("3/(2*t) + 1/(t + 1)")])
    assert rl.eta == [0, 1]
    assert rl.relations == []
    assert [rel_text(r) for r in rl.self_relations] == \
        [(0, 1, {}, "t"), (1, 2, {}, "t^5 + 2*t^4 + t^3")]
