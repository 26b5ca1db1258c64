import pytest
from hypothesis import given, settings, strategies as st

from dgal import fields, groups
from dgal.fields import ConstField
from dgal.groups import (AlgebraicSubgroup, Character,
                         _certified_irreducible, characters_generators,
                         full_group, group_points_finite, group_ring,
                         identity_component, kernel_of_characters,
                         sample_group_points, stabilizer_group,
                         verify_group_axioms)
from dgal import linalg
from dgal.multipoly import groebner
from dgal.ratfunc import RatFuncField
from dgal.relations import find_relations
from dgal.systems import OdeSystem

K = ConstField()
R = RatFuncField(K)


def sys_of(*rows):
    return OdeSystem(R, [[R.parse(e) for e in row] for row in rows])


def sl2(ring):
    det = ring.gen(0) * ring.gen(3) - ring.gen(1) * ring.gen(2) - ring.one
    return AlgebraicSubgroup(2, ring, [det])


def so2(ring):
    g = ring.gens
    return AlgebraicSubgroup(2, ring, [
        g[0] - g[3], g[1] + g[2], g[0] * g[0] + g[2] * g[2] - ring.one])


def char_polys(H, D):
    return [c.ring.format(c.poly) for c in characters_generators(H, D)]


def test_mu2_stabilizer_chain():
    s = sys_of(["1/(2*t)"])
    rel = find_relations(s, K.from_int(1), 2, 1)
    H = stabilizer_group(rel)
    assert [H.ring.format(g) for g in H.generators] == ["x_1_1^2 + -1"]
    verify_group_axioms(H, rel)
    assert H.group_verified
    comp = identity_component(H)
    assert comp.connected and comp.component_count == 2
    assert [comp.ring.format(g) for g in comp.generators] == ["x_1_1 + -1"]
    fld, pts = group_points_finite(H)
    vals = sorted(fld.format(p[0][0]) for p in pts)
    assert vals == ["-1", "1"]


def test_harmonic_stabilizer_is_rotations():
    s = sys_of(["0", "1"], ["-1", "0"])
    rel = find_relations(s, K.zero, 2, 1)
    H = stabilizer_group(rel)
    verify_group_axioms(H, rel)
    # the stabilizer ideal contains the rotation relations
    gb = H.groebner_basis()
    for text in ["x_1_1 - x_2_2", "x_1_2 + x_2_1",
                 "x_1_1^2 + x_2_1^2 - 1"]:
        from dgal.multipoly import normal_form
        assert not normal_form(H.ring.parse(text), gb).terms
    comp = identity_component(H)
    assert comp.connected


def test_rotation_component_is_connected():
    H = so2(group_ring(2, K))
    assert identity_component(H).connected


def test_sl2_component_is_connected():
    H = sl2(group_ring(2, K))
    assert identity_component(H).connected


def test_mu4_points_need_i():
    ring = group_ring(1, K)
    H = AlgebraicSubgroup(1, ring, [ring.gen(0) ** 4 - ring.one])
    comp = identity_component(H)
    assert comp.component_count == 4
    fld, pts = H.points_field, H.points
    assert len(pts) == 4
    # the point set contains a primitive fourth root of unity
    assert any(fld.is_one(fld.neg(fld.mul(p[0][0], p[0][0]))) for p in pts)


def test_gl1_characters():
    H = full_group(1, K)
    chars = characters_generators(H, 1)
    assert [c.ring.format(c.poly) for c in chars] == ["x_1_1"]
    ker = kernel_of_characters(H, chars)
    assert [ker.ring.format(g) for g in ker.generators] == ["x_1_1 + -1"]


def test_sl2_characters_trivial():
    H = sl2(group_ring(2, K))
    H.connected = True
    assert characters_generators(H, 2) == []


def test_gl2_characters_determinant():
    H = full_group(2, K)
    assert char_polys(H, 2) == ["x_1_1*x_2_2 + -1*x_1_2*x_2_1"]


@pytest.mark.parametrize("make,expected", [
    (lambda: sl2(group_ring(2, K)), []),
    (lambda: full_group(2, K), ["x_1_1*x_2_2 + -1*x_1_2*x_2_1"]),
], ids=["SL2", "GL2"])
def test_nonabelian_characters_stay_over_qq(monkeypatch, make, expected):
    # the commutator's fixed space leaves only 1 and det, whose
    # eigenvalues are rational: no number field is built
    degrees = []
    split = fields.split_univariate

    def recording(field, coeffs):
        ext, roots = split(field, coeffs)
        degrees.append(ext.degree())
        return ext, roots

    monkeypatch.setattr(fields, "split_univariate", recording)
    H = make()
    H.connected = True
    assert char_polys(H, 2) == expected
    assert degrees and max(degrees) == 1


@pytest.mark.parametrize("n,text,irreducible", [
    (2, "x_1_1*x_2_2 - x_1_2*x_2_1 - 1", True),
    (2, "x_1_1*x_2_2 - x_1_2*x_2_1", True),
    (1, "x_1_1^2 - 2", True),
    (1, "x_1_1^2 - 1", False),
    (2, "(x_1_1 - 1)*(x_2_2 - 1)", False),
    (2, "(x_1_1 - x_2_2)^2", False),
    (2, "x_2_1^2 + x_2_2^2 - 1", True),
    (2, "4*x_2_1^2 + x_2_2^2 - 1", True),
    # x_1_1^2 + 2 at every value of x_2_2, but the top coefficient of
    # x_1_1 is x_2_2 + 1, not a constant
    (2, "(x_2_2 + 1)*(x_1_1^2 + 2)", False),
])
def test_single_irreducible_generator(n, text, irreducible):
    ring = group_ring(n, K)
    assert _certified_irreducible(ring.parse(text)) is irreducible


RING2 = group_ring(2, K)


@st.composite
def nonconstant_polys(draw):
    """An integer polynomial of degree 1 to 3 in x_1_1, x_1_2, x_2_1."""
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 3),
        st.integers(-3, 3).filter(bool), min_size=1, max_size=4).filter(
            lambda t: any(map(sum, t))))
    return RING2.from_dict({e + (0,): K.from_int(c) for e, c in terms.items()})


@settings(max_examples=60, deadline=None)
@given(nonconstant_polys(), nonconstant_polys())
def test_products_are_never_certified_irreducible(f, h):
    assert _certified_irreducible(f * h) is False


def test_diagonal_torus_characters():
    ring = group_ring(2, K)
    H = AlgebraicSubgroup(2, ring, [ring.gen(1), ring.gen(2)], connected=True)
    assert sorted(char_polys(H, 1)) == ["x_1_1", "x_2_2"]
    ker = kernel_of_characters(H, characters_generators(H, 1))
    texts = sorted(ker.ring.format(g) for g in ker.generators)
    assert texts == ["x_1_1 + -1", "x_1_2", "x_2_1", "x_2_2 + -1"]


def test_rotation_characters_rank_one_over_qi():
    H = so2(group_ring(2, K))
    H.connected = True
    chars = characters_generators(H, 1)
    assert len(chars) == 1
    P = chars[0].poly
    fld = chars[0].ring.field
    # the character is x_2_2 + c*x_2_1 with c a square root of -1
    coeffs = dict(P.terms)
    c = coeffs[(0, 0, 1, 0)]
    assert fld.is_one(coeffs[(0, 0, 0, 1)])
    assert fld.is_one(fld.neg(fld.mul(c, c)))
    assert fld.degree() == 2


def parsed(*texts):
    return lambda ring: AlgebraicSubgroup(2, ring, map(ring.parse, texts))


conic = parsed("x_1_1 - x_2_2", "x_1_2 + 1/4*x_2_1",
               "x_2_1^2 + 4*x_2_2^2 - 4")
unipotent = parsed("x_1_1 - 1", "x_2_1", "x_2_2 - 1")
affine = parsed("x_2_1", "x_2_2 - 1")


@pytest.mark.parametrize("make,first", [
    (sl2, None),
    # the first rotation sample is pinned: the character field printed for
    # the harmonic oscillator rests on it
    (so2, [["8/17", "-15/17"], ["15/17", "8/17"]]),
    (conic, None), (unipotent, None), (affine, None),
], ids=["SL2", "SO2", "conic", "Ga", "affine"])
def test_sampling_lands_on_the_group(make, first):
    H = make(group_ring(2, K))
    fld, pts = sample_group_points(H, 4)
    assert len(pts) == 4
    for m in pts:
        assert not fld.is_zero(linalg.det(fld, m))
        vals = [x for row in m for x in row]
        assert all(fld.is_zero(g.eval_consts(vals)) for g in H.generators)
    if first is not None:
        assert [[fld.format(x) for x in row] for row in pts[0]] == first


def test_character_type():
    H = full_group(1, K)
    chars = characters_generators(H, 1)
    assert isinstance(chars[0], Character)


def no_sampling(H, count):
    raise AssertionError("the character search sampled group points")


@pytest.mark.parametrize("D", [1, 2, 3])
def test_perfect_lie_algebra_has_no_characters(monkeypatch, D):
    # sl2 = [sl2, sl2]: SL2 is answered before anything is sampled
    monkeypatch.setattr(groups, "sample_group_points", no_sampling)
    H = identity_component(sl2(group_ring(2, K)))
    assert H.component_class == ("prime graph", 3)
    assert characters_generators(H, D) == []


def test_nonreduced_presentation_falls_back_to_the_search(monkeypatch):
    # (det - 1)^2 has no linear part at I, so its tangent space is all of
    # gl2, larger than the 3 dimensions recorded: no certificate, and the
    # search, run on points of SL2, still finds no character
    ring = group_ring(2, K)
    H = AlgebraicSubgroup(2, ring, [
        ring.parse("(x_1_1*x_2_2 - x_1_2*x_2_1 - 1)^2")], connected=True)
    H.component_class = ("prime graph", 3)
    sampled = []

    def sl2_points(_H, count):
        sampled.append(count)
        return sample_group_points(sl2(ring), count)

    monkeypatch.setattr(groups, "sample_group_points", sl2_points)
    assert characters_generators(H, 1) == []
    assert sampled


def test_tangent_space_larger_than_the_group_certifies_nothing(monkeypatch):
    # the first-order neighbourhood of I in SL2 around {I, -I}: the
    # tangent space is sl2, perfect, but not the Lie algebra of a group
    # recorded as 0-dimensional, so the search must run
    ring = group_ring(2, K)
    H = AlgebraicSubgroup(2, ring, map(ring.parse, [
        "x_1_1*x_2_2 - x_1_2*x_2_1 - 1", "x_1_2^2", "x_2_1^2",
        "(x_1_1 - x_2_2)^2"]), connected=True)
    H.component_class = ("finite", 0)
    monkeypatch.setattr(groups, "sample_group_points", no_sampling)
    with pytest.raises(AssertionError, match="sampled"):
        characters_generators(H, 1)


def test_gl2_is_not_perfect():
    H = identity_component(full_group(2, K))
    assert H.component_class == ("full", 4)
    assert char_polys(H, 2) == ["x_1_1*x_2_2 + -1*x_1_2*x_2_1"]


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("texts,expected", [
    (["x_2_1"], ["x_1_1", "x_2_2"]),
    (["x_2_1", "x_1_1*x_2_2 - 1"], ["x_1_1"]),
    (["x_2_1", "x_2_2 - 1"], ["x_1_1"]),
    (["x_2_1", "x_1_1 - 1", "x_2_2 - 1"], []),
], ids=["upper", "Borel", "affine", "Ga"])
def test_solvable_group_characters(monkeypatch, texts, expected, D):
    # one translation already splits the commutator's fixed space into
    # lines, and the search stops there
    refines = []
    refine = groups._eigen_refine

    def recording(*args):
        refines.append(args)
        return refine(*args)

    monkeypatch.setattr(groups, "_eigen_refine", recording)
    H = identity_component(parsed(*texts)(group_ring(2, K)))
    assert sorted(char_polys(H, D)) == expected
    assert len(refines) == 1


def test_candidate_that_is_no_character_is_dropped(monkeypatch):
    # translation by [[1, 1], [0, 2]], a matrix off G_a, splits span(1,
    # x_1_2) into the lines of 1 and 1 + x_1_2; the second is no
    # character of G_a, and the exact check drops it
    H = identity_component(unipotent(group_ring(2, K)))
    monkeypatch.setattr(groups, "sample_group_points", lambda _H, _count: (
        K, [[[K.one, K.one], [K.zero, K.from_int(2)]]]))
    assert characters_generators(H, 1) == []


@pytest.mark.parametrize("make", [
    so2, sl2, conic, unipotent, affine,
    parsed("x_2_1", "x_1_1*x_2_2 - 1"),
    parsed("x_1_1^2 - 1", "x_1_2", "x_2_1", "x_2_2 - x_1_1"),
], ids=["SO2", "SL2", "conic", "Ga", "affine", "Borel", "mu2"])
def test_doubled_basis_needs_no_reduction(make):
    # two copies of a reduced basis in disjoint variables are the reduced
    # basis of the doubled ideal, up to the order of the list
    H = make(group_ring(2, K))
    ring2, gb2 = groups._doubled_ideal(H.ring, H.groebner_basis(), 2)
    assert sorted(map(ring2.format, gb2)) == \
        sorted(map(ring2.format, groebner(gb2)))
