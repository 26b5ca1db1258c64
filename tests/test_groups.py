from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dgal import fields, groups, linalg
from dgal.fields import ConstField
from dgal.groups import (AlgebraicSubgroup, Character,
                         _certified_irreducible, characters_generators,
                         full_group, group_ring,
                         identity_component, kernel_of_characters,
                         stabilizer_group, verify_group_axioms)
from dgal.errors import DgalError, UnsupportedInstanceError
from dgal.multipoly import MultiPoly, PolyRing, groebner, normal_form
from dgal.pipeline import PipelineConfig, proto_galois
from dgal.ratfunc import RatFuncField
from dgal.relations import (_ProductPowers, _row_reduce_polys, certify,
                            find_relations, in_span)
from dgal.systems import OdeSystem

from test_sweep import exponentials, gauges, radical_diagonals, rotations
from truncation import truncated_relations

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
    assert comp.connected and comp.component_class == ("finite", 0)
    assert [comp.ring.format(g) for g in comp.generators] == ["x_1_1 + -1"]


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
    # the tangent basis is made of elementary and diagonal matrices, whose
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
    chars = characters_generators(H, 1)
    assert sorted(c.ring.format(c.poly) for c in chars) == ["x_1_1", "x_2_2"]
    assert all(c.ring.field.degree() == 1 for c in chars)
    ker = kernel_of_characters(H, chars)
    texts = sorted(ker.ring.format(g) for g in ker.generators)
    assert texts == ["x_1_1 + -1", "x_1_2", "x_2_1", "x_2_2 + -1"]


def test_rotation_characters_rank_one_over_qi():
    H = so2(group_ring(2, K))
    H.connected = True
    chars = characters_generators(H, 1)
    assert len(chars) == 1
    P = chars[0].poly
    fld = chars[0].ring.field
    # the character is x_2_2 - g*x_2_1 with g a square root of -1: the
    # field splits x^2 + 1, the characteristic polynomial of xi spanning
    # so2
    assert chars[0].ring.format(P) == "-g*x_2_1 + x_2_2"
    assert [fld.format(fld.from_fraction(c)) for c in fld.minpoly_coeffs()] \
        == ["1", "0", "1"]


def parsed(*texts):
    return lambda ring: AlgebraicSubgroup(2, ring, map(ring.parse, texts))


conic = parsed("x_1_1 - x_2_2", "x_1_2 + 1/4*x_2_1",
               "x_2_1^2 + 4*x_2_2^2 - 4")
unipotent = parsed("x_1_1 - 1", "x_2_1", "x_2_2 - 1")
affine = parsed("x_2_1", "x_2_2 - 1")


def test_character_type():
    H = full_group(1, K)
    chars = characters_generators(H, 1)
    assert isinstance(chars[0], Character)


def no_derivation(*args):
    raise AssertionError("the character search built a derivation")


@pytest.mark.parametrize("D", [1, 2, 3])
def test_perfect_lie_algebra_has_no_characters(monkeypatch, D):
    # sl2 = [sl2, sl2]: SL2 is answered before any derivation is built
    monkeypatch.setattr(groups, "_derivation_matrix", no_derivation)
    H = identity_component(sl2(group_ring(2, K)))
    assert H.component_class == ("prime graph", 3)
    assert characters_generators(H, D) == []


def test_nonreduced_presentation_is_refused(monkeypatch):
    # (det - 1)^2 has no linear part at I, so its tangent space is all of
    # gl2, larger than the 3 dimensions recorded: the ideal is not
    # reduced, and the search refuses it before building anything
    ring = group_ring(2, K)
    H = AlgebraicSubgroup(2, ring, [
        ring.parse("(x_1_1*x_2_2 - x_1_2*x_2_1 - 1)^2")], connected=True)
    H.component_class = ("prime graph", 3)
    monkeypatch.setattr(groups, "_derivation_matrix", no_derivation)
    with pytest.raises(UnsupportedInstanceError,
                       match="dimension 4, the prime graph group 3; "
                             "its ideal is a non-reduced presentation"):
        characters_generators(H, 1)


def test_tangent_space_larger_than_the_group_certifies_nothing(monkeypatch):
    # the first-order neighbourhood of I in SL2 around {I, -I}: the
    # tangent space is sl2, perfect, but not the Lie algebra of a group
    # recorded as 0-dimensional, so neither the perfect exit nor the
    # search may read it
    ring = group_ring(2, K)
    H = AlgebraicSubgroup(2, ring, map(ring.parse, [
        "x_1_1*x_2_2 - x_1_2*x_2_1 - 1", "x_1_2^2", "x_2_1^2",
        "(x_1_1 - x_2_2)^2"]), connected=True)
    H.component_class = ("finite", 0)
    monkeypatch.setattr(groups, "_derivation_matrix", no_derivation)
    with pytest.raises(UnsupportedInstanceError, match="non-reduced"):
        characters_generators(H, 1)


def test_gl2_is_not_perfect(monkeypatch):
    # gl2 = sl2 + scalars is not perfect, so the search runs; the
    # derivations of E_11, E_12 and E_21 already leave every space a
    # line, and the search stops before building the one of E_22
    derivations = []
    build = groups._derivation_matrix

    def recording(*args):
        derivations.append(args[3])
        return build(*args)

    monkeypatch.setattr(groups, "_derivation_matrix", recording)
    H = identity_component(full_group(2, K))
    assert H.component_class == ("full", 4)
    assert char_polys(H, 2) == ["x_1_1*x_2_2 + -1*x_1_2*x_2_1"]
    assert len(derivations) == 3


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("texts,expected,used", [
    (["x_2_1"], ["x_1_1", "x_2_2"], 3),
    (["x_2_1", "x_1_1*x_2_2 - 1"], ["x_1_1"], 2),
    (["x_2_1", "x_2_2 - 1"], ["x_1_1"], 2),
    (["x_2_1", "x_1_1 - 1", "x_2_2 - 1"], [], 1),
], ids=["upper", "Borel", "affine", "Ga"])
def test_solvable_group_characters(monkeypatch, texts, expected, used, D):
    # each group needs the derivation of every direction of its Lie
    # algebra, one per dimension, before every space is a line
    derivations = []
    build = groups._derivation_matrix

    def recording(*args):
        derivations.append(args[3])
        return build(*args)

    monkeypatch.setattr(groups, "_derivation_matrix", recording)
    H = identity_component(parsed(*texts)(group_ring(2, K)))
    assert sorted(char_polys(H, D)) == expected
    assert len(derivations) == used == H.component_class[1]


def test_candidate_that_is_no_character_is_dropped(monkeypatch):
    # the derivation of [[1, 1], [0, 2]], a matrix off Lie(G_a), splits
    # span(1, x_1_2) into the lines of 1 and 1 + 2*x_1_2; the second is
    # no character of G_a, and the exact check drops it
    H = identity_component(unipotent(group_ring(2, K)))
    monkeypatch.setattr(groups, "_tangent_space", lambda _H: [
        [[K.one, K.one], [K.zero, K.from_int(2)]]])
    checked = []
    is_character = groups._is_character

    def recording(ring2, gb2, P, n):
        checked.append((H.ring.format(P), is_character(ring2, gb2, P, n)))
        return checked[-1][1]

    monkeypatch.setattr(groups, "_is_character", recording)
    assert characters_generators(H, 1) == []
    assert checked == [("2*x_1_2 + 1", False)]


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


def derivative_along(P, xi):
    """D_xi P, the coefficient of s in P(X (I + s xi)), read off a ring
    with one more variable s: the directional derivative of P along the
    right translations by exp(s xi), computed without the search's own
    derivation matrix."""
    ring = P.ring
    fld = ring.field
    nsq = ring.nvars
    n = len(xi)
    ring_s = PolyRing(fld, list(ring.names) + ["s"])
    x, s = ring_s.gens[:nsq], ring_s.gens[nsq]
    moved = {}
    for i in range(n):
        for j in range(n):
            acc = x[i * n + j]
            for l in range(n):
                acc = acc + (x[i * n + l] * s).scale(
                    fld.coerce_from(K, xi[l][j]))
            moved[i * n + j] = acc
    Ps = ring_s.from_dict({e + (0,): c for e, c in P.terms.items()})
    return ring.from_dict({e[:nsq]: c for e, c in
                           Ps.substitute(moved).terms.items() if e[nsq] == 1})


torus = parsed("x_1_2", "x_2_1")
borel = parsed("x_2_1", "x_1_1*x_2_2 - 1")


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("make,ranks", [
    (so2, [1, 1, 1]), (lambda ring: full_group(2, K), [0, 1, 1]),
    (borel, [1, 1, 1]), (torus, [2, 2, 2]),
], ids=["SO2", "GL2", "Borel", "torus"])
def test_characters_are_weight_vectors_of_every_derivation(make, ranks, D):
    # D_xi chi = dchi(xi) chi modulo H's ideal, for every xi in Lie(H),
    # with dchi(xi) = (D_xi chi)(I) since chi(I) = 1; GL2's determinant
    # needs D = 2
    H = identity_component(make(group_ring(2, K)))
    chars = characters_generators(H, D)
    assert len(chars) == ranks[D - 1]
    for ch in chars:
        fld = ch.ring.field
        gb = [groups._coerce_poly(ch.ring, H.ring, g)
              for g in H.groebner_basis()]
        ident = [fld.coerce_from(K, v) for v in H.identity_values()]
        for xi in groups._tangent_space(H):
            dchi = derivative_along(ch.poly, xi)
            weight = dchi.eval_consts(ident)
            rest = dchi - ch.poly.scale(weight)
            assert (normal_form(rest, gb) if gb else rest).is_zero()


def test_determinant_is_found_at_a_sum_of_eigenvalues(monkeypatch):
    # in this basis of gl2 the first xi has eigenvalues 1 and 2, and the
    # determinant's weight under it is tr(xi) = 1 + 2, which is none of
    # them: only the sums of eigenvalues reach it
    m = lambda rows: [[K.from_int(x) for x in row] for row in rows]
    monkeypatch.setattr(groups, "_tangent_space", lambda _H: [
        m([[1, 1], [0, 2]]), m([[0, 0], [1, 0]]), m([[0, 1], [0, 0]]),
        m([[1, 0], [0, 1]])])
    H = identity_component(full_group(2, K))
    assert char_polys(H, 2) == ["x_1_1*x_2_2 + -1*x_1_2*x_2_1"]


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("n,make", [
    (2, so2), (2, lambda ring: full_group(2, K)), (2, borel), (2, torus),
    (2, conic), (2, affine), (1, lambda ring: full_group(1, K)),
], ids=["SO2", "GL2", "Borel", "torus", "conic", "affine", "GL1"])
def test_character_search_splits_only_n_by_n_polynomials(monkeypatch, n,
                                                          make, D):
    # the only polynomials split are the characteristic polynomials of
    # the n x n matrices xi, not those of the derivations' matrices
    degrees = []
    split = fields.split_univariate

    def recording(field, coeffs):
        degrees.append(len(coeffs) - 1)
        return split(field, coeffs)

    H = identity_component(make(group_ring(n, K)))
    monkeypatch.setattr(fields, "split_univariate", recording)
    characters_generators(H, D)
    assert degrees and max(degrees) <= n


# -- the proto-group stage over k ----------------------------------------

GOLDEN = Path(__file__).parent / "golden"
# (golden system, relation degree, expansion point) as tests/test_golden.py
# runs them
PROTO_EXAMPLES = [("airy", 2, 1), ("harmonic", 2, 0), ("diag23", 3, 1)]


def golden_proto_galois(name, degree, point):
    sys = OdeSystem.from_document((GOLDEN / (name + ".sys")).read_text())
    return proto_galois(sys, PipelineConfig(degree=degree,
                                            a=K.from_int(point)))


def split_by_denominator_product(R, ring, res):
    """The split before the lcm: the residual times the product of every
    coefficient's denominator, repeats included."""
    den = R.one
    for c in res.values():
        den = R.mul(den, R.from_coeffs(R.denom_coeffs(c)))
    out = {}
    for e, c in res.items():
        for m, cm in enumerate(R.numer_coeffs(R.mul(c, den))):
            if not K.is_zero(cm):
                out.setdefault(m, {})[e] = cm
    return [ring.from_dict(d) for _, d in sorted(out.items())]


DENOMINATORS = [[1], [0, 1], [1, 1], [0, 0, 1], [0, 1, 1], [-1, 0, 1]]


@st.composite
def residuals(draw):
    """A residual {h-exponent: coefficient} over QQ(t) whose denominators
    come from a short list, so that they repeat."""
    exps = st.tuples(*[st.integers(0, 2)] * 4)
    coeff = st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3)
                      .filter(any), st.sampled_from(DENOMINATORS))
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=5))
    return {e: R.from_coeffs([K.from_int(x) for x in num],
                             [K.from_int(x) for x in den])
            for e, (num, den) in terms.items()}


def test_split_clears_with_the_lcm_of_the_denominators():
    # 1/t, 2/t, 1/(t^2 + t) and t/(t + 1) share the lcm t^2 + t, where
    # the product of their denominators is t^3 (t + 1)^2
    ring = group_ring(2, K)
    gens = ring.gens
    res = {g.leading()[0]: R.parse(text) for g, text in zip(
        gens, ["1/t", "2/t", "1/(t^2 + t)", "t/(t + 1)"])}
    new = groups._split_by_t_power(R, ring, res)
    old = split_by_denominator_product(R, ring, res)
    assert [ring.format(p) for p in new] == [
        "x_1_1 + 2*x_1_2 + x_2_1", "x_1_1 + 2*x_1_2", "x_2_2"]
    assert len(old) == 4
    assert _row_reduce_polys(ring, new) == _row_reduce_polys(ring, old)


@settings(max_examples=60, deadline=None)
@given(st.lists(residuals(), min_size=1, max_size=3))
def test_lcm_split_spans_the_product_split(ress):
    # the t-coefficients of f*G span the same k-space as those of G for
    # any nonzero f in k[t], so both splits have one reduced echelon form
    ring = group_ring(2, K)
    new = [p for res in ress for p in groups._split_by_t_power(R, ring, res)]
    old = [p for res in ress
           for p in split_by_denominator_product(R, ring, res)]
    assert _row_reduce_polys(ring, new) == _row_reduce_polys(ring, old)


@pytest.mark.parametrize("name,degree,point", PROTO_EXAMPLES,
                         ids=[name for name, _d, _p in PROTO_EXAMPLES])
def test_lcm_split_keeps_the_stabilizer(name, degree, point):
    # on the residuals of the worked examples the two splits give one
    # reduced echelon form, the stabilizer's generators
    H, rel = golden_proto_galois(name, degree, point)
    ring = H.ring
    old = [p for res in groups._action_residuals(rel)
           for p in split_by_denominator_product(R, ring, res)]
    assert _row_reduce_polys(ring, old) == H.generators


def no_substitution(*args):
    raise AssertionError("the proto-group stage substituted into a "
                         "polynomial")


@pytest.mark.parametrize("name,degree,point", PROTO_EXAMPLES,
                         ids=[name for name, _d, _p in PROTO_EXAMPLES])
def test_proto_group_stage_forms_no_doubled_ring_over_kt(monkeypatch, name,
                                                         degree, point):
    # P(X*h) is read off integer expansions, and the closure check runs
    # over k: nothing is substituted, and the answer is the golden one
    monkeypatch.setattr(MultiPoly, "substitute", no_substitution)
    H, _rel = golden_proto_galois(name, degree, point)
    assert H.group_verified
    golden = (GOLDEN / (name + ".protogroup.out")).read_text().splitlines()
    assert ["generator: " + H.ring.format(g) for g in H.generators] == \
        golden[1:]


def test_closure_check_needs_every_generator():
    # without x_2_2^3 - 1 the ideal of diag23's stabilizer no longer
    # bounds x_2_2, so the pieces of the residuals that it spans leave it
    H, rel = golden_proto_galois("diag23", 3, 1)
    gens = [g for g in H.generators if H.ring.format(g) != "x_2_2^3 + -1"]
    assert len(gens) == len(H.generators) - 1
    H.generators = gens
    del H._gb
    H.group_verified = False
    with pytest.raises(DgalError, match="group closure failed"):
        verify_group_axioms(H, rel)
    assert not H.group_verified


# -- the stabilizer from the ideal's generators --------------------------

# every golden system, with the degree and point tests/test_golden.py runs
GOLDEN_SYSTEMS = [("mu2", 2, 1), ("exp", 3, 0), ("t", 1, 1),
                  ("harmonic", 2, 0), ("airy", 2, 1), ("diag23", 3, 1)]
DIAG_SYSTEMS = [(("1/(3*t)", "2/(3*t)"), 3),
                (("1/(2*t)", "1/(3*t)", "1/(5*t)"), 3)]


def diag_proto_galois(entries, degree):
    n = len(entries)
    sys = sys_of(*[[e if i == j else "0" for j in range(n)]
                   for i, e in enumerate(entries)])
    return proto_galois(sys, PipelineConfig(degree=degree))


def all_basis_generators(rel):
    """The stabilizer's generators from the residuals of every basis
    relation, each reduced by the span: the expansion the stabilizer
    made before it read only the ideal's generators, kept here as the
    reference."""
    ring = rel.ring
    R = ring.field
    n = isqrt(ring.nvars)
    ring_const = group_ring(n, R.const)
    powers = _ProductPowers(n)
    leads = {Q.leading()[0]: Q.terms for Q in rel.basis}
    pieces = []
    for P in rel.basis:
        vec = {}
        for (xe, he), c in powers.at_product(R, P).items():
            vec.setdefault(xe, {})[he] = c
        for le in [e for e in vec if e in leads]:
            lead = vec.pop(le)
            for e, c in leads[le].items():
                if e != le and not linalg.sub_multiples(
                        R, vec.setdefault(e, {}), [(c, lead)]):
                    del vec[e]
        for res in vec.values():
            if res:
                pieces.extend(groups._split_by_t_power(R, ring_const, res))
    return _row_reduce_polys(ring_const, pieces)


def assert_generators_suffice(H, rel):
    """H from G has the reduced Groebner basis of H from every relation.
    G with the x-multiples of the lower-degree relations spans the
    relation span W; those multiples lie in W (it is closed), or G is
    the whole basis.  Returns whether W is closed."""
    assert H.group_verified
    assert groebner(H.generators) == groebner(all_basis_generators(rel))
    gens = rel.generators
    lower = [x * Q for Q in rel.basis if Q.total_degree() < rel.d
             for x in rel.ring.gens]
    closed = in_span(rel.basis, lower)
    assert in_span(gens + lower, rel.basis)
    assert closed or gens == rel.basis
    return closed


@pytest.mark.parametrize("name,degree,point", GOLDEN_SYSTEMS,
                         ids=[name for name, _d, _p in GOLDEN_SYSTEMS])
def test_ideal_generators_give_the_stabilizer_of_the_golden_systems(
        name, degree, point):
    assert assert_generators_suffice(*golden_proto_galois(name, degree,
                                                          point))


@pytest.mark.parametrize("entries,degree", DIAG_SYSTEMS,
                         ids=["diag(1,2)/3t", "diag(1/2,1/3,1/5)/t"])
def test_ideal_generators_give_the_stabilizer_of_radical_diagonals(
        entries, degree):
    assert assert_generators_suffice(*diag_proto_galois(entries, degree))


@settings(max_examples=15, deadline=None)
@given(st.one_of(radical_diagonals(), exponentials(), rotations(), gauges()))
# P diag(1/2, 1) P^-1 / t with P = [[1, 1], [0, 1]]: a gauge whose
# relations are not monomial
@example(([["(1/2)/t", "(1/2)/t"], ["0", "(1)/t"]],
          ["--degree-override", "2", "--point", "1"], {"order": "2"}, False))
def test_ideal_generators_give_the_stabilizer_of_the_sweep(instance):
    rows, flags, _expect, _certified = instance
    degree = int(flags[flags.index("--degree-override") + 1])
    point = int(flags[flags.index("--point") + 1]) if "--point" in flags \
        else 1
    doc = "n: %d\n" % len(rows) + "".join(
        "A[%d][%d]: %s\n" % (i + 1, j + 1, entry)
        for i, row in enumerate(rows) for j, entry in enumerate(row))
    try:
        H, rel = proto_galois(OdeSystem.from_document(doc), PipelineConfig(
            degree=degree, a=K.from_int(point)))
    except DgalError:
        # a refusal at the proto-group stage, which the sweep allows
        return
    assert_generators_suffice(H, rel)


def test_span_without_x_closure_expands_every_relation():
    # the truncated kernel at order 20, below the certified order: the
    # harmonic oscillator's degree-1 basis holds x_1_2 + c(t)*x_2_2 +
    # e(t) with c, e of degree 12 over 11, a k(t)-combination of kernel
    # vectors whose degree-2 terms cancel, whose x-multiples are not
    # relations at that order
    sys = OdeSystem.from_document((GOLDEN / "harmonic.sys").read_text())
    rel = truncated_relations(sys, K.zero, 2, 2, 20)
    assert not certify(sys, rel.basis, rel.a)
    H = stabilizer_group(rel)
    verify_group_axioms(H, rel)
    assert not assert_generators_suffice(H, rel)
    assert rel.generators == rel.basis


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("make,expected,checks", [
    (so2, ["-g*x_2_1 + x_2_2"], 1),
    (torus, ["x_1_1", "x_2_2"], 2),
    (lambda ring: full_group(2, K), None, 1),
], ids=["SO2", "torus", "GL2"])
def test_only_kept_characters_are_checked(monkeypatch, make, expected,
                                          checks, D):
    # a candidate that is the inverse of a chosen character or a product
    # of two lower-degree ones is a character: SO2's lines chi^-1, chi^2,
    # chi^-2, ... are skipped, and only chi is checked
    checked = []
    is_character = groups._is_character

    def recording(*args):
        checked.append(args[2])
        return is_character(*args)

    H = identity_component(make(group_ring(2, K)))
    monkeypatch.setattr(groups, "_is_character", recording)
    polys = char_polys(H, D)
    if expected is None:  # GL2: the determinant needs D = 2
        expected = [] if D == 1 else ["x_1_1*x_2_2 + -1*x_1_2*x_2_1"]
        checks = len(expected)
    assert sorted(polys) == expected
    assert len(checked) == checks
