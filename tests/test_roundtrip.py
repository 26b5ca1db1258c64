"""Printed forms re-parse to equal values: rational functions, polynomials
with rational-function coefficients, and system documents, over QQ and
over the number field QQ(g), g^2 + 1 = 0."""

from hypothesis import given, settings, strategies as st

from dgal.fields import ConstField, field_adjoin
from dgal.multipoly import GRADED_LEX, PolyRing
from dgal.ratfunc import RatFuncField
from dgal.relations import matrix_var_names
from dgal.systems import OdeSystem

QQ = ConstField()
QQ_I, _ = field_adjoin(QQ, [QQ.one, QQ.zero, QQ.one])
FIELDS = {"QQ": RatFuncField(QQ), "QQ(g)": RatFuncField(QQ_I)}

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def constants(draw, k):
    """a + b*g with small rational a, b (b = 0 over QQ)."""
    out = k.from_fraction(draw(fractions))
    if k.degree() > 1:
        out = k.add(out, k.mul(k.from_fraction(draw(fractions)),
                               k.generator()))
    return out


@st.composite
def ratfuncs(draw, R):
    num = draw(st.lists(constants(R.const), max_size=4))
    den = draw(st.lists(constants(R.const), min_size=1, max_size=3))
    if all(R.const.is_zero(c) for c in den):
        den = [R.const.one]
    return R.from_coeffs(num or [R.const.zero], den)


@st.composite
def polys(draw, R):
    ring = PolyRing(R, matrix_var_names(2), GRADED_LEX)
    exps = st.tuples(*[st.integers(0, 2)] * 4)
    terms = draw(st.dictionaries(exps, ratfuncs(R), max_size=4))
    return ring.from_dict(terms)


field_names = st.sampled_from(sorted(FIELDS))


@settings(max_examples=40, deadline=None)
@given(st.data(), field_names)
def test_ratfunc_format_parse(data, name):
    R = FIELDS[name]
    f = data.draw(ratfuncs(R))
    assert R.eq(R.parse(R.format(f)), f)


@settings(max_examples=40, deadline=None)
@given(st.data(), field_names)
def test_polyring_format_parse(data, name):
    P = data.draw(polys(FIELDS[name]))
    assert P.ring.parse(P.ring.format(P)) == P


@settings(max_examples=25, deadline=None)
@given(st.data(), field_names, st.integers(1, 2))
def test_system_document_round_trip(data, name, n):
    R = FIELDS[name]
    A = [[data.draw(ratfuncs(R)) for _ in range(n)] for _ in range(n)]
    doc = OdeSystem(R, A).to_document()
    back = OdeSystem.from_document(doc)
    assert back.R.const.degree() == R.const.degree()
    assert all(back.R.eq(back.R.coerce_from(R, A[i][j]), back.A[i][j])
               for i in range(n) for j in range(n))
    assert back.to_document() == doc

