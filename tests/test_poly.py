"""Graded polynomial and truncated series arithmetic against brute oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms.poly import (HomogPoly, MismatchError, OneForm, TruncSeries,
                          graded_dim, monomials)
from acforms.serialize import SerializationError, series_from_json
from conftest import H, S, form, series_x, zero_series
from oracles import (exponents, poly_add, poly_mul, poly_partial, poly_scale,
                     series_dict)

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def homog(draw, num_vars=2, max_degree=4, min_degree=0):
    degree = draw(st.integers(min_degree, max_degree))
    basis = monomials(num_vars, degree)
    coeffs = draw(st.lists(fractions, min_size=len(basis), max_size=len(basis)))
    return HomogPoly.from_terms(num_vars, degree, dict(zip(basis, coeffs)))


@st.composite
def wide_homog(draw, num_vars):
    """Sparse, possibly zero, with denominators up to 10^6: a product kernel
    that works over one common denominator sees distinct, large lcms."""
    degree = draw(st.integers(0, 4))
    basis = monomials(num_vars, degree)
    coeffs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
    terms = draw(st.dictionaries(st.sampled_from(basis), coeffs, max_size=len(basis)))
    return HomogPoly.from_terms(num_vars, degree, terms)


@st.composite
def wide_pair(draw):
    num_vars = draw(st.sampled_from([2, 3]))
    return draw(wide_homog(num_vars)), draw(wide_homog(num_vars))


@st.composite
def series(draw, num_vars=2, max_trunc=6):
    trunc = draw(st.integers(1, max_trunc))
    parts = []
    for k in range(trunc):
        if draw(st.booleans()):
            basis = monomials(num_vars, k)
            coeffs = draw(st.lists(fractions, min_size=len(basis), max_size=len(basis)))
            parts.append(HomogPoly.from_terms(num_vars, k, dict(zip(basis, coeffs))))
    return TruncSeries.from_parts(num_vars, trunc, parts)


# --- monomial enumeration ----------------------------------------------------


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 5])
def test_monomials_match_brute_enumeration(num_vars, degree):
    listed = monomials(num_vars, degree)
    assert len(listed) == graded_dim(num_vars, degree)
    assert set(listed) == set(exponents(num_vars, degree))
    assert len(set(listed)) == len(listed)


def test_monomials_are_deterministically_ordered():
    assert monomials(2, 2) == monomials(2, 2)
    assert monomials(2, 1)[0] != monomials(2, 1)[1]


# --- homogeneous arithmetic --------------------------------------------------


@settings(deadline=None)
@given(homog(), homog())
def test_homog_mul_matches_convolution(p, q):
    prod = p.mul(q)
    assert prod.degree == p.degree + q.degree
    assert dict(prod.coeffs) == poly_mul(dict(p.coeffs), dict(q.coeffs))


@settings(deadline=None)
@given(homog(max_degree=3), homog(max_degree=3), homog(max_degree=3))
def test_homog_mul_distributes_over_add(p, q, r):
    q_, r_ = q, r
    if q.degree != r.degree:
        r_ = HomogPoly.from_terms(2, q.degree, {(q.degree, 0): Fraction(1)})
    lhs = p.mul(q_.add(r_))
    rhs = p.mul(q_).add(p.mul(r_))
    assert lhs.coeffs == rhs.coeffs


@settings(deadline=None)
@given(homog(), st.integers(0, 1))
def test_partial_matches_brute_derivative(p, var):
    assert dict(p.partial(var).coeffs) == poly_partial(dict(p.coeffs), var)


@settings(deadline=None)
@given(homog(), st.integers(0, 1))
def test_antiderivative_inverts_partial(p, var):
    assert p.antiderivative(var).partial(var).coeffs == p.coeffs


@settings(deadline=None)
@given(homog(min_degree=1))
def test_euler_identity(p):
    x = H(2, 1, {(1, 0): 1})
    y = H(2, 1, {(0, 1): 1})
    euler = x.mul(p.partial(0)).add(y.mul(p.partial(1)))
    assert euler.coeffs == p.scale(Fraction(p.degree)).coeffs


@settings(deadline=None)
@given(wide_pair())
def test_homog_mul_matches_oracle_on_wide_denominators(pair):
    p, q = pair
    prod = p.mul(q)
    assert prod.degree == p.degree + q.degree
    assert dict(prod.coeffs) == poly_mul(dict(p.coeffs), dict(q.coeffs))


@settings(deadline=None)
@given(st.sampled_from([2, 3]).flatmap(wide_homog), st.data())
def test_shift_is_the_monomial_product(p, data):
    nv = p.num_vars
    exp = data.draw(st.tuples(*[st.integers(0, 3)] * nv))
    mono = HomogPoly(nv, sum(exp), {exp: Fraction(1)})
    shifted = p.shift(exp)
    assert shifted == mono.mul(p) == p.mul(mono)
    assert dict(shifted.coeffs) == poly_mul({exp: Fraction(1)}, dict(p.coeffs))


def test_shift_rejects_invalid_exponents():
    p = H(2, 1, {(1, 0): 1})
    for exp in [(1,), (1, 0, 0), (-1, 2), (2, -1)]:
        with pytest.raises(MismatchError):
            p.shift(exp)


# one case per rule, for a degree-2 polynomial in two variables
_INVALID_TERMS = {"exponent_length": {(2,): 1}, "degree": {(1, 0): 1},
                  "negative_exponent": {(3, -1): 1}, "stored_zero": {(2, 0): 0}}


@pytest.mark.parametrize("rule", sorted(_INVALID_TERMS))
def test_public_constructors_validate_every_term(rule):
    terms = _INVALID_TERMS[rule]
    with pytest.raises(MismatchError):
        HomogPoly(2, 2, {e: Fraction(c) for e, c in terms.items()})
    if rule == "stored_zero":
        # from_terms normalises: the zero is dropped, never stored
        assert HomogPoly.from_terms(2, 2, terms).is_zero
    else:
        with pytest.raises(MismatchError):
            HomogPoly.from_terms(2, 2, terms)
    # the reader takes each term's degree from its exponent, so a wrong
    # degree there is one outside the certified window [0, order)
    order = 1 if rule == "degree" else 3
    payload = {"kind": "series", "num_vars": 2, "truncation_order": order,
               "terms": [{"exp": list(e), "coeff": str(c)} for e, c in terms.items()]}
    with pytest.raises(SerializationError):
        series_from_json(payload)


def test_homog_shape_validation():
    with pytest.raises(MismatchError):
        HomogPoly(2, 2, {(1, 0): Fraction(1)})   # degree mismatch
    with pytest.raises(MismatchError):
        H(2, 1, {(1, 0): 1}).add(H(2, 2, {(2, 0): 1}))
    with pytest.raises(MismatchError):
        H(2, 1, {(1, 0): 1}).add(H(3, 1, {(1, 0, 0): 1}))


def test_homog_norm_and_str():
    p = H(2, 2, {(2, 0): 3, (1, 1): Fraction(-1, 2)})
    assert p.norm() == 3
    assert HomogPoly.zero(2, 3).norm() == 0
    assert "x" in str(p)


# --- truncated series --------------------------------------------------------


def test_series_constructor_validation():
    with pytest.raises(MismatchError):
        TruncSeries(2, 2, {3: H(2, 3, {(3, 0): 1})})      # degree out of range
    with pytest.raises(MismatchError):
        TruncSeries(2, 3, {1: HomogPoly.zero(2, 1)})      # stored zero part
    with pytest.raises(MismatchError):
        TruncSeries(2, 3, {1: H(3, 1, {(1, 0, 0): 1})})   # wrong variable count


def test_series_component_access_window():
    s = S(2, 3, {1: {(1, 0): 1}})
    assert s.component(2).is_zero
    with pytest.raises(MismatchError):
        s.component(3)


@settings(deadline=None)
@given(series(), series())
def test_series_add_matches_oracle(s, t):
    total = s.add(t)
    assert total.trunc_order == min(s.trunc_order, t.trunc_order)
    expected = poly_add(series_dict(s, total.trunc_order),
                        series_dict(t, total.trunc_order))
    assert series_dict(total) == expected


@settings(deadline=None)
@given(series(), series())
def test_series_sub_matches_oracle(s, t):
    diff = s.sub(t)
    assert diff.trunc_order == min(s.trunc_order, t.trunc_order)
    expected = poly_add(series_dict(s, diff.trunc_order),
                        poly_scale(series_dict(t, diff.trunc_order), Fraction(-1)))
    assert series_dict(diff) == expected


@settings(deadline=None)
@given(series())
def test_series_self_subtraction_is_zero(s):
    assert s.sub(s).is_zero()


@settings(deadline=None)
@given(series(), series())
def test_series_mul_matches_convolution_below_certified_order(s, t):
    prod = s.mul(t)
    oracle = poly_mul(series_dict(s), series_dict(t))
    for k in range(prod.trunc_order):
        assert dict(prod.component(k).coeffs) == {
            e: c for e, c in oracle.items() if sum(e) == k}


@settings(deadline=None)
@given(series(), series())
def test_series_mul_is_commutative(s, t):
    a, b = s.mul(t), t.mul(s)
    assert a.trunc_order == b.trunc_order
    assert a.parts == b.parts


def test_series_mul_certification_uses_lowest_degrees():
    # a low-truncation factor starting in degree 1 keeps high certification
    c = series_x(4)                       # x, certified below 4
    a = S(2, 22, {18: {(18, 0): 1}})      # starts in degree 18
    assert c.mul(a).trunc_order == 22     # min(4 + 18, 22 + 1)
    assert a.mul(c).trunc_order == 22
    # the zero series is certified through its whole window
    z = zero_series(5)
    assert z.mul(S(2, 3, {1: {(0, 1): 1}})).trunc_order == 6  # min(5+1, 3+5)


def test_series_truncate_and_lowest():
    s = S(2, 6, {2: {(2, 0): 1}, 4: {(0, 4): 2}})
    assert s.lowest_degree() == 2
    cut = s.truncate(3)
    assert cut.trunc_order == 3 and cut.lowest_degree() == 2
    assert 4 not in cut.parts
    with pytest.raises(MismatchError):
        s.truncate(7)
    assert zero_series(4).lowest_degree() is None


@settings(deadline=None)
@given(series())
def test_series_partial_drops_one_order(s):
    ds = s.partial(0)
    assert ds.trunc_order == max(s.trunc_order - 1, 0)
    for k in range(ds.trunc_order):
        assert dict(ds.component(k).coeffs) == poly_partial(
            {e: c for e, c in series_dict(s).items() if sum(e) == k + 1}, 0)


# --- one-forms ---------------------------------------------------------------


def test_one_form_shape_and_lowest():
    a = S(2, 5, {2: {(2, 0): 1}})
    b = S(2, 5, {3: {(0, 3): 1}})
    omega = form(a, b)
    assert omega.num_vars == 2
    assert omega.trunc_order == 5
    assert omega.lowest_degree() == 2
    assert form(zero_series(4), zero_series(4)).lowest_degree() is None


def test_one_form_rejects_mixed_components():
    with pytest.raises(MismatchError):
        form(S(2, 5, {1: {(1, 0): 1}}), S(3, 5, {}))
    with pytest.raises(MismatchError):
        form(S(2, 5, {}), S(2, 4, {}))
