"""Graded polynomial and truncated series arithmetic against brute oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms.poly import (_DEGREE_BOUND, HomogPoly, MismatchError, OneForm, TruncSeries,
                          _pack, _unpack, graded_dim, monomials)
from acforms.serialize import SerializationError, series_from_json
from conftest import H, S, form, series_x, zero_series
from oracles import (exponents, poly_add, poly_antiderivative, poly_mul, poly_partial,
                     poly_scale, poly_shift, poly_sub, series_dict)

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
def wide_series_pair(draw):
    """Two series with sparse parts and denominators up to 10^6: a product
    that scales each factor once sees a large lcm over distinct parts."""
    num_vars = draw(st.sampled_from([2, 3]))
    coeffs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
    pair = []
    for _ in range(2):
        trunc = draw(st.integers(1, 6))
        parts = []
        for k in range(trunc):
            basis = monomials(num_vars, k)
            terms = draw(st.dictionaries(st.sampled_from(basis), coeffs,
                                         max_size=min(len(basis), 4)))
            parts.append(HomogPoly.from_terms(num_vars, k, terms))
        pair.append(TruncSeries.from_parts(num_vars, trunc, parts))
    return tuple(pair)


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


# --- the stored state: packed integer terms over one denominator -------------

_HUGE = st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**30)


def _check_state(p):
    """den > 0, gcd 1, no zero numerator, and every key a packed exponent of
    the polynomial's degree."""
    assert p._den > 0
    assert math.gcd(p._den, *p._terms.values()) == 1
    assert all(p._terms.values())
    for key in p._terms:
        exp = _unpack(key, p.num_vars)
        assert sum(exp) == p.degree and _pack(exp) == key


@st.composite
def _operands(draw):
    """Term dicts (possibly empty, so the zero polynomial) in 2 or 3
    variables with denominators up to 10^30: two of one degree, one of
    another, and a variable, a shift and a factor."""
    nv = draw(st.sampled_from([2, 3]))
    degree = draw(st.integers(0, 4))

    def terms(deg):
        basis = monomials(nv, deg)
        return draw(st.dictionaries(st.sampled_from(basis), _HUGE, max_size=len(basis)))

    other = draw(st.integers(0, 4))
    return (nv, degree, terms(degree), terms(degree), other, terms(other),
            draw(st.integers(0, nv - 1)), draw(st.tuples(*[st.integers(0, 3)] * nv)),
            draw(_HUGE))


@settings(deadline=None, max_examples=300)
@given(_operands())
def test_every_operation_keeps_the_state_and_matches_the_dict_oracles(case):
    nv, degree, tp, tq, other, tr, var, exp, factor = case
    dp, dq, dr = ({e: c for e, c in t.items() if c} for t in (tp, tq, tr))
    p, q, r = (HomogPoly.from_terms(nv, deg, t)
               for deg, t in ((degree, tp), (degree, tq), (other, tr)))
    for poly, expected in ((p, dp), (q, dq), (r, dr)):
        _check_state(poly)
        assert poly.coeffs == expected
    results = [(p.add(q), degree, poly_add(dp, dq)),
               (p.sub(q), degree, poly_sub(dp, dq)),
               (p.scale(factor), degree, poly_scale(dp, factor)),
               (p.partial(var), max(degree - 1, 0), poly_partial(dp, var)),
               (p.antiderivative(var), degree + 1, poly_antiderivative(dp, var)),
               (p.shift(exp), degree + sum(exp), poly_shift(dp, exp)),
               (p.mul(r), degree + r.degree, poly_mul(dp, dr))]
    for got, deg, expected in results:
        _check_state(got)
        assert got.degree == deg and got.coeffs == expected
        assert got == HomogPoly(nv, deg, expected)
    assert p.norm() == max(map(abs, dp.values()), default=0)
    assert all(p.coeff(e) == dp.get(e, 0) for e in monomials(nv, degree))
    assert list(p.terms()) == sorted(dp.items(), key=lambda t: tuple(-x for x in t[0]))
    for poly in (q, p.add(q).sub(q), p.scale(1), HomogPoly.from_terms(nv, degree, dp)):
        assert (p == poly) == (p.coeffs == poly.coeffs)


@pytest.mark.parametrize("value", [0.1, 0.0, 2.0, True, False])
@pytest.mark.parametrize("entry", ["constructor", "from_terms", "scale", "series_scale"])
def test_inexact_coefficients_are_refused(entry, value):
    p = H(2, 1, {(1, 0): 1})
    call = {"constructor": lambda: HomogPoly(2, 1, {(1, 0): value}),
            "from_terms": lambda: HomogPoly.from_terms(2, 1, {(1, 0): value}),
            "scale": lambda: p.scale(value),
            "series_scale": lambda: TruncSeries(2, 2, {1: p}).scale(value)}[entry]
    with pytest.raises(MismatchError, match="not an exact rational"):
        call()


@pytest.mark.parametrize("value", [3, -1, Fraction(-5, 7), "5/7", "-2"])
def test_exact_coefficients_are_accepted(value):
    exact = Fraction(value)
    p = H(2, 1, {(1, 0): 1})
    assert HomogPoly.from_terms(2, 1, {(1, 0): value}).coeffs == {(1, 0): exact}
    assert p.scale(value).coeffs == {(1, 0): exact}
    assert TruncSeries(2, 2, {1: p}).scale(value).parts[1].coeffs == {(1, 0): exact}
    if isinstance(value, str):
        # the constructor takes ints and Fractions only
        with pytest.raises(MismatchError):
            HomogPoly(2, 1, {(1, 0): value})
    else:
        assert HomogPoly(2, 1, {(1, 0): value}).coeffs == {(1, 0): exact}


# --- packed exponent keys ----------------------------------------------------


@st.composite
def packed_homog(draw, num_vars):
    """Sparse, of a small degree or one just below the packing bound, with
    exponents drawn from both ends of each field."""
    degree = draw(st.one_of(st.integers(0, 4),
                            st.integers(_DEGREE_BOUND - 3, _DEGREE_BOUND - 1)))

    def exponent():
        rest, exp = degree, []
        for _ in range(num_vars - 1):
            e = draw(st.one_of(st.integers(0, min(rest, 2)),
                               st.integers(max(rest - 2, 0), rest)))
            exp.append(e)
            rest -= e
        return (*exp, rest)

    return HomogPoly.from_terms(num_vars, degree, {
        exponent(): draw(fractions) for _ in range(draw(st.integers(0, 4)))})


@st.composite
def packed_series(draw, num_vars):
    parts = [draw(packed_homog(num_vars)) for _ in range(draw(st.integers(0, 3)))]
    trunc = max([p.degree + 1 for p in parts], default=1) + draw(st.integers(0, 2))
    return TruncSeries.from_parts(num_vars, trunc, parts)


def _packed_pairs(strategy):
    return st.sampled_from([2, 3]).flatmap(lambda nv: st.tuples(strategy(nv), strategy(nv)))


@settings(deadline=None)
@given(_packed_pairs(packed_homog))
def test_packed_homog_mul_matches_oracle_near_the_bound(pair):
    p, q = pair
    prod = p.mul(q)
    assert prod.degree == p.degree + q.degree
    assert dict(prod.coeffs) == poly_mul(dict(p.coeffs), dict(q.coeffs))


@settings(deadline=None)
@given(_packed_pairs(packed_series))
def test_packed_series_mul_matches_oracle_near_the_bound(pair):
    s, t = pair
    prod = s.mul(t)
    expected: dict = {}
    for e, c in poly_mul(series_dict(s), series_dict(t)).items():
        if sum(e) < prod.trunc_order:
            expected.setdefault(sum(e), {})[e] = c
    assert {k: dict(p.coeffs) for k, p in prod.parts.items()} == expected


@pytest.mark.parametrize("num_vars", [2, 3])
def test_packing_bound_one_degree_below_and_at(num_vars):
    below, at = _DEGREE_BOUND - 1, _DEGREE_BOUND
    corners = [tuple(below if i == j else 0 for i in range(num_vars)) for j in range(num_vars)]
    p = HomogPoly.from_terms(num_vars, below, {e: j + 1 for j, e in enumerate(corners)})
    # every field of a product of corners reaches 2 * below, the largest sum
    assert dict(p.mul(p).coeffs) == poly_mul(dict(p.coeffs), dict(p.coeffs))
    series_p = TruncSeries(num_vars, below + 1, {below: p})
    assert series_p.mul(series_p).parts[2 * below] == p.mul(p)
    q = HomogPoly.from_terms(num_vars, at, {(at,) + (0,) * (num_vars - 1): 1})
    series_q = TruncSeries(num_vars, at + 1, {at: q})
    for product in (lambda: p.mul(q), lambda: q.mul(p), lambda: series_q.mul(series_p)):
        with pytest.raises(MismatchError, match="packing bound"):
            product()


@pytest.mark.parametrize("num_vars", [2, 3])
def test_storage_bound_one_degree_below_and_at(num_vars):
    top = 2 * _DEGREE_BOUND - 1
    pad = (0,) * (num_vars - 1)
    first, last = (top,) + pad, pad + (top,)
    p = HomogPoly.from_terms(num_vars, top, {first: 1, last: Fraction(-1, 3)})
    assert p.add(p).coeffs == {first: 2, last: Fraction(-2, 3)}
    assert p.partial(0).coeffs == {(top - 1,) + pad: top}
    below = HomogPoly.from_terms(num_vars, top - 1, {(top - 1,) + pad: 2})
    # shift and antiderivative reach the last stored degree
    assert below.shift((1,) + pad).coeffs == {first: 2}
    assert below.antiderivative(0).coeffs == {first: Fraction(2, top)}
    for refused in (lambda: HomogPoly(num_vars, top + 1),
                    lambda: HomogPoly.from_terms(num_vars, top + 1, {(top + 1,) + pad: 1}),
                    lambda: p.shift((1,) + pad),
                    lambda: p.antiderivative(0)):
        with pytest.raises(MismatchError, match="packing bound"):
            refused()
    for degree, accepted in ((top, True), (top + 1, False)):
        payload = {"kind": "series", "num_vars": num_vars, "truncation_order": degree + 1,
                   "terms": [{"exp": [degree, *pad], "coeff": "1"}]}
        if accepted:
            assert series_from_json(payload).parts[degree].coeffs == {(degree, *pad): 1}
        else:
            with pytest.raises(SerializationError, match="packing bound"):
                series_from_json(payload)


def test_reader_refuses_colliding_keys_past_the_storage_bound():
    # (1, 0, 2^20) and (0, 2^20 + 1, 0) pack to one key once fields overflow
    top = 2 * _DEGREE_BOUND + 1
    payload = {"kind": "series", "num_vars": 3, "truncation_order": top + 1,
               "terms": [{"exp": exp, "coeff": "1"} for exp in ([1, 0, top - 1], [0, top, 0])]}
    with pytest.raises(SerializationError, match="packing bound"):
        series_from_json(payload)


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


@given(st.lists(st.fractions(max_denominator=10**30), max_size=5), st.booleans())
def test_norm_is_the_largest_magnitude(values, mirror):
    # equal magnitudes of opposite sign, large denominators, and the zero
    # polynomial when every value is zero
    if mirror and values:
        values.append(-values[0])
    p = HomogPoly.from_terms(2, len(values), dict(zip(monomials(2, len(values)), values)))
    norm = p.norm()
    assert type(norm) is Fraction
    assert norm == max((abs(c) for c in p.coeffs.values()), default=Fraction(0))


def test_homog_norm_and_str():
    p = H(2, 2, {(2, 0): 3, (1, 1): Fraction(-1, 2)})
    assert p.norm() == 3
    assert HomogPoly.zero(2, 3).norm() == 0
    assert H(2, 1, {(1, 0): Fraction(-7, 3), (0, 1): Fraction(7, 3)}).norm() == Fraction(7, 3)
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


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.tuples(series(), series()), wide_series_pair()))
def test_series_mul_matches_convolution_below_certified_order(pair):
    s, t = pair
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
