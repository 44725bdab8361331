"""Truncated ideal engine against brute-force span oracles."""

import importlib
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms.construct import Instance, build
from acforms.decide import genericity_guard
from acforms.ideals import (MembershipWitness, TruncatedIdeal, colength,
                            graded_cover_check, ideal_equal_mod,
                            membership_witness, min_power_in_ideal)
from acforms.poly import HomogPoly, MismatchError, TruncSeries, graded_dim, monomials
from acforms.prng import Stream
from conftest import H, S, series_x, zero_series
from oracles import (brute_colength, brute_cover_degree, brute_leading_cover,
                     brute_member, brute_min_power, fraction_matrix_rank,
                     fraction_membership_witness, fraction_verify_witness,
                     ideal_image_vectors, rref_rank, series_dict)

ORDER = 8

ideals_module = importlib.import_module("acforms.ideals")


def _mono_series(nv, exp, trunc=ORDER):
    return S(nv, trunc, {sum(exp): {exp: 1}})


def _binomial_series(nv, e1, c1, e2, c2, trunc=ORDER):
    parts = {}
    for exp, coeff in ((e1, c1), (e2, c2)):
        if coeff:
            block = parts.setdefault(sum(exp), {})
            block[exp] = block.get(exp, 0) + coeff
    parts = {k: terms for k, terms in parts.items()
             if any(terms.values())}
    return TruncSeries(nv, trunc, {
        k: H(nv, k, terms) for k, terms in parts.items()})


def _random_binomial(stream, nv, trunc=ORDER):
    while True:
        d1 = stream.int_between(1, 3)
        d2 = stream.int_between(d1, 4)
        basis1 = monomials(nv, d1)
        basis2 = monomials(nv, d2)
        e1 = basis1[stream.int_between(0, len(basis1) - 1)]
        e2 = basis2[stream.int_between(0, len(basis2) - 1)]
        c1 = stream.int_between(-3, 3)
        c2 = stream.int_between(-3, 3)
        if c1 == 0 or (e1 == e2 and c1 + c2 == 0):
            continue
        return _binomial_series(nv, e1, c1, e2, c2, trunc)


def _fixed_corpus():
    x2 = _mono_series(2, (2, 0))
    y2 = _mono_series(2, (0, 2))
    x3 = _mono_series(2, (3, 0))
    y4 = _mono_series(2, (0, 4))
    xy = _mono_series(2, (1, 1))
    y3 = _mono_series(2, (0, 3))
    x = _mono_series(2, (1, 0))
    y = _mono_series(2, (0, 1))
    x5 = _mono_series(2, (5, 0))
    x2y3 = _binomial_series(2, (2, 0), 1, (0, 3), -1)    # x^2 - y^3
    corpus = [
        TruncatedIdeal((x2, y2)),
        TruncatedIdeal((x3, y4)),
        TruncatedIdeal((x2, xy, y3)),
        TruncatedIdeal((x, y)),
        TruncatedIdeal((x5,)),
        TruncatedIdeal((x2y3, y2)),
        TruncatedIdeal((_mono_series(3, (2, 0, 0)), _mono_series(3, (0, 2, 0)),
                        _mono_series(3, (0, 0, 2)))),
    ]
    stream = Stream(2024)
    for _ in range(6):
        corpus.append(TruncatedIdeal((_random_binomial(stream, 2),
                                      _random_binomial(stream, 2))))
    return corpus


CORPUS = _fixed_corpus()


def _dicts(ideal):
    return [series_dict(g) for g in ideal.generators]


# --- oracle equivalence over the corpus ---------------------------------------


@pytest.mark.parametrize("ideal", CORPUS, ids=lambda i: str(tuple(map(str, i.generators)))[:48])
def test_cover_check_matches_bruteforce_span(ideal):
    gens = _dicts(ideal)
    for n in range(ORDER):
        assert graded_cover_check(ideal, n) == brute_leading_cover(gens, ideal.num_vars, n)


@pytest.mark.parametrize("ideal", CORPUS, ids=lambda i: str(tuple(map(str, i.generators)))[:48])
def test_cover_check_is_sound_for_true_membership(ideal):
    # A positive cover answer certifies m^n inside the ideal; the converse
    # can fail when generator combinations cancel leading forms, so only
    # the sound direction is asserted on general corpus members.
    gens = _dicts(ideal)
    for n in range(ORDER):
        if graded_cover_check(ideal, n):
            assert brute_cover_degree(gens, ideal.num_vars, n)


def test_cover_check_matches_membership_on_monomial_ideals():
    # Single-monomial generators: the leading-form span in degree n consists
    # exactly of the degree-n multiples of the generators, so cover there is
    # equivalent to true divisibility-based membership.
    for ideal in CORPUS[:5]:
        gens = _dicts(ideal)
        assert all(len(g) == 1 for g in gens)
        for n in range(ORDER):
            assert graded_cover_check(ideal, n) == brute_cover_degree(gens, ideal.num_vars, n)


@pytest.mark.parametrize("ideal", CORPUS, ids=lambda i: str(tuple(map(str, i.generators)))[:48])
def test_cover_propagates_upward(ideal):
    # Multiplying a covering combination by each variable covers the next
    # degree, so the check is monotone above its first success.
    seen = False
    for n in range(ORDER):
        now = graded_cover_check(ideal, n)
        if seen:
            assert now
        seen = seen or now


@pytest.mark.parametrize("ideal", CORPUS, ids=lambda i: str(tuple(map(str, i.generators)))[:48])
def test_min_power_matches_brute_scan(ideal):
    gens = _dicts(ideal)
    found = min_power_in_ideal(ideal, ORDER - 1)
    assert found == brute_min_power(gens, ideal.num_vars, ORDER - 1)
    if found is not None:
        assert brute_cover_degree(gens, ideal.num_vars, found)


@pytest.mark.parametrize("ideal", CORPUS, ids=lambda i: str(tuple(map(str, i.generators)))[:48])
def test_membership_succeeds_above_covered_degree(ideal):
    # Once every degree in [N, M) is covered, successive approximation must
    # resolve any target with lowest degree >= N through order M.
    found = min_power_in_ideal(ideal, ORDER - 2)
    if found is None:
        pytest.skip("no covered degree detected for this ideal")
    order = ORDER - 1
    assert all(graded_cover_check(ideal, n) for n in range(found, order))
    stream = Stream(991)
    nv = ideal.num_vars
    for _ in range(3):
        parts = {}
        for k in range(found, order):
            basis = monomials(nv, k)
            terms = {exp: Fraction(stream.int_between(-3, 3)) for exp in basis}
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                parts[k] = HomogPoly(nv, k, terms)
        if not parts:
            continue
        target = TruncSeries(nv, ORDER, parts)
        wit = membership_witness(target, ideal, order)
        assert isinstance(wit, MembershipWitness), f"failed at degree {wit}"
        assert wit.verify(ideal)


@pytest.mark.parametrize("ideal", CORPUS, ids=lambda i: str(tuple(map(str, i.generators)))[:48])
def test_colength_matches_brute_quotient(ideal):
    gens = _dicts(ideal)
    found = min_power_in_ideal(ideal, ORDER - 1)
    value = colength(ideal, ORDER - 1)
    if found is None:
        assert value is None
    else:
        assert value == brute_colength(gens, ideal.num_vars, found)


def _record_carries(monkeypatch) -> list[int]:
    """The first column of each `_echelon` call of `_graded_rank`'s carry
    path, the only call `_graded_rank` makes itself; the leading pass's
    calls, made from `_leading_ranks`, are not recorded."""
    starts: list[int] = []
    real_echelon = ideals_module._echelon

    def recording_echelon(rows, stop, start=0):
        if sys._getframe(1).f_code is ideals_module._graded_rank.__code__:
            starts.append(start)
        return real_echelon(rows, stop, start)

    monkeypatch.setattr(ideals_module, "_echelon", recording_echelon)
    return starts


def test_colength_carries_a_dependent_degree(monkeypatch):
    # y * (x^2 + y^3) - x * (xy) = y^4: the degree-3 slices of the four rows
    # x^3, x^2 y, x^2 y, x y^2 are dependent, and the zero-sliced row is
    # carried to degree 4
    eliminations = _record_carries(monkeypatch)
    ideal = TruncatedIdeal((_binomial_series(2, (2, 0), 1, (0, 3), 1),
                            _mono_series(2, (1, 1)), _mono_series(2, (0, 5))))
    assert min_power_in_ideal(ideal, ORDER - 1) == 5
    assert colength(ideal, ORDER - 1) == 5 == brute_colength(_dicts(ideal), 2, 5)
    # the first carry is at degree 3, whose columns start after the 3
    # monomials of degree at most 1 and the 3 of degree 2
    assert eliminations[0] == 6


@st.composite
def colength_ideals(draw):
    """More generators than variables in 2 or 3 variables: a power of each
    variable and one or two monomials of degree 2, each plus up to two
    terms in {-1, 1} per higher degree.  Leading monomials that share a
    factor make slices dependent below the least covered degree."""
    nv = draw(st.integers(2, 3))
    trunc = 7 if nv == 2 else 5
    leads = [tuple(draw(st.integers(1, trunc - 3)) if j == i else 0 for j in range(nv))
             for i in range(nv)]
    leads += draw(st.lists(st.sampled_from(monomials(nv, 2)), min_size=1, max_size=2))
    gens = []
    for lead in leads:
        low = sum(lead)
        parts = [HomogPoly.from_terms(nv, low, {lead: 1})]
        parts += [HomogPoly.from_terms(nv, k, draw(st.dictionaries(
            st.sampled_from(monomials(nv, k)), st.sampled_from([-1, 1]), max_size=2)))
            for k in range(low + 1, trunc)]
        gens.append(TruncSeries.from_parts(nv, trunc, parts))
    return TruncatedIdeal(tuple(gens))


def test_graded_colength_matches_the_image_rank(monkeypatch):
    carries = _record_carries(monkeypatch)

    @settings(deadline=None, max_examples=60)
    @given(colength_ideals())
    def check(ideal):
        found = min_power_in_ideal(ideal, ideal.trunc_order - 1)
        value = colength(ideal, ideal.trunc_order - 1)
        assert found is not None    # a power of every variable is a leading form
        assert value == brute_colength(_dicts(ideal), ideal.num_vars, found)
        # the graded rank is the Fraction image rank at every order, also
        # below the least covered degree
        for order in range(ideal.trunc_order + 1):
            _, vectors = ideal_image_vectors(_dicts(ideal), ideal.num_vars, order)
            assert ideals_module._graded_rank(ideal, order) == rref_rank(vectors)

    check()
    # some drawn ideal had a dependent slice, so the carry path ran
    assert carries


@st.composite
def leading_pass_ideals(draw):
    """Ideals in 1, 2 or 3 variables: generators of lowest degree 1 or 2
    (up to 4 in one variable), a zero generator half of the time and a unit
    generator a quarter of the time.  Half of the leading forms are
    multiples of one shared linear form, which makes slices dependent and
    runs the carry path."""
    nv = draw(st.integers(1, 3))
    trunc = {1: 6, 2: 7, 3: 5}[nv]
    signs = st.sampled_from([-1, 1])

    def form(k):
        return HomogPoly.from_terms(nv, k, draw(st.dictionaries(
            st.sampled_from(monomials(nv, k)), signs, min_size=1)))

    shared = form(1)
    gens = []
    for _ in range(draw(st.integers(nv, nv + 2))):
        low = draw(st.integers(1, trunc - 2 if nv == 1 else 2))
        lead = form(low - 1).mul(shared) if draw(st.booleans()) else form(low)
        gens.append(TruncSeries.from_parts(
            nv, trunc, [lead, *_series(draw, nv, trunc, low + 1, signs).parts.values()]))
    for extra, odds in ((zero_series(trunc, nv), 2), (S(nv, trunc, {0: {(0,) * nv: 1}}), 4)):
        if draw(st.integers(1, odds)) == odds:
            gens.insert(draw(st.integers(0, len(gens))), extra)
    return TruncatedIdeal(tuple(gens))


def test_leading_pass_matches_the_fraction_rank_at_every_degree(monkeypatch):
    carries = _record_carries(monkeypatch)

    @settings(deadline=None, max_examples=80)
    @given(leading_pass_ideals())
    def check(ideal):
        nv, trunc = ideal.num_vars, ideal.trunc_order
        leads = ideals_module._leading_forms(ideal)
        ranks = ideals_module._leading_ranks(leads, nv, trunc)
        found = brute_min_power(_dicts(ideal), nv, trunc - 1)
        assert min_power_in_ideal(ideal, trunc - 1) == found
        for n in range(trunc):
            assert graded_cover_check(ideal, n) == (found is not None and n >= found)
        # the pass ends at the least covered degree, past which all are covered
        assert len(ranks) == (trunc if found is None else found + 1)
        for n in range(trunc):
            _, rows = ideals_module._leading_rows(leads, nv, n, ideals_module._index(nv, [n]))
            rank = fraction_matrix_rank([[Fraction(v) for v in row] for row in rows])
            assert (ranks[n] if n < len(ranks) else graded_dim(nv, n)) == rank
        value = colength(ideal, trunc - 1)
        if found is None:
            assert value is None
        else:
            assert value == colength(ideal, found) == brute_colength(_dicts(ideal), nv, found)
        for order in range(trunc + 1):
            _, vectors = ideal_image_vectors(_dicts(ideal), nv, order)
            assert ideals_module._graded_rank(ideal, order) == rref_rank(vectors)

    check()
    # some drawn ideal had a dependent slice, so the carry path ran
    assert carries


# --- anchor values -----------------------------------------------------------


def test_square_ideal_anchors():
    ideal = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    assert min_power_in_ideal(ideal, 7) == 3
    assert colength(ideal, 7) == 4


def test_binomial_equals_its_monomial_reduction():
    # x^2 = (x^2 - y^3) + y * y^2, so the two ideals agree and the
    # quotient has dimension 4 (basis 1, x, y, xy)
    mixed = TruncatedIdeal((_binomial_series(2, (2, 0), 1, (0, 3), -1),
                            _mono_series(2, (0, 2))))
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    assert ideal_equal_mod(mixed, squares, 7)
    assert colength(mixed, 7) == 4
    assert brute_colength(_dicts(mixed), 2, 3) == 4


def test_three_variable_squares():
    ideal = TruncatedIdeal((_mono_series(3, (2, 0, 0)), _mono_series(3, (0, 2, 0)),
                            _mono_series(3, (0, 0, 2))))
    assert min_power_in_ideal(ideal, 7) == 4
    assert colength(ideal, 7) == 8    # basis: squarefree monomials in x, y, z


def test_whole_maximal_ideal():
    ideal = TruncatedIdeal((_mono_series(2, (1, 0)), _mono_series(2, (0, 1))))
    assert min_power_in_ideal(ideal, 7) == 1
    assert colength(ideal, 7) == 1


def test_principal_ideal_has_no_power():
    ideal = TruncatedIdeal((_mono_series(2, (5, 0)),))
    assert min_power_in_ideal(ideal, 7) is None
    assert colength(ideal, 7) is None


def test_cover_questions_each_run_one_leading_pass(monkeypatch):
    passes: list[int] = []
    real_pass = ideals_module._leading_ranks

    def counting_pass(leads, num_vars, stop):
        passes.append(stop)
        return real_pass(leads, num_vars, stop)

    monkeypatch.setattr(ideals_module, "_leading_ranks", counting_pass)

    def answers(ideal, max_n):
        """min_power_in_ideal, and colength and graded_cover_check at max_n,
        each checked to run the leading pass exactly once."""
        values = []
        for question in (min_power_in_ideal, colength, graded_cover_check):
            passes.clear()
            values.append(question(ideal, max_n))
            assert passes == [max_n + 1]
        return values

    # two degree-d generators in two variables first cover degree 2d - 1
    for d in (1, 2, 3, 4):
        pair = (_mono_series(2, (d, 0)), _binomial_series(2, (d, 0), 1, (0, d), 1))
        assert answers(TruncatedIdeal(pair), ORDER - 1) == [2 * d - 1, d * d, True]
    # x, y and x + y never cover z^n
    x, y = _mono_series(3, (1, 0, 0)), _mono_series(3, (0, 1, 0))
    x_plus_y = _binomial_series(3, (1, 0, 0), 1, (0, 1, 0), 1)
    assert answers(TruncatedIdeal((x, y, x_plus_y)), 3) == [None, None, False]


# --- containment and equality ------------------------------------------------


def test_containment_mod_order():
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    maximal = TruncatedIdeal((_mono_series(2, (1, 0)), _mono_series(2, (0, 1))))
    both = TruncatedIdeal(maximal.generators + squares.generators)
    # squares lie inside the maximal ideal but not the other way round
    assert _brute_contained(squares, maximal, 6) and not _brute_contained(maximal, squares, 6)
    assert not ideal_equal_mod(squares, maximal, 6)
    assert not ideal_equal_mod(maximal, squares, 6)
    # adding contained generators leaves the image unchanged
    assert _brute_contained(both, maximal, 6) and _brute_contained(maximal, both, 6)
    assert ideal_equal_mod(both, maximal, 6) and ideal_equal_mod(maximal, both, 6)


def test_equality_is_an_equivalence_on_sampled_pairs():
    stream = Stream(7)
    ideals = [TruncatedIdeal((_random_binomial(stream, 2), _random_binomial(stream, 2)))
              for _ in range(4)]
    for ideal in ideals:
        assert ideal_equal_mod(ideal, ideal, 6)
    for lhs in ideals:
        for rhs in ideals:
            if ideal_equal_mod(lhs, rhs, 6):
                assert ideal_equal_mod(rhs, lhs, 6)


@st.composite
def comparison_pairs(draw):
    """Two ideals in 2 or 3 variables and a modulus order up to both
    truncation orders.

    The left ideal has one to three generators of mixed lowest degrees and
    denominators, and sometimes a zero generator.  The right ideal is, by a
    drawn kind, the same ideal on other generators (the first times a unit,
    the others plus multiples of the first, shuffled), the left ideal plus
    one more generator, or an independent ideal; it may be truncated one
    degree lower.
    """
    nv = draw(st.integers(2, 3))
    trunc = 6 if nv == 2 else 5

    def generators():
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            den = draw(st.sampled_from([1, 2, 3, 5]))
            numerators = st.integers(-3, 3).map(lambda v, den=den: Fraction(v, den))
            gens.append(_series(draw, nv, trunc, draw(st.sampled_from([0, 1, 1, 2, 2, 3])),
                                numerators))
        if draw(st.booleans()):
            gens.insert(draw(st.integers(0, len(gens))), zero_series(trunc, nv))
        return gens

    coefficients = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    lhs = generators()
    kind = draw(st.sampled_from(["same", "larger", "independent"]))
    if kind == "same":
        unit = S(nv, trunc, {0: {(0,) * nv: draw(coefficients.filter(bool))}}).add(
            _series(draw, nv, trunc, 1, coefficients))
        rhs = [unit.mul(lhs[0]).truncate(trunc)]
        rhs += [g.add(_series(draw, nv, trunc, 0, coefficients).mul(lhs[0]).truncate(trunc))
                for g in lhs[1:]]
        rhs = draw(st.permutations(rhs))
    elif kind == "larger":
        rhs = lhs + generators()[:1]
    else:
        rhs = generators()
    if draw(st.booleans()):
        rhs = [g.truncate(trunc - 1) for g in rhs]
    order = draw(st.integers(0, min(trunc, rhs[0].trunc_order)))
    return kind, TruncatedIdeal(tuple(lhs)), TruncatedIdeal(tuple(rhs)), order


def _brute_contained(inner, outer, order):
    nv = outer.num_vars
    _, vo = ideal_image_vectors(_dicts(outer), nv, order)
    _, vi = ideal_image_vectors(_dicts(inner), nv, order)
    return rref_rank(vo + vi) == rref_rank(vo)


def test_comparisons_match_the_fraction_image():
    answers: set[tuple[str, bool]] = set()

    @settings(deadline=None, max_examples=80)
    @given(comparison_pairs())
    def check(pair):
        kind, lhs, rhs, order = pair
        inside = _brute_contained(lhs, rhs, order)
        outside = _brute_contained(rhs, lhs, order)
        equal = ideal_equal_mod(lhs, rhs, order)
        assert equal == ideal_equal_mod(rhs, lhs, order) == (inside and outside)
        if kind == "same":
            assert equal
        if kind == "larger":
            assert inside
        answers.update({("contained", inside), ("contained", outside), ("equal", equal)})

    check()
    assert answers == {(name, value) for name in ("contained", "equal")
                       for value in (True, False)}


def test_mod_order_requires_certified_range():
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    with pytest.raises(MismatchError):
        ideal_equal_mod(squares, squares, ORDER + 1)
    with pytest.raises(MismatchError):
        graded_cover_check(squares, ORDER)
    with pytest.raises(MismatchError):
        min_power_in_ideal(squares, ORDER)


def test_mod_order_rejects_a_negative_modulus():
    maximal = TruncatedIdeal((_mono_series(2, (1, 0)), _mono_series(2, (0, 1))))
    x_only = TruncatedIdeal((_mono_series(2, (1, 0)),))
    for order in (-1, -5):
        with pytest.raises(MismatchError, match="negative"):
            ideal_equal_mod(maximal, x_only, order)
        with pytest.raises(MismatchError, match="negative"):
            ideal_equal_mod(x_only, maximal, order)
    # R / m^0 is the zero ring, where every two ideals agree
    assert ideal_equal_mod(maximal, x_only, 0)
    assert not ideal_equal_mod(maximal, x_only, 2)


# --- membership witnesses ----------------------------------------------------


def test_witness_for_explicit_member():
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    target = S(2, ORDER, {3: {(3, 0): 1, (1, 2): -2}, 4: {(2, 2): 1}})
    wit = membership_witness(target, squares, 7)
    assert isinstance(wit, MembershipWitness)
    assert wit.valid_order == 7
    assert wit.verify(squares)
    resid = wit.residual(squares)
    assert all(resid.component(k).is_zero for k in range(7))


def test_witness_failure_reports_first_bad_degree():
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    outside = S(2, ORDER, {2: {(1, 1): 1}})
    assert membership_witness(outside, squares, 6) == 2
    assert not brute_member(series_dict(outside), _dicts(squares), 2, 6)


def test_witness_rejects_tampering():
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    target = S(2, ORDER, {4: {(2, 2): 5}})
    wit = membership_witness(target, squares, 7)
    assert isinstance(wit, MembershipWitness)
    bad = MembershipWitness(target=S(2, ORDER, {4: {(2, 2): 6}}),
                            cofactors=wit.cofactors, valid_order=wit.valid_order)
    assert not bad.verify(squares)


def test_verify_refuses_a_negative_valid_order():
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    wit = membership_witness(S(2, ORDER, {4: {(2, 2): 5}}), squares, 7)
    assert wit.verify(squares) and replace(wit, valid_order=0).verify(squares)
    for order in (-1, -7):
        with pytest.raises(MismatchError, match="valid order .* is negative"):
            replace(wit, valid_order=order).verify(squares)


def test_witness_stages_make_no_series_products(monkeypatch):
    # two generators with two and three parts; the target has every
    # monomial of degrees 3 .. 6, so each stage solves for several columns
    # per generator, and each stage's residual needs the products of
    # earlier cofactor parts with later generator parts
    g1 = S(2, ORDER, {2: {(2, 0): 1}, 3: {(0, 3): 1}})
    g2 = S(2, ORDER, {2: {(0, 2): 1}, 3: {(3, 0): -2}, 4: {(2, 2): 1}})
    ideal = TruncatedIdeal((g1, g2))
    target = S(2, ORDER, {k: {e: 1 for e in monomials(2, k)} for k in range(3, 7)})
    stages: list[int] = []
    series_ops: list[str] = []
    real_echelon = ideals_module._echelon

    def counting_echelon(rows, stop, start=0):
        # one forward pass per stage, over one column per (generator, monomial)
        stages.append(stop)
        return real_echelon(rows, stop, start)

    def forbidden(name):
        real = getattr(TruncSeries, name)

        def counting(self, other):
            series_ops.append(name)
            return real(self, other)
        return counting

    monkeypatch.setattr(ideals_module, "_echelon", counting_echelon)
    for name in ("mul", "sub"):
        monkeypatch.setattr(TruncSeries, name, forbidden(name))
    wit = membership_witness(target, ideal, 7)
    monkeypatch.undo()
    # the residual of each degree is built from integer terms only
    assert series_ops == []
    assert len(stages) == 4
    assert isinstance(wit, MembershipWitness) and wit.verify(ideal)


def _assert_same_membership(target, ideal, order):
    """The integer stages give the Fraction reference's answer: the same
    failing degree, or the same cofactors and valid order."""
    got = membership_witness(target, ideal, order)
    ref = fraction_membership_witness(target, ideal, order)
    if isinstance(ref, int):
        assert got == ref
    else:
        assert isinstance(got, MembershipWitness), f"failed at degree {got}"
        assert (got.cofactors, got.valid_order) == (ref.cofactors, ref.valid_order)
        assert got.verify(ideal)
    return got


def _series(draw, nv, trunc, low, coefficients):
    """A series with a few random terms in each degree low .. trunc-1."""
    parts = [HomogPoly.from_terms(nv, k, draw(st.dictionaries(
        st.sampled_from(monomials(nv, k)), coefficients, max_size=3)))
        for k in range(low, trunc)]
    return TruncSeries.from_parts(nv, trunc, parts)


@st.composite
def membership_problems(draw):
    """An ideal in 2 or 3 variables and a target: a combination of the
    generators, with one random term added half of the time.

    Each generator's coefficients share one denominator, drawn per
    generator, so the generators' integer scales differ; lowest degree 0
    gives a generator with a constant term, and a zero generator may be
    inserted anywhere.
    """
    nv = draw(st.integers(2, 3))
    trunc = 6 if nv == 2 else 5
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.sampled_from([1, 2, 3, 5, 7, 12]))
        numerators = st.integers(-4, 4).map(lambda v, den=den: Fraction(v, den))
        low = draw(st.sampled_from([0, 1, 1, 2, 2, 2]))
        gens.append(_series(draw, nv, trunc, low, numerators))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), zero_series(trunc, nv))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    target = zero_series(trunc, nv)
    for g in gens:
        target = target.add(_series(draw, nv, trunc, 0, coefficients).mul(g).truncate(trunc))
    if draw(st.booleans()):
        k = draw(st.integers(0, trunc - 1))
        extra = {draw(st.sampled_from(monomials(nv, k))): draw(coefficients.filter(bool))}
        target = target.add(S(nv, trunc, {k: extra}))
    return target, TruncatedIdeal(tuple(gens)), draw(st.integers(1, trunc))


@settings(deadline=None, max_examples=80)
@given(membership_problems())
def test_membership_matches_fraction_stages(problem):
    _assert_same_membership(*problem)


def test_membership_matches_fraction_stages_on_corpus():
    # per ideal, a combination of the generators with cofactors of mixed
    # denominators, and the same plus every monomial of degrees low+1 .. 6
    # with coefficient 1/k in degree k, low the combination's lowest
    # degree; over the corpus some target passes every stage and some
    # stage fails after the stage at degree low has passed
    outcomes = set()
    for ideal in CORPUS:
        nv = ideal.num_vars
        cofactor = S(nv, ORDER, {0: {(0,) * nv: Fraction(1, 2)},
                                 1: {e: Fraction(k + 1, 3) for k, e in enumerate(monomials(nv, 1))}})
        member = zero_series(ORDER, nv)
        for g in ideal.generators:
            member = member.add(cofactor.mul(g).truncate(ORDER))
        low = member.lowest_degree()
        dense = S(nv, ORDER, {k: {e: Fraction(1, k) for e in monomials(nv, k)}
                              for k in range(low + 1, 7)})
        for target in (member, member.add(dense)):
            got = _assert_same_membership(target, ideal, 7)
            outcomes.add("witness" if isinstance(got, MembershipWitness)
                         else "failed later" if got > low else "failed first")
    assert {"witness", "failed later"} <= outcomes


def test_membership_matches_fraction_stages_on_a_truncated_build():
    # criterion 09's cut target on a guard-passing C = x build of small d:
    # two leading forms of degree d, so the stages past the least power
    # 2d - 1, up to order 2d + 5, have more columns than rows
    d, n = 6, 14
    sigma, _ = build(Instance(d=d, N=n, C=series_x(n - d - 1), D=zero_series(n - d - 1), seed=1))
    assert genericity_guard(sigma).passed
    a, b = sigma.components
    assert a.lowest_degree() == b.lowest_degree() == d
    found = min_power_in_ideal(TruncatedIdeal((a, b)), n - 1)
    assert found == 2 * d - 1
    order = found + 6
    a_cut, b_cut = (TruncSeries(2, order + 1, {k: p for k, p in s.parts.items() if k <= found})
                    for s in (a, b))
    got = _assert_same_membership(a_cut.partial(1).sub(b_cut.partial(0)),
                                  TruncatedIdeal((a_cut, b_cut)), order)
    assert isinstance(got, MembershipWitness)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_random_combinations_yield_verified_witnesses(seed):
    # Monomial generators keep every graded stage solvable for genuine
    # members, so the witness loop must succeed on any combination.
    stream = Stream(seed)
    exps = []
    while len(exps) < 2:
        deg = stream.int_between(1, 3)
        basis = monomials(2, deg)
        exp = basis[stream.int_between(0, len(basis) - 1)]
        if exp not in exps:
            exps.append(exp)
    g1 = _mono_series(2, exps[0])
    g2 = _mono_series(2, exps[1])
    ideal = TruncatedIdeal((g1, g2))
    k1 = stream.int_between(0, 2)
    k2 = stream.int_between(0, 2)
    h1 = S(2, ORDER, {k1: {(k1, 0): stream.int_between(1, 3)}})
    h2 = S(2, ORDER, {k2: {(0, k2): stream.int_between(-3, -1)}})
    combo = h1.mul(g1).add(h2.mul(g2))
    order = min(6, combo.trunc_order)
    wit = membership_witness(combo.truncate(ORDER) if combo.trunc_order > ORDER else combo,
                             ideal, order)
    assert isinstance(wit, MembershipWitness), f"failed at degree {wit}"
    assert wit.verify(ideal)


def _assert_verify_matches_fraction_residual(witness, ideal):
    """The integer check gives the Fraction residual's verdict, or raises
    `MismatchError` where the residual raises it."""
    try:
        expected = fraction_verify_witness(witness, ideal)
    except MismatchError:
        with pytest.raises(MismatchError):
            witness.verify(ideal)
        return None
    assert witness.verify(ideal) == expected
    return expected


def _witness_variants(witness, extra):
    """The witness, one cofactor with the term `extra` added, each cofactor
    truncated below the valid order, a cofactor dropped or repeated, and
    valid orders one below, one above and -1."""
    variants = [witness, replace(witness, valid_order=max(witness.valid_order - 1, 0)),
                replace(witness, valid_order=witness.valid_order + 1),
                replace(witness, valid_order=-1),
                replace(witness, cofactors=witness.cofactors[1:]),
                replace(witness, cofactors=witness.cofactors + witness.cofactors[:1])]
    for i, c in enumerate(witness.cofactors):
        swap = list(witness.cofactors)
        swap[i] = c.add(extra.truncate(min(extra.trunc_order, c.trunc_order)))
        variants.append(replace(witness, cofactors=tuple(swap)))
        if c.trunc_order > 1:
            swap[i] = c.truncate(c.trunc_order // 2)
            variants.append(replace(witness, cofactors=tuple(swap)))
    return variants


def test_verify_matches_the_fraction_residual_on_corpus():
    verdicts, checked = set(), 0
    for ideal in CORPUS:
        nv = ideal.num_vars
        cofactor = S(nv, ORDER, {0: {(0,) * nv: Fraction(1, 2)},
                                 1: {e: Fraction(k + 1, 3) for k, e in enumerate(monomials(nv, 1))}})
        member = zero_series(ORDER, nv)
        for g in ideal.generators:
            member = member.add(cofactor.mul(g).truncate(ORDER))
        witness = membership_witness(member, ideal, 7)
        if not isinstance(witness, MembershipWitness):
            continue    # a stage of this ideal fails; no witness to check
        checked += 1
        extra = S(nv, ORDER, {1: {monomials(nv, 1)[-1]: Fraction(-5, 7)}})
        for variant in _witness_variants(witness, extra):
            verdicts.add(_assert_verify_matches_fraction_residual(variant, ideal))
        other = TruncatedIdeal(tuple(zero_series(ORDER, 3 if nv == 2 else 2)
                                     for _ in ideal.generators))
        verdicts.add(_assert_verify_matches_fraction_residual(witness, other))
    assert verdicts == {True, False, None} and checked >= len(CORPUS) // 2


@settings(deadline=None, max_examples=40)
@given(membership_problems(), st.data())
def test_verify_matches_the_fraction_residual(problem, data):
    target, ideal, order = problem
    witness = membership_witness(target, ideal, order)
    if not isinstance(witness, MembershipWitness):
        return
    nv = ideal.num_vars
    k = data.draw(st.integers(0, order - 1))
    extra = S(nv, order, {k: {data.draw(st.sampled_from(monomials(nv, k))): Fraction(1, 3)}})
    for variant in _witness_variants(witness, extra):
        _assert_verify_matches_fraction_residual(variant, ideal)
