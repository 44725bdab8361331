"""Truncated ideal engine against brute-force span oracles."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms.ideals import (MembershipWitness, TruncatedIdeal, colength,
                            graded_cover_check, ideal_contained_mod,
                            ideal_equal_mod, membership_witness,
                            min_power_in_ideal)
from acforms.poly import HomogPoly, MismatchError, TruncSeries, monomials
from acforms.prng import Stream
from conftest import H, S, zero_series
from oracles import (brute_colength, brute_cover_degree, brute_leading_cover,
                     brute_member, brute_min_power, fraction_membership_witness,
                     series_dict)

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


# --- containment and equality ------------------------------------------------


def test_containment_mod_order():
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    maximal = TruncatedIdeal((_mono_series(2, (1, 0)), _mono_series(2, (0, 1))))
    assert ideal_contained_mod(squares, maximal, 6)
    assert not ideal_contained_mod(maximal, squares, 6)


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


def test_mod_order_requires_certified_range():
    squares = TruncatedIdeal((_mono_series(2, (2, 0)), _mono_series(2, (0, 2))))
    with pytest.raises(MismatchError):
        ideal_contained_mod(squares, squares, ORDER + 1)
    with pytest.raises(MismatchError):
        graded_cover_check(squares, ORDER)
    with pytest.raises(MismatchError):
        min_power_in_ideal(squares, ORDER)


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


def test_witness_makes_one_product_per_generator_part_per_stage(monkeypatch):
    # two generators with two and three parts; the target has every
    # monomial of degrees 3 .. 6, so each stage solves for several columns
    # per generator
    g1 = S(2, ORDER, {2: {(2, 0): 1}, 3: {(0, 3): 1}})
    g2 = S(2, ORDER, {2: {(0, 2): 1}, 3: {(3, 0): -2}, 4: {(2, 2): 1}})
    ideal = TruncatedIdeal((g1, g2))
    target = S(2, ORDER, {k: {e: 1 for e in monomials(2, k)} for k in range(3, 7)})
    parts = {id(p): (i, k) for i, g in enumerate((g1, g2)) for k, p in g.parts.items()}
    stages: list[int] = []
    products: list[tuple[int, tuple[int, int] | None]] = []
    real_mul = HomogPoly.mul

    class CountingEchelon(ideals_module.Echelon):
        # one echelon per stage, holding one column per (generator, monomial)
        def __init__(self, ncols):
            super().__init__(ncols)
            stages.append(ncols)

    def counting_mul(self, other):
        products.append((len(stages), parts.get(id(other))))
        return real_mul(self, other)

    monkeypatch.setattr(ideals_module, "Echelon", CountingEchelon)
    monkeypatch.setattr(HomogPoly, "mul", counting_mul)
    wit = membership_witness(target, ideal, 7)
    monkeypatch.undo()
    assert isinstance(wit, MembershipWitness) and wit.verify(ideal)
    # every product is a cofactor piece times a generator part, at most
    # once per (stage, part)
    assert all(part is not None for _, part in products)
    assert len(set(products)) == len(products)
    assert len(products) <= len(stages) * (len(g1.parts) + len(g2.parts))
    assert (len(stages), len(products)) == (4, 13)


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
