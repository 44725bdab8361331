"""Instance construction: identity residuals, determinism, growth bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms.construct import (HypothesisError, Instance, _draw_homog, affine_series,
                               build, convergence_bound, multiplier_magnitude,
                               verify_almost_closed)
from acforms.poly import MismatchError
from acforms.prng import Stream
from conftest import S, form, series_x, zero_series
from oracles import poly_add, poly_mul, poly_partial, series_dict


def _instance(d=3, N=8, C=None, D=None, seed=1, **kw):
    C = C if C is not None else series_x(max(N - 1 - d, 2))
    D = D if D is not None else zero_series(max(N - 1 - d, 2))
    return Instance(d=d, N=N, C=C, D=D, seed=seed, **kw)


# --- identity, checked degreewise by an independent convolution ---------------


@pytest.mark.parametrize("seed", [1, 2, 9])
@pytest.mark.parametrize("d,N", [(2, 7), (3, 9), (5, 10)])
def test_built_pair_satisfies_identity_by_oracle(d, N, seed):
    C = S(2, N, {0: {(0, 0): 2}, 1: {(1, 0): 1, (0, 1): -1}})
    D = S(2, N, {0: {(0, 0): -1}, 2: {(1, 1): 3}})
    sigma, _ = build(Instance(d=d, N=N, C=C, D=D, seed=seed))
    a, b = sigma.components
    lhs = poly_add(poly_partial(series_dict(a), 1),
                   {e: -c for e, c in poly_partial(series_dict(b), 0).items()})
    rhs = poly_add(poly_mul(series_dict(C), series_dict(a)),
                   poly_mul(series_dict(D), series_dict(b)))
    diff = poly_add(lhs, {e: -c for e, c in rhs.items()})
    for e, c in diff.items():
        if sum(e) < N - 1:   # identity certified below N-1 (products cut there)
            assert c == 0, f"residual at {e}: {c}"
    report = verify_almost_closed(sigma, C, D)
    assert report.ok and report.first_failure is None


def test_verify_almost_closed_flags_y_dx():
    sigma = form(S(2, 3, {1: {(0, 1): 1}}), zero_series(3))
    report = verify_almost_closed(sigma, zero_series(3), zero_series(3))
    assert not report.ok
    assert report.first_failure == 0
    assert list(report.failures()) == [0]


def test_build_is_deterministic():
    inst = _instance(seed=4)
    s1, _ = build(inst)
    s2, _ = build(inst)
    assert s1.components[0].parts == s2.components[0].parts
    assert s1.components[1].parts == s2.components[1].parts
    s3, _ = build(_instance(seed=5))
    assert s3.components[0].parts != s1.components[0].parts


def test_leading_pair_is_gradient_of_seed():
    # the seed polynomial P is drawn first, and (A_d, B_d) = (P_x, P_y)
    for d, seed, mode in [(2, 1, "generic"), (3, 4, "bounded"), (5, 9, "generic")]:
        sigma, _ = build(_instance(d=d, N=d + 3, seed=seed, coeff_bound=7, mode=mode))
        p = _draw_homog(Stream(seed), d + 1, 7)
        a, b = sigma.components
        assert a.component(d) == p.partial(0)
        assert b.component(d) == p.partial(1)


# --- instance validation -----------------------------------------------------


def test_instance_invariants():
    with pytest.raises(MismatchError):
        _instance(d=1, N=5)
    with pytest.raises(MismatchError):
        _instance(d=4, N=4)
    with pytest.raises(MismatchError):
        _instance(C=series_x(1), N=9, d=3)   # multiplier window too short
    with pytest.raises(MismatchError):
        _instance(coeff_bound=0)
    with pytest.raises(MismatchError):
        _instance(mode="fancy")
    with pytest.raises(HypothesisError):
        _instance(mode="bounded",
                  C=S(2, 5, {2: {(2, 0): 1}}), D=zero_series(5), d=3, N=6)


# --- bounded mode ------------------------------------------------------------


def test_multiplier_magnitude_and_convergence_bound():
    C = S(2, 8, {0: {(0, 0): 1}, 1: {(1, 0): 1}})
    assert multiplier_magnitude(C, zero_series(8)) == 2
    cc, beta, radius = convergence_bound(C, zero_series(8))
    assert (cc, beta, radius) == (2, 16, Fraction(1, 16))
    # zero multipliers: ratio clamps at 1
    assert convergence_bound(zero_series(4), zero_series(4)) == (0, 1, 1)
    with pytest.raises(HypothesisError):
        multiplier_magnitude(zero_series(1), zero_series(4))


def test_bounded_build_respects_norm_recursion():
    C = S(2, 20, {0: {(0, 0): 1}, 1: {(1, 0): 1}})
    D = zero_series(20)
    inst = Instance(d=2, N=23, C=C, D=D, seed=11, mode="bounded")
    sigma, norm_log = build(inst)
    cc = multiplier_magnitude(C, D)
    a, b = sigma.components
    running = max(a.component(2).norm(), b.component(2).norm())
    for k in range(3, 23):
        na, nb = a.component(k).norm(), b.component(k).norm()
        assert na <= 4 * cc * running
        assert nb <= 8 * cc * running
        bound = norm_log[k]["bound"]
        if bound > 0:
            assert norm_log[k]["F"] < bound
        # the free data goes through a y-antiderivative, so no pure x^k top
        assert a.component(k).coeff((k, 0)) == 0
        running = max(running, na, nb)


def test_bounded_build_with_zero_multipliers_keeps_the_leading_pair():
    # every later order is zero, so nothing past degree d is stored
    inst = Instance(d=2, N=8, C=zero_series(5), D=zero_series(5), seed=3,
                    mode="bounded")
    sigma, norm_log = build(inst)
    # the seed polynomial is drawn first, so an N = d + 1 build is the leading pair
    leading, _ = build(Instance(d=2, N=3, C=zero_series(0), D=zero_series(0), seed=3))
    for comp, lead in zip(sigma.components, leading.components):
        assert set(comp.parts) == {2} and comp.parts == lead.parts
    assert sorted(norm_log) == list(range(2, 8))
    assert verify_almost_closed(sigma, inst.C, inst.D).ok


def test_affine_series_holds_constant_and_linear_parts():
    c = affine_series(Fraction(2), Fraction(0), Fraction(-1, 3), 4)
    assert c == S(2, 4, {0: {(0, 0): 2}, 1: {(0, 1): Fraction(-1, 3)}})
    assert affine_series(0, 0, 0, 3) == zero_series(3)


def test_b_vanish_from_kills_high_b_components():
    inst = _instance(d=3, N=10, seed=2, b_vanish_from=6)
    sigma, _ = build(inst)
    b = sigma.components[1]
    assert all(k < 6 for k in b.parts)
    report = verify_almost_closed(sigma, inst.C, inst.D)
    assert report.ok


# --- free data round trip ----------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_every_seed_builds_an_almost_closed_pair(seed):
    inst = _instance(d=2, N=6, seed=seed)
    sigma, _ = build(inst)
    assert verify_almost_closed(sigma, inst.C, inst.D).ok
    assert sigma.trunc_order == 6
