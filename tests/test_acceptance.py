"""End-to-end acceptance gates, one test per numbered release criterion.

Each test carries a `criterion` marker; the terminal summary prints one
PASS/FAIL line per label.  All arithmetic assertions are exact equalities.
"""

import itertools
import time
from fractions import Fraction

import pytest

from acforms.cli import EXIT_REFUTED, main as cli_main
from acforms.construct import Instance, build, convergence_bound
from acforms.decide import (decide, guarded_builds, obstruction,
                            obstruction_pair_check, verify_potential)
from acforms.ideals import (MembershipWitness, TruncatedIdeal, colength,
                            graded_cover_check, membership_witness,
                            min_power_in_ideal)
from acforms.linalg import verify_farkas
from acforms.poly import OneForm, TruncSeries
from acforms.serialize import (certificate_from_json, dump_json,
                               instance_to_json, load_json,
                               sha256_of_payload, system_from_json)
from conftest import H, S, form, series_x, zero_series
from oracles import (brute_colength, brute_leading_cover, brute_min_power,
                     series_dict)
from test_ideals import CORPUS, ORDER as CORPUS_ORDER

FR = Fraction

D_MAIN = 18
N_MAIN = 22
ORDER_MAIN = 21
FAMILY_SIZE = 20


def _guarded_family(C, D, count=FAMILY_SIZE, d=D_MAIN, N=N_MAIN):
    """The first `count` guard-passing builds, scanning seeds upward: (seed, sigma)."""
    builds = guarded_builds(Instance(d=d, N=N, C=C, D=D, seed=1))
    return [(instance.seed, sigma) for instance, sigma, _ in itertools.islice(builds, count)]


@pytest.fixture(scope="module")
def refutation_family():
    return _guarded_family(series_x(3), zero_series(3))


@pytest.fixture(scope="module")
def refutation_runs(refutation_family):
    runs = []
    for seed, sigma in refutation_family:
        start = time.monotonic()
        outcome = decide(sigma, ORDER_MAIN)
        runs.append((seed, sigma, outcome, time.monotonic() - start))
    return runs


@pytest.fixture(scope="module")
def shifted_runs():
    C = S(2, 3, {0: {(0, 0): 2}, 1: {(1, 0): 1}})    # 2 + x
    D = S(2, 3, {0: {(0, 0): 3}})                     # 3
    runs = []
    for seed, sigma in _guarded_family(C, D):
        runs.append((seed, decide(sigma, ORDER_MAIN)))
    return runs


def _record(outcome, through_degree):
    for rec in outcome.staged:
        if rec.through_degree == through_degree:
            return rec
    raise AssertionError(f"no staged record through degree {through_degree}")


@pytest.mark.criterion("01")
def test_criterion_01_twenty_guarded_refutations(refutation_runs):
    assert len(refutation_runs) == FAMILY_SIZE
    assert len({seed for seed, *_ in refutation_runs}) == FAMILY_SIZE
    for seed, _, outcome, elapsed in refutation_runs:
        assert outcome.verdict == "infeasible", f"seed {seed}"
        assert outcome.failing_degree == D_MAIN + 2, f"seed {seed}"
        assert outcome.certificate is not None and outcome.failing_system is not None
        assert verify_farkas(outcome.failing_system, outcome.certificate), f"seed {seed}"
        assert elapsed < 10, f"seed {seed} took {elapsed:.1f}s"


@pytest.mark.criterion("02")
def test_criterion_02_forced_degree1_block(shifted_runs):
    expected_forced = {
        "X:1,0": FR(3), "X:0,1": FR(-2),
        "W:1,0": FR(3), "W:0,1": FR(-2),
        "Y:1,0": FR(0), "Y:0,1": FR(0),
        "Z:1,0": FR(0), "Z:0,1": FR(0),
    }
    assert len(shifted_runs) == FAMILY_SIZE
    for seed, outcome in shifted_runs:
        through_d = _record(outcome, D_MAIN)
        assert through_d.feasible, f"seed {seed}"
        assert through_d.blocks[1].dim == 2, f"seed {seed}"
        through_d1 = _record(outcome, D_MAIN + 1)
        assert through_d1.feasible, f"seed {seed}"
        block = through_d1.blocks[1]
        assert block.dim == 0, f"seed {seed}"
        assert block.forced == expected_forced, f"seed {seed}"


@pytest.mark.criterion("03")
def test_criterion_03_degree2_block_freedom(shifted_runs):
    for seed, outcome in shifted_runs:
        block = _record(outcome, D_MAIN + 1).blocks[2]
        assert block.dim == 3, f"seed {seed}"
        assert block.forced.get("Z:0,2") == 0, f"seed {seed}"
        assert block.forced.get("Y:2,0") == 0, f"seed {seed}"


@pytest.mark.criterion("04")
def test_criterion_04_obstruction_dichotomy(refutation_runs):
    assert obstruction(series_x(3), zero_series(3)) == 1
    for seed, _, outcome, _ in refutation_runs:
        assert outcome.verdict == "infeasible", f"seed {seed}"

    C = series_x(3)
    D = S(2, 3, {1: {(0, 1): -1}})    # linear parts x and -y cancel exactly
    assert obstruction(C, D) == 0
    seed, sigma = _guarded_family(C, D, count=1)[0]
    pair = obstruction_pair_check(sigma, C, D)
    assert pair["obstruction"] == 0
    assert pair["predicted_first"] == 0 and pair["predicted_second"] == 0
    assert pair["consistent"] is True
    outcome = decide(sigma, ORDER_MAIN)
    # only the absence of the degree-(d+2) contradiction is claimed
    assert outcome.verdict != "infeasible"


@pytest.mark.criterion("05")
def test_criterion_05_exact_differentials_reconstruct():
    for d in (6, 18):
        N = d + 4
        needed = N - 1 - d
        seed, sigma = _guarded_family(zero_series(needed), zero_series(needed),
                                      count=1, d=d, N=N)[0]
        outcome = decide(sigma, N - 1)
        assert outcome.verdict == "feasible_up_to_M", f"d={d} seed={seed}"
        phi = outcome.witness.phi
        assert verify_potential(phi, sigma, N), f"d={d} seed={seed}"


def _exp_weighted_potential(cubic=None):
    """Degrees <= 8 of (x^2 + y^2) * sum_k z^k / k!, three variables, plus
    the cubic monomial with exponent `cubic` when one is given."""
    parts = {}
    for k in range(7):
        coeff = FR(1)
        for i in range(1, k + 1):
            coeff /= i
        parts[k + 2] = {(2, 0, k): coeff, (0, 2, k): coeff}
    if cubic is not None:
        parts[3] = dict(parts[3])
        parts[3][cubic] = FR(1)
    return TruncSeries(3, 9, {deg: H(3, deg, terms) for deg, terms in parts.items()})


def _weighted_gradient_form():
    two_x = S(3, 9, {1: {(1, 0, 0): 2}})
    two_y = S(3, 9, {1: {(0, 1, 0): 2}})
    f = S(3, 9, {2: {(2, 0, 0): 1, (0, 2, 0): 1}})
    return OneForm((two_x, two_y, f))


@pytest.mark.criterion("06a")
def test_criterion_06a_weighted_square_potential_verifies():
    assert verify_potential(_exp_weighted_potential(), _weighted_gradient_form(), 8)


def _has_verified_witness(target, ideal, order=8):
    witness = membership_witness(target, ideal, order)
    return isinstance(witness, MembershipWitness) and witness.verify(ideal)


@pytest.mark.criterion("06b")
def test_criterion_06b_cubic_perturbation_is_flagged():
    omega = _weighted_gradient_form()
    omega_ideal = TruncatedIdeal(omega.components)
    z_sq = S(3, 9, {2: {(0, 0, 2): 1}})

    # + z^3: d/dz phi = 3z^2 mod (x, y), so the gradient ideal grows to
    # (x, y, z^2) and the critical locus is no longer that of omega.
    perturbed = _exp_weighted_potential(cubic=(0, 0, 3))
    assert verify_potential(perturbed, omega, 8) is False
    grads = TruncatedIdeal(tuple(perturbed.partial(i) for i in range(3)))
    assert _has_verified_witness(z_sq, grads)
    assert membership_witness(z_sq, omega_ideal, 8) == 2

    # + x^3 is not a counterexample: d/dx phi = x * (2e^z + 3x) is a unit
    # times x, so the gradient ideal is still (x, y) and must be accepted.
    # Cofactors for both inclusions back this without the rank comparison.
    same_locus = _exp_weighted_potential(cubic=(3, 0, 0))
    assert verify_potential(same_locus, omega, 8) is True
    grads = TruncatedIdeal(tuple(same_locus.partial(i) for i in range(3)))
    for target in (S(3, 9, {1: {(1, 0, 0): 1}}), S(3, 9, {1: {(0, 1, 0): 1}})):
        assert _has_verified_witness(target, grads)
    for target in grads.generators:
        assert _has_verified_witness(target, omega_ideal)


@pytest.mark.criterion("07")
def test_criterion_07_bounded_growth_over_sixty_orders():
    start = time.monotonic()
    C = S(2, 60, {0: {(0, 0): 1}, 1: {(1, 0): 1}})    # 1 + x
    D = zero_series(60)
    magnitude, growth, radius = convergence_bound(C, D)
    assert (magnitude, growth, radius) == (2, 16, FR(1, 16))
    inst = Instance(d=2, N=63, C=C, D=D, seed=7, mode="bounded")
    sigma, _ = build(inst)
    a, b = sigma.components

    def running(k):
        return max(a.component(k).norm(), b.component(k).norm(),
                   a.component(k - 1).norm(), b.component(k - 1).norm())

    for k in range(3, 63):
        prev = running(k - 1)
        assert a.component(k).norm() <= 4 * magnitude * prev, f"order {k}"
        assert b.component(k).norm() <= 8 * magnitude * prev, f"order {k}"
    assert time.monotonic() - start < 5


@pytest.mark.criterion("08")
def test_criterion_08_ideal_engine_oracle_equivalence():
    for ideal in CORPUS:
        assert ideal.trunc_order <= 8
        gens = [series_dict(g) for g in ideal.generators]
        nv = ideal.num_vars
        for n in range(CORPUS_ORDER):
            assert graded_cover_check(ideal, n) == brute_leading_cover(gens, nv, n)
        found = min_power_in_ideal(ideal, CORPUS_ORDER - 1)
        assert found == brute_min_power(gens, nv, CORPUS_ORDER - 1)
        value = colength(ideal, CORPUS_ORDER - 1)
        if found is None:
            assert value is None
        else:
            assert value == brute_colength(gens, nv, found)
    squares = TruncatedIdeal((S(2, 8, {2: {(2, 0): 1}}), S(2, 8, {2: {(0, 2): 1}})))
    assert min_power_in_ideal(squares, 7) == 3
    assert colength(squares, 7) == 4


@pytest.mark.criterion("09")
def test_criterion_09_truncated_build_stays_almost_closed():
    sigma, _ = build(Instance(d=18, N=38, C=series_x(19), D=zero_series(19), seed=2))
    a, b = sigma.components
    found = min_power_in_ideal(TruncatedIdeal((a, b)), 37)
    assert found is not None
    order = found + 6

    def cut(series):    # keep degrees <= found, certified through the witness order
        return TruncSeries(2, order + 1,
                           {k: p for k, p in series.parts.items() if k <= found})

    a_cut, b_cut = cut(a), cut(b)
    ideal_cut = TruncatedIdeal((a_cut, b_cut))
    target = a_cut.partial(1).sub(b_cut.partial(0))
    witness = membership_witness(target, ideal_cut, order)
    assert isinstance(witness, MembershipWitness), f"failed at degree {witness}"
    assert witness.valid_order == order
    assert witness.verify(ideal_cut)
    residual = witness.residual(ideal_cut)
    assert all(residual.component(k).is_zero for k in range(order))


@pytest.mark.criterion("10")
def test_criterion_10_cli_determinism_and_certificate_audit(refutation_family, tmp_path):
    seed = refutation_family[0][0]
    instance_path = tmp_path / "instance.json"
    dump_json(str(instance_path), instance_to_json(
        Instance(d=D_MAIN, N=N_MAIN, C=series_x(3), D=zero_series(3), seed=seed)))

    build_dirs = (tmp_path / "b1", tmp_path / "b2")
    for directory in build_dirs:
        assert cli_main(["build", str(instance_path), "--out", str(directory)]) == 0
    assert ((build_dirs[0] / "sigma.json").read_bytes()
            == (build_dirs[1] / "sigma.json").read_bytes())

    sigma_path = build_dirs[0] / "sigma.json"
    run_dirs = (tmp_path / "r1", tmp_path / "r2")
    for directory in run_dirs:
        code = cli_main(["decide", str(sigma_path), "--order", str(ORDER_MAIN),
                         "--out", str(directory)])
        assert code == EXIT_REFUTED
    for name in ("outcome.json", "certificate.json", "failing_system.json"):
        assert ((run_dirs[0] / name).read_bytes()
                == (run_dirs[1] / name).read_bytes()), name

    system_payload = load_json(str(run_dirs[0] / "failing_system.json"))
    cert_payload = load_json(str(run_dirs[0] / "certificate.json"))
    system_payload.pop("manifest_sha256")
    cert_payload.pop("manifest_sha256")
    assert cert_payload["system_sha256"] == sha256_of_payload(system_payload)
    assert verify_farkas(system_from_json(system_payload),
                         certificate_from_json(cert_payload))
