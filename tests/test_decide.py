"""Decision pipeline: system assembly, guard, unit search, reconstruction."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms.construct import Instance, build
from acforms.decide import (GAUGE_ROW_LABEL, UNKNOWN_NAMES,
                            ClosednessError, assemble_system,
                            closed_extension_order, closedness_residual,
                            decide, find_unit_solution, genericity_guard,
                            integrate_closed, obstruction,
                            obstruction_pair_check, scaled_pair,
                            staged_report, tilde_transform, trivial_solution,
                            verify_potential, with_gauge, _prefix)
from acforms.linalg import (AffineSystem, SolutionSet, functional_range,
                            residual, solve_affine, verify_farkas)
from acforms.poly import MismatchError, OneForm, TruncSeries, monomials
from acforms.prng import Stream
from conftest import H, S, form, series_x, zero_series
from oracles import (dict_component, poly_add, poly_mul, poly_partial,
                     poly_scale, rref_rank, series_dict)

FR = Fraction
# the package re-exports the function `decide`, which hides the module
decide_module = importlib.import_module("acforms.decide")


def _gradient_form(trunc=8):
    """x^2 dx + y^2 dy: the exact gradient of (x^3 + y^3)/3."""
    return form(S(2, trunc, {2: {(2, 0): 1}}), S(2, trunc, {2: {(0, 2): 1}}))


def _radial_form(trunc=4):
    """x dx + y dy: the exact gradient of (x^2 + y^2)/2."""
    return form(S(2, trunc, {1: {(1, 0): 1}}), S(2, trunc, {1: {(0, 1): 1}}))


def _build_generic(d, N, seed, c_parts=None):
    needed = max(N - 1 - d, 1)
    C = S(2, needed, c_parts) if c_parts else zero_series(needed)
    D = zero_series(needed)
    sigma, _ = build(Instance(d=d, N=N, C=C, D=D, seed=seed))
    return sigma


# --- system assembly ----------------------------------------------------------


def test_assemble_matrix_matches_poly_oracle():
    sigma = _build_generic(2, 7, seed=5, c_parts={0: {(0, 0): 1}, 1: {(1, 0): 1}})
    order = 4
    system = assemble_system(sigma, order)
    stream = Stream(17)
    u = [FR(stream.int_between(-3, 3)) for _ in system.column_labels]

    unknowns = {}
    for name in UNKNOWN_NAMES:
        terms = {}
        for label, val in zip(system.column_labels, u):
            if label.startswith(name + ":") and val:
                a_str, b_str = label[len(name) + 1:].split(",")
                terms[(int(a_str), int(b_str))] = val
        unknowns[name] = terms
    A = series_dict(sigma.components[0])
    B = series_dict(sigma.components[1])
    lhs = poly_add(
        poly_partial(poly_add(poly_mul(unknowns["X"], A), poly_mul(unknowns["Y"], B)), 1),
        poly_scale(
            poly_partial(poly_add(poly_mul(unknowns["Z"], A), poly_mul(unknowns["W"], B)), 0),
            FR(-1)))
    target = poly_add(poly_partial(B, 0), poly_scale(poly_partial(A, 1), FR(-1)))

    rows = residual(system, u)
    for i, label in enumerate(system.row_labels):
        head, exp_str = label.split(":")
        k = int(head[3:])
        a_str, b_str = exp_str.split(",")
        exp = (int(a_str), int(b_str))
        applied = rows[i] + system.rhs[i]
        assert applied == dict_component(lhs, k).get(exp, FR(0)), label
        assert system.rhs[i] == dict_component(target, k).get(exp, FR(0)), label


def test_assemble_shapes_and_labels():
    sigma = _gradient_form()
    system = assemble_system(sigma, 4)
    # unknown degrees 0..2, equation degrees 1..3
    expected_cols = []
    for j in range(3):
        for name in UNKNOWN_NAMES:
            for a, b in monomials(2, j):
                expected_cols.append(f"{name}:{a},{b}")
    assert system.column_labels == expected_cols
    expected_rows = [f"deg{k}:{a},{b}" for k in range(1, 4) for a, b in monomials(2, k)]
    assert system.row_labels == expected_rows
    assert len(system.matrix) == len(expected_rows)
    assert all(len(r) == len(expected_cols) for r in system.matrix)


def test_trivial_solution_satisfies_any_assembled_system():
    for sigma in (_gradient_form(), _radial_form(),
                  _build_generic(3, 7, seed=9, c_parts={0: {(0, 0): 2}})):
        order = sigma.trunc_order - 1
        system = assemble_system(sigma, order)
        assert all(v == 0 for v in residual(system, trivial_solution(system)))


def test_gauge_row_and_prefix_filtering():
    system = assemble_system(_gradient_form(), 4)
    gauged = with_gauge(system)
    assert gauged.row_labels[-1] == GAUGE_ROW_LABEL
    assert gauged.rhs[-1] == 0
    assert gauged.num_rows == system.num_rows + 1
    prefix = with_gauge(_prefix(system, 2, 2))
    assert GAUGE_ROW_LABEL in prefix.row_labels
    degrees = [int(lbl[3:lbl.index(":")]) for lbl in prefix.row_labels
               if not lbl.startswith("gauge:")]
    assert degrees and max(degrees) <= 2
    # the row-count slice keeps exactly the rows labelled with degree <= k
    for k in range(1, 4):
        expected = [lbl for lbl in system.row_labels if int(lbl[3:lbl.index(":")]) <= k]
        assert _prefix(system, 2, k).row_labels == expected
    # gauge forces the X constant to zero on the prefix
    solved = solve_affine(with_gauge(_prefix(system, 2, 1)))
    assert isinstance(solved, SolutionSet)
    xi = system.column_labels.index("X:0,0")
    assert solved.particular[xi] == 0
    assert all(vec[xi] == 0 for vec in solved.nullspace_basis)


def test_assemble_input_validation():
    with pytest.raises(MismatchError):
        assemble_system(OneForm((zero_series(4, 3), zero_series(4, 3), zero_series(4, 3))), 2)
    with pytest.raises(MismatchError):
        assemble_system(form(zero_series(4), zero_series(4)), 2)    # zero form
    with pytest.raises(MismatchError):
        assemble_system(_gradient_form(), 1)    # order below lowest degree
    with pytest.raises(MismatchError):
        assemble_system(_gradient_form(trunc=5), 5)    # needs trunc >= order + 1


# --- genericity guard ----------------------------------------------------------


def test_guard_on_radial_form():
    report = genericity_guard(_radial_form())
    assert report.lowest_degree == 1
    assert report.passed
    lead = report.check("leading_pair")
    assert lead.applicable and lead.actual_rank == 2
    for name in ("degree0_forcing", "stage_d", "stage_d1_reduction",
                 "stage_d1_joint", "stage_d2_reduction", "stage_d2_joint"):
        check = report.check(name)
        assert not check.applicable and check.passed and check.actual_rank is None


def test_guard_flags_dependent_leading_pair():
    x2 = S(2, 6, {2: {(2, 0): 1}})
    report = genericity_guard(form(x2, x2.scale(FR(3))))
    assert not report.passed
    assert "leading_pair" in report.failures()
    assert report.check("leading_pair").actual_rank == 1


def test_guard_applicability_ladder():
    sigma = _build_generic(5, 8, seed=1)
    report = genericity_guard(sigma)
    flags = {c.name: c.applicable for c in report.checks}
    assert flags == {"leading_pair": True, "degree0_forcing": True,
                     "stage_d": True, "stage_d1_reduction": False,
                     "stage_d1_joint": False, "stage_d2_reduction": False,
                     "stage_d2_joint": False}


def test_guard_rejects_bad_input():
    with pytest.raises(MismatchError):
        genericity_guard(form(zero_series(4), zero_series(4)))
    with pytest.raises(MismatchError):
        genericity_guard(OneForm((zero_series(4, 3),) * 3))


# --- unit-condition search -----------------------------------------------------


def _degree0_system(rows, rhs):
    return AffineSystem(matrix=[[FR(v) for v in row] for row in rows],
                        rhs=[FR(v) for v in rhs],
                        column_labels=["X:0,0", "Y:0,0", "Z:0,0", "W:0,0"])


def _unit_value(point):
    x0, y0, z0, w0 = point
    return (1 + x0) * (1 + w0) - y0 * z0


def test_unit_search_detects_identically_zero():
    # X0 = -1 and Y0 = 0 kill both terms of the quadratic on the whole set
    solved = solve_affine(_degree0_system([[1, 0, 0, 0], [0, 1, 0, 0]], [-1, 0]))
    assert isinstance(solved, SolutionSet)
    assert find_unit_solution(solved) is None


def test_unit_search_samples_past_bad_particular():
    solved = solve_affine(_degree0_system([[1, 0, 0, 0]], [-1]))
    assert isinstance(solved, SolutionSet)
    point = find_unit_solution(solved)
    assert point is not None
    assert _unit_value(point) != 0
    assert all(r == 0 for r in residual(_degree0_system([[1, 0, 0, 0]], [-1]), point))


def test_unit_search_symbolic_path_with_zero_budget():
    # particular fails, sampling disabled: the expanded quadratic names the
    # two surviving weights and the small grid produces a nonzero value
    solved = solve_affine(_degree0_system([[1, 0, 0, 0]], [-1]))
    assert isinstance(solved, SolutionSet)
    point = find_unit_solution(solved, sample_budget=0)
    assert point is not None
    assert _unit_value(point) != 0


def test_unit_search_takes_good_particular_immediately():
    solved = solve_affine(_degree0_system([[1, 0, 0, 0]], [0]))
    assert isinstance(solved, SolutionSet)
    point = find_unit_solution(solved, sample_budget=0)
    assert point == solved.particular


# --- integration and verification ----------------------------------------------


def test_integrate_recovers_random_potentials():
    stream = Stream(23)
    for _ in range(6):
        parts = {}
        for k in range(1, 6):
            terms = {exp: FR(stream.int_between(-4, 4)) for exp in monomials(2, k)}
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                parts[k] = H(2, k, terms)
        phi = TruncSeries(2, 6, parts)
        eta = OneForm((phi.partial(0), phi.partial(1)))
        back = integrate_closed(eta, 5)
        diff = back.sub(phi.truncate(6))
        assert all(diff.component(k).is_zero for k in range(6))


def test_integrate_rejects_nonclosed_input():
    eta = form(S(2, 4, {1: {(0, 1): 1}}), zero_series(4))    # y dx
    with pytest.raises(ClosednessError) as err:
        integrate_closed(eta, 3)
    assert err.value.failing_degree == 0
    assert closed_extension_order(eta) == 1
    resid = closedness_residual(eta)
    assert resid.component(0).coeff((0, 0)) == 1


def test_closed_extension_of_exact_form_reaches_truncation():
    eta = _radial_form()
    assert closed_extension_order(eta) == eta.trunc_order


def test_verify_potential_accepts_and_rejects():
    sigma = _gradient_form()
    phi = S(2, 8, {3: {(3, 0): FR(1, 3), (0, 3): FR(1, 3)}})
    assert verify_potential(phi, sigma, 6)
    lone = S(2, 8, {3: {(3, 0): 1}})
    assert not verify_potential(lone, sigma, 6)
    with pytest.raises(MismatchError):
        verify_potential(phi, OneForm((zero_series(8, 4),) * 4), 6)
    with pytest.raises(MismatchError):
        verify_potential(S(2, 3, {2: {(2, 0): 1}}), sigma, 6)


def test_scaled_pair_is_the_identity_for_zero_unknowns():
    sigma = _gradient_form()
    zero = zero_series(5)
    eta = scaled_pair(sigma, zero, zero, zero, zero)
    for mine, orig in zip(eta.components, sigma.components):
        diff = mine.sub(orig.truncate(mine.trunc_order))
        assert all(diff.component(k).is_zero for k in range(mine.trunc_order))


# --- full decisions --------------------------------------------------------------


def test_decide_exact_gradient_is_feasible_with_verified_potential():
    sigma = _gradient_form()
    outcome = decide(sigma, 5)
    assert outcome.verdict == "feasible_up_to_M"
    assert outcome.branch == "forced_degree0"
    assert outcome.gauge == "X0=0"
    assert outcome.certificate is None and outcome.failing_degree is None
    witness = outcome.witness
    assert witness is not None
    assert witness.gradient_matches_below > outcome.order
    assert verify_potential(witness.phi, sigma, outcome.order)
    # staged prefixes only gain constraints, so block dimensions never grow
    top = outcome.order - outcome.lowest_degree
    for j in range(top + 1):
        dims = [rec.blocks[j].dim for rec in outcome.staged if rec.feasible]
        assert dims == sorted(dims, reverse=True)
    text = staged_report(outcome)
    assert "block 0 dim" in text and "gauge: X0=0" in text


def test_decide_radial_form_goes_through_open_branch():
    sigma = _radial_form()
    outcome = decide(sigma, 3)
    assert outcome.verdict == "feasible_up_to_M"
    assert outcome.branch == "open_degree0"
    assert outcome.gauge == "none"
    assert verify_potential(outcome.witness.phi, sigma, 3)
    # the degree-0 block keeps the Y0 = Z0 line open
    assert outcome.staged[-1].blocks[0].dim >= 1


def _guarded_refutable_form():
    """The first guard-passing d=18 N=22 build with C = x."""
    for seed in range(1, 30):
        sigma = _build_generic(18, 22, seed=seed, c_parts={1: {(1, 0): 1}})
        if genericity_guard(sigma).passed:
            return sigma
    raise AssertionError("no guard-passing seed in range")


def _count_solves(monkeypatch) -> list[int]:
    """Record the row count of every system the decider solves."""
    calls: list[int] = []
    real = decide_module.solve_affine

    def counting(system):
        calls.append(system.num_rows)
        return real(system)

    monkeypatch.setattr(decide_module, "solve_affine", counting)
    return calls


def test_decide_refutes_guarded_generic_instance():
    outcome = decide(_guarded_refutable_form(), 21)
    assert outcome.verdict == "infeasible"
    assert outcome.branch == "forced_degree0"
    assert outcome.failing_degree == 20
    assert outcome.certificate is not None and outcome.failing_system is not None
    assert verify_farkas(outcome.failing_system, outcome.certificate)
    feas = [rec.feasible for rec in outcome.staged]
    assert feas == [True, True, True, False]
    assert "infeasible" in staged_report(outcome)


def test_feasible_gauged_decide_solves_each_system_once(monkeypatch):
    sigma = _gradient_form()
    calls = _count_solves(monkeypatch)
    outcome = decide(sigma, 5)
    assert outcome.gauge == "X0=0" and outcome.verdict == "feasible_up_to_M"
    d, order = outcome.lowest_degree, outcome.order
    # the ungauged system, then every gauged prefix; the last one is the
    # full gauged system, so unit search needs no further solve
    assert len(calls) == 1 + (order - d + 1)
    full = assemble_system(sigma, order).num_rows
    assert calls[0] == full and calls[-1] == full + 1
    assert calls[1:] == sorted(set(calls[1:]))


def test_refuted_decide_stops_at_the_failing_prefix(monkeypatch):
    sigma = _guarded_refutable_form()
    calls = _count_solves(monkeypatch)
    outcome = decide(sigma, 21)
    k, d = outcome.failing_degree, outcome.lowest_degree
    assert outcome.verdict == "infeasible" and k == 20
    assert len(calls) == 1 + (k - d + 2)
    assert calls[-1] == outcome.failing_system.num_rows


def test_ungauged_decide_reuses_the_full_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    outcome = decide(_radial_form(), 3)
    assert outcome.gauge == "none"
    # the last prefix is the full system, already solved first
    assert len(calls) == outcome.order - outcome.lowest_degree + 1
    assert len(outcome.staged) == len(calls)


@pytest.mark.parametrize("sigma, order", [(_gradient_form(), 5), (_radial_form(), 3)],
                         ids=["gauged", "ungauged"])
def test_staged_blocks_match_each_prefix_solution(sigma, order):
    outcome = decide(sigma, order)
    d = outcome.lowest_degree
    system = assemble_system(sigma, order)
    for rec in outcome.staged:
        prefix = _prefix(system, d, rec.through_degree)
        solved = solve_affine(with_gauge(prefix) if outcome.gauge == "X0=0" else prefix)
        assert isinstance(solved, SolutionSet) and rec.feasible
        for j, block in enumerate(rec.blocks):
            columns = [c for c, lbl in enumerate(system.column_labels)
                       if sum(map(int, lbl[2:].split(","))) == j]
            constant = {}
            for c in columns:
                forced, value = functional_range(solved, {c: FR(1)})
                if forced:
                    constant[system.column_labels[c]] = value
            assert block.forced == constant
            assert block.dim == rref_rank(
                [[vec[c] for c in columns] for vec in solved.nullspace_basis])


def test_decide_input_validation():
    sigma = _gradient_form()
    with pytest.raises(MismatchError):
        decide(sigma, 8)    # needs components below degree 9
    with pytest.raises(MismatchError):
        decide(form(zero_series(4), zero_series(4)), 2)
    with pytest.raises(MismatchError):
        decide(OneForm((zero_series(4, 3),) * 3), 2)


# --- obstruction scalars ----------------------------------------------------------


def test_obstruction_and_tilde_on_hand_values():
    C = S(2, 2, {0: {(0, 0): 2}, 1: {(1, 0): 1}})    # 2 + x
    D = S(2, 2, {0: {(0, 0): 3}})                     # 3
    assert obstruction(C, D) == 1
    ct, dt = tilde_transform(C, D)
    # shift L = 3x - 2y: C1 + 2L = 7x - 4y, D1 + 3L = 9x - 6y
    assert ct.coeff((1, 0)) == 7 and ct.coeff((0, 1)) == -4
    assert dt.coeff((1, 0)) == 9 and dt.coeff((0, 1)) == -6
    assert ct.coeff((1, 0)) + dt.coeff((0, 1)) == 1


@settings(deadline=None, max_examples=60)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_obstruction_invariant_under_tilde_shift(c0, d0, c10, c01, d10, d01):
    def series(const, cx, cy):
        parts = {}
        if const:
            parts[0] = H(2, 0, {(0, 0): FR(const)})
        lin = {e: FR(v) for e, v in (((1, 0), cx), ((0, 1), cy)) if v}
        if lin:
            parts[1] = H(2, 1, lin)
        return TruncSeries(2, 2, parts)

    C = series(c0, c10, c01)
    D = series(d0, d10, d01)
    ct, dt = tilde_transform(C, D)
    assert ct.coeff((1, 0)) + dt.coeff((0, 1)) == obstruction(C, D)


def test_obstruction_requires_linear_data():
    with pytest.raises(MismatchError):
        obstruction(zero_series(1), zero_series(2))


def test_obstruction_pair_check_structure_on_small_instance():
    C = S(2, 4, {0: {(0, 0): 2}, 1: {(1, 0): 1}})
    D = S(2, 4, {0: {(0, 0): 3}})
    sigma, _ = build(Instance(d=4, N=9, C=C, D=D, seed=3))
    out = obstruction_pair_check(sigma, C, D)
    assert out["obstruction"] == 1
    assert out["tilde_obstruction"] == 1
    assert out["predicted_first"] == FR(2, 7)
    assert out["predicted_second"] == FR(2, 8)
    assert set(out) >= {"first", "second", "consistent"}
    for key in ("first", "second"):
        stage = out[key]
        assert "feasible" in stage
        if stage["feasible"]:
            assert "forced" in stage and "value" in stage
