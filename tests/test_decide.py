"""Decision pipeline: system assembly, guard, unit search, reconstruction."""

import importlib
import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms import linalg
from acforms.construct import Instance, build
from acforms.decide import (GAUGE_ROW_LABEL, UNKNOWN_NAMES, GuardCheck, GuardReport,
                            decide, find_unit_solution, genericity_guard, guarded_builds,
                            obstruction, obstruction_pair_check, scaled_pair,
                            staged_report, tilde_transform,
                            verify_potential, with_gauge, _block_system,
                            _integer_blocks, _radial_potential)
from acforms.linalg import FarkasCertificate, verify_farkas
from acforms.poly import HomogPoly, MismatchError, OneForm, TruncSeries, monomials
from acforms.prng import Stream
from conftest import H, S, form, series_x, zero_series
from oracles import (SolutionSet, dict_component, fraction_assemble_system,
                     fraction_find_unit_solution, fraction_radial_potential,
                     fraction_solve_affine, fraction_stage_record,
                     fraction_view,
                     full_family_guard, functional_range, integer_system, poly_add, poly_mul,
                     poly_partial,
                     fraction_system, poly_scale, prefix_through, residual, rref_rank,
                     scaled_row, series_dict, solve_affine, trivial_solution, unit_value)

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
    system = integer_system(sigma, order)
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
    rhs = fraction_view(system)[1]
    for i, label in enumerate(system.row_labels):
        head, exp_str = label.split(":")
        k = int(head[3:])
        a_str, b_str = exp_str.split(",")
        exp = (int(a_str), int(b_str))
        applied = rows[i] + rhs[i]
        assert applied == dict_component(lhs, k).get(exp, FR(0)), label
        assert rhs[i] == dict_component(target, k).get(exp, FR(0)), label


def test_assemble_shapes_and_labels():
    sigma = _gradient_form()
    system = integer_system(sigma, 4)
    # unknown degrees 0..2, equation degrees 1..3
    expected_cols = []
    for j in range(3):
        for name in UNKNOWN_NAMES:
            for a, b in monomials(2, j):
                expected_cols.append(f"{name}:{a},{b}")
    assert system.column_labels == expected_cols
    expected_rows = [f"deg{k}:{a},{b}" for k in range(1, 4) for a, b in monomials(2, k)]
    assert system.row_labels == expected_rows
    matrix = fraction_view(system)[0]
    assert len(matrix) == len(expected_rows)
    assert all(len(r) == len(expected_cols) for r in matrix)


def test_trivial_solution_satisfies_any_assembled_system():
    for sigma in (_gradient_form(), _radial_form(),
                  _build_generic(3, 7, seed=9, c_parts={0: {(0, 0): 2}})):
        order = sigma.trunc_order - 1
        system = integer_system(sigma, order)
        assert all(v == 0 for v in residual(system, trivial_solution(system)))


def test_gauge_row_and_prefix_filtering():
    sigma = _gradient_form()
    system = integer_system(sigma, 4)
    gauged = with_gauge(system)
    assert gauged.row_labels[-1] == GAUGE_ROW_LABEL
    assert fraction_view(gauged)[1][-1] == 0
    assert gauged.num_rows == system.num_rows + 1
    prefix = with_gauge(prefix_through(system, 2))
    assert GAUGE_ROW_LABEL in prefix.row_labels
    degrees = [int(lbl[3:lbl.index(":")]) for lbl in prefix.row_labels
               if not lbl.startswith("gauge:")]
    assert degrees and max(degrees) <= 2
    # the system of the first blocks is the prefix through their degrees,
    # with the columns of the whole system
    blocks = list(_integer_blocks(sigma, 2, 4))
    for k in range(1, 4):
        assert _block_system(blocks[:k], 2, 2) == prefix_through(system, k)
    # gauge forces the X constant to zero on the prefix
    solved = solve_affine(with_gauge(prefix_through(system, 1)))
    assert isinstance(solved, SolutionSet)
    xi = system.column_labels.index("X:0,0")
    assert solved.particular[xi] == 0
    assert all(vec[xi] == 0 for vec in solved.nullspace_basis)


def _assembly_cases():
    """Forms with integer and with fractional coefficients, each at an order
    whose unknown blocks reach past the lowest degree."""
    half = S(2, 6, {2: {(2, 0): FR(1, 2), (1, 1): FR(-3, 7)}, 3: {(0, 3): FR(5, 3)}})
    third = S(2, 6, {2: {(0, 2): FR(2, 9)}, 4: {(3, 1): FR(-1, 4), (0, 4): 6}})
    return [(_gradient_form(), 5), (_radial_form(), 3), (form(half, third), 5),
            (_build_generic(4, 9, seed=3, c_parts={1: {(1, 0): 1}}), 8),
            (_build_generic(6, 10, seed=2), 9)]


@pytest.mark.parametrize("case", range(5))
def test_integer_blocks_are_the_fraction_rows_times_one_scale(case):
    sigma, order = _assembly_cases()[case]
    d = sigma.lowest_degree()
    reference = fraction_assemble_system(sigma, order)
    assert integer_system(sigma, order) == reference
    blocks = list(_integer_blocks(sigma, d, order))
    assert [len(rows) for _, rows in blocks] == [k + 1 for k in range(d - 1, order)]
    rows = [(scale, row) for scale, block in blocks for row in block]
    assert len(rows) == reference.num_rows
    for (scale, row), matrix_row, b in zip(rows, *fraction_view(reference)):
        assert scale > 0 and all(type(v) is int for v in row)
        assert [FR(v, scale) for v in row] == matrix_row + [b]


def test_assemble_input_validation():
    with pytest.raises(MismatchError):
        decide(OneForm((zero_series(4, 3), zero_series(4, 3), zero_series(4, 3))), 2)
    with pytest.raises(MismatchError):
        decide(form(zero_series(4), zero_series(4)), 2)    # zero form
    with pytest.raises(MismatchError):
        decide(_gradient_form(), 1)    # order below lowest degree
    with pytest.raises(MismatchError):
        decide(_gradient_form(trunc=5), 5)    # needs trunc >= order + 1


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


def _not_almost_closed_form(d=6, trunc=10, seed=4):
    """Random A and B with every degree d .. trunc-1 filled: A_y != B_x."""
    stream = Stream(seed)
    parts = [{k: {e: stream.int_between(-3, 3) for e in monomials(2, k)}
              for k in range(d, trunc)} for _ in range(2)]
    return form(S(2, trunc, parts[0]), S(2, trunc, parts[1]))


def _with_leading_b(sigma, lead_b):
    """sigma with B_d replaced by `lead_b`."""
    a, b = sigma.components
    d = sigma.lowest_degree()
    old = TruncSeries(2, b.trunc_order, {d: b.component(d)})
    new = TruncSeries(2, b.trunc_order, {d: lead_b} if not lead_b.is_zero else {})
    return form(a, b.sub(old).add(new))


def _guard_cases():
    x2 = S(2, 6, {2: {(2, 0): 1}})
    cases = [_radial_form(), form(x2, x2.scale(FR(3))), _not_almost_closed_form()]
    for d in range(4, 19):
        for seed in (1, 2):
            cases.append(_build_generic(d, d + 4, seed, c_parts={1: {(1, 0): 1}}))
            cases.append(_build_generic(d, d + 4, seed))
    # C with a constant term: A_{d+1,y} != B_{d+1,x}, so the joint families
    # have more rows than their expected rank
    for d in (7, 13, 18, 20):
        cases.append(_build_generic(d, d + 4, 1, c_parts={0: {(0, 0): 1}, 1: {(1, 0): 1}}))
    # N = d+1: no degree-d+1 component, so no joint family applies
    cases += [_build_generic(d, d + 1, 1) for d in (9, 13, 18)]
    # the guard-failing seeds of the batch test
    cases += [build(Instance(d=3, N=7, C=S(2, 3, {0: {(0, 0): 1}}), D=zero_series(3),
                             seed=seed, coeff_bound=1))[0] for seed in (8, 16)]
    # dependent and one-sided leading pairs; a zero A_d is B_d = 0 with A, B swapped
    for d in range(3, 21):
        sigma = _build_generic(d, d + 3, seed=d)
        lead_a = sigma.components[0].component(d)
        cases.append(_with_leading_b(sigma, lead_a.scale(FR(-2, 3))))
        one_sided = _with_leading_b(sigma, HomogPoly.zero(2, d))
        cases.append(one_sided if d % 2 else form(*reversed(one_sided.components)))
    cases += [_not_almost_closed_form(d, d + 3, seed=d) for d in (18, 19, 21)]
    return cases


def _top_family_independent(monkeypatch):
    """Record, per guard, whether the first family `_echelon` ranks, the
    largest applicable one, has independent rows."""
    echelon, first = decide_module._echelon, []

    def recording(rows, stop):
        pivots = echelon(rows, stop)
        first.append(len(pivots) == len(rows))
        return pivots

    monkeypatch.setattr(decide_module, "_echelon", recording)
    return first


def test_guard_matches_the_full_families(monkeypatch):
    # the guard leaves out rows in the span of others and infers the rank
    # of each family inside an independent one; every report, passing or
    # failing, must equal the one over the full families, each ranked
    calls = _top_family_independent(monkeypatch)
    reports, top_independent = [], set()
    for sigma in _guard_cases():
        calls.clear()
        reports.append(genericity_guard(sigma))
        top_independent.add(calls[0])
    assert reports == [full_family_guard(sigma) for sigma in _guard_cases()]
    assert {r.passed for r in reports} == {True, False}
    assert top_independent == {True, False}
    joint = [r.check("stage_d2_joint").applicable for r in reports]
    assert sum(joint) >= 4 and not all(joint)


def test_passing_guard_runs_one_elimination(monkeypatch):
    # d = 18 with a next component: every family lies in the top one
    calls = _top_family_independent(monkeypatch)
    sigma = _build_generic(18, 22, seed=1, c_parts={1: {(1, 0): 1}})
    report = genericity_guard(sigma)
    assert report.passed and calls == [True]
    # a dependent leading pair leaves every family dependent: each is ranked
    calls.clear()
    lead_a = sigma.components[0].component(18)
    dependent = _with_leading_b(sigma, lead_a.scale(FR(3)))
    report = genericity_guard(dependent)
    assert len(calls) > 1 and not any(calls)
    assert report == full_family_guard(dependent)
    assert report.check("leading_pair").actual_rank == 1


def test_guard_rejects_bad_input():
    with pytest.raises(MismatchError):
        genericity_guard(form(zero_series(4), zero_series(4)))
    with pytest.raises(MismatchError):
        genericity_guard(OneForm((zero_series(4, 3),) * 3))


def _stub_guard(monkeypatch, passes):
    """Record the seed of every build `guarded_builds` makes, and replace its
    guard by one whose report on the build of seed s passes iff passes(s);
    returns the seeds and the report of each."""
    seeds, reports = [], {}
    real_build = decide_module.build

    def recording_build(instance):
        seeds.append(instance.seed)
        return real_build(instance)

    def stub_guard(sigma):
        ok = passes(seeds[-1])
        check = GuardCheck("leading_pair", True, 2, 2 if ok else 1, ok)
        reports[seeds[-1]] = GuardReport(2, (check,))
        return reports[seeds[-1]]

    monkeypatch.setattr(decide_module, "build", recording_build)
    monkeypatch.setattr(decide_module, "genericity_guard", stub_guard)
    return seeds, reports


_CHEAP = Instance(d=2, N=4, C=zero_series(1), D=zero_series(1), seed=7)


def test_guarded_builds_give_up_after_100_failing_seeds(monkeypatch):
    passing: set[int] = set()
    seeds, _ = _stub_guard(monkeypatch, passing.__contains__)
    with pytest.raises(RuntimeError, match="100 seeds in a row, through seed 106"):
        next(guarded_builds(_CHEAP))
    assert seeds == list(range(7, 107))
    # a passing seed starts the count again
    passing.update({7, 107})
    seeds.clear()
    builds = guarded_builds(_CHEAP)
    assert [instance.seed for instance, _, _ in itertools.islice(builds, 2)] == [7, 107]
    with pytest.raises(RuntimeError, match="through seed 207"):
        next(builds)
    assert seeds == list(range(7, 208))


def test_guarded_builds_yield_only_passing_seeds(monkeypatch):
    seeds, reports = _stub_guard(monkeypatch, lambda seed: seed % 2 == 0)
    got = list(itertools.islice(guarded_builds(_CHEAP), 3))
    assert seeds == list(range(7, 13))
    assert [instance for instance, _, _ in got] == [replace(_CHEAP, seed=s) for s in (8, 10, 12)]
    for instance, sigma, guard in got:
        assert guard is reports[instance.seed] and guard.passed
        assert sigma == build(instance)[0]


# --- unit-condition search -----------------------------------------------------


def _degree0_system(rows, rhs):
    return fraction_system([[FR(v) for v in row] for row in rows],
                           [FR(v) for v in rhs], ["X:0,0", "Y:0,0", "Z:0,0", "W:0,0"])


def _unit_search(system):
    """`find_unit_solution` as `decide` calls it: on the solution set read
    off the column pass's kernel of a consistent system."""
    basis = linalg.RowBasis(system.num_cols)
    basis.extend(system.rows)
    assert basis.consistent
    return find_unit_solution(*decide_module._solutions(basis, basis.kernel()))


def test_unit_search_detects_identically_zero():
    # X0 = -1 and Y0 = 0 kill both terms of the quadratic on the whole set
    assert _unit_search(_degree0_system([[1, 0, 0, 0], [0, 1, 0, 0]], [-1, 0])) is None


def test_unit_search_samples_past_bad_particular():
    # the particular point fails the unit condition; the search still
    # returns a point of the solution set on which it holds
    system = _degree0_system([[1, 0, 0, 0]], [-1])
    solved = solve_affine(system)
    assert isinstance(solved, SolutionSet)
    assert unit_value(solved.particular) == 0
    point = _unit_search(system)
    assert point is not None
    assert unit_value(point) != 0
    assert all(r == 0 for r in residual(system, point))


def test_unit_search_symbolic_path_with_zero_budget():
    # particular fails: the expanded quadratic names at most two surviving
    # weights and the {-1,0,1} grid over them produces a nonzero value
    system = _degree0_system([[1, 0, 0, 0]], [-1])
    solved = solve_affine(system)
    assert isinstance(solved, SolutionSet)
    point = _unit_search(system)
    assert point is not None
    assert unit_value(point) != 0
    m = len(solved.nullspace_basis)
    grid_points = [solved.point([FR(g) for g in weights])
                   for weights in itertools.product((-1, 0, 1), repeat=m)
                   if sum(1 for g in weights if g) <= 2]
    assert point in grid_points
    assert _unit_search(system) == point


def test_unit_search_takes_good_particular_immediately():
    system = _degree0_system([[1, 0, 0, 0]], [0])
    solved = solve_affine(system)
    assert isinstance(solved, SolutionSet)
    assert _unit_search(system) == solved.particular


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def unit_systems(draw):
    """(kind, consistent system over X0, Y0, Z0, W0 and up to three more
    columns).  `bad_particular` systems have a particular point that fails
    the unit condition; `zero_quadratic` ones pin one of X0, W0 at -1 and
    one of Y0, Z0 at 0, so the condition fails on the whole set."""
    kind = draw(st.sampled_from(["random", "bad_particular", "zero_quadratic"]))
    n = draw(st.integers(4, 7))
    matrix = [draw(st.lists(small, min_size=n, max_size=n))
              for _ in range(draw(st.integers(0, 5)))]
    point = draw(st.lists(small, min_size=n, max_size=n))
    if kind == "zero_quadratic":
        one, zero = draw(st.sampled_from([0, 3])), draw(st.sampled_from([1, 2]))
        matrix += [[FR(int(c == one)) for c in range(n)], [FR(int(c == zero)) for c in range(n)]]
        point[one], point[zero] = FR(-1), FR(0)
    elif kind == "bad_particular":
        # with X0 a pivot at -1, Y0 or Z0 at 0 and every free column at 0,
        # the point is the particular point and (1+X0)(1+W0) - Y0 Z0 = 0
        matrix.append([FR(int(c == 0)) for c in range(n)])
        pivots = linalg._echelon([scaled_row(row + [FR(0)])[1] for row in matrix], n)
        point = [v if c in pivots else FR(0) for c, v in enumerate(point)]
        point[0], point[draw(st.sampled_from([1, 2]))] = FR(-1), FR(0)
    order = draw(st.permutations(range(len(matrix))))
    matrix = [matrix[i] for i in order]
    rhs = [sum((a * x for a, x in zip(row, point)), FR(0)) for row in matrix]
    return kind, fraction_system(matrix=matrix, rhs=rhs,
                                 column_labels=[f"u{c}" for c in range(n)])


@settings(deadline=None, max_examples=300)
@given(unit_systems())
def test_unit_search_matches_the_solution_set_search(case):
    kind, system = case
    solved = fraction_solve_affine(system)
    assert isinstance(solved, SolutionSet)
    if kind != "random":
        assert unit_value(solved.particular) == 0
    point = _unit_search(system)
    assert (point is None) == (fraction_find_unit_solution(solved) is None)
    if kind == "zero_quadratic":
        assert point is None
    if point is not None:
        assert unit_value(point) != 0
        assert all(r == 0 for r in residual(system, point))


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
        back = _radial_potential(eta, 5)
        diff = back.sub(phi.truncate(6))
        assert all(diff.component(k).is_zero for k in range(6))


@st.composite
def _sparse_series(draw, trunc=6):
    """A series below `trunc` whose components may be zero, with mixed
    denominators up to 10^4."""
    coeffs = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4)
    parts = {}
    for k in range(trunc):
        terms = draw(st.dictionaries(st.sampled_from(monomials(2, k)), coeffs, max_size=k + 1))
        poly = H(2, k, terms)
        if not poly.is_zero:
            parts[k] = poly
    return TruncSeries(2, trunc, parts)


@settings(deadline=None, max_examples=80)
@given(_sparse_series(), _sparse_series(), st.integers(1, 5))
def test_radial_potential_matches_the_fraction_integration(one, two, order):
    eta = OneForm((one, two))
    assert _radial_potential(eta, order) == fraction_radial_potential(eta, order)


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
    assert witness.gradient_matches_below == outcome.order + 1
    assert verify_potential(witness.phi, sigma, outcome.order)
    # staged prefixes only gain constraints, so block dimensions never grow
    top = outcome.order - outcome.lowest_degree
    for j in range(top + 1):
        dims = [rec.blocks[j].dim for rec in outcome.staged if rec.feasible]
        assert dims == sorted(dims, reverse=True)
    text = staged_report(outcome)
    assert "block 0 dim" in text and "gauge: X0=0" in text


@pytest.mark.parametrize("degree", [1, 3])
def test_decide_rejects_a_unit_point_off_the_solution_set(monkeypatch, degree):
    """One coefficient of the unit point moved: Y:degree,0 by one adds
    x^degree y^2 dx to the scaled pair, whose closedness residual
    2 x^degree y then fails at degree degree+1.  At degree 3 that is
    order-1, the top equation degree, which the gradient check sees only
    because it multiplies out through degree `order`."""
    sigma = _gradient_form()
    real = decide_module.find_unit_solution
    column = decide_module._column("Y", (degree, 0))

    def moved(point, directions):
        unit = real(point, directions)
        unit[column] += 1
        return unit

    monkeypatch.setattr(decide_module, "find_unit_solution", moved)
    with pytest.raises(AssertionError, match="gradient is not the scaled pair"):
        decide(sigma, 5)


def test_decide_radial_form_goes_through_open_branch():
    sigma = _radial_form()
    outcome = decide(sigma, 3)
    assert outcome.verdict == "feasible_up_to_M"
    assert outcome.branch == "open_degree0"
    assert outcome.gauge == "none"
    assert verify_potential(outcome.witness.phi, sigma, 3)
    # the degree-0 block keeps the Y0 = Z0 line open
    assert outcome.staged[-1].blocks[0].dim >= 1


def test_closed_form_witness_is_zero_in_both_branches():
    """A closed form has rhs zero, so the read-off's point is zero and the
    witness is X = Y = Z = W = 0: in the gauged branch on C = D = 0 builds,
    and in the ungauged one, where the constant candidate joins the kernel,
    on x dx + y dy and x^2 dx + y^3 dy."""
    cubic = form(S(2, 5, {2: {(2, 0): 1}}), S(2, 5, {3: {(0, 3): 1}}))
    cases = [(_build_generic(d, d + 4, seed=1), d + 3) for d in range(2, 9)]
    cases += [(_radial_form(), 3), (cubic, 4)]
    branches = []
    for sigma, order in cases:
        outcome = decide(sigma, order)
        assert outcome.verdict == "feasible_up_to_M"
        witness = outcome.witness
        assert all(s.is_zero() for s in (witness.X, witness.Y, witness.Z, witness.W))
        assert verify_potential(witness.phi, sigma, order)
        branches.append(outcome.branch)
    assert branches[1:7] == ["forced_degree0"] * 6
    assert branches[-2:] == ["open_degree0"] * 2


def _guarded_refutable_form(truncation=22):
    """The first guard-passing d=18 build with C = x."""
    C = S(2, truncation - 19, {1: {(1, 0): 1}})
    return next(guarded_builds(Instance(d=18, N=truncation, C=C, D=zero_series(truncation - 19),
                                        seed=1)))[1]


def _count_feeds(monkeypatch):
    """Record the row count of every scan of the decider's column pass."""
    scans: list[int] = []

    class CountingBasis(linalg.RowBasis):
        def extend(self, block):
            scans.append(len(block))
            return super().extend(block)

    monkeypatch.setattr(decide_module, "RowBasis", CountingBasis)
    return scans


def _record_blocks(monkeypatch, corrupt=None):
    """Record the equation degree of every block the decider's builder
    yields; the block of degree `corrupt` gets its last rhs entry raised by
    one, so that the constant candidate no longer solves it."""
    degrees: list[int] = []
    real = decide_module._integer_blocks

    def recording(sigma, d, order):
        for k, (scale, rows) in enumerate(real(sigma, d, order), start=d - 1):
            degrees.append(k)
            if k == corrupt:
                rows[-1][-1] += 1
            yield scale, rows

    monkeypatch.setattr(decide_module, "_integer_blocks", recording)
    return degrees


def _prefix_rows(d, k):
    """Rows of the ungauged prefix of equation degrees d-1 .. k."""
    return sum(j + 1 for j in range(d - 1, k + 1))


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
    scans = _count_feeds(monkeypatch)
    outcome = decide(sigma, 5)
    assert outcome.gauge == "X0=0" and outcome.verdict == "feasible_up_to_M"
    d, order = outcome.lowest_degree, outcome.order
    # the column pass scans the gauge row, then every block once
    assert scans == [1] + [k + 1 for k in range(d - 1, order)]
    assert sum(scans) == integer_system(sigma, order).num_rows + 1


def test_refuted_decide_stops_at_the_failing_prefix(monkeypatch):
    sigma = _guarded_refutable_form()
    scans = _count_feeds(monkeypatch)
    outcome = decide(sigma, 21)
    k, d = outcome.failing_degree, outcome.lowest_degree
    assert outcome.verdict == "infeasible" and k == 20
    assert scans == [1] + [j + 1 for j in range(d - 1, k + 1)]
    assert sum(scans) == outcome.failing_system.num_rows


def test_refutation_cost_follows_the_failing_degree(monkeypatch):
    # order 27: the full ungauged system has 225 rows, but the column pass
    # scans the gauge row and each block through the failing degree 20 once,
    # and none above; its 18-row degree d-1 block already picks the gauge.
    # The blocks above degree 20 are never built
    sigma = _guarded_refutable_form(truncation=28)
    scans = _count_feeds(monkeypatch)
    built = _record_blocks(monkeypatch)
    outcome = decide(sigma, 27)
    d = outcome.lowest_degree
    assert outcome.verdict == "infeasible" and outcome.failing_degree == 20
    assert verify_farkas(outcome.failing_system, outcome.certificate)
    assert integer_system(sigma, 27).num_rows == 225
    assert built == list(range(d - 1, 21))
    assert scans == [1] + [k + 1 for k in range(d - 1, 21)]
    assert sum(scans) == _prefix_rows(d, 20) + 1


@pytest.mark.parametrize("corrupt", [17, 20, 21, 26])
def test_self_test_checks_each_block_the_scan_reaches(monkeypatch, corrupt):
    """A block the constant candidate does not solve stops the decider once
    the scan reaches it; above the failing degree 20 the scan never does.
    The pair check scans the blocks through degree d+2 = 20 the same way."""
    sigma = _guarded_refutable_form(truncation=28)
    c, zero = series_x(4), zero_series(4)
    _record_blocks(monkeypatch, corrupt)
    if corrupt <= 20:
        with pytest.raises(AssertionError, match="constant-candidate self-test failed"):
            decide(sigma, 27)
        with pytest.raises(AssertionError, match="constant-candidate self-test failed"):
            obstruction_pair_check(sigma, c, zero)
        return
    outcome = decide(sigma, 27)
    assert outcome.verdict == "infeasible" and outcome.failing_degree == 20
    assert verify_farkas(outcome.failing_system, outcome.certificate)
    assert obstruction_pair_check(sigma, c, zero)["second"] == {"feasible": False}


def test_ungauged_decide_solves_each_prefix_once(monkeypatch):
    sigma = _radial_form()
    scans = _count_feeds(monkeypatch)
    outcome = decide(sigma, 3)
    assert outcome.gauge == "none"
    # no prefix forces (Y0, Z0), so the scan goes through every block once,
    # up to the full system, and each prefix's ungauged kernel gives its
    # record of the staged view
    assert scans == [1] + [k + 1 for k in range(outcome.lowest_degree - 1, outcome.order)]
    assert sum(scans) == integer_system(sigma, 3).num_rows + 1
    assert len(outcome.staged) == len(scans) - 1


def test_dependent_leading_pair_scans_every_prefix(monkeypatch):
    # x^2 dx + y^3 dy: B_2 = 0, so the leading pair is dependent; the degree
    # 1 .. 2 prefix already forces (Y0, Z0) = (0, 0), but no gauge follows
    sigma = form(S(2, 5, {2: {(2, 0): 1}}), S(2, 5, {3: {(0, 3): 1}}))
    scans = _count_feeds(monkeypatch)
    outcome = decide(sigma, 4)
    assert outcome.verdict == "feasible_up_to_M"
    assert outcome.branch == "open_degree0" and outcome.gauge == "none"
    assert ("degree-0 coefficients forced but the leading pair is dependent; "
            "refutation path disabled") in outcome.notes
    assert [rec.through_degree for rec in outcome.staged] == [1, 2, 3]
    assert list(itertools.accumulate(scans)) == [1] + [_prefix_rows(2, k) + 1
                                                       for k in (1, 2, 3)]
    assert verify_potential(outcome.witness.phi, sigma, 4)


@pytest.mark.parametrize("sigma, order", [(_gradient_form(), 5), (_radial_form(), 3)],
                         ids=["gauged", "ungauged"])
def test_staged_blocks_match_each_prefix_solution(sigma, order):
    outcome = decide(sigma, order)
    d = outcome.lowest_degree
    system = integer_system(sigma, order)
    for rec in outcome.staged:
        prefix = prefix_through(system, rec.through_degree)
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


def test_pair_check_matches_the_solution_set_functional():
    """Each stage of the pair check is the range of the functional
    2 Z:2,0 - 2 Y:0,2 over the solution set of the gauged prefix, on builds
    d = 4..8 and d = 18 with zero and nonzero obstruction."""
    zero, x = zero_series(3), series_x(3)
    shifted = S(2, 3, {0: {(0, 0): 2}, 1: {(1, 0): 1}}), S(2, 3, {0: {(0, 0): 3},
                                                               1: {(0, 1): -1}})
    cases = [(d, c, dd) for d in range(4, 9) for c, dd in ((x, zero), shifted)]
    cases += [(18, x, zero), (18, zero, zero)]
    seen = set()
    for d, c, dd in cases:
        sigma, _ = build(Instance(d=d, N=d + 4, C=c, D=dd, seed=2))
        out = obstruction_pair_check(sigma, c, dd)
        system = integer_system(sigma, d + 3)
        functional = {system.column_labels.index("Z:2,0"): FR(2),
                      system.column_labels.index("Y:0,2"): FR(-2)}
        for key, through in (("first", d + 1), ("second", d + 2)):
            solved = fraction_solve_affine(with_gauge(prefix_through(system, through)))
            if isinstance(solved, FarkasCertificate):
                assert out[key] == {"feasible": False}
                continue
            forced, value = functional_range(solved, functional)
            assert out[key] == {"feasible": True, "forced": forced,
                                "value": value if forced else None}
            seen.add(forced)
    assert seen == {True, False}


@pytest.mark.parametrize("case", range(5))
def test_integer_stage_records_match_the_fraction_records(case):
    sigma, order = [(_gradient_form(), 5), (_radial_form(), 3),
                    (_build_generic(4, 9, seed=3, c_parts={1: {(1, 0): 1}}), 8),
                    (_build_generic(6, 10, seed=2), 9),
                    (_guarded_refutable_form(), 21)][case]
    outcome = decide(sigma, order)
    d = outcome.lowest_degree
    system = integer_system(sigma, order)
    assert outcome.staged
    for rec in outcome.staged:
        prefix = prefix_through(system, rec.through_degree)
        solved = fraction_solve_affine(with_gauge(prefix) if outcome.gauge == "X0=0"
                                       else prefix)
        if not rec.feasible:
            assert not isinstance(solved, SolutionSet)
            continue
        assert rec == fraction_stage_record(system, d, order, rec.through_degree, solved)


@st.composite
def candidate_block_systems(draw):
    """(top, blocks): integer blocks, each at scale 1, in the decider's
    column layout over unknown degrees 0 .. top, every row solved by the
    constant candidate X0 = W0 = -1 (its rhs is minus its X0 and W0
    entries).  Sparse entries leave columns untouched for a while; a row
    X0 = -1, when drawn, makes every gauged prefix from its block on
    inconsistent."""
    top = draw(st.integers(0, 2))
    n = decide_module._num_columns(top)
    x0, w0 = decide_module._column("X", (0, 0)), decide_module._column("W", (0, 0))
    entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, -3])
    blocks = []
    for _ in range(top + 1):
        rows = [draw(st.lists(entry, min_size=n, max_size=n))
                for _ in range(draw(st.integers(1, 4)))]
        blocks.append((1, [row + [-row[x0] - row[w0]] for row in rows]))
    if draw(st.booleans()):
        blocks[draw(st.integers(0, top))][1].append([int(c == x0) for c in range(n)] + [-1])
    return top, blocks


@settings(deadline=None, max_examples=200)
@given(candidate_block_systems())
def test_kernel_read_prefixes_match_the_fraction_solve(case):
    """At every block boundary of one column pass over the gauge row and the
    blocks, the gauged kernel and the ungauged one (the gauged kernel with
    the constant candidate) give the staged record of the prefix's Fraction
    solution set, gauged and ungauged, and a unit point of it whenever the
    Fraction search finds one; an inconsistent prefix has no solution set."""
    top, blocks = case
    d = 2
    system = _block_system(blocks, d, top)
    n, labels = system.num_cols, system.column_labels
    basis = linalg.RowBasis(n)
    basis.extend([decide_module._gauge_row(n)])
    for k, (_, rows) in enumerate(blocks, start=d - 1):
        basis.extend(rows)
        kernel, touched = basis.kernel(), set(basis.columns)
        prefix = prefix_through(system, k)
        for view, reference in ((kernel, with_gauge(prefix)),
                                (decide_module._with_candidate(kernel, touched, n), prefix)):
            solved = fraction_solve_affine(reference)
            if not isinstance(solved, SolutionSet):
                assert view is kernel and not basis.consistent
                assert decide_module._solutions(basis, view) is None
                continue
            record = decide_module._stage_record(k, view, touched, top, labels)
            assert record == fraction_stage_record(system, d, d + top, k, solved)
            unit = find_unit_solution(*decide_module._solutions(basis, view))
            assert (unit is None) == (fraction_find_unit_solution(solved) is None)
            if unit is not None:
                assert unit_value(unit) != 0
                assert not any(residual(reference, unit))
