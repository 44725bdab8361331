"""Decision pipeline: system assembly, guard, unit search, reconstruction."""

import importlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import acforms
from acforms import ideals, linalg
from acforms.construct import Instance, build
from acforms.decide import (GAUGE_ROW_LABEL, UNKNOWN_NAMES,
                            ClosednessError, assemble_system,
                            closed_extension_order, closedness_residual,
                            decide, find_unit_solution, genericity_guard,
                            integrate_closed, obstruction,
                            obstruction_pair_check, scaled_pair,
                            staged_report, tilde_transform,
                            verify_potential, with_gauge, _fraction_view,
                            _integer_blocks)
from acforms.linalg import (AffineSystem, SolutionSet, functional_range,
                            solve_affine, verify_farkas)
from acforms.poly import MismatchError, OneForm, TruncSeries, monomials
from acforms.prng import Stream
from conftest import H, S, form, series_x, zero_series
from oracles import (dict_component, fraction_assemble_system, fraction_solve_affine,
                     fraction_stage_record, poly_add, poly_mul, poly_partial,
                     poly_scale, prefix_through, residual, rref_rank, series_dict,
                     trivial_solution)

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
    sigma = _gradient_form()
    system = assemble_system(sigma, 4)
    gauged = with_gauge(system)
    assert gauged.row_labels[-1] == GAUGE_ROW_LABEL
    assert gauged.rhs[-1] == 0
    assert gauged.num_rows == system.num_rows + 1
    prefix = with_gauge(prefix_through(system, 2))
    assert GAUGE_ROW_LABEL in prefix.row_labels
    degrees = [int(lbl[3:lbl.index(":")]) for lbl in prefix.row_labels
               if not lbl.startswith("gauge:")]
    assert degrees and max(degrees) <= 2
    # the Fraction view of the first blocks is the prefix through their
    # degrees, with the columns of the whole system
    blocks = _integer_blocks(sigma, 2, 4)
    for k in range(1, 4):
        assert _fraction_view(blocks[:k], 2, 2) == prefix_through(system, k)
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
    assert assemble_system(sigma, order) == reference
    blocks = _integer_blocks(sigma, d, order)
    assert [len(rows) for _, rows in blocks] == [k + 1 for k in range(d - 1, order)]
    rows = [(scale, row) for scale, block in blocks for row in block]
    assert len(rows) == reference.num_rows
    for (scale, row), matrix_row, b in zip(rows, reference.matrix, reference.rhs):
        assert scale > 0 and all(type(v) is int for v in row)
        assert [FR(v, scale) for v in row] == matrix_row + [b]


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
    # the particular point fails the unit condition; the search still
    # returns a point of the solution set on which it holds
    system = _degree0_system([[1, 0, 0, 0]], [-1])
    solved = solve_affine(system)
    assert isinstance(solved, SolutionSet)
    assert _unit_value(solved.particular) == 0
    point = find_unit_solution(solved)
    assert point is not None
    assert _unit_value(point) != 0
    assert all(r == 0 for r in residual(system, point))


def test_unit_search_symbolic_path_with_zero_budget():
    # particular fails: the expanded quadratic names at most two surviving
    # weights and the {-1,0,1} grid over them produces a nonzero value
    solved = solve_affine(_degree0_system([[1, 0, 0, 0]], [-1]))
    assert isinstance(solved, SolutionSet)
    point = find_unit_solution(solved)
    assert point is not None
    assert _unit_value(point) != 0
    m = len(solved.nullspace_basis)
    grid_points = [solved.point([FR(g) for g in weights])
                   for weights in itertools.product((-1, 0, 1), repeat=m)
                   if sum(1 for g in weights if g) <= 2]
    assert point in grid_points
    assert find_unit_solution(solved) == point


def test_unit_search_takes_good_particular_immediately():
    solved = solve_affine(_degree0_system([[1, 0, 0, 0]], [0]))
    assert isinstance(solved, SolutionSet)
    point = find_unit_solution(solved)
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


def _guarded_refutable_form(truncation=22):
    """The first guard-passing d=18 build with C = x."""
    for seed in range(1, 30):
        sigma = _build_generic(18, truncation, seed=seed, c_parts={1: {(1, 0): 1}})
        if genericity_guard(sigma).passed:
            return sigma
    raise AssertionError("no guard-passing seed in range")


def _count_feeds(monkeypatch, sigma, order):
    """Record what the decider eliminates over the columns of the assembled
    system: the row count of every scan of the column pass, and for each
    primal echelon the row count of every block fed to it.  Every row fed
    to a primal echelon must raise its rank, and any call of `solve_affine`
    fails the test."""
    num_cols = assemble_system(sigma, order).num_cols
    scans: list[int] = []
    echelons: list[list[int]] = []

    class CountingBasis(linalg.RowBasis):
        def extend(self, count):
            scans.append(count)
            return super().extend(count)

    class Counting(linalg.Echelon):
        def __init__(self, ncols):
            super().__init__(ncols)
            self.fed: list[int] = []
            if ncols == num_cols:
                echelons.append(self.fed)

        def extend(self, rows):
            rank = self.rank
            super().extend(rows)
            if self.ncols == num_cols:
                assert self.rank == rank + len(rows), "a dependent row reached the primal"
                self.fed.append(len(rows))

    def no_solve(system):
        raise AssertionError("the decider called solve_affine")

    monkeypatch.setattr(decide_module, "RowBasis", CountingBasis)
    monkeypatch.setattr(decide_module, "Echelon", Counting)
    for module in (acforms, linalg, ideals, decide_module):
        if hasattr(module, "solve_affine"):
            monkeypatch.setattr(module, "solve_affine", no_solve)
    return scans, echelons


def _prefix_rows(d, k):
    """Rows of the ungauged prefix of equation degrees d-1 .. k."""
    return sum(j + 1 for j in range(d - 1, k + 1))


def _block_ranks(sigma, order, gauge, through):
    """Rank gained by each equation-degree block through `through`, after
    the gauge row if `gauge`: the size of that block's row basis on a
    consistent prefix."""
    system = assemble_system(sigma, order)
    head = [[FR(int(c == 0)) for c in range(system.num_cols)]] if gauge else []
    ranks = [rref_rank(head + prefix_through(system, k).matrix)
             for k in range(sigma.lowest_degree() - 2, through + 1)]
    return [b - a for a, b in zip(ranks, ranks[1:])]


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
    scans, echelons = _count_feeds(monkeypatch, sigma, 5)
    outcome = decide(sigma, 5)
    assert outcome.gauge == "X0=0" and outcome.verdict == "feasible_up_to_M"
    d, order = outcome.lowest_degree, outcome.order
    # the column pass scans the gauge row, then every block once
    assert scans == [1] + [k + 1 for k in range(d - 1, order)]
    assert sum(scans) == assemble_system(sigma, order).num_rows + 1
    # the degree d-1 block already forces (Y0, Z0) and picks the gauge; each
    # primal echelon gets the basis rows of the blocks it needs, the gauged
    # one the gauge row first, so unit search needs no further elimination
    ungauged, gauged = echelons
    assert ungauged == _block_ranks(sigma, order, False, d - 1)
    assert gauged == [1] + _block_ranks(sigma, order, True, order - 1)


def test_refuted_decide_stops_at_the_failing_prefix(monkeypatch):
    sigma = _guarded_refutable_form()
    scans, echelons = _count_feeds(monkeypatch, sigma, 21)
    outcome = decide(sigma, 21)
    k, d = outcome.failing_degree, outcome.lowest_degree
    assert outcome.verdict == "infeasible" and k == 20
    assert scans == [1] + [j + 1 for j in range(d - 1, k + 1)]
    assert sum(scans) == outcome.failing_system.num_rows
    # the failing block is caught by the column pass and never reaches the
    # primal, which gets the gauge row and the row basis of the blocks below
    ungauged, gauged = echelons
    assert ungauged == _block_ranks(sigma, 21, False, d - 1)
    assert gauged == [1] + _block_ranks(sigma, 21, True, k - 1)


def test_refutation_cost_follows_the_failing_degree(monkeypatch):
    # order 27: the full ungauged system has 225 rows, but the column pass
    # scans the gauge row and each block through the failing degree 20 once,
    # and none above; its 18-row degree d-1 block already picks the gauge
    sigma = _guarded_refutable_form(truncation=28)
    scans, echelons = _count_feeds(monkeypatch, sigma, 27)
    outcome = decide(sigma, 27)
    d = outcome.lowest_degree
    assert outcome.verdict == "infeasible" and outcome.failing_degree == 20
    assert verify_farkas(outcome.failing_system, outcome.certificate)
    assert assemble_system(sigma, 27).num_rows == 225
    assert scans == [1] + [k + 1 for k in range(d - 1, 21)]
    assert sum(scans) == _prefix_rows(d, 20) + 1
    assert echelons == [_block_ranks(sigma, 27, False, d - 1),
                        [1] + _block_ranks(sigma, 27, True, 19)]


def test_ungauged_decide_solves_each_prefix_once(monkeypatch):
    sigma = _radial_form()
    scans, echelons = _count_feeds(monkeypatch, sigma, 3)
    outcome = decide(sigma, 3)
    assert outcome.gauge == "none"
    # no prefix forces (Y0, Z0), so the scan goes through every block once,
    # up to the full system, and the one primal echelon gets each block's
    # row basis; its records are the staged view
    assert scans == [1] + [k + 1 for k in range(outcome.lowest_degree - 1, outcome.order)]
    assert sum(scans) == assemble_system(sigma, 3).num_rows + 1
    [fed] = echelons
    assert fed == _block_ranks(sigma, 3, False, outcome.order - 1)
    assert len(outcome.staged) == len(fed)


def test_dependent_leading_pair_scans_every_prefix(monkeypatch):
    # x^2 dx + y^3 dy: B_2 = 0, so the leading pair is dependent; the degree
    # 1 .. 2 prefix already forces (Y0, Z0) = (0, 0), but no gauge follows
    sigma = form(S(2, 5, {2: {(2, 0): 1}}), S(2, 5, {3: {(0, 3): 1}}))
    scans, echelons = _count_feeds(monkeypatch, sigma, 4)
    outcome = decide(sigma, 4)
    assert outcome.verdict == "feasible_up_to_M"
    assert outcome.branch == "open_degree0" and outcome.gauge == "none"
    assert ("degree-0 coefficients forced but the leading pair is dependent; "
            "refutation path disabled") in outcome.notes
    assert [rec.through_degree for rec in outcome.staged] == [1, 2, 3]
    assert list(itertools.accumulate(scans)) == [1] + [_prefix_rows(2, k) + 1
                                                       for k in (1, 2, 3)]
    [fed] = echelons
    assert fed == _block_ranks(sigma, 4, False, 3)
    assert verify_potential(outcome.witness.phi, sigma, 4)


@pytest.mark.parametrize("sigma, order", [(_gradient_form(), 5), (_radial_form(), 3)],
                         ids=["gauged", "ungauged"])
def test_staged_blocks_match_each_prefix_solution(sigma, order):
    outcome = decide(sigma, order)
    d = outcome.lowest_degree
    system = assemble_system(sigma, order)
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


@pytest.mark.parametrize("case", range(5))
def test_integer_stage_records_match_the_fraction_records(case):
    sigma, order = [(_gradient_form(), 5), (_radial_form(), 3),
                    (_build_generic(4, 9, seed=3, c_parts={1: {(1, 0): 1}}), 8),
                    (_build_generic(6, 10, seed=2), 9),
                    (_guarded_refutable_form(), 21)][case]
    outcome = decide(sigma, order)
    d = outcome.lowest_degree
    system = assemble_system(sigma, order)
    assert outcome.staged
    for rec in outcome.staged:
        prefix = prefix_through(system, rec.through_degree)
        solved = fraction_solve_affine(with_gauge(prefix) if outcome.gauge == "X0=0"
                                       else prefix)
        if not rec.feasible:
            assert not isinstance(solved, SolutionSet)
            continue
        assert rec == fraction_stage_record(system, d, order, rec.through_degree, solved)
