"""Exact affine solving: solve/certificate dichotomy and rank oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms import linalg
from acforms.construct import Instance, build
from acforms.decide import assemble_system, with_gauge
from acforms.linalg import (AffineSystem, FarkasCertificate, SolutionSet,
                            farkas_certificate, functional_range, matrix_rank,
                            solve_affine, verify_farkas)
from acforms.poly import OneForm, TruncSeries
from conftest import H, S, zero_series
from oracles import (fraction_matrix_rank, fraction_solve_affine, fraction_verify_farkas,
                     prefix_through, project_solution_set, reduced_form_certificate,
                     residual, rref_rank)

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=2)
# zeros, small fractions and entries with denominators up to 10^6
entries = st.one_of(st.just(Fraction(0)), fractions,
                    st.fractions(min_value=-10**6, max_value=10**6,
                                 max_denominator=10**6))


def _rows(draw, count, cols):
    """`count` rows of width `cols`, some of them entirely zero."""
    zero_row = st.just([Fraction(0)] * cols)
    row = st.lists(entries, min_size=cols, max_size=cols)
    return [draw(st.one_of(zero_row, row, row)) for _ in range(count)]


@st.composite
def systems(draw, max_rows=6, max_cols=5):
    """Possibly empty systems: no rows, or rows of width zero."""
    cols = draw(st.integers(0, max_cols))
    rows = draw(st.integers(0, max_rows))
    return AffineSystem(matrix=_rows(draw, rows, cols), rhs=_rows(draw, 1, rows)[0],
                        column_labels=[f"u{i}" for i in range(cols)])


def _sys(matrix, rhs, labels=None):
    matrix = [[Fraction(v) for v in row] for row in matrix]
    labels = labels or [f"u{i}" for i in range(len(matrix[0]))]
    return AffineSystem(matrix=matrix, rhs=[Fraction(v) for v in rhs],
                        column_labels=labels)


# --- dichotomy ---------------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(systems())
def test_solve_dichotomy(system):
    out = solve_affine(system)
    if isinstance(out, SolutionSet):
        assert all(v == 0 for v in residual(system, out.particular))
        for direction in out.nullspace_basis:
            shifted = [p + d for p, d in zip(out.particular, direction)]
            assert all(v == 0 for v in residual(system, shifted))
    else:
        assert isinstance(out, FarkasCertificate)
        assert verify_farkas(system, out)


@settings(deadline=None, max_examples=100)
@given(systems(), st.data())
def test_sampled_points_solve_the_system(system, data):
    out = solve_affine(system)
    if isinstance(out, SolutionSet):
        weights = data.draw(st.lists(st.integers(-9, 9), min_size=out.dimension,
                                     max_size=out.dimension))
        point = out.point([Fraction(w) for w in weights])
        assert all(v == 0 for v in residual(system, point))


# --- known systems -----------------------------------------------------------


def test_unique_solution():
    out = solve_affine(_sys([[1, 1], [1, -1]], [1, 1]))
    assert isinstance(out, SolutionSet)
    assert out.dimension == 0
    assert out.particular == [Fraction(1), Fraction(0)]


def test_underdetermined_line():
    out = solve_affine(_sys([[1, 1]], [2]))
    assert isinstance(out, SolutionSet)
    assert out.dimension == 1


def test_infeasible_gets_verified_certificate():
    system = _sys([[1, 1], [2, 2]], [1, 3])
    out = solve_affine(system)
    assert isinstance(out, FarkasCertificate)
    assert verify_farkas(system, out)
    # a wrong combination must not verify
    broken = FarkasCertificate(row_combination=[Fraction(1), Fraction(0)])
    assert not verify_farkas(system, broken)


def test_empty_rows_solve_trivially():
    out = solve_affine(AffineSystem(matrix=[], rhs=[], column_labels=["a", "b"]))
    assert isinstance(out, SolutionSet)
    assert out.dimension == 2


# --- rank and span helpers ---------------------------------------------------


def _scaled_rows(rows):
    """Each row times the lcm of its denominators, as integers, for `matrix_rank`."""
    return [linalg._scaled(row)[1] for row in rows]


@settings(deadline=None, max_examples=150)
@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=6))
def test_matrix_rank_matches_brute_elimination(rows):
    assert matrix_rank(_scaled_rows(rows)) == rref_rank(rows)


# --- solution-set geometry ---------------------------------------------------


def test_projection_and_functional_on_a_plane():
    # u0 + u1 = 1, u2 free
    system = _sys([[1, 1, 0]], [1], labels=["a", "b", "c"])
    out = solve_affine(system)
    assert isinstance(out, SolutionSet)
    dim, base = project_solution_set(out, [2])
    assert dim == 1
    dim, base = project_solution_set(out, [0, 1])
    assert dim == 1 and base == [1, 0]
    # a + b is forced to 1, a alone is not
    forced, value = functional_range(out, {0: Fraction(1), 1: Fraction(1)})
    assert forced and value == 1
    forced, _ = functional_range(out, {0: Fraction(1)})
    assert not forced


def test_point_reconstruction_from_weights():
    system = _sys([[1, 0], [0, 0]], [2, 0])
    out = solve_affine(system)
    assert isinstance(out, SolutionSet)
    assert out.dimension == 1
    point = out.point([Fraction(5)])
    assert all(v == 0 for v in residual(system, point))
    assert point[0] == 2


# --- differential tests against the original Fraction solver ---------------


@st.composite
def matrices(draw, max_rows=7, max_cols=6):
    """Possibly empty matrices: no rows, or rows of width zero."""
    cols = draw(st.integers(0, max_cols))
    return _rows(draw, draw(st.integers(0, max_rows)), cols)


@st.composite
def inconsistent_systems(draw, max_base=4, max_cols=5):
    """Base rows plus >= 2 rows dependent on them, the first with a shifted rhs.

    Each dependent row adds a dimension to the left null space, and the
    shift makes the system inconsistent.
    """
    cols = draw(st.integers(0, max_cols))
    base = _rows(draw, draw(st.integers(1, max_base)), cols)
    matrix = list(base)
    rhs = _rows(draw, 1, len(base))[0]
    base_rhs = list(rhs)
    for k in range(draw(st.integers(2, 3))):
        coeffs = _rows(draw, 1, len(base))[0]
        shift = draw(entries.filter(bool) if k == 0 else entries)
        matrix.append([sum((c * row[j] for c, row in zip(coeffs, base)), Fraction(0))
                       for j in range(cols)])
        rhs.append(sum((c * b for c, b in zip(coeffs, base_rhs)), Fraction(0)) + shift)
    order = draw(st.permutations(range(len(matrix))))
    return AffineSystem(matrix=[matrix[i] for i in order], rhs=[rhs[i] for i in order],
                        column_labels=[f"u{i}" for i in range(cols)])


def _assert_certificate(system, cert):
    assert isinstance(cert, FarkasCertificate)
    assert verify_farkas(system, cert)
    # the transposed solve normalises the combination of right-hand sides to 1
    assert sum((u * b for u, b in zip(cert.row_combination, system.rhs)), Fraction(0)) == 1


def _assert_matches_oracle(system):
    out = solve_affine(system)
    ref = fraction_solve_affine(system)
    if isinstance(ref, SolutionSet):
        assert isinstance(out, SolutionSet)
        assert out == ref
    else:
        assert verify_farkas(system, ref)
        _assert_certificate(system, out)


@settings(deadline=None, max_examples=200)
@given(systems())
def test_solve_matches_fraction_oracle(system):
    _assert_matches_oracle(system)


@settings(deadline=None, max_examples=150)
@given(inconsistent_systems())
def test_inconsistent_systems_with_wide_left_null_space(system):
    assert system.num_rows - rref_rank(system.matrix) >= 2
    assert isinstance(fraction_solve_affine(system), FarkasCertificate)
    _assert_certificate(system, solve_affine(system))


@settings(deadline=None, max_examples=200)
@given(matrices())
def test_rank_matches_fraction_oracle(rows):
    assert matrix_rank(_scaled_rows(rows)) == fraction_matrix_rank(rows) == rref_rank(rows)


# --- an echelon fed block by block ---------------------------------------------


def _integer_rows(system):
    return [linalg._scaled(list(row) + [b])[1] for row, b in zip(system.matrix, system.rhs)]


def _prefix(system, end):
    return AffineSystem(matrix=system.matrix[:end], rhs=system.rhs[:end],
                        column_labels=system.column_labels)


@st.composite
def blocked_systems(draw):
    """A system and cut points splitting its rows into consecutive blocks,
    some of them possibly empty."""
    system = draw(st.one_of(systems(), inconsistent_systems()))
    cuts = draw(st.lists(st.integers(0, system.num_rows), max_size=4))
    return system, [0, *sorted(cuts), system.num_rows]


@settings(deadline=None, max_examples=200)
@given(blocked_systems())
def test_echelon_fed_in_blocks_matches_each_prefix_solve(case):
    system, bounds = case
    rows = _integer_rows(system)
    fed = [list(row) for row in rows]
    echelon = linalg.Echelon(system.num_cols)
    for start, end in zip(bounds, bounds[1:]):
        echelon.extend(fed[start:end])
        prefix = _prefix(system, end)
        ref = fraction_solve_affine(prefix)
        out = solve_affine(prefix)
        assert echelon.consistent == isinstance(ref, SolutionSet) == isinstance(out, SolutionSet)
        assert echelon.rank == rref_rank(prefix.matrix)
        if echelon.consistent:
            assert echelon.solution() == out == ref
    assert fed == rows


def test_echelon_has_no_solution_set_once_inconsistent():
    echelon = linalg.Echelon(1)
    echelon.extend([[1, 1], [2, 3]])
    assert not echelon.consistent and echelon.rank == 1
    echelon.extend([[1, 1]])
    assert not echelon.consistent
    with pytest.raises(ValueError):
        echelon.solution()


def test_certificate_that_fails_its_check_is_an_error(monkeypatch):
    monkeypatch.setattr(linalg, "verify_farkas", lambda system, cert: False)
    with pytest.raises(AssertionError, match="own check"):
        solve_affine(_sys([[1, 1], [2, 2]], [1, 3]))


def _d6_prefix():
    """A built d = 6 form whose leading pair is made non-closed by y^6 in A.

    Every gauged prefix of its system is then inconsistent, starting at
    degree d - 1; the full prefix through degree 8 is 31 x 40 with a left
    null space of dimension 3.
    """
    sigma, _ = build(Instance(d=6, N=10, C=S(2, 3, {1: {(1, 0): 1}}),
                              D=zero_series(3), seed=1))
    a, b = sigma.components
    bump = TruncSeries(2, a.trunc_order, {6: H(2, 6, {(0, 6): 1})})
    return with_gauge(prefix_through(assemble_system(OneForm((a.add(bump), b)), 9), 8))


def test_real_d6_prefix_infeasible_matches_oracle():
    system = _d6_prefix()
    assert (system.num_rows, system.num_cols) == (31, 40)
    assert system.num_rows - matrix_rank(_scaled_rows(system.matrix)) == 3
    _assert_matches_oracle(system)
    assert isinstance(solve_affine(system), FarkasCertificate)


# --- the certificate path against the reduced-form certificate ---------------


def _assert_certificate_is_reduced_form(system):
    """Back-substitution gives exactly the vector the reduced form gives."""
    out = solve_affine(system)
    ref = reduced_form_certificate(system)
    if ref is None:
        assert isinstance(out, SolutionSet)
    else:
        assert out == ref


@settings(deadline=None, max_examples=200)
@given(st.one_of(systems(), inconsistent_systems()))
def test_certificate_equals_reduced_form_certificate(system):
    _assert_certificate_is_reduced_form(system)


def test_real_d6_prefix_certificate_equals_reduced_form_certificate():
    system = _d6_prefix()
    assert reduced_form_certificate(system) is not None
    _assert_certificate_is_reduced_form(system)


@st.composite
def candidate_certificates(draw):
    """A system with a kernel certificate, that certificate with one entry
    changed, or a random or all-zero row combination."""
    system = draw(st.one_of(systems(), inconsistent_systems()))
    m = system.num_rows
    kind = draw(st.sampled_from(["kernel", "mutated", "random", "zero"]))
    out = solve_affine(system)
    if kind in ("kernel", "mutated") and isinstance(out, FarkasCertificate):
        u = list(out.row_combination)
        if kind == "mutated" and m:
            i = draw(st.integers(0, m - 1))
            u[i] = draw(entries.filter(lambda v: v != u[i]))
    elif kind == "zero":
        u = [Fraction(0)] * m
    else:
        u = _rows(draw, 1, m)[0]
    return system, FarkasCertificate(u)


@settings(deadline=None, max_examples=300)
@given(candidate_certificates())
def test_verify_farkas_matches_fraction_check(candidate):
    system, certificate = candidate
    assert verify_farkas(system, certificate) == fraction_verify_farkas(system, certificate)


def test_certificate_path_skips_the_backward_pass(monkeypatch):
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce", lambda *args: calls.append(1) or reduce(*args))
    assert isinstance(solve_affine(_sys([[1, 1], [2, 2]], [1, 3])), FarkasCertificate)
    assert isinstance(solve_affine(_d6_prefix()), FarkasCertificate)
    assert calls == []
    assert isinstance(solve_affine(_sys([[1, 1], [1, -1]], [1, 1])), SolutionSet)
    assert calls == [1]


# --- the column pass ---------------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(blocked_systems())
def test_column_pass_finds_each_prefix_basis_and_certificate(case):
    """Fed block by block, the column pass picks the rows that raise the
    rank, and at every inconsistent boundary its certificate is the
    reduced-form certificate of the prefix."""
    system, bounds = case
    rows = _integer_rows(system)
    scales = [linalg._scaled(list(row) + [b])[0] for row, b in zip(system.matrix, system.rhs)]
    basis = linalg.RowBasis(rows, system.num_cols)
    for start, end in zip(bounds, bounds[1:]):
        new = basis.extend(end - start)
        assert new == [i for i in range(start, end)
                       if rref_rank(rows[:i + 1]) > rref_rank(rows[:i])]
        prefix = _prefix(system, end)
        ref = reduced_form_certificate(prefix)
        assert basis.consistent == (ref is None)
        if ref is not None:
            cert = farkas_certificate(prefix, scales[:end], *basis.combination(end))
            assert cert == ref
    assert rows == _integer_rows(system)


@settings(deadline=None, max_examples=200)
@given(blocked_systems())
def test_solution_set_from_basis_rows_equals_all_rows(case):
    """An echelon fed only the rows the column pass keeps has the solution
    set of one fed every row, at every consistent boundary."""
    system, bounds = case
    rows = _integer_rows(system)
    basis = linalg.RowBasis(rows, system.num_cols)
    kept, full = linalg.Echelon(system.num_cols), linalg.Echelon(system.num_cols)
    for start, end in zip(bounds, bounds[1:]):
        kept.extend([rows[i] for i in basis.extend(end - start)])
        full.extend(rows[start:end])
        assert kept.consistent == full.consistent == basis.consistent
        if not basis.consistent:
            break
        assert kept.rank == full.rank == len(basis.pivots)
        assert kept.solution() == full.solution() == fraction_solve_affine(_prefix(system, end))


def test_certificate_of_an_early_prefix_survives_later_scans():
    # the first two rows are inconsistent; scanning on leaves their
    # certificate as it was
    system = _sys([[1, 1], [2, 2], [1, 0], [0, 1]], [1, 3, 0, 0])
    rows = _integer_rows(system)
    basis = linalg.RowBasis(rows, 2)
    assert basis.extend(2) == [0, 1] and not basis.consistent
    early = basis.combination(2)
    assert basis.extend(2) == [2]
    assert basis.combination(2) == early
    cert = farkas_certificate(_prefix(system, 2), [1, 1], *early)
    assert cert == reduced_form_certificate(_prefix(system, 2))
