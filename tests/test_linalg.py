"""Exact affine solving: solve/certificate dichotomy and rank oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms import linalg
from acforms.construct import Instance, build
from acforms.decide import _prefix, assemble_system, with_gauge
from acforms.linalg import (AffineSystem, FarkasCertificate, SolutionSet,
                            functional_range, matrix_rank,
                            project_solution_set, residual, sample_generic,
                            solve_affine, verify_farkas)
from acforms.poly import OneForm, TruncSeries
from conftest import H, S, zero_series
from oracles import fraction_matrix_rank, fraction_solve_affine, rref_rank

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
@given(systems(), st.integers(0, 5))
def test_sampled_points_solve_the_system(system, seed):
    out = solve_affine(system)
    if isinstance(out, SolutionSet):
        point = sample_generic(out, seed=seed)
        assert all(v == 0 for v in residual(system, point))
        assert point == sample_generic(out, seed=seed)


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


@settings(deadline=None, max_examples=150)
@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=6))
def test_matrix_rank_matches_brute_elimination(rows):
    assert matrix_rank(rows) == rref_rank(rows)


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
    assert matrix_rank(rows) == fraction_matrix_rank(rows) == rref_rank(rows)


def test_certificate_that_fails_its_check_is_an_error(monkeypatch):
    monkeypatch.setattr(linalg, "verify_farkas", lambda system, cert: False)
    with pytest.raises(AssertionError, match="own check"):
        solve_affine(_sys([[1, 1], [2, 2]], [1, 3]))


def test_real_d6_prefix_infeasible_matches_oracle():
    """A built d = 6 form whose leading pair is made non-closed by y^6 in A.

    Every gauged prefix of its system is then inconsistent, starting at
    degree d - 1; the full prefix through degree 8 is 31 x 40 with a left
    null space of dimension 3.
    """
    sigma, _ = build(Instance(d=6, N=10, C=S(2, 3, {1: {(1, 0): 1}}),
                              D=zero_series(3), seed=1))
    a, b = sigma.components
    bump = TruncSeries(2, a.trunc_order, {6: H(2, 6, {(0, 6): 1})})
    system = with_gauge(_prefix(assemble_system(OneForm((a.add(bump), b)), 9), 6, 8))
    assert (system.num_rows, system.num_cols) == (31, 40)
    assert system.num_rows - matrix_rank(system.matrix) == 3
    _assert_matches_oracle(system)
    assert isinstance(solve_affine(system), FarkasCertificate)
