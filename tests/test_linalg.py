"""Exact affine solving: solve/certificate dichotomy and rank oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms import linalg
from acforms.construct import Instance, build
from acforms.decide import with_gauge
from acforms.linalg import (AffineSystem, FarkasCertificate, farkas_certificate, matrix_rank,
                            verify_farkas)
from acforms.poly import OneForm, TruncSeries
import oracles
from conftest import H, S, zero_series
# `solve_affine` and `echelon_solution` run the integer kernel and read its
# reduced rows into a `SolutionSet`
from oracles import (SolutionSet, echelon_solution, fraction_matrix_rank, fraction_solve_affine,
                     fraction_system, fraction_verify_farkas, fraction_view, functional_range,
                     in_span,
                     integer_system, prefix_through, project_solution_set,
                     reduced_form_certificate, residual, rref_rank, scaled_row, solve_affine)

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
    return fraction_system(_rows(draw, rows, cols), _rows(draw, 1, rows)[0],
                           [f"u{i}" for i in range(cols)])


def _sys(matrix, rhs, labels=None):
    matrix = [[Fraction(v) for v in row] for row in matrix]
    labels = labels or [f"u{i}" for i in range(len(matrix[0]))]
    return fraction_system(matrix=matrix, rhs=[Fraction(v) for v in rhs],
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
    out = solve_affine(fraction_system(matrix=[], rhs=[], column_labels=["a", "b"]))
    assert isinstance(out, SolutionSet)
    assert out.dimension == 2


# --- rank and span helpers ---------------------------------------------------


def _scaled_rows(rows):
    """Each row times the lcm of its denominators, as integers, for `matrix_rank`."""
    return [scaled_row(row)[1] for row in rows]


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
    return fraction_system([matrix[i] for i in order], [rhs[i] for i in order],
                           [f"u{i}" for i in range(cols)])


def _assert_certificate(system, cert):
    assert isinstance(cert, FarkasCertificate)
    assert verify_farkas(system, cert)
    # the transposed solve normalises the combination of right-hand sides to 1
    assert sum((u * b for u, b in zip(cert.row_combination, fraction_view(system)[1])), Fraction(0)) == 1


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
    assert system.num_rows - rref_rank(fraction_view(system)[0]) >= 2
    assert isinstance(fraction_solve_affine(system), FarkasCertificate)
    _assert_certificate(system, solve_affine(system))


@settings(deadline=None, max_examples=200)
@given(matrices())
def test_rank_matches_fraction_oracle(rows):
    assert matrix_rank(_scaled_rows(rows)) == fraction_matrix_rank(rows) == rref_rank(rows)


# --- the forward pass fed block by block ----------------------------------------


def _integer_rows(system):
    """Copies of the stored integer rows of [matrix | rhs]."""
    return [list(row) for row in system.rows]


def _prefix(system, end):
    return AffineSystem(system.rows[:end], system.scales[:end], system.column_labels)


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
    """The genericity guard's join pattern: each block goes after the pivot
    rows of the blocks before it, the forward pass runs over every column
    again, and the rows past the pivots are dropped.  At every boundary the
    pivots give the prefix's ranks and consistency, and its solution set is
    the Fraction solver's."""
    system, bounds = case
    n = system.num_cols
    rows = _integer_rows(system)
    fed = [list(row) for row in rows]
    held: list[list[int]] = []
    for start, end in zip(bounds, bounds[1:]):
        held += fed[start:end]
        pivots = linalg._echelon(held, n + 1)
        del held[len(pivots):]
        prefix = _prefix(system, end)
        matrix_pivots = [p for p in pivots if p < n]
        matrix, rhs = fraction_view(prefix)
        assert len(pivots) == rref_rank([row + [b] for row, b in zip(matrix, rhs)])
        assert len(matrix_pivots) == rref_rank(matrix)
        ref = fraction_solve_affine(prefix)
        out = solve_affine(prefix)
        consistent = matrix_pivots == pivots
        assert consistent == isinstance(ref, SolutionSet) == isinstance(out, SolutionSet)
        if consistent:
            assert echelon_solution(held, pivots, n) == out == ref
            num, den = linalg._back_substitute(held, pivots, n)
            assert [Fraction(x, den) for x in num] == ref.particular
        else:
            with pytest.raises(ValueError):
                echelon_solution(held, matrix_pivots, n)
    assert fed == rows


small = st.integers(-3, 3)


@st.composite
def integer_systems(draw):
    """Integer rows of [matrix | rhs], tall or wide, with the matrix a
    product of a rows-by-r and an r-by-columns factor so that its rank is
    at most r; the rhs is the matrix times an integer point, or else
    arbitrary, and then mostly inconsistent when the rank is deficient."""
    count, cols = draw(st.integers(0, 8)), draw(st.integers(0, 6))
    r = draw(st.integers(0, min(count, cols)))
    left = [draw(st.lists(small, min_size=r, max_size=r)) for _ in range(count)]
    right = [draw(st.lists(small, min_size=cols, max_size=cols)) for _ in range(r)]
    matrix = [[sum(a * b for a, b in zip(row, column)) for column in zip(*right)] if r else
              [0] * cols for row in left]
    if draw(st.booleans()):
        point = draw(st.lists(small, min_size=cols, max_size=cols))
        rhs = [sum(a * x for a, x in zip(row, point)) for row in matrix]
    else:
        rhs = draw(st.lists(small, min_size=count, max_size=count))
    return [row + [b] for row, b in zip(matrix, rhs)], cols


@settings(deadline=None, max_examples=300)
@given(integer_systems())
def test_echelon_and_back_substitution_ignore_row_order(case):
    """The forward pass over the rows and over the rows reversed finds the
    same pivot columns and the same verdict, and back-substitution the same
    point, the Fraction solver's with free coordinates zero: a membership
    stage eliminates its rows last monomial first on this."""
    rows, n = case
    ref = fraction_solve_affine(fraction_system(
        [[Fraction(v) for v in row[:n]] for row in rows], [Fraction(row[n]) for row in rows],
        [f"u{i}" for i in range(n)]))
    answers = []
    for ordered in (list(rows), rows[::-1]):
        pivots = linalg._echelon(ordered, n)
        consistent = not any(row[n] for row in ordered[len(pivots):])
        point = None
        if consistent:
            num, den = linalg._back_substitute(ordered, pivots, n)
            point = [Fraction(x, den) for x in num]
        answers.append((pivots, consistent, point))
    assert answers[0] == answers[1]
    _, consistent, point = answers[0]
    assert consistent == isinstance(ref, SolutionSet)
    if consistent:
        assert point == ref.particular


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
    return with_gauge(prefix_through(integer_system(OneForm((a.add(bump), b)), 9), 8))


def test_real_d6_prefix_infeasible_matches_oracle():
    system = _d6_prefix()
    assert (system.num_rows, system.num_cols) == (31, 40)
    assert system.num_rows - matrix_rank(_scaled_rows(fraction_view(system)[0])) == 3
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
    reduce = oracles._reduce
    monkeypatch.setattr(oracles, "_reduce", lambda *args: calls.append(1) or reduce(*args))
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
    basis = linalg.RowBasis(system.num_cols)
    for start, end in zip(bounds, bounds[1:]):
        new = basis.extend(rows[start:end])
        assert new == [i for i in range(start, end)
                       if rref_rank(rows[:i + 1]) > rref_rank(rows[:i])]
        prefix = _prefix(system, end)
        ref = reduced_form_certificate(prefix)
        assert basis.consistent == (ref is None)
        if ref is not None:
            cert = farkas_certificate(prefix, *basis.combination(end))
            assert cert == ref
    assert rows == _integer_rows(system)


@settings(deadline=None, max_examples=200)
@given(blocked_systems())
def test_solution_set_from_basis_rows_equals_all_rows(case):
    """The rows the column pass keeps have the solution set of every row,
    at every consistent boundary.  The column pass's kernel, with the unit
    vectors of the untouched columns, is a basis of the prefix's kernel,
    and the point `read_off` reads off it solves the prefix, with directions
    that span the Fraction solver's nullspace."""
    system, bounds = case
    n = system.num_cols
    rows = _integer_rows(system)
    basis = linalg.RowBasis(n)
    kept_rows: list[list[int]] = []
    for start, end in zip(bounds, bounds[1:]):
        kept_rows += [rows[i] for i in basis.extend(rows[start:end])]
        kept = AffineSystem(kept_rows, [1] * len(kept_rows), system.column_labels)
        prefix = _prefix(system, end)
        units = [[int(i == c) for i in range(n + 1)] for c in range(n) if c not in basis.columns]
        kernel = basis.kernel() + units
        matrix, rhs = fraction_view(prefix)
        assert len(kernel) == n + 1 - rref_rank([row + [b] for row, b in zip(matrix, rhs)])
        assert all(sum(x * t for x, t in zip(row, v)) == 0 for row in rows[:end] for v in kernel)
        solutions = linalg.read_off(kernel)
        kept_out, full_out = solve_affine(kept), solve_affine(prefix)
        assert (isinstance(kept_out, SolutionSet) == isinstance(full_out, SolutionSet)
                == basis.consistent == (solutions is not None))
        if not basis.consistent:
            break
        assert rref_rank(fraction_view(kept)[0]) == rref_rank(matrix) == len(basis.pivots)
        ref = fraction_solve_affine(prefix)
        assert kept_out == full_out == ref
        p, directions = solutions
        assert not any(residual(prefix, [Fraction(-x, p[n]) for x in p[:n]]))
        assert not any(t[n] for t in directions)
        vectors = [[Fraction(x) for x in t[:n]] for t in directions]
        assert rref_rank(vectors) == len(ref.nullspace_basis)
        assert all(in_span(vectors, v) for v in ref.nullspace_basis)


def test_certificate_of_an_early_prefix_survives_later_scans():
    # the first two rows are inconsistent; scanning on leaves their
    # certificate as it was
    system = _sys([[1, 1], [2, 2], [1, 0], [0, 1]], [1, 3, 0, 0])
    rows = _integer_rows(system)
    basis = linalg.RowBasis(2)
    assert basis.extend(rows[:2]) == [0, 1] and not basis.consistent
    early = basis.combination(2)
    assert basis.extend(rows[2:]) == [2]
    assert basis.combination(2) == early
    cert = farkas_certificate(_prefix(system, 2), *early)
    assert cert == reduced_form_certificate(_prefix(system, 2))
