"""Exact affine linear algebra over the rationals.

One private integer kernel does every elimination.  Each row is scaled to
integers by the lcm of its denominators, and fraction-free elimination
(Bareiss 1968) replaces a row by p*row - f*pivot_row divided by its content,
so no Fraction arithmetic runs inside the loops.  The pivot rule is
deterministic: columns are scanned left to right and the first row at or
below the current one with a nonzero entry is used.  A forward pass gives
the row echelon form; Gauss-Jordan is completed by a backward pass that
clears the entries above each pivot, last pivot first.

* `solve_affine` reads its solution set off the reduced echelon form,
  which is unique, so the particular point and nullspace basis are
  determined by the system alone.  An inconsistent system, detected after
  the forward pass, gets a Farkas certificate, a row combination u with
  u.matrix = 0 and u.rhs = 1, from one exact solve of the transposed system;
  the certificate is checked by `verify_farkas` before it is returned.
* `matrix_rank` counts the pivots of a forward elimination.

Solution sets and their projections address columns by index; labels live
only on `AffineSystem`, where they are part of its JSON format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .prng import Stream


@dataclass
class AffineSystem:
    """matrix . v = rhs with labelled columns (and optionally rows)."""

    matrix: list[list[Fraction]]
    rhs: list[Fraction]
    column_labels: list[str]
    row_labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.rhs) != len(self.matrix):
            raise ValueError(f"{len(self.matrix)} rows but {len(self.rhs)} right-hand entries")
        for row in self.matrix:
            if len(row) != len(self.column_labels):
                raise ValueError(f"row width {len(row)} != {len(self.column_labels)} labels")
        if self.row_labels and len(self.row_labels) != len(self.matrix):
            raise ValueError("row label count mismatch")

    @property
    def num_rows(self) -> int:
        return len(self.matrix)

    @property
    def num_cols(self) -> int:
        return len(self.column_labels)


@dataclass
class SolutionSet:
    """Affine solution set: particular point plus a nullspace basis.

    Coordinates follow the columns of the solved system.  The basis vectors
    are linearly independent, so the affine dimension is their count.
    """

    particular: list[Fraction]
    nullspace_basis: list[list[Fraction]]

    @property
    def dimension(self) -> int:
        return len(self.nullspace_basis)

    def point(self, weights: Sequence[Fraction]) -> list[Fraction]:
        if len(weights) != len(self.nullspace_basis):
            raise ValueError("one weight per basis vector required")
        out = list(self.particular)
        for w, vec in zip(weights, self.nullspace_basis):
            if w == 0:
                continue
            for i, v in enumerate(vec):
                out[i] += w * v
        return out


@dataclass
class FarkasCertificate:
    """Row combination u with u.matrix = 0 and u.rhs != 0."""

    row_combination: list[Fraction]


def _scaled(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(lcm of the denominators, the row times that lcm as integers)."""
    lcm = math.lcm(*[v.denominator for v in row])
    return lcm, [v.numerator * (lcm // v.denominator) for v in row]


def _combine(row: list[int], pivot_tail: list[int], c: int) -> list[int]:
    """p*row - f*pivot_row with p, f reduced by their gcd, divided by its content.

    `pivot_tail` is the pivot row from column c on; it is zero left of c.
    """
    p, f = pivot_tail[0], row[c]
    g = math.gcd(p, f)
    a, b = p // g, f // g
    head = row[:c] if a == 1 else [a * x for x in row[:c]]
    new = head + [a * x - b * y for x, y in zip(row[c:], pivot_tail)]
    content = math.gcd(*new)
    return [x // content for x in new] if content > 1 else new


def _echelon(rows: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination of integer rows in place.

    Columns 0 .. ncols-1 are scanned left to right; the pivot is the first
    row at or below the current one with a nonzero entry, and every row
    below it is cleared in the pivot column.  Returns the pivot columns: row
    k of the result has its leading entry in column pivots[k], and the rows
    past the last pivot are zero in the scanned columns.  Rows are replaced,
    never mutated, so a shallow copy of the list keeps the caller's rows.
    """
    m = len(rows)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        tail = rows[r][c:]
        for i in range(r + 1, m):
            if rows[i][c]:
                rows[i] = _combine(rows[i], tail, c)
        pivots.append(c)
    return pivots


def _reduce(rows: list[list[int]], pivots: list[int]) -> None:
    """Clear the entries above each pivot, last pivot first.

    Afterwards row k divided by its pivot entry is row k of the reduced
    echelon form, which is unique.
    """
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        tail = rows[k][c:]
        for i in range(k):
            if rows[i][c]:
                rows[i] = _combine(rows[i], tail, c)


def solve_affine(system: AffineSystem) -> SolutionSet | FarkasCertificate:
    """Exact solution set, or a verified Farkas certificate when inconsistent.

    The solution set is read off the reduced echelon form of [matrix | rhs]:
    the particular point is zero on the free columns, and there is one
    nullspace vector per free column, left to right.
    """
    n = system.num_cols
    scaled = [_scaled(list(row) + [b]) for row, b in zip(system.matrix, system.rhs)]
    rows = [row for _, row in scaled]
    work = list(rows)  # the kernel replaces rows, so `rows` stays the scaled input
    pivots = _echelon(work, n)
    if any(row[n] for row in work[len(pivots):]):
        return _certificate(system, [s for s, _ in scaled], rows)
    _reduce(work, pivots)

    particular = [Fraction(0)] * n
    for row, c in zip(work, pivots):
        particular[c] = Fraction(row[n], row[c])
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for fcol in range(n):
        if fcol in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[fcol] = Fraction(1)
        for row, c in zip(work, pivots):
            vec[c] = Fraction(-row[fcol], row[c])
        basis.append(vec)
    return SolutionSet(particular, basis)


def _certificate(system: AffineSystem, scales: list[int],
                 rows: list[list[int]]) -> FarkasCertificate:
    """Solve u.[matrix | rhs] = (0, ..., 0, 1) and check the result.

    `rows` are the rows of [matrix | rhs] times `scales`; the transposed
    integer system is solved with free coordinates zero, then the scaling
    is undone.  The system being inconsistent, a solution must exist.
    """
    m, n = len(rows), system.num_cols
    transposed = [[row[c] for row in rows] + [int(c == n)] for c in range(n + 1)]
    pivots = _echelon(transposed, m)
    if any(row[m] for row in transposed[len(pivots):]):
        raise AssertionError("no row combination isolates the inconsistent right-hand side")
    _reduce(transposed, pivots)
    u = [Fraction(0)] * m
    for row, i in zip(transposed, pivots):
        u[i] = Fraction(row[m] * scales[i], row[i])
    certificate = FarkasCertificate(u)
    if not verify_farkas(system, certificate):
        raise AssertionError("Farkas certificate failed its own check")
    return certificate


def verify_farkas(system: AffineSystem, certificate: FarkasCertificate) -> bool:
    """Independent certificate check: plain dot products, no elimination."""
    u = certificate.row_combination
    if len(u) != system.num_rows:
        raise ValueError(f"combination length {len(u)} != {system.num_rows} rows")
    for c in range(system.num_cols):
        acc = Fraction(0)
        for i, ui in enumerate(u):
            if ui != 0:
                acc += ui * system.matrix[i][c]
        if acc != 0:
            return False
    acc = Fraction(0)
    for i, ui in enumerate(u):
        if ui != 0:
            acc += ui * system.rhs[i]
    return acc != 0


def residual(system: AffineSystem, point: Sequence[Fraction]) -> list[Fraction]:
    """matrix . point - rhs, for exactness checks."""
    if len(point) != system.num_cols:
        raise ValueError("point length mismatch")
    out = []
    for row, b in zip(system.matrix, system.rhs):
        acc = Fraction(0)
        for a, v in zip(row, point):
            if a != 0 and v != 0:
                acc += a * v
        out.append(acc - b)
    return out


def sample_generic(solution: SolutionSet, seed: int) -> list[Fraction]:
    """Deterministic pseudo-random point of the solution set.

    Basis weights are drawn from the documented SplitMix64 stream, uniformly
    in [-9, 9], one draw per basis vector in order.
    """
    stream = Stream(seed)
    weights = [Fraction(stream.int_between(-9, 9)) for _ in solution.nullspace_basis]
    return solution.point(weights)


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank: the number of pivots of a forward elimination."""
    work = [_scaled(row)[1] for row in rows]
    if not work:
        return 0
    return len(_echelon(work, len(work[0])))


def project_solution_set(solution: SolutionSet,
                         columns: Sequence[int]) -> tuple[int, list[Fraction]]:
    """Project the affine set onto the coordinates with the given indices.

    Returns (affine dimension, base point), the base point expressed in the
    selected coordinates in the order given; the dimension is the rank of
    the nullspace basis restricted to those coordinates.
    """
    base = [solution.particular[i] for i in columns]
    restricted = [[vec[i] for i in columns] for vec in solution.nullspace_basis]
    return matrix_rank(restricted), base


def functional_range(solution: SolutionSet,
                     weights: dict[int, Fraction]) -> tuple[bool, Fraction]:
    """Range of a linear functional sum(w_i * v_i) over the set, keyed by
    coordinate index.

    Returns (forced, value): forced means the functional is constant on the
    solution set, in which case value is that constant; otherwise value is
    the functional at the particular point.
    """
    at_particular = sum((w * solution.particular[i] for i, w in weights.items()), Fraction(0))
    for vec in solution.nullspace_basis:
        if sum((w * vec[i] for i, w in weights.items()), Fraction(0)) != 0:
            return False, at_particular
    return True, at_particular
