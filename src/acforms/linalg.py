"""Exact affine linear algebra over the rationals.

One private integer kernel does every elimination.  Each row is scaled to
integers by the lcm of its denominators, and fraction-free elimination
(Bareiss 1968) replaces a row by p*row - f*pivot_row divided by its content,
so no Fraction arithmetic runs inside the loops.  The pivot rule is
deterministic: columns are scanned left to right and the first row at or
below the current one with a nonzero entry is used.  A forward pass gives
the row echelon form; Gauss-Jordan is completed by a backward pass that
clears the entries above each pivot, last pivot first.

* `Echelon` holds the pivot rows of the rows fed so far.  A new block is
  reduced by the stored pivot rows and then goes through the forward
  pass, so nested systems are eliminated once.  `reduced()` runs the
  backward pass on a copy, and `solution()` reads the solution set off the
  reduced echelon form, which is unique, so the particular point and
  nullspace basis do not depend on the order or blocking of the rows.
* `RowBasis` is the column pass: the forward pass over the transposed
  system [matrix | rhs]^T with the target column (0, ..., 0, 1) appended,
  scanned a block of columns, that is of original rows, at a time.  A
  column that gets a pivot is a row independent of the rows before it, so
  the pivots are the greedy row basis, and the rows up to any block
  boundary are inconsistent exactly when the target column has become
  zero below the pivots.  `combination` then back-substitutes the row
  combination u with u.[matrix | rhs] = (0, ..., 0, 1), free coordinates
  zero, over the pivot rows with one common integer denominator; that is
  the vector the reduced echelon form would give, the unique solution
  supported on the row basis.
* `solve_affine` feeds a system to an `Echelon` as one block.  An
  inconsistent system gets its Farkas certificate from one column pass
  and `farkas_certificate`, which undoes the row scaling and checks the
  result with `verify_farkas`, integer dot products only.
* `matrix_rank` counts the pivots of an `Echelon` fed integer rows as one
  block.

Solution sets address columns by index; labels live only on
`AffineSystem`, where they are part of its JSON format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


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


def _echelon(rows: list[list[int]], stop: int, start: int = 0, top: int = 0) -> list[int]:
    """Fraction-free forward elimination of integer rows in place.

    Columns start .. stop-1 are scanned left to right over the rows from
    `top` on, which must be zero left of `start`; the pivot is the first
    row at or below the current one with a nonzero entry, and every row
    below it is cleared in the pivot column.  Returns the pivot columns:
    row top+k of the result has its leading entry in column pivots[k], and
    the rows past the last pivot are zero in the scanned columns, so a
    later call can resume at column `stop`.  Rows are replaced, never
    mutated, so a shallow copy of the list keeps the caller's rows.
    """
    m = len(rows)
    pivots: list[int] = []
    for c in range(start, stop):
        r = top + len(pivots)
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

    Row k must be zero left of pivots[k] and in the pivot columns of rows
    0 .. k-1, as in a row echelon form.  Afterwards row k divided by its
    pivot entry is the row of the reduced echelon form, which is unique,
    with its pivot in column pivots[k].
    """
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        tail = rows[k][c:]
        for i in range(k):
            if rows[i][c]:
                rows[i] = _combine(rows[i], tail, c)


class Echelon:
    """Pivot rows of the integer rows fed so far, grown block by block.

    Columns 0 .. ncols-1 are eliminated; a further column, the right-hand
    side, is carried along.  Row k is zero left of pivots[k] and in the
    pivot columns of rows 0 .. k-1, which is all that reducing a new row
    and the backward pass need, so rows stay in the order found.
    `consistent` turns false for good once a row reduces to zero on the
    eliminated columns but not on the right-hand side.
    """

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []
        self.consistent = True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extend(self, rows: Sequence[list[int]]) -> None:
        """Feed a block of rows; the caller's list and rows are not changed.
        Reduced by the stored pivot rows, each row is zero in their pivot
        columns, so the forward pass finds new pivots only elsewhere."""
        block = list(rows)
        for c, pivot_row in zip(self.pivots, self.rows):
            tail = pivot_row[c:]
            for i, row in enumerate(block):
                if row[c]:
                    block[i] = _combine(row, tail, c)
        new = _echelon(block, self.ncols)
        if any(any(row[self.ncols:]) for row in block[len(new):]):
            self.consistent = False
        self.pivots += new
        self.rows += block[:len(new)]

    def reduced(self) -> list[list[int]]:
        """The pivot rows after the backward pass, on a copy: row k divided
        by its entry in column pivots[k] is a row of the reduced echelon form."""
        work = list(self.rows)  # the backward pass replaces rows, so keep ours
        _reduce(work, self.pivots)
        return work

    def solution(self, reduced: list[list[int]] | None = None) -> SolutionSet:
        """Solution set of the rows of [matrix | rhs] fed so far.

        It is read off the reduced echelon form, from `reduced` when the
        caller already has it: the particular point is zero on the free
        columns, and there is one nullspace vector per free column, left to
        right.
        """
        if not self.consistent:
            raise ValueError("inconsistent rows have no solution set")
        n = self.ncols
        work = self.reduced() if reduced is None else reduced
        particular = [Fraction(0)] * n
        for row, c in zip(work, self.pivots):
            particular[c] = Fraction(row[n], row[c])
        pivot_set = set(self.pivots)
        basis: list[list[Fraction]] = []
        for fcol in range(n):
            if fcol in pivot_set:
                continue
            vec = [Fraction(0)] * n
            vec[fcol] = Fraction(1)
            for row, c in zip(work, self.pivots):
                vec[c] = Fraction(-row[fcol], row[c])
            basis.append(vec)
        return SolutionSet(particular, basis)


class RowBasis:
    """The column pass: the greedy row basis of integer rows of
    [matrix | rhs], taken in order a block at a time, and their consistency.

    Row i of the input is column i of the transposed system, and the target
    column (0, ..., 0, 1) follows the last row.  `extend(count)` scans the
    next `count` columns with `_echelon`; each that gets a pivot is a row
    independent of the rows before it.  The scanned rows are inconsistent
    once no row below the pivots has a nonzero target entry: the target is
    then in the span of the scanned columns, so some row combination u has
    u.[matrix | rhs] = (0, ..., 0, 1).
    """

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int) -> None:
        self.target = len(rows)
        self.work = [[row[c] for row in rows] + [int(c == ncols)] for c in range(ncols + 1)]
        self.pivots: list[int] = []
        self.scanned = 0

    @property
    def consistent(self) -> bool:
        return any(row[self.target] for row in self.work[len(self.pivots):])

    def extend(self, count: int) -> list[int]:
        """Scan the next `count` rows; returns the indices of the independent ones."""
        stop = self.scanned + count
        new = _echelon(self.work, stop, self.scanned, len(self.pivots))
        self.pivots += new
        self.scanned = stop
        return new

    def combination(self, count: int) -> tuple[list[int], int]:
        """Integer numerators over the first `count` rows, and their common
        denominator, of the u with u.[matrix | rhs] = (0, ..., 0, 1) that
        is zero off the row basis; those rows must be scanned and inconsistent.

        u is back-substituted over the pivot rows of the first `count`
        columns, which later scans leave unchanged.
        """
        pivots = [p for p in self.pivots if p < count]
        if any(row[self.target] for row in self.work[len(pivots):]):
            raise AssertionError("no row combination isolates the inconsistent right-hand side")
        t = self.target
        num = [0] * count
        den = 1
        for k in range(len(pivots) - 1, -1, -1):
            row, p = self.work[k], pivots[k]
            # u_p = (row[t] - sum of row[c] * u_c over later pivots) / row[p]
            s = row[t] * den - sum(row[c] * num[c] for c in pivots[k + 1:] if row[c])
            a = row[p]
            num = [x * a for x in num] if a != 1 else num
            num[p] = s
            den *= a
            g = math.gcd(den, *[num[c] for c in pivots[k:]])
            if g > 1:
                num = [x // g for x in num]
                den //= g
        return num, den


def solve_affine(system: AffineSystem) -> SolutionSet | FarkasCertificate:
    """Exact solution set, or a verified Farkas certificate when inconsistent."""
    scaled = [_scaled(list(row) + [b]) for row, b in zip(system.matrix, system.rhs)]
    rows = [row for _, row in scaled]
    echelon = Echelon(system.num_cols)
    echelon.extend(rows)
    if echelon.consistent:
        return echelon.solution()
    basis = RowBasis(rows, system.num_cols)
    basis.extend(len(rows))
    return farkas_certificate(system, [s for s, _ in scaled], *basis.combination(len(rows)))


def farkas_certificate(system: AffineSystem, scales: Sequence[int],
                       num: Sequence[int], den: int) -> FarkasCertificate:
    """The row combination u_i = num_i * scales_i / den, checked before it is
    returned.

    num / den is what `RowBasis.combination` gives for the rows of
    [matrix | rhs] times `scales`, so u is the same combination of the
    system's own rows.
    """
    certificate = FarkasCertificate([Fraction(x * s, den) for x, s in zip(num, scales)])
    if not verify_farkas(system, certificate):
        raise AssertionError("Farkas certificate failed its own check")
    return certificate


def verify_farkas(system: AffineSystem, certificate: FarkasCertificate) -> bool:
    """Independent certificate check: integer dot products, no elimination.

    Each row of [matrix | rhs] with a nonzero weight u_i is scaled to
    integers by s_i, the weights u_i / s_i are brought to integers by one
    common factor, and the weighted column sums and the weighted rhs sum
    are then exact integer dot products.
    """
    u = certificate.row_combination
    if len(u) != system.num_rows:
        raise ValueError(f"combination length {len(u)} != {system.num_rows} rows")
    used = [(ui, _scaled(list(system.matrix[i]) + [system.rhs[i]]))
            for i, ui in enumerate(u) if ui != 0]
    # u_i / s_i = numerator / (denominator * s_i)
    common = math.lcm(*[ui.denominator * s for ui, (s, _) in used])
    acc = [0] * (system.num_cols + 1)
    for ui, (s, row) in used:
        w = ui.numerator * (common // (ui.denominator * s))
        acc = [a + w * x for a, x in zip(acc, row)]
    return not any(acc[:-1]) and acc[-1] != 0


def matrix_rank(rows: Sequence[list[int]]) -> int:
    """Exact rank of integer rows: the pivot count of an `Echelon` fed them
    as one block."""
    if not rows:
        return 0
    echelon = Echelon(len(rows[0]))
    echelon.extend(rows)
    return echelon.rank


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
