"""Exact affine linear algebra over the rationals.

One private integer kernel does every elimination.  Each row is scaled to
integers by the lcm of its denominators, and fraction-free elimination
(Bareiss 1968) replaces a row by p*row - f*pivot_row divided by its content,
so no Fraction arithmetic runs inside the loops.  The pivot rule is
deterministic: columns are scanned left to right and the first row at or
below the current one with a nonzero entry is used.  A forward pass gives
the row echelon form; a row it clears in column c is already zero left of
c, so only its tail from c on is combined, and the content of the tail is
the content of the row.  No backward pass runs.

One back-substitution, over forward pivot rows with one common integer
denominator, reads off the point that is zero on the free coordinates:
the cofactor parts of a membership stage and the Farkas combination of an
inconsistent `RowBasis` prefix.

* `RowBasis` is the column pass: the forward pass over the transposed
  system [matrix | rhs]^T with the target column (0, ..., 0, 1) appended,
  scanned a block of columns, that is of original rows, at a time, with
  the transform of its column operations carried along; each block it is
  handed joins its rows, so a caller builds a block when the scan reaches
  it.  A column that gets a pivot is a row independent of the rows before
  it, so the pivots are the greedy row basis, and the rows up to any block
  boundary are inconsistent exactly when the target column has become
  zero below the pivots.  `combination` then back-substitutes the row
  combination u with u.[matrix | rhs] = (0, ..., 0, 1), free coordinates
  zero; that is the vector the reduced echelon form would give, the unique
  solution supported on the row basis.  `kernel()` reads a basis of the
  kernel of the rows scanned so far off the transform of the rows below
  the pivots, so one pass gives every prefix's solution set.
* `read_off` reads a point and spanning directions of the solution set off
  kernel vectors, with no elimination (Cohen, *A Course in Computational
  Algebraic Number Theory*, section 2.3).
* `farkas_certificate` undoes the row scaling of a column-pass
  combination and checks the result with `verify_farkas`, integer dot
  products only.

An `AffineSystem` stores what the kernel reads, integer rows of
[matrix | rhs] with one positive scale each, so the decider, the
serializer and `verify_farkas` build no Fraction of it.  Equality compares
rational entries, whatever scale a row is stored at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence


@dataclass(eq=False)
class AffineSystem:
    """matrix . v = rhs with labelled columns (and optionally rows), stored
    as integer rows of [matrix | rhs] with one positive scale per row: row i
    of [matrix | rhs] is rows[i] / scales[i]."""

    rows: list[list[int]]
    scales: list[int]
    column_labels: list[str]
    row_labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.scales) != len(self.rows):
            raise ValueError(f"{len(self.rows)} rows but {len(self.scales)} scales")
        if any(s <= 0 for s in self.scales):
            raise ValueError("row scales must be positive")
        width = len(self.column_labels) + 1
        for row in self.rows:
            if len(row) != width:
                raise ValueError(f"row width {len(row) - 1} != {width - 1} labels")
        if self.row_labels and len(self.row_labels) != len(self.rows):
            raise ValueError("row label count mismatch")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.column_labels)

    def __eq__(self, other: object) -> bool:
        """Equal labels and equal rational entries: rows[i] * t == other.rows[i] * s
        for the scales s, t of the two rows."""
        if not isinstance(other, AffineSystem):
            return NotImplemented
        return (self.column_labels == other.column_labels
                and self.row_labels == other.row_labels
                and len(self.rows) == len(other.rows)
                and all(a == b if s == t else [x * t for x in a] == [y * s for y in b]
                        for a, s, b, t in zip(self.rows, self.scales, other.rows, other.scales)))


@dataclass
class FarkasCertificate:
    """Row combination u with u.matrix = 0 and u.rhs != 0."""

    row_combination: list[Fraction]


def _combine(row: list[int], pivot_row: list[int]) -> list[int]:
    """p*row - f*pivot_row for the leading entries p of pivot_row and f of
    row, with p, f reduced by their gcd, divided by its content."""
    p, f = pivot_row[0], row[0]
    g = math.gcd(p, f)
    a, b = p // g, f // g
    new = [a * x - b * y for x, y in zip(row, pivot_row)]
    content = math.gcd(*new)
    return [x // content for x in new] if content > 1 else new


def _echelon(rows: list[list[int]], stop: int, start: int = 0) -> list[int]:
    """Fraction-free forward elimination of integer rows in place.

    Columns start .. stop-1 are scanned left to right over rows that must
    be zero left of `start`; the pivot is the first row at or below the
    current one with a nonzero entry, and every row below it is cleared in
    the pivot column.  Returns the pivot columns: row k of the result has
    its leading entry in column pivots[k], and the rows past the last pivot
    are zero in the scanned columns, so a later call can resume at column
    `stop`.  Rows are replaced, never mutated, so a shallow copy of the
    list keeps the caller's rows.
    """
    m = len(rows)
    pivots: list[int] = []
    for c in range(start, stop):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        tail = rows[r][c:]
        for i in range(r + 1, m):
            row = rows[i]
            if row[c]:
                # zero left of c, so only the tail needs arithmetic
                rows[i] = row[:c] + _combine(row[c:], tail)
        pivots.append(c)
    return pivots


def _back_substitute(rows: Sequence[list[int]], pivots: Sequence[int],
                     target: int) -> tuple[list[int], int]:
    """Integer numerators of length `target`, and their common denominator,
    of the x that is zero off the pivot columns and has
    sum(rows[k][c] * x[c] for c < target) = rows[k][target] for every pivot
    row k.

    Row k must be zero in the pivot columns of rows 0 .. k-1, so x is read
    from the last pivot row to the first.
    """
    xs: list[int] = []  # numerators of x at pivots[k:]
    den = 1
    for k in range(len(pivots) - 1, -1, -1):
        row, p = rows[k], pivots[k]
        # x_p = (row[target] - sum of row[c] * x_c over later pivots) / row[p]
        s = row[target] * den - sum(row[c] * x for c, x in zip(pivots[k + 1:], xs) if row[c])
        a = row[p]
        xs = [s] + ([x * a for x in xs] if a != 1 else xs)
        den *= a
        g = math.gcd(den, *xs)
        if g > 1:
            xs = [x // g for x in xs]
            den //= g
    num = [0] * target
    for c, x in zip(pivots, xs):
        num[c] = x
    return num, den


class RowBasis:
    """The column pass: the greedy row basis of integer rows of
    [matrix | rhs], taken in order a block at a time, their consistency and
    their kernel.

    Row i of the input is column i of the transposed system, and column c
    of [matrix | rhs] is a work row, carried as its T-part over the
    coordinates [rhs, *columns]: the combination of columns of
    [matrix | rhs] the work row is (Cohen, *A Course in Computational
    Algebraic Number Theory*, section 2.3).  Its entry in column i is
    T.(row i on those coordinates), worked out when row i is scanned; its
    rhs coordinate is its entry in the target column (0, ..., 0, 1) past
    the last row.  A matrix column gets its work row, with a unit T-part,
    and its T coordinate, appended to `columns`, only when a scanned row
    first has a nonzero entry in it; until then that row is zero in every
    scanned column and changes no pivot.  A row's entries not yet scanned
    are combinations of its T-part, so its content is that of its scanned
    entries and T-part.  New work rows go ahead of the rows already below
    the pivots, so the newest columns take the pivots first and the
    kernel's entries stay small: with new rows last, the kernel of a
    feasible d=18 order-27 decide reached 2038-bit entries, against 996.

    `extend(rows)` appends the rows it is handed to `rows` and scans them,
    as the next columns, with `_echelon`; each that gets a pivot is a row
    independent of the rows before it, and its pivot row is kept for
    `combination`.  The rows left below the pivots are zero in every
    scanned column, so their T-parts are a basis of the kernel of the
    scanned rows on the touched columns.  The scanned rows
    are inconsistent once none of those has a nonzero rhs coordinate: the
    target is then in the span of the scanned columns, so some row
    combination u has u.[matrix | rhs] = (0, ..., 0, 1).
    """

    def __init__(self, ncols: int) -> None:
        self.rows: list[Sequence[int]] = []  # every row scanned, in order
        self.ncols = ncols
        self.columns: list[int] = []
        self.pivots: list[int] = []
        # (first row scanned with it, its entries from that row on, T-part)
        self.pivot_rows: list[tuple[int, list[int], list[int]]] = []
        self.below: list[list[int]] = [[1]]

    @property
    def consistent(self) -> bool:
        return any(t[0] for t in self.below)

    def _coordinates(self, row: Sequence[int]) -> list[int]:
        """A row of the input on the coordinates [rhs, *columns]."""
        return [row[self.ncols]] + [row[c] for c in self.columns]

    def extend(self, block: Sequence[Sequence[int]]) -> list[int]:
        """Scan the rows of `block` next; returns the indices of the independent ones."""
        start, count = len(self.rows), len(block)
        self.rows += block
        touched = set(self.columns)
        new = [c for c, column in enumerate(zip(*block))
               if c < self.ncols and c not in touched and any(column)]
        pad = [0] * len(new)
        below = [t + pad for t in self.below]
        self.columns += new
        coordinates = [self._coordinates(row) for row in block]
        work = []  # the new columns' rows first, so that they take the pivots first
        for i, c in enumerate(new, start=len(self.columns) - len(new) + 1):
            unit = [0] * (len(self.columns) + 1)
            unit[i] = 1
            work.append([row[c] for row in block] + unit)
        work += [[sum(map(mul, t, x)) for x in coordinates] + t for t in below]
        found = _echelon(work, count)
        self.pivot_rows += [(start, row[:count], row[count:]) for row in work[:len(found)]]
        self.below = [row[count:] for row in work[len(found):]]
        independent = [start + p for p in found]
        self.pivots += independent
        return independent

    def kernel(self) -> list[list[int]]:
        """A basis of the t with [scanned rows].t = 0 that are zero on every
        untouched column, as vectors over the columns of [matrix | rhs]:
        the T-parts below the pivots.  With the unit vector of each
        untouched column they span the kernel of the scanned rows."""
        out = []
        for t in self.below:
            v = [0] * self.ncols + [t[0]]
            for c, x in zip(self.columns, t[1:]):
                v[c] = x
            out.append(v)
        return out

    def combination(self, count: int) -> tuple[list[int], int]:
        """Integer numerators over the first `count` rows, and their common
        denominator, of the u with u.[matrix | rhs] = (0, ..., 0, 1) that
        is zero off the row basis; those rows must be scanned and inconsistent.

        u is back-substituted over the pivot rows of the first `count`
        columns, which later scans leave unchanged.  It reads them only in
        pivot columns and the target column; their entries in the pivot
        columns scanned after them are worked out from their T-parts.
        """
        k = sum(p < count for p in self.pivots)
        if self.consistent or any(t[0] for _, _, t in self.pivot_rows[k:]):
            raise AssertionError("no row combination isolates the inconsistent right-hand side")
        pivots = self.pivots[:k]
        coordinates = {p: self._coordinates(self.rows[p]) for p in pivots}
        rows = []
        for start, entries, t in self.pivot_rows[:k]:
            row = [0] * count + [t[0]]
            for p in pivots:
                if p >= start:
                    row[p] = entries[p - start] if p < start + len(entries) else \
                        sum(map(mul, t, coordinates[p]))
            rows.append(row)
        return _back_substitute(rows, pivots, count)


def read_off(kernel: Sequence[list[int]]) -> tuple[list[int], list[list[int]]] | None:
    """The solutions x of [matrix | rhs].(x, -1) = 0, given vectors t over
    the columns of [matrix | rhs] that span its kernel, as (p, directions),
    or None when every t has t_rhs = 0 and the system is inconsistent.

    p is the first t with t_rhs != 0, and -p / p_rhs is a solution; the
    directions p_rhs * t - t_rhs * p of the other t are zero in the rhs and
    span the differences of solutions.  Nothing is eliminated, so the
    directions need not be independent.
    """
    p = next((t for t in kernel if t[-1]), None)
    if p is None:
        return None
    return p, [[p[-1] * x - t[-1] * y for x, y in zip(t, p)] for t in kernel if t is not p]


def farkas_certificate(system: AffineSystem, num: Sequence[int], den: int) -> FarkasCertificate:
    """The row combination u_i = num_i * scales_i / den of the system's rows,
    checked before it is returned.

    num / den is what `RowBasis.combination` gives for the system's integer
    rows, each row i / scales_i of the system, so u is the same combination
    of its rational rows.
    """
    certificate = FarkasCertificate([Fraction(x * s, den) for x, s in zip(num, system.scales)])
    if not verify_farkas(system, certificate):
        raise AssertionError("Farkas certificate failed its own check")
    return certificate


def verify_farkas(system: AffineSystem, certificate: FarkasCertificate) -> bool:
    """Independent certificate check: integer dot products, no elimination.

    Row i of [matrix | rhs] is rows[i] / s_i, so its weight u_i becomes
    u_i / s_i on the stored integer row; those weights are brought to
    integers by one common factor, and the weighted column sums and the
    weighted rhs sum are then exact integer dot products.
    """
    u = certificate.row_combination
    if len(u) != system.num_rows:
        raise ValueError(f"combination length {len(u)} != {system.num_rows} rows")
    used = [(ui, s, row) for ui, s, row in zip(u, system.scales, system.rows) if ui != 0]
    # u_i / s_i = numerator / (denominator * s_i)
    common = math.lcm(*[ui.denominator * s for ui, s, _ in used])
    acc = [0] * (system.num_cols + 1)
    for ui, s, row in used:
        w = ui.numerator * (common // (ui.denominator * s))
        acc = [a + w * x for a, x in zip(acc, row)]
    return not any(acc[:-1]) and acc[-1] != 0


def matrix_rank(rows: Sequence[list[int]]) -> int:
    """Exact rank of integer rows: the pivot count of one forward pass over
    a shallow copy of the list."""
    if not rows:
        return 0
    return len(_echelon(list(rows), len(rows[0])))
