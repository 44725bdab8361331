"""Independent brute-force reference implementations for the test suite.

Everything here recomputes results from first principles — plain exponent
dicts, nested-loop convolution, and a fresh Gaussian elimination — without
calling the package's own engines, so agreement is meaningful evidence.
The Fraction solver below imports only the data classes of `acforms.linalg`
and returns the `SolutionSet` kept here.  The exceptions are the package's
earlier code kept as references: `solve_affine`, the kernel's earlier
solve, runs the forward pass and a `RowBasis` and reads the `SolutionSet`
off the integer reduced rows (`echelon_solution`, the backward pass
`_reduce`, which left the package, on a copy of the forward pass's rows),
so the differential tests of `acforms.linalg` reach the integer kernel
through it; `integer_system`, the
decider's earlier `assemble_system`, joins the decider's integer blocks
into one system, because what it checks is those blocks;
`fraction_find_unit_solution` and `functional_range`, the decider's earlier
unit search and forced-functional test, read a `SolutionSet`, because what
they check is the read-off from the column pass's kernel that replaced them;
`fraction_system_to_json`, the earlier writer of failing systems, reads a
system's Fraction view (`fraction_view`, which left `AffineSystem` because
no package code read it), because what it checks is the integer writer
that replaced it;
`reduced_form_certificate`, the kernel's earlier certificate path, reuses
the kernel's forward pass and `_reduce`, because what it checks is the
back-substitution that replaced the backward pass; `fraction_assemble_system`
and `fraction_stage_record`, the decider's earlier Fraction assembly and
staged records, use the polynomial arithmetic and the decider's records and
column layout, because what they check is the integer rows and the integer
read-off that replaced them; `fraction_membership_witness`, the ideal
engine's earlier membership stages, uses the polynomial arithmetic and the
witness type, because what it checks is the integer stage solve that
replaced its Fraction systems; `full_family_guard`, the genericity guard
with every row family it first ranked, uses the guard's records and row
builder, because what it checks is that the rows the guard leaves out
never change a rank, and ranks them by Fraction elimination;
`fraction_series_to_json`, the earlier
series writer, reads each polynomial's Fraction coefficients, because what
it checks is the writer of integer terms that replaced it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from acforms.decide import (UNKNOWN_NAMES, BlockRecord, GuardCheck, GuardReport,
                            StageRecord, _block_system, _column, _integer_blocks,
                            _validate_sigma)
from acforms.ideals import MembershipWitness, TruncatedIdeal, _shifted_row
from acforms.linalg import (AffineSystem, FarkasCertificate, RowBasis, _echelon,
                            farkas_certificate)
from acforms.poly import HomogPoly, MismatchError, OneForm, TruncSeries, _pack, monomials


def exponents(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree."""
    if num_vars == 1:
        return [(degree,)]
    out = []
    for head in range(degree + 1):
        out.extend((head,) + tail for tail in exponents(num_vars - 1, degree - head))
    return out


def rref_rank(rows: list[list[Fraction]]) -> int:
    """Row-echelon rank by straightforward elimination."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def in_span(vectors: list[list[Fraction]], target: list[Fraction]) -> bool:
    return rref_rank(vectors + [target]) == rref_rank(vectors)


def scaled_row(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(lcm of the denominators, the row times that lcm as integers)."""
    lcm = math.lcm(*[v.denominator for v in row])
    return lcm, [v.numerator * (lcm // v.denominator) for v in row]


def fraction_system(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
                    column_labels: list[str], row_labels: list[str] | None = None
                    ) -> AffineSystem:
    """The `AffineSystem` of rational entries, each row of [matrix | rhs]
    stored scaled to integers by the lcm of its denominators."""
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(matrix)} rows but {len(rhs)} right-hand entries")
    scaled = [scaled_row([*row, b]) for row, b in zip(matrix, rhs)]
    return AffineSystem([row for _, row in scaled], [s for s, _ in scaled],
                        list(column_labels), list(row_labels or []))


def fraction_view(system: AffineSystem) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(matrix, rhs) of a system as Fractions: stored row i over its scale."""
    rows = [[Fraction(v, s) for v in row] for row, s in zip(system.rows, system.scales)]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def residual(system: AffineSystem, point: Sequence[Fraction]) -> list[Fraction]:
    """matrix . point - rhs, for exactness checks."""
    if len(point) != system.num_cols:
        raise ValueError("point length mismatch")
    out = []
    for row, b in zip(*fraction_view(system)):
        acc = Fraction(0)
        for a, v in zip(row, point):
            if a != 0 and v != 0:
                acc += a * v
        out.append(acc - b)
    return out


# --- solution sets --------------------------------------------------------------


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


def _reduce(rows: list[list[int]], pivots: list[int]) -> None:
    """The backward pass: clear the entries above each pivot, last pivot first.

    Row k must be zero left of pivots[k] and in the pivot columns of rows
    0 .. k-1, as in a row echelon form.  A row cleared in column c is not
    zero left of c, so it is combined whole, fraction-free as in the
    package's forward pass.  Afterwards row k divided by its pivot entry is
    the row of the reduced echelon form, which is unique, with its pivot in
    column pivots[k].
    """
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        tail = rows[k][c:]
        for i in range(k):
            row = rows[i]
            if row[c]:
                g = math.gcd(tail[0], row[c])
                a, b = tail[0] // g, row[c] // g
                new = [a * x for x in row[:c]] + [a * x - b * y for x, y in zip(row[c:], tail)]
                content = math.gcd(*new)
                rows[i] = [x // content for x in new] if content > 1 else new


def echelon_solution(rows: list[list[int]], pivots: list[int], n: int) -> SolutionSet:
    """Solution set of integer rows of [matrix | rhs] over n columns, as
    `_echelon(rows, n)` leaves them, with the pivots it returns.

    It is read off the reduced echelon form, which the backward pass gives
    on a copy of the pivot rows: the particular point is zero on the free
    columns, and there is one nullspace vector per free column, left to
    right.
    """
    if any(row[n] for row in rows[len(pivots):]):
        raise ValueError("inconsistent rows have no solution set")
    work = rows[:len(pivots)]  # the backward pass replaces rows, so keep the caller's
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


def solve_affine(system: AffineSystem) -> SolutionSet | FarkasCertificate:
    """Exact solution set through the integer kernel, or a verified Farkas
    certificate when inconsistent: one forward pass over the system's rows,
    and an inconsistent one's certificate from one column pass and
    `farkas_certificate`."""
    n = system.num_cols
    rows = list(system.rows)
    pivots = _echelon(rows, n)
    if not any(row[n] for row in rows[len(pivots):]):
        return echelon_solution(rows, pivots, n)
    basis = RowBasis(n)
    basis.extend(system.rows)
    return farkas_certificate(system, *basis.combination(len(rows)))


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


def unit_value(point: Sequence[Fraction]) -> Fraction:
    """(1 + X0)(1 + W0) - Y0 Z0 at a point whose first four coordinates are
    X0, Y0, Z0, W0."""
    x0, y0, z0, w0 = point[:4]
    return (1 + x0) * (1 + w0) - y0 * z0


def fraction_find_unit_solution(solution: SolutionSet) -> list[Fraction] | None:
    """`acforms.decide.find_unit_solution` over a full `SolutionSet`.

    The particular point is tried first.  Otherwise the quadratic is
    expanded symbolically in the nullspace weights; if some coefficient
    survives, its monomial names at most two weights, and a {-1,0,1} scan
    over just those two produces a nonzero point.  Returns None only when
    the quadratic is identically zero on the solution set.  X0, Y0, Z0, W0
    are the first four coordinates.
    """
    if unit_value(solution.particular) != 0:
        return list(solution.particular)

    xp, yp, zp, wp = solution.particular[:4]
    coords = [vec[:4] for vec in solution.nullspace_basis]
    m = len(coords)
    linear = {}
    for i in range(m):
        xi, yi, zi, wi = coords[i]
        c = (1 + xp) * wi + xi * (1 + wp) - yp * zi - yi * zp
        if c != 0:
            linear[i] = c
    quadratic = {}
    for i in range(m):
        xi, yi, zi, wi = coords[i]
        for j in range(i, m):
            xj, yj, zj, wj = coords[j]
            if i == j:
                c = xi * wi - yi * zi
            else:
                c = xi * wj + xj * wi - yi * zj - yj * zi
            if c != 0:
                quadratic[(i, j)] = c
    if not linear and not quadratic:
        return None
    support = (min(linear),) if linear else min(quadratic)

    def value(assign: dict[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for i, c in linear.items():
            total += c * assign.get(i, Fraction(0))
        for (i, j), c in quadratic.items():
            total += c * assign.get(i, Fraction(0)) * assign.get(j, Fraction(0))
        return total

    grid = [Fraction(0), Fraction(1), Fraction(-1)]
    assignments: list[dict[int, Fraction]] = [{}]
    for var in support:
        assignments = [{**a, var: g} for a in assignments for g in grid]
    for assign in assignments:
        if value(assign) != 0:
            return solution.point([assign.get(i, Fraction(0)) for i in range(m)])
    raise AssertionError("restricted nonzero quadratic vanished on its own grid")


# --- the original Fraction solver ---------------------------------------------
# Differential reference for the integer kernel in `acforms.linalg`: plain
# Fraction Gauss-Jordan with an m x m transform tracking the row operations,
# whose row for the first inconsistent equation is the Farkas combination.


def fraction_solve_affine(system: AffineSystem) -> SolutionSet | FarkasCertificate:
    """Exact Gauss-Jordan with row-operation tracking.

    Returns the full solution set when consistent, otherwise the Farkas row
    combination exposing the contradiction.
    """
    m, n = system.num_rows, system.num_cols
    work = [list(row) + [b] for row, b in zip(*fraction_view(system))]
    # transform[i] records how work[i] was produced from the original rows
    transform = [[Fraction(i == j) for j in range(m)] for i in range(m)]

    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        transform[r], transform[pivot] = transform[pivot], transform[r]
        pv = work[r][c]
        if pv != 1:
            inv = Fraction(1) / pv
            work[r] = [v * inv for v in work[r]]
            transform[r] = [v * inv for v in transform[r]]
        for i in range(m):
            if i == r or work[i][c] == 0:
                continue
            f = work[i][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            transform[i] = [a - f * b for a, b in zip(transform[i], transform[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if work[i][n] != 0:
            return FarkasCertificate(list(transform[i]))

    particular = [Fraction(0)] * n
    for idx, c in enumerate(pivot_cols):
        particular[c] = work[idx][n]

    free_cols = [c for c in range(n) if c not in set(pivot_cols)]
    basis: list[list[Fraction]] = []
    for fcol in free_cols:
        vec = [Fraction(0)] * n
        vec[fcol] = Fraction(1)
        for idx, c in enumerate(pivot_cols):
            vec[c] = -work[idx][fcol]
        basis.append(vec)
    return SolutionSet(particular, basis)


def reduced_form_certificate(system: AffineSystem) -> FarkasCertificate | None:
    """The certificate read off the reduced echelon form of the transposed system.

    Rows of [matrix | rhs] are scaled to integers, u.[matrix | rhs] =
    (0, ..., 0, 1) is brought to reduced echelon form by a forward and a
    backward pass, u is read off with free coordinates zero and the scaling
    is undone.  None when that system has no solution, that is, when the
    original system is consistent.
    """
    m, n = system.num_rows, system.num_cols
    scaled = [scaled_row(list(row) + [b]) for row, b in zip(*fraction_view(system))]
    transposed = [[row[c] for _, row in scaled] + [int(c == n)] for c in range(n + 1)]
    pivots = _echelon(transposed, m)
    if any(row[m] for row in transposed[len(pivots):]):
        return None
    _reduce(transposed, pivots)
    u = [Fraction(0)] * m
    for row, i in zip(transposed, pivots):
        u[i] = Fraction(row[m] * scaled[i][0], row[i])
    return FarkasCertificate(u)


def fraction_verify_farkas(system: AffineSystem, certificate: FarkasCertificate) -> bool:
    """u.matrix = 0 and u.rhs != 0, by Fraction dot products column by column."""
    u = certificate.row_combination
    if len(u) != system.num_rows:
        raise ValueError(f"combination length {len(u)} != {system.num_rows} rows")
    matrix, rhs = fraction_view(system)
    for c in range(system.num_cols):
        acc = Fraction(0)
        for i, ui in enumerate(u):
            if ui != 0:
                acc += ui * matrix[i][c]
        if acc != 0:
            return False
    acc = Fraction(0)
    for i, ui in enumerate(u):
        if ui != 0:
            acc += ui * rhs[i]
    return acc != 0


def fraction_system_to_json(system: AffineSystem) -> dict:
    """The earlier `acforms.serialize.system_to_json`: every entry of the
    Fraction view written as `str` of the Fraction."""
    matrix, rhs = fraction_view(system)
    return {"kind": "affine_system",
            "column_labels": list(system.column_labels),
            "row_labels": list(system.row_labels),
            "matrix": [[str(v) for v in row] for row in matrix],
            "rhs": [str(v) for v in rhs]}


def fraction_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by forward elimination on a working copy."""
    work = [list(r) for r in rows if any(v != 0 for v in r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][c]
        for i in range(rank + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def project_solution_set(solution: SolutionSet,
                         columns: Sequence[int]) -> tuple[int, list[Fraction]]:
    """Project the affine set onto the coordinates with the given indices.

    Returns (affine dimension, base point), the base point expressed in the
    selected coordinates in the order given; the dimension is the rank of
    the nullspace basis restricted to those coordinates.
    """
    base = [solution.particular[i] for i in columns]
    restricted = [[vec[i] for i in columns] for vec in solution.nullspace_basis]
    return rref_rank(restricted), base


# --- the decider's earlier Fraction assembly and staged records --------------


def integer_system(sigma, order: int) -> AffineSystem:
    """Identity (*) of `acforms.decide` for degrees d-1 .. order-1 as the
    decider builds it: its integer blocks, each row at its block's scale."""
    d = _validate_sigma(sigma, order)
    return _block_system(list(_integer_blocks(sigma, d, order)), d, order - d)


def fraction_assemble_system(sigma, order: int) -> AffineSystem:
    """Identity (*) of `acforms.decide` for degrees d-1 .. order-1, assembled
    column by column from Fraction products, shifts and derivatives."""
    d = _validate_sigma(sigma, order)
    a, b = sigma.components
    top = order - d

    columns: list[tuple[str, tuple[int, int]]] = []
    for j in range(top + 1):
        for name in UNKNOWN_NAMES:
            for exp in monomials(2, j):
                columns.append((name, exp))
    col_labels = [f"{name}:{exp[0]},{exp[1]}" for name, exp in columns]

    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    row_labels: list[str] = []
    for k in range(d - 1, order):
        basis = monomials(2, k)
        index = {exp: i for i, exp in enumerate(basis)}
        block = [[Fraction(0)] * len(columns) for _ in basis]
        for c, (name, exp) in enumerate(columns):
            comp_degree = k + 1 - sum(exp)
            if not 0 <= comp_degree < sigma.trunc_order:
                continue
            series = a if name in ("X", "Z") else b
            comp = series.component(comp_degree)
            if comp.is_zero:
                continue
            prod = comp.shift(exp)
            contrib = prod.partial(1) if name in ("X", "Y") else prod.partial(0).scale(-1)
            for pexp, val in contrib.coeffs.items():
                block[index[pexp]][c] = val
        target = b.component(k + 1).partial(0).sub(a.component(k + 1).partial(1))
        matrix.extend(block)
        rhs.extend(target.coeff(exp) for exp in basis)
        row_labels.extend(f"deg{k}:{exp[0]},{exp[1]}" for exp in basis)
    return fraction_system(matrix=matrix, rhs=rhs, column_labels=col_labels,
                           row_labels=row_labels)


def trivial_solution(system: AffineSystem) -> list[Fraction]:
    """X = W = -1, Y = Z = 0: the constant-candidate solution of (*)."""
    point = [Fraction(0)] * system.num_cols
    point[_column("X", (0, 0))] = Fraction(-1)
    point[_column("W", (0, 0))] = Fraction(-1)
    return point


def prefix_through(system: AffineSystem, through_degree: int) -> AffineSystem:
    """The rows of an assembled system labelled with equation degree <= k."""
    keep = [i for i, label in enumerate(system.row_labels)
            if int(label[3:label.index(":")]) <= through_degree]
    return AffineSystem(rows=[system.rows[i] for i in keep],
                        scales=[system.scales[i] for i in keep],
                        column_labels=list(system.column_labels),
                        row_labels=[system.row_labels[i] for i in keep])


def fraction_stage_record(system: AffineSystem, d: int, order: int, k: int,
                          solution: SolutionSet) -> StageRecord:
    """Per unknown-degree block of a consistent prefix through degree k: the
    rank of the nullspace basis restricted to the block, and the block's
    columns that no nullspace vector moves, at their particular values."""
    moving = {i for vec in solution.nullspace_basis for i, v in enumerate(vec) if v}
    blocks = []
    for j in range(order - d + 1):
        columns = range(_column("X", (j, 0)), _column("X", (j + 1, 0)))
        dim, base = project_solution_set(solution, columns)
        forced = {system.column_labels[c]: value for c, value in zip(columns, base)
                  if c not in moving}
        blocks.append(BlockRecord(dim, forced))
    return StageRecord(k, True, tuple(blocks))


# --- the ideal engine's earlier Fraction membership stages ------------------


def fraction_membership_witness(target: TruncSeries, ideal: TruncatedIdeal,
                                order: int) -> MembershipWitness | int:
    """`acforms.ideals.membership_witness` with each graded stage solved as a
    labelled Fraction system by `fraction_solve_affine`: one column per
    generator g and monomial m of degree n - lowest(g), holding the
    coefficients of m * lead(g), and the residual's degree-n component as
    right-hand side.  The stage's particular point gives the cofactor
    pieces; an inconsistent stage returns its degree."""
    nv = ideal.num_vars
    lows = [g.lowest_degree() for g in ideal.generators]
    residual: dict[int, HomogPoly] = {k: p for k, p in target.parts.items() if k < order}
    cofactors: list[dict[int, HomogPoly]] = [{} for _ in ideal.generators]
    while True:
        pending = [k for k, p in residual.items() if not p.is_zero]
        if not pending:
            break
        n = min(pending)
        labels: list[str] = []
        columns: list[tuple[int, tuple[int, ...]]] = []
        for i, low in enumerate(lows):
            if low is None or low > n:
                continue
            for exp in monomials(nv, n - low):
                labels.append(f"g{i}:{','.join(map(str, exp))}")
                columns.append((i, exp))
        basis = monomials(nv, n)
        index = {exp: row for row, exp in enumerate(basis)}
        matrix = [[Fraction(0)] * len(columns) for _ in basis]
        for c, (i, exp) in enumerate(columns):
            for pexp, val in ideal.generators[i].component(lows[i]).shift(exp).coeffs.items():
                matrix[index[pexp]][c] = val
        rhs = [residual[n].coeff(exp) for exp in basis]
        outcome = fraction_solve_affine(fraction_system(matrix, rhs, labels))
        if isinstance(outcome, FarkasCertificate):
            return n
        pieces: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for (i, exp), weight in zip(columns, outcome.particular):
            if weight != 0:
                pieces.setdefault(i, {})[exp] = weight
        for i, terms in pieces.items():
            deg = n - lows[i]
            piece = HomogPoly.from_terms(nv, deg, terms)
            merged = cofactors[i].get(deg, HomogPoly.zero(nv, deg)).add(piece)
            if merged.is_zero:
                cofactors[i].pop(deg, None)
            else:
                cofactors[i][deg] = merged
            for j, part in ideal.generators[i].parts.items():
                if deg + j < order:
                    nxt = residual.get(deg + j, HomogPoly.zero(nv, deg + j)).sub(piece.mul(part))
                    if nxt.is_zero:
                        residual.pop(deg + j, None)
                    else:
                        residual[deg + j] = nxt
    series = []
    for table, low in zip(cofactors, lows):
        cap = order - low if low is not None else order
        series.append(TruncSeries(nv, max(cap, 1), dict(table)))
    return MembershipWitness(target=target.truncate(order),
                             cofactors=tuple(series), valid_order=order)


def fraction_verify_witness(witness: MembershipWitness, ideal: TruncatedIdeal) -> bool:
    """`MembershipWitness.verify` on coefficient dicts: the target and every
    product of a cofactor c with its generator g are certified below the
    valid order, a product below min(trunc(c) + low(g), trunc(g) + low(c))
    where low is the lowest stored degree, or the truncation order of a zero
    series; and the target minus the sum of the products c * g, multiplied
    term by term, has no term below it."""
    if len(witness.cofactors) != len(ideal.generators):
        raise MismatchError("cofactor count does not match generator count")
    if any(s.num_vars != witness.target.num_vars for s in (*witness.cofactors, *ideal.generators)):
        raise MismatchError("target, cofactors and generators disagree on variable count")
    below = witness.valid_order
    if below < 0:
        raise MismatchError(f"valid order {below} is negative")

    def low(s: TruncSeries) -> int:
        return min(s.parts, default=s.trunc_order)

    pairs = list(zip(witness.cofactors, ideal.generators))
    if min(witness.target.trunc_order, *(min(c.trunc_order + low(g), g.trunc_order + low(c))
                                        for c, g in pairs)) < below:
        return False
    res = series_dict(witness.target, below)
    for c, g in pairs:
        res = poly_sub(res, poly_mul(series_dict(c, below), series_dict(g, below)))
    return not any(sum(e) < below for e in res)


# --- the decider's earlier guard families ---------------------------------


def full_family_guard(sigma: OneForm) -> GuardReport:
    """`acforms.decide.genericity_guard` with every family as it was first
    written: the A_k, B_k rows and their multiples next to the derivative
    rows that span them, both of p_y and q_x when they are equal, and the
    integer terms of a polynomial taken once per shift."""
    if sigma.num_vars != 2:
        raise MismatchError("the guard handles 1-forms in two variables")
    d = sigma.lowest_degree()
    if d is None:
        raise MismatchError("zero form has no leading data to check")
    a, b = sigma.components
    ad, bd = a.component(d), b.component(d)
    adx, ady = ad.partial(0), ad.partial(1)
    bdx, bdy = bd.partial(0), bd.partial(1)
    one = [(0, 0)]
    lin = [(1, 0), (0, 1)]
    quad = [(2, 0), (1, 1), (0, 2)]
    cub = [(3, 0), (2, 1), (1, 2), (0, 3)]

    def mults(exps: list[tuple[int, int]], polys: list[HomogPoly]) -> list[tuple]:
        return [(p, e) for p in polys for e in exps]

    have_next = sigma.trunc_order > d + 1
    if have_next:
        ad1, bd1 = a.component(d + 1), b.component(d + 1)
        ad1x, ad1y = ad1.partial(0), ad1.partial(1)
        bd1x, bd1y = bd1.partial(0), bd1.partial(1)

    # (name, least d, degree, (polynomial, shift) pairs, expected rank,
    # joins): each pair is the row of x^shift times the polynomial; a joint
    # family is the reduction family just before it plus the pairs listed,
    # so its rank is that of both families' rows
    table: list[tuple[str, int, int, list | None, int, bool]] = [
        ("leading_pair", 1, d, mults(one, [ad, bd]), 2, False),
        ("degree0_forcing", 3, d - 1, mults(one, [adx, ady, bdy]), 3, False),
        ("stage_d", 5, d, mults(one, [ad, bd]) + mults(lin, [adx, ady, bdx, bdy]), 6, False),
        ("stage_d1_reduction", 7, d + 1,
         mults(lin, [ad, bd]) + mults(quad, [adx, ady, bdx, bdy]), 9, False),
        ("stage_d1_joint", 13, d + 1,
         (mults(one, [ad1, bd1]) + mults(lin, [ad1x, ad1y, bd1x, bd1y]))
         if have_next else None, 15, True),
        ("stage_d2_reduction", 9, d + 2,
         mults(quad, [ad, bd]) + mults(cub, [adx, ady, bdx, bdy]), 12, False),
        ("stage_d2_joint", 18, d + 2,
         (mults(lin, [ad1, bd1]) + mults(quad, [ad1x, ad1y, bd1x, bd1y]))
         if have_next else None, 21, True),
    ]
    checks = []
    rows: list[list[Fraction]] = []
    for name, min_d, degree, family, expected, joins in table:
        applicable = d >= min_d and family is not None
        actual = None
        if applicable:
            index = {_pack(exp): i for i, exp in enumerate(monomials(2, degree))}
            rows = (rows if joins else []) + [
                list(map(Fraction, _shifted_row(p._integer_terms()[0], _pack(e), index)))
                for p, e in family]
            actual = fraction_matrix_rank(rows)
        passed = (actual == expected) if applicable else True
        checks.append(GuardCheck(name, applicable, expected, actual, passed))
    return GuardReport(lowest_degree=d, checks=tuple(checks))


# --- the decider's earlier radial integration -------------------------------


def fraction_radial_potential(eta: OneForm, order: int) -> TruncSeries:
    """`acforms.decide._radial_potential` on coefficient dicts: x * eta1 +
    y * eta2 over the terms of degree < order, each term of degree m then
    divided by m."""
    one, two = (series_dict(s, order) for s in eta.components)
    radial = poly_add(poly_shift(one, (1, 0)), poly_shift(two, (0, 1)))
    return TruncSeries(2, order + 1, {
        m: HomogPoly(2, m, {e: c / m for e, c in dict_component(radial, m).items()})
        for m in {sum(e) for e in radial}})


# --- rational strings --------------------------------------------------------

_DIGITS_PQ = re.compile(r"-?[0-9]{1,4300}(/[0-9]{1,4300})?")


def str_round_trip_fraction(text) -> Fraction | None:
    """The earlier canonical-rational parser: digits p or p/q parsed as a
    Fraction, accepted only when `str` gives the text back; None where it
    rejected the text."""
    if not isinstance(text, str) or not _DIGITS_PQ.fullmatch(text):
        return None
    num, _, den = text.partition("/")
    try:
        value = Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError):
        return None
    return value if str(value) == text else None


def fraction_series_to_json(series: TruncSeries) -> dict:
    """`acforms.serialize.series_to_json` before it wrote integer terms: each
    coefficient as a Fraction, written by `str`, terms first variable major."""
    terms = []
    for degree in sorted(series.parts):
        coeffs = series.parts[degree].coeffs
        for exp in sorted(coeffs, key=lambda e: tuple(-x for x in e)):
            terms.append({"exp": list(exp), "coeff": str(coeffs[exp])})
    return {"kind": "series", "num_vars": series.num_vars,
            "truncation_order": series.trunc_order, "terms": terms}


# --- polynomial dictionaries -------------------------------------------------


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def poly_sub(p: dict, q: dict) -> dict:
    return poly_add(p, poly_scale(q, Fraction(-1)))


def poly_scale(p: dict, s: Fraction) -> dict:
    return {e: c * s for e, c in p.items() if c * s != 0}


def poly_antiderivative(p: dict, var: int) -> dict:
    out: dict = {}
    for e, c in p.items():
        new = list(e)
        new[var] = e[var] + 1
        out[tuple(new)] = c / new[var]
    return out


def poly_shift(p: dict, exp: tuple[int, ...]) -> dict:
    return {tuple(a + b for a, b in zip(e, exp)): c for e, c in p.items()}


def poly_partial(p: dict, var: int) -> dict:
    out: dict = {}
    for e, c in p.items():
        if e[var] == 0:
            continue
        new = list(e)
        new[var] = e[var] - 1
        out[tuple(new)] = c * e[var]
    return out


def series_dict(series, below: int | None = None) -> dict:
    """All stored terms of degree < below as one exponent dict."""
    cut = series.trunc_order if below is None else below
    out: dict = {}
    for k, part in series.parts.items():
        if k < cut:
            for exp, c in part.coeffs.items():
                out[exp] = c
    return out


def homog_dict(poly) -> dict:
    return dict(poly.coeffs)


def dict_component(p: dict, degree: int) -> dict:
    return {e: c for e, c in p.items() if sum(e) == degree}


# --- brute-force ideal computations -----------------------------------------


def ideal_image_vectors(gens: list[dict], num_vars: int, order: int
                        ) -> tuple[list[tuple[int, ...]], list[list[Fraction]]]:
    """Residues of all monomial multiples of the generators in R / m^order."""
    basis = [e for n in range(order) for e in exponents(num_vars, n)]
    index = {e: i for i, e in enumerate(basis)}
    vectors = []
    for g in gens:
        if not g:
            continue
        low = min(sum(e) for e in g)
        for mdeg in range(order - low):
            for mexp in exponents(num_vars, mdeg):
                prod = poly_mul({mexp: Fraction(1)}, g)
                vec = [Fraction(0)] * len(basis)
                for e, c in prod.items():
                    if sum(e) < order:
                        vec[index[e]] = c
                vectors.append(vec)
    return basis, vectors


def brute_member(target: dict, gens: list[dict], num_vars: int, order: int) -> bool:
    """Whether target lies in the ideal's image in R / m^order."""
    basis, vectors = ideal_image_vectors(gens, num_vars, order)
    index = {e: i for i, e in enumerate(basis)}
    tvec = [Fraction(0)] * len(basis)
    for e, c in target.items():
        if sum(e) < order:
            tvec[index[e]] = c
    return in_span(vectors, tvec)


def brute_cover_degree(gens: list[dict], num_vars: int, n: int) -> bool:
    """Every degree-n monomial inside the ideal modulo m^{n+1}.

    This is true ideal membership, a strictly stronger notion than the
    generator-wise leading-form span below: combinations of generators can
    cancel leading terms and cover degrees the naive span misses.
    """
    basis, vectors = ideal_image_vectors(gens, num_vars, n + 1)
    index = {e: i for i, e in enumerate(basis)}
    for exp in exponents(num_vars, n):
        tvec = [Fraction(0)] * len(basis)
        tvec[index[exp]] = Fraction(1)
        if not in_span(vectors, tvec):
            return False
    return True


def brute_leading_cover(gens: list[dict], num_vars: int, n: int) -> bool:
    """Degree-n forms spanned by degree-n components of monomial multiples.

    For each generator g of lowest degree low <= n, every monomial m of
    degree n - low contributes the degree-n component of the full product
    m*g (which equals m times the leading form of g).  Span is checked by a
    fresh elimination over the degree-n exponent basis.
    """
    basis = exponents(num_vars, n)
    index = {e: i for i, e in enumerate(basis)}
    vectors = []
    for g in gens:
        if not g:
            continue
        low = min(sum(e) for e in g)
        if low > n:
            continue
        for mexp in exponents(num_vars, n - low):
            prod = poly_mul({mexp: Fraction(1)}, g)
            vec = [Fraction(0)] * len(basis)
            for e, c in prod.items():
                if sum(e) == n:
                    vec[index[e]] = c
            vectors.append(vec)
    return rref_rank(vectors) == len(basis)


def brute_min_power(gens: list[dict], num_vars: int, max_n: int) -> int | None:
    for n in range(max_n + 1):
        if brute_leading_cover(gens, num_vars, n):
            return n
    return None


def brute_colength(gens: list[dict], num_vars: int, order: int) -> int:
    """dim R / (I + m^order)."""
    basis, vectors = ideal_image_vectors(gens, num_vars, order)
    return len(basis) - rref_rank(vectors)
