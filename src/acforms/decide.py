"""Decide whether a 1-form's coefficient pair can come from a potential.

Setup: sigma = A dx + B dy with lowest degree d.  A potential Phi with
(Phi_x, Phi_y) = (A, B) as ideals yields series X, Y, Z, W with

    Phi_x = (1+X)A + YB,      Phi_y = ZA + (1+W)B,

and the mixed-partial identity turns into one linear equation per monomial
per degree:

    -A_y + B_x = (XA + YB)_y - (ZA + WB)_x.            (*)

`assemble_system` collects (*) for degrees d-1 .. M-1 over the unknown
coefficients of X, Y, Z, W in degrees 0 .. M-d.  Any true potential
truncates to a solution, so infeasibility of the truncated system refutes
potential existence; feasibility remains inconclusive.

The ungauged system is *never* infeasible: X = W = -1, Y = Z = 0 solves it
exactly (it encodes the constant candidate Phi, whose gradient is zero).
Constant candidates are excluded by the unit condition

    (1 + X0)(1 + W0) - Y0 Z0 != 0,

which makes the change of generators invertible at the origin.  The decider
takes one path, a scan over the degree prefixes d-1 .. k in increasing k.
The equations are built as integer rows, one block per degree with one
scale, straight from the components' integer terms (`_integer_blocks`;
`assemble_system` is their Fraction view).  One column pass, a `RowBasis`
over the gauge row X0 = 0 followed by every block, scans each row once and
gives each block's rows independent of the rows before them, and whether
the gauged prefix is still consistent.  Paired with (constant candidate,
-1), every row of [matrix | rhs] gives 0 and the gauge row gives -1, so the
gauge row is never in the span of the equations, and a block's
independent rows are the same with or without it.  Each branch
feeds only those rows to one `Echelon`, so its solution sets are those of
the full prefixes, and reads each prefix off at its block boundary.

* The ungauged scan checks whether each prefix forces (Y0, Z0).  The
  constant candidate solves every prefix, so none is inconsistent, and a
  longer prefix only adds equations, so a value forced on one prefix is
  forced on the whole system.  The scan stops at the first prefix that
  forces (Y0, Z0) = (0, 0), provided the leading forms of A, B are
  independent.  Then every potential-induced solution must have
  1 + X0 != 0 (the unit condition degenerates to (1+X0)(1+W0) != 0, and a
  minimal-generator argument rules out 1 + X0 = 0), so it can be rescaled
  to X0 = 0, and the gauge X0 = 0 (one extra row) is equivalent for
  existence questions.
* With the gauge, a fresh echelon is fed the gauge row, then the basis
  rows of each block.  The first prefix the column pass finds
  inconsistent never reaches it: it gives the failing degree, and the
  column pass back-substitutes a Farkas certificate for that prefix with
  the gauge row appended, built as Fractions only then: a proof that no
  potential exists.
* Without a gauge no refutation is attempted; the scan ran to the last
  prefix, which is the whole system.
* Each consistent prefix of the branch taken records its affine dimension
  and forced values per unknown block, read off the integer reduced rows:
  the staged view.  When every prefix is consistent, the unit condition is
  decided on the solution set of the last one, giving
  feasible-or-degenerate.

Columns are addressed by their position in `assemble_system`'s layout
(`_column`), never by label.  Results are typed records: a `StageRecord`
per prefix with a `BlockRecord` per unknown degree, and a `PotentialWitness`.

The unit condition is decided exactly: particular point first, then
symbolic expansion of the restricted quadratic; if it is not identically
zero on the solution set, a nonzero point is found by zeroing all but the
(at most two) variables of a surviving monomial and scanning {-1, 0, 1} per
variable, which is complete for per-variable degree <= 2.

The genericity guard measures the explicit leading-coefficient ranks that
the staged elimination relies on; seeds failing any applicable check are
meant to be rejected by drivers before refutation-grade conclusions are
drawn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .ideals import TruncatedIdeal, ideal_contained_mod, ideal_equal_mod
from .linalg import (AffineSystem, Echelon, FarkasCertificate, RowBasis, SolutionSet,
                     farkas_certificate, functional_range, matrix_rank)
from .poly import HomogPoly, MismatchError, OneForm, TruncSeries, monomials

UNKNOWN_NAMES = ("X", "Y", "Z", "W")
GAUGE_ROW_LABEL = "gauge:X:0,0"


def _column(name: str, exp: tuple[int, int]) -> int:
    """Column of the coefficient of x^a y^b in unknown `name`: unknown degree
    j = a + b, then name, then monomial.  Block j starts after 4*(1 + ... + j)
    columns and has j+1 per name, by the exponent of y; X0 .. W0 are 0 .. 3."""
    j = exp[0] + exp[1]
    return 2 * j * (j + 1) + UNKNOWN_NAMES.index(name) * (j + 1) + exp[1]


def _validate_sigma(sigma: OneForm, order: int) -> int:
    if sigma.num_vars != 2:
        raise MismatchError("the decider handles 1-forms in two variables")
    d = sigma.lowest_degree()
    if d is None or d < 1:
        raise MismatchError("the 1-form must vanish at the origin and be nonzero")
    if order < d:
        raise MismatchError(f"order {order} below the lowest degree {d} carries no equations")
    if sigma.trunc_order < order + 1:
        raise MismatchError(
            f"order {order} needs components below degree {order + 1}, "
            f"but the form is certified below {sigma.trunc_order}")
    return d


def _num_columns(top: int) -> int:
    """Column count for unknown degrees 0 .. top: where degree top+1 would start."""
    return _column("X", (top + 1, 0))


def _column_labels(top: int) -> list[str]:
    """`name:a,b` per column of unknown degrees 0 .. top, in `_column` order."""
    return [f"{name}:{exp[0]},{exp[1]}" for j in range(top + 1)
            for name in UNKNOWN_NAMES for exp in monomials(2, j)]


def _integer_blocks(sigma: OneForm, d: int, order: int) -> list[tuple[int, list[list[int]]]]:
    """Identity (*) as integer rows of [matrix | rhs], one block per equation
    degree k = d-1 .. order-1: each block's rows times one positive integer,
    its scale, paired with that scale.

    The degree-k rows read the components of degrees k+1-(order-d) .. k+1,
    whose integer terms are brought to the lcm of their denominators.  Row
    i of the block is the monomial x^(k-i) y^i, as in `monomials`.
    """
    a, b = sigma.components
    top = order - d
    n = _num_columns(top)
    terms = {(name, i): series.component(i)._integer_terms()
             for name, series in (("A", a), ("B", b)) for i in range(max(d - top, 0), order + 1)}
    blocks = []
    for k in range(d - 1, order):
        degrees = range(max(k + 1 - top, 0), k + 2)
        scale = math.lcm(*[terms[name, i][1] for name in "AB" for i in degrees])
        rows = [[0] * (n + 1) for _ in range(k + 1)]
        for i in degrees:
            j = k + 1 - i
            for name in UNKNOWN_NAMES:
                # X, Y enter through d/dy of their products, Z, W through -d/dx
                poly, den = terms["A" if name in "XZ" else "B", i]
                f = scale // den
                for exp in monomials(2, j):
                    c = _column(name, exp)
                    for (e0, e1), v in poly:
                        t0, t1 = e0 + exp[0], e1 + exp[1]
                        if name in "XY":
                            if t1:
                                rows[t1 - 1][c] = f * v * t1
                        elif t0:
                            rows[t1][c] = -f * v * t0
        # the right-hand side d/dx B_{k+1} - d/dy A_{k+1}
        for name, sign, var in (("B", 1, 0), ("A", -1, 1)):
            poly, den = terms[name, k + 1]
            f = sign * (scale // den)
            for exp, v in poly:
                if exp[var]:
                    rows[exp[1] - var][n] += f * v * exp[var]
        blocks.append((scale, rows))
    return blocks


def _fraction_view(blocks: list[tuple[int, list[list[int]]]], d: int, top: int) -> AffineSystem:
    """The integer blocks of equation degrees d-1, d, ... as an `AffineSystem`
    over unknown degrees 0 .. top, each entry divided by its block's scale."""
    zero = Fraction(0)
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    row_labels: list[str] = []
    for k, (scale, rows) in enumerate(blocks, start=d - 1):
        for i, row in enumerate(rows):
            values = [Fraction(v, scale) if v else zero for v in row]
            rhs.append(values.pop())
            matrix.append(values)
            row_labels.append(f"deg{k}:{k - i},{i}")
    return AffineSystem(matrix=matrix, rhs=rhs, column_labels=_column_labels(top),
                        row_labels=row_labels)


def assemble_system(sigma: OneForm, order: int) -> AffineSystem:
    """One equation per monomial per degree d-1 .. order-1 of identity (*).

    Unknown columns are the coefficients of X, Y, Z, W in degrees
    0 .. order-d, laid out by unknown degree, then name, then monomial (see
    `_column`) and labelled `name:a,b` by exponent; rows are grouped by
    equation degree and labelled `deg<k>:a,b` by degree and monomial.  This
    is the Fraction view of `_integer_blocks`.
    """
    d = _validate_sigma(sigma, order)
    return _fraction_view(_integer_blocks(sigma, d, order), d, order - d)


def with_gauge(system: AffineSystem) -> AffineSystem:
    """Append the normalization row X0 = 0."""
    row = [Fraction(0)] * system.num_cols
    row[_column("X", (0, 0))] = Fraction(1)
    return AffineSystem(matrix=[list(r) for r in system.matrix] + [row],
                        rhs=list(system.rhs) + [Fraction(0)],
                        column_labels=list(system.column_labels),
                        row_labels=list(system.row_labels) + [GAUGE_ROW_LABEL])


def _gauge_row(num_cols: int) -> list[int]:
    """The gauge row X0 = 0 of [matrix | rhs] as integers."""
    row = [0] * (num_cols + 1)
    row[_column("X", (0, 0))] = 1
    return row


# ---------------------------------------------------------------------------
# genericity guard


@dataclass(frozen=True)
class GuardCheck:
    name: str
    applicable: bool
    expected_rank: int
    actual_rank: int | None
    passed: bool


@dataclass(frozen=True)
class GuardReport:
    lowest_degree: int
    checks: tuple[GuardCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> GuardCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _coefficient_rows(polys: list[HomogPoly], degree: int) -> list[list[int]]:
    """The polynomials' coefficient rows, each scaled to integers."""
    index = {exp: i for i, exp in enumerate(monomials(2, degree))}
    rows = []
    for p in polys:
        row = [0] * len(index)
        for exp, v in p._integer_terms()[0]:
            row[index[exp]] = v
        rows.append(row)
    return rows


def genericity_guard(sigma: OneForm) -> GuardReport:
    """Rank conditions the staged elimination relies on, per leading block.

    The staged analysis treats certain monomial multiples of the leading
    coefficients (and, at later stages, the next coefficients) as having no
    relations beyond the derivative symmetry of the leading pair, the Euler
    identities, and the almost-closed identity linking consecutive degrees.
    Each check asserts that the corresponding family has exactly the rank
    those relations predict.  A random draw over bounded integers can miss
    these open conditions, hence the explicit re-verification.
    """
    if sigma.num_vars != 2:
        raise MismatchError("the guard handles 1-forms in two variables")
    d = sigma.lowest_degree()
    if d is None:
        raise MismatchError("zero form has no leading data to check")
    a, b = sigma.components
    ad, bd = a.component(d), b.component(d)
    adx, ady = ad.partial(0), ad.partial(1)
    bdx, bdy = bd.partial(0), bd.partial(1)
    lin = [(1, 0), (0, 1)]
    quad = [(2, 0), (1, 1), (0, 2)]
    cub = [(3, 0), (2, 1), (1, 2), (0, 3)]

    def mults(exps: list[tuple[int, int]], polys: list[HomogPoly]) -> list[HomogPoly]:
        return [p.shift(e) for p in polys for e in exps]

    have_next = sigma.trunc_order > d + 1
    if have_next:
        ad1, bd1 = a.component(d + 1), b.component(d + 1)
        ad1x, ad1y = ad1.partial(0), ad1.partial(1)
        bd1x, bd1y = bd1.partial(0), bd1.partial(1)

    # (name, least d, degree, polynomials, expected rank, joins): a joint
    # family is the reduction family just before it plus the polynomials
    # listed, so its rank is read after extending that family's echelon
    table: list[tuple[str, int, int, list[HomogPoly] | None, int, bool]] = [
        ("leading_pair", 1, d, [ad, bd], 2, False),
        ("degree0_forcing", 3, d - 1, [adx, ady, bdy], 3, False),
        ("stage_d", 5, d,
         [ad] + mults(lin, [adx, ady]) + [bd] + mults(lin, [bdx, bdy]), 6, False),
        ("stage_d1_reduction", 7, d + 1,
         mults(lin, [ad]) + mults(quad, [adx, ady]) + mults(lin, [bd])
         + mults(quad, [bdx, bdy]), 9, False),
        ("stage_d1_joint", 13, d + 1,
         ([ad1] + mults(lin, [ad1x, ad1y]) + [bd1] + mults(lin, [bd1x, bd1y]))
         if have_next else None, 15, True),
        ("stage_d2_reduction", 9, d + 2,
         mults(quad, [ad, bd]) + mults(cub, [adx, ady, bdx, bdy]), 12, False),
        ("stage_d2_joint", 18, d + 2,
         (mults(lin, [ad1, bd1]) + mults(quad, [ad1x, ad1y, bd1x, bd1y]))
         if have_next else None, 21, True),
    ]
    checks = []
    echelon: Echelon | None = None
    for name, min_d, degree, polys, expected, joins in table:
        applicable = d >= min_d and polys is not None
        actual = None
        if applicable:
            if echelon is None or not joins:
                echelon = Echelon(degree + 1)
            echelon.extend(_coefficient_rows(polys, degree))
            actual = echelon.rank
        passed = (actual == expected) if applicable else True
        checks.append(GuardCheck(name, applicable, expected, actual, passed))
    return GuardReport(lowest_degree=d, checks=tuple(checks))


# ---------------------------------------------------------------------------
# unit condition


def _unit_value(point: list[Fraction]) -> Fraction:
    x0, y0, z0, w0 = point[:4]
    return (1 + x0) * (1 + w0) - y0 * z0


def find_unit_solution(solution: SolutionSet) -> list[Fraction] | None:
    """A solution with (1+X0)(1+W0) - Y0 Z0 != 0, or None if none exists.

    The particular point is tried first.  Otherwise the quadratic is
    expanded symbolically in the nullspace weights; if some coefficient
    survives, its monomial names at most two weights, and a {-1,0,1} scan
    over just those two (complete for per-variable degree <= 2) produces a
    nonzero point.  Returns None only when the quadratic is identically zero
    on the solution set.  X0, Y0, Z0, W0 are the first four coordinates.
    """
    if _unit_value(solution.particular) != 0:
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
    # the particular point failed above, so the constant term is zero
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
            weights = [assign.get(i, Fraction(0)) for i in range(m)]
            return solution.point(weights)
    raise AssertionError("restricted nonzero quadratic vanished on its own grid")


# ---------------------------------------------------------------------------
# reconstruction


class ClosednessError(ValueError):
    """Input 1-form is not closed far enough to integrate."""

    def __init__(self, failing_degree: int):
        super().__init__(f"closedness residual is nonzero in degree {failing_degree}")
        self.failing_degree = failing_degree


def closedness_residual(eta: OneForm) -> TruncSeries:
    if eta.num_vars != 2:
        raise MismatchError("closedness handled for two variables")
    one, two = eta.components
    return one.partial(1).sub(two.partial(0))


def closed_extension_order(eta: OneForm) -> int:
    """Largest order up to which eta integrates: components certified and the
    closedness residual zero below order-1."""
    resid = closedness_residual(eta)
    for k in range(resid.trunc_order):
        if not resid.component(k).is_zero:
            return k + 1
    return eta.trunc_order


def integrate_closed(eta: OneForm, order: int) -> TruncSeries:
    """Potential of a closed 1-form below `order`, normalized to vanish at 0.

    Radial integration: the degree k+1 part is (x*eta1_k + y*eta2_k)/(k+1);
    the Euler identity plus closedness below order-1 make its gradient match
    eta below `order` exactly.
    """
    if eta.num_vars != 2:
        raise MismatchError("integration handled for two variables")
    if eta.trunc_order < order:
        raise MismatchError(f"components below {order} not certified "
                            f"(truncation order {eta.trunc_order})")
    resid = closedness_residual(eta)
    for k in range(order - 1):
        if not resid.component(k).is_zero:
            raise ClosednessError(k)
    one, two = eta.components
    parts = {}
    for k in range(order):
        radial = one.component(k).shift((1, 0)).add(two.component(k).shift((0, 1)))
        if not radial.is_zero:
            parts[k + 1] = radial.scale(Fraction(1, k + 1))
    return TruncSeries(2, order + 1, parts)


def verify_potential(phi: TruncSeries, omega: OneForm, order: int) -> bool:
    """True iff the gradient ideal of phi equals the component ideal of omega
    modulo m^order.  Supports two and three variables.

    This compares ideals, which is the same as comparing zero schemes: phi
    is accepted whenever its gradient ideal matches, not only when the
    gradient is a unit multiple of omega.  For example, with omega =
    e^{-z} d((x^2+y^2) e^z), adding x^3 to phi turns d/dx phi into
    x (2e^z + 3x), a unit times x, so the ideal is still (x, y) and the
    perturbed phi is accepted."""
    nv = omega.num_vars
    if nv not in (2, 3):
        raise MismatchError(f"potential verification supports 2 or 3 variables, got {nv}")
    if phi.num_vars != nv:
        raise MismatchError("potential and form disagree on variable count")
    grads = tuple(phi.partial(i) for i in range(nv))
    if grads[0].trunc_order < order or omega.trunc_order < order:
        raise MismatchError(f"truncation too short for modulus degree {order}")
    return ideal_equal_mod(TruncatedIdeal(grads), TruncatedIdeal(omega.components), order)


def _series_from_point(point: list[Fraction], trunc: int) -> list[TruncSeries]:
    """X, Y, Z, W read off a solution point by the column layout of
    `assemble_system`: unknown degree, then name, then monomial."""
    parts: list[list[HomogPoly]] = [[] for _ in UNKNOWN_NAMES]
    values = iter(point)
    for j in range(trunc):
        for polys in parts:
            terms = {exp: next(values) for exp in monomials(2, j)}
            polys.append(HomogPoly.from_terms(2, j, terms))
    return [TruncSeries.from_parts(2, trunc, polys) for polys in parts]


def scaled_pair(sigma: OneForm, x: TruncSeries, y: TruncSeries,
                z: TruncSeries, w: TruncSeries) -> OneForm:
    """The candidate gradient ((1+X)A + YB, ZA + (1+W)B)."""
    a, b = sigma.components
    one = a.add(x.mul(a)).add(y.mul(b))
    two = z.mul(a).add(b).add(w.mul(b))
    order = min(one.trunc_order, two.trunc_order)
    return OneForm((one.truncate(order), two.truncate(order)))


@dataclass(frozen=True)
class PotentialWitness:
    """Unknowns of a unit solution and the potential they integrate to; the
    gradient of phi matches the scaled pair below `gradient_matches_below`."""

    X: TruncSeries
    Y: TruncSeries
    Z: TruncSeries
    W: TruncSeries
    phi: TruncSeries
    gradient_matches_below: int


def _reconstruct(sigma: OneForm, order: int, point: list[Fraction]) -> PotentialWitness:
    series = _series_from_point(point, order - sigma.lowest_degree() + 1)
    eta = scaled_pair(sigma, *series)
    extension = closed_extension_order(eta)
    if extension <= order:
        raise AssertionError(
            f"system solution left a nonzero closedness residual at degree {extension - 1}")
    phi = integrate_closed(eta, extension)
    grads = (phi.partial(0), phi.partial(1))
    if not ideal_contained_mod(TruncatedIdeal(grads),
                               TruncatedIdeal(sigma.components), order):
        raise AssertionError("gradient ideal escaped the component ideal")
    return PotentialWitness(*series, phi=phi, gradient_matches_below=extension)


# ---------------------------------------------------------------------------
# outcome assembly


@dataclass(frozen=True)
class BlockRecord:
    """One unknown-degree block on a consistent prefix: the affine dimension
    of its projection, and the value of each of its columns that is the
    same on every solution, keyed by column label."""

    dim: int
    forced: dict[str, Fraction]


@dataclass(frozen=True)
class StageRecord:
    """The prefix of equation degrees d-1 .. through_degree; `blocks` is
    indexed by unknown degree and empty when the prefix is inconsistent."""

    through_degree: int
    feasible: bool
    blocks: tuple[BlockRecord, ...] = ()


@dataclass
class DeciderOutcome:
    verdict: str  # infeasible | feasible_up_to_M | degenerate
    order: int
    lowest_degree: int
    failing_degree: int | None = None
    certificate: FarkasCertificate | None = None
    failing_system: AffineSystem | None = None
    witness: PotentialWitness | None = None
    staged: list[StageRecord] = field(default_factory=list)
    gauge: str = "none"
    branch: str = ""
    guard: GuardReport | None = None
    notes: list[str] = field(default_factory=list)


def _stage_record(echelon: Echelon, reduced: list[list[int]], top: int, k: int,
                  labels: list[str]) -> StageRecord:
    """Per unknown-degree block of a consistent prefix through degree k: the
    dimension of its projection and its columns fixed on every solution,
    read off the integer reduced rows of the prefix's echelon.

    With P the pivot columns, F the free ones and J the block's, the
    projection has dimension |F & J| + rank R[P & J, F - J], R the reduced
    rows; a column is fixed when it is a pivot column whose reduced row is
    zero on every free column, and its value is then rhs / pivot.
    """
    n = echelon.ncols
    rows = dict(zip(echelon.pivots, reduced))
    free = [c for c in range(n) if c not in rows]
    blocks = []
    for j in range(top + 1):
        lo, hi = _column("X", (j, 0)), _column("X", (j + 1, 0))
        inside = [c for c in range(lo, hi) if c in rows]
        outside = [f for f in free if not lo <= f < hi]
        dim = hi - lo - len(inside) + matrix_rank([[rows[c][f] for f in outside]
                                                   for c in inside])
        forced = {labels[c]: Fraction(rows[c][n], rows[c][c]) for c in inside
                  if not any(rows[c][f] for f in free)}
        blocks.append(BlockRecord(dim, forced))
    return StageRecord(k, True, tuple(blocks))


def _column_pass(basis: RowBasis, blocks: list[tuple[int, list[list[int]]]]
                 ) -> Iterator[tuple[list[list[int]], bool]]:
    """Scan the blocks in order; per block, its rows that are independent of
    the rows before them, and whether the rows scanned so far are consistent."""
    for _, block in blocks:
        start = basis.scanned
        yield [block[i - start] for i in basis.extend(len(block))], basis.consistent


def decide(sigma: OneForm, order: int, guard: GuardReport | None = None) -> DeciderOutcome:
    """Full decision pipeline; all outcomes are values, never exceptions.

    Verdicts: `infeasible` (with failing degree and Farkas certificate —
    a proof, given the recorded degree-0 forcing and leading independence),
    `feasible_up_to_M` (with reconstructed unknowns and potential candidate;
    explicitly inconclusive about genuine existence), or `degenerate` (the
    system is solvable but every solution fails the unit condition).
    `guard` is `genericity_guard(sigma)` when the caller already has it.
    """
    d = _validate_sigma(sigma, order)
    top = order - d
    blocks = _integer_blocks(sigma, d, order)
    n = _num_columns(top)
    labels = _column_labels(top)
    notes: list[str] = []

    # each integer row is its Fraction row times a positive integer, so the
    # constant candidate X0 = W0 = -1 solves the one exactly when it solves
    # the other
    x0, w0 = _column("X", (0, 0)), _column("W", (0, 0))
    if any(-row[x0] - row[w0] != row[n] for _, rows in blocks for row in rows):
        raise AssertionError("constant-candidate self-test failed: assembled "
                             "system is inconsistent with its own identity")
    notes.append("self-test: constant-candidate solution satisfies the system")

    guard = genericity_guard(sigma) if guard is None else guard
    independent = guard.check("leading_pair").passed
    gauge_row = _gauge_row(n)
    basis = RowBasis([gauge_row] + [row for _, rows in blocks for row in rows], n)
    basis.extend(1)
    scan, rescan = itertools.tee(_column_pass(basis, blocks))

    records: list[StageRecord] = []
    gauged = False
    echelon = Echelon(n)
    for k, (independent_rows, _) in enumerate(scan, start=d - 1):
        echelon.extend(independent_rows)
        if not echelon.consistent:
            raise AssertionError("ungauged prefix reported infeasible despite the "
                                 "constant-candidate solution")
        reduced = echelon.reduced()
        record = _stage_record(echelon, reduced, top, k, labels)
        degree0 = record.blocks[0].forced
        forced_zero = all(degree0.get(labels[_column(name, (0, 0))]) == 0 for name in "YZ")
        if forced_zero and independent:
            gauged = True
            break
        records.append(record)

    if gauged:
        branch, gauge = "forced_degree0", "X0=0"
        records = []
        echelon = Echelon(n)
        echelon.extend([gauge_row])
        for k, (independent_rows, consistent) in enumerate(rescan, start=d - 1):
            if not consistent:
                failing = blocks[:k - d + 2]
                prefix = with_gauge(_fraction_view(failing, d, top))
                num, den = basis.combination(prefix.num_rows)
                # the basis scanned the gauge row first; the prefix ends with it
                scales = [scale for scale, rows in failing for _ in rows] + [1]
                certificate = farkas_certificate(prefix, scales, num[1:] + num[:1], den)
                records.extend(StageRecord(j, False) for j in range(k, order))
                return DeciderOutcome(
                    verdict="infeasible", order=order, lowest_degree=d, failing_degree=k,
                    certificate=certificate, failing_system=prefix, staged=records,
                    gauge=gauge, branch=branch, guard=guard, notes=notes)
            echelon.extend(independent_rows)
            reduced = echelon.reduced()
            records.append(_stage_record(echelon, reduced, top, k, labels))
    else:
        branch, gauge = "open_degree0", "none"
        if forced_zero:
            notes.append("degree-0 coefficients forced but the leading pair is "
                         "dependent; refutation path disabled")

    common = dict(order=order, lowest_degree=d, staged=records, gauge=gauge,
                  branch=branch, guard=guard, notes=notes)
    unit = find_unit_solution(echelon.solution(reduced))
    if unit is None:
        notes.append("every normalized solution fails the unit condition" if gauged
                     else "every solution fails the unit condition")
        return DeciderOutcome(verdict="degenerate", **common)
    witness = _reconstruct(sigma, order, unit)
    return DeciderOutcome(verdict="feasible_up_to_M", witness=witness, **common)


def staged_report(outcome: DeciderOutcome) -> str:
    """Text table: per cumulative degree, the affine dimension of each
    unknown-degree block, with forced values spelled out where dimension is 0."""
    lines = [f"cumulative staged view (gauge: {outcome.gauge})"]
    top = outcome.order - outcome.lowest_degree
    header = "through | " + " | ".join(f"block {j} dim" for j in range(top + 1))
    lines.append(header)
    for record in outcome.staged:
        k = record.through_degree
        if not record.feasible:
            lines.append(f"{k:7d} | infeasible")
            continue
        dims = " | ".join(f"{block.dim:11d}" for block in record.blocks)
        lines.append(f"{k:7d} | {dims}")
        for j, block in enumerate(record.blocks):
            if block.dim == 0 and block.forced:
                forced = ", ".join(f"{lbl}={val}" for lbl, val in
                                   sorted(block.forced.items()) if val != 0)
                lines.append(f"        |   block {j} forced: {forced or 'all zero'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# obstruction scalars


def _degree1(series: TruncSeries, name: str) -> HomogPoly:
    if series.trunc_order < 2:
        raise MismatchError(f"{name} must certify degrees 0 and 1 "
                            f"(truncation order {series.trunc_order})")
    return series.component(1)


def obstruction(c: TruncSeries, d: TruncSeries) -> Fraction:
    """The scalar C1_x + D1_y controlling the degree d+2 contradiction."""
    c1 = _degree1(c, "C")
    d1 = _degree1(d, "D")
    return c1.coeff((1, 0)) + d1.coeff((0, 1))


def tilde_transform(c: TruncSeries, d: TruncSeries) -> tuple[HomogPoly, HomogPoly]:
    """Linear parts shifted by the forced degree-1 unknown: the staged
    elimination replaces (C1, D1) by (C1 + C0*L, D1 + D0*L) with
    L = D0*x - C0*y; the obstruction scalar is invariant under this shift."""
    c1 = _degree1(c, "C")
    d1 = _degree1(d, "D")
    c0 = c.component(0).coeff((0, 0))
    d0 = d.component(0).coeff((0, 0))
    shift = HomogPoly.from_terms(2, 1, {(1, 0): d0, (0, 1): -c0})
    return c1.add(shift.scale(c0)), d1.add(shift.scale(d0))


def obstruction_pair_check(sigma: OneForm, c: TruncSeries, d_series: TruncSeries) -> dict:
    """Consistency of the two overlapping forced constraints on the
    degree-2 unknown block.

    Equations through degree d+1 force the combination Z2_xx - Y2_yy to one
    value; adding degree d+2 forces a second, differently scaled value of
    the same combination.  The pair is consistent exactly when the
    obstruction scalar vanishes; this check reports both forced values (from
    normalized prefix systems) and whether they agree.  Consistency is a
    necessary condition only — no feasibility claim is implied.
    """
    d = sigma.lowest_degree()
    if d is None or d < 1:
        raise MismatchError("the 1-form must vanish at the origin and be nonzero")
    order = d + 3
    _validate_sigma(sigma, order)
    blocks = _integer_blocks(sigma, d, order)
    ct, dt = tilde_transform(c, d_series)
    tilde_sum = ct.coeff((1, 0)) + dt.coeff((0, 1))
    functional = {_column("Z", (2, 0)): Fraction(2), _column("Y", (0, 2)): Fraction(-2)}
    out: dict = {
        "obstruction": obstruction(c, d_series),
        "tilde_obstruction": tilde_sum,
        "predicted_first": 2 * tilde_sum / (d + 3),
        "predicted_second": 2 * tilde_sum / (d + 4),
    }
    # one echelon: the gauge row, the rows through degree d+1, then degree d+2
    n = _num_columns(order - d)
    echelon = Echelon(n)
    echelon.extend([_gauge_row(n)])
    for key, fed in (("first", blocks[:3]), ("second", blocks[3:])):
        echelon.extend([row for _, rows in fed for row in rows])
        if not echelon.consistent:
            out[key] = {"feasible": False}
        else:
            forced, value = functional_range(echelon.solution(), functional)
            out[key] = {"feasible": True, "forced": forced, "value": value}
    first, second = out["first"], out["second"]
    out["consistent"] = second["feasible"] and not (
        first["feasible"] and first["forced"] and second["forced"]
        and first["value"] != second["value"])
    return out
