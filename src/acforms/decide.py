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
The assembled rows are scaled to integers once, and each branch feeds them
to one `Echelon`, a degree block at a time, so every row is eliminated once
per branch; a prefix's consistency and solution set are read off at its
block boundary.

* The ungauged scan projects each prefix's solution set onto (Y0, Z0).  The
  constant candidate solves every prefix, so none is inconsistent, and a
  longer prefix only adds equations, so a value forced on one prefix is
  forced on the whole system.  The scan stops at the first prefix whose
  projection is exactly {(0, 0)}, provided the leading forms of A, B are
  independent.  Then every potential-induced solution must have
  1 + X0 != 0 (the unit condition degenerates to (1+X0)(1+W0) != 0, and a
  minimal-generator argument rules out 1 + X0 = 0), so it can be rescaled
  to X0 = 0, and the gauge X0 = 0 (one extra row) is equivalent for
  existence questions.
* With the gauge, a fresh echelon is fed the gauge row, then the blocks
  again.  The first inconsistent prefix gives the failing degree and a
  Farkas certificate for that prefix with the gauge row appended: a proof
  that no potential exists.
* Without a gauge no refutation is attempted; the scan ran to the last
  prefix, which is the whole system.
* Each consistent prefix of the branch taken records its affine dimension
  and forced values per unknown block: the staged view.  When every prefix
  is consistent, the unit condition is decided on the solution set of the
  last one, giving feasible-or-degenerate.

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

from dataclasses import dataclass, field
from fractions import Fraction

from .ideals import TruncatedIdeal, ideal_contained_mod, ideal_equal_mod
from .linalg import (AffineSystem, Echelon, FarkasCertificate, SolutionSet,
                     farkas_certificate, functional_range, integer_rows,
                     project_solution_set)
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


def assemble_system(sigma: OneForm, order: int) -> AffineSystem:
    """One equation per monomial per degree d-1 .. order-1 of identity (*).

    Unknown columns are the coefficients of X, Y, Z, W in degrees
    0 .. order-d, laid out by unknown degree, then name, then monomial (see
    `_column`) and labelled `name:a,b` by exponent; rows are grouped by
    equation degree and labelled `deg<k>:a,b` by degree and monomial.
    """
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
            j = sum(exp)
            comp_degree = k + 1 - j
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
    return AffineSystem(matrix=matrix, rhs=rhs, column_labels=col_labels,
                        row_labels=row_labels)


def with_gauge(system: AffineSystem) -> AffineSystem:
    """Append the normalization row X0 = 0."""
    row = [Fraction(0)] * system.num_cols
    row[_column("X", (0, 0))] = Fraction(1)
    return AffineSystem(matrix=[list(r) for r in system.matrix] + [row],
                        rhs=list(system.rhs) + [Fraction(0)],
                        column_labels=list(system.column_labels),
                        row_labels=list(system.row_labels) + [GAUGE_ROW_LABEL])


def _prefix_rows(d: int, through_degree: int) -> int:
    """Row count of the equation degrees d-1 .. through_degree: rows come
    grouped by degree and the degree-k block has k+1 rows."""
    return ((through_degree + 1) * (through_degree + 2) - (d - 1) * d) // 2


def _prefix(system: AffineSystem, d: int, through_degree: int) -> AffineSystem:
    """Rows of equation degree d-1 .. through_degree of an assembled system,
    a slice by row count."""
    n = _prefix_rows(d, through_degree)
    return AffineSystem(matrix=system.matrix[:n], rhs=system.rhs[:n],
                        column_labels=list(system.column_labels),
                        row_labels=system.row_labels[:n])


def _gauge_row(num_cols: int) -> list[int]:
    """The gauge row X0 = 0 of [matrix | rhs] as integers."""
    row = [0] * (num_cols + 1)
    row[_column("X", (0, 0))] = 1
    return row


def _block(rows: list[list[int]], d: int, k: int) -> list[list[int]]:
    """The equation-degree-k rows of an assembled system's rows."""
    return rows[_prefix_rows(d, k - 1):_prefix_rows(d, k)]


def trivial_solution(system: AffineSystem) -> list[Fraction]:
    """X = W = -1, Y = Z = 0: the constant-candidate solution of (*)."""
    point = [Fraction(0)] * system.num_cols
    point[_column("X", (0, 0))] = Fraction(-1)
    point[_column("W", (0, 0))] = Fraction(-1)
    return point


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


def _stage_record(system: AffineSystem, d: int, order: int, k: int,
                  solution: SolutionSet) -> StageRecord:
    """Per unknown-degree block of a consistent prefix through degree k: the
    dimension of its projection and its columns fixed on every solution."""
    moving = {i for vec in solution.nullspace_basis for i, v in enumerate(vec) if v}
    blocks = []
    for j in range(order - d + 1):
        columns = range(_column("X", (j, 0)), _column("X", (j + 1, 0)))
        dim, base = project_solution_set(solution, columns)
        forced = {system.column_labels[c]: value for c, value in zip(columns, base)
                  if c not in moving}
        blocks.append(BlockRecord(dim, forced))
    return StageRecord(k, True, tuple(blocks))


def decide(sigma: OneForm, order: int) -> DeciderOutcome:
    """Full decision pipeline; all outcomes are values, never exceptions.

    Verdicts: `infeasible` (with failing degree and Farkas certificate —
    a proof, given the recorded degree-0 forcing and leading independence),
    `feasible_up_to_M` (with reconstructed unknowns and potential candidate;
    explicitly inconclusive about genuine existence), or `degenerate` (the
    system is solvable but every solution fails the unit condition).
    """
    d = _validate_sigma(sigma, order)
    full = assemble_system(sigma, order)
    n = full.num_cols
    scales, rows = integer_rows(full)
    notes: list[str] = []

    # each integer row is its Fraction row times a positive integer, so the
    # constant candidate solves the one exactly when it solves the other
    support = [(c, int(v)) for c, v in enumerate(trivial_solution(full)) if v]
    if any(sum(row[c] * v for c, v in support) != row[n] for row in rows):
        raise AssertionError("constant-candidate self-test failed: assembled "
                             "system is inconsistent with its own identity")
    notes.append("self-test: constant-candidate solution satisfies the system")

    guard = genericity_guard(sigma)
    independent = guard.check("leading_pair").passed
    records: list[StageRecord] = []
    gauged = False
    echelon = Echelon(n)
    for k in range(d - 1, order):
        echelon.extend(_block(rows, d, k))
        if not echelon.consistent:
            raise AssertionError("ungauged prefix reported infeasible despite the "
                                 "constant-candidate solution")
        solution = echelon.solution()
        dim0, base0 = project_solution_set(solution, [_column("Y", (0, 0)),
                                                      _column("Z", (0, 0))])
        forced_zero = dim0 == 0 and all(v == 0 for v in base0)
        if forced_zero and independent:
            gauged = True
            break
        records.append(_stage_record(full, d, order, k, solution))

    if gauged:
        branch, gauge = "forced_degree0", "X0=0"
        records = []
        gauge_row = _gauge_row(n)
        echelon = Echelon(n)
        echelon.extend([gauge_row])
        for k in range(d - 1, order):
            echelon.extend(_block(rows, d, k))
            if not echelon.consistent:
                prefix = with_gauge(_prefix(full, d, k))
                m = _prefix_rows(d, k)
                certificate = farkas_certificate(prefix, scales[:m] + [1],
                                                 rows[:m] + [gauge_row])
                records.extend(StageRecord(j, False) for j in range(k, order))
                return DeciderOutcome(
                    verdict="infeasible", order=order, lowest_degree=d, failing_degree=k,
                    certificate=certificate, failing_system=prefix, staged=records,
                    gauge=gauge, branch=branch, guard=guard, notes=notes)
            solution = echelon.solution()
            records.append(_stage_record(full, d, order, k, solution))
    else:
        branch, gauge = "open_degree0", "none"
        if forced_zero:
            notes.append("degree-0 coefficients forced but the leading pair is "
                         "dependent; refutation path disabled")

    common = dict(order=order, lowest_degree=d, staged=records, gauge=gauge,
                  branch=branch, guard=guard, notes=notes)
    unit = find_unit_solution(solution)
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
    system = assemble_system(sigma, order)
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
    _, rows = integer_rows(system)
    echelon = Echelon(system.num_cols)
    echelon.extend([_gauge_row(system.num_cols)])
    fed = 0
    for key, through in (("first", d + 1), ("second", d + 2)):
        echelon.extend(rows[fed:_prefix_rows(d, through)])
        fed = _prefix_rows(d, through)
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
