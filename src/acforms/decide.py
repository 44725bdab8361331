"""Decide whether a 1-form's coefficient pair can come from a potential.

Setup: sigma = A dx + B dy with lowest degree d.  A potential Phi with
(Phi_x, Phi_y) = (A, B) as ideals yields series X, Y, Z, W with

    Phi_x = (1+X)A + YB,      Phi_y = ZA + (1+W)B,

and the mixed-partial identity turns into one linear equation per monomial
per degree:

    -A_y + B_x = (XA + YB)_y - (ZA + WB)_x.            (*)

`_integer_blocks` yields (*) for degrees d-1 .. M-1, one degree at a time,
over the unknown coefficients of X, Y, Z, W in degrees 0 .. M-d.  Any true
potential truncates to a solution, so infeasibility of the truncated system
refutes potential existence; feasibility remains inconclusive.

The ungauged system is *never* infeasible: X = W = -1, Y = Z = 0 solves it
exactly (it encodes the constant candidate Phi, whose gradient is zero).
Constant candidates are excluded by the unit condition

    (1 + X0)(1 + W0) - Y0 Z0 != 0,

which makes the change of generators invertible at the origin.  The decider
takes one path, a scan over the degree prefixes d-1 .. k in increasing k.
The equations are built as integer rows, one block per degree with one
scale, when the scan reaches it, and the constant candidate must solve a
block before it is scanned, so a refutation builds no block above its
failing degree (`_block_system` stores each row at its block's scale).
One column pass, a `RowBasis` handed the gauge row X0 = 0 and then each
block, scans each row once; at each block boundary it gives whether the
gauged prefix is consistent and a basis of its kernel
{t : [gauge; matrix | rhs].t = 0}, from which each prefix is read, with
no other elimination.  Paired with rhs -1, the constant candidate t*
solves every row of [matrix | rhs] but not the gauge row, so the gauged
kernel plus t* is the ungauged kernel.

* The ungauged view checks whether each prefix forces (Y0, Z0).  The
  constant candidate solves every prefix, so none is inconsistent, and a
  longer prefix only adds equations, so a value forced on one prefix is
  forced on the whole system.  Y0 and Z0 alone are read, each forced to
  zero when touched and zero at the point and in every direction.  The
  ungauged view ends at the first prefix that forces (Y0, Z0) = (0, 0),
  provided the leading forms of A, B are independent.  Then every
  potential-induced solution must have 1 + X0 != 0 (the unit condition
  degenerates to (1+X0)(1+W0) != 0, and a minimal-generator argument rules
  out 1 + X0 = 0), so it can be rescaled to X0 = 0, and the gauge X0 = 0
  (one extra row) is equivalent for existence questions.
* With the gauge, every prefix is read in the gauged view, from the
  kernels kept so far, and the scan stops at the first inconsistent
  gauged prefix, which may come before the one that picked the gauge.  It
  gives the failing degree, and the column pass back-substitutes a Farkas
  certificate for that prefix with the gauge row appended: a proof that
  no potential exists.  The failing system is that prefix's integer
  blocks; only the certificate's entries are built as Fractions.
* Without a gauge no refutation is attempted; the scan ran to the last
  prefix, which is the whole system.
* Once the scan ends, each consistent prefix records its affine dimension
  and forced values per unknown block, read off its kernel in the view
  taken: the staged view.  When every prefix is consistent, the unit
  condition is decided on the last one's solution set, giving
  feasible-or-degenerate.

Columns are addressed by their position in the layout of `_column`, never
by label.  Results are typed records: a `StageRecord` per prefix with a
`BlockRecord` per unknown degree, and a `PotentialWitness`.

Every solution set is read off a kernel one way, by `linalg.read_off`:
the first kernel vector p with a nonzero rhs entry gives the point
-p / p_rhs, and p_rhs * t - t_rhs * p for the others span the directions.
The staged records, the unit search and both stages of the pair check read
it.  The unit condition is decided exactly on the last prefix's solution
set: X0, Y0, Z0, W0 (columns 0 .. 3) of the point and of each direction
give the point first, then symbolic expansion of the restricted quadratic
in the directions' weights; if it is not identically zero on the solution
set, a nonzero point is found by zeroing all but the (at most two) weights
of a surviving monomial and scanning {-1, 0, 1} per weight, which is
complete for per-variable degree <= 2 and any spanning set of directions.

The genericity guard measures the explicit leading-coefficient ranks that
the staged elimination relies on; `guarded_builds`, the drivers' seed loop,
skips the seeds failing any applicable check before refutation-grade
conclusions are drawn.  The guard ranks its families from the largest down
and infers the ranks of those inside an independent one, so a passing guard
at d >= 18 runs one elimination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator

from .construct import Instance, build
from .ideals import MembershipWitness, TruncatedIdeal, _shifted_row, ideal_equal_mod
from .linalg import (AffineSystem, FarkasCertificate, RowBasis, _echelon, farkas_certificate,
                     matrix_rank, read_off)
from .poly import (_FIELD_BITS, _FIELD_MASK, HomogPoly, IntTerms, MismatchError, OneForm,
                   TruncSeries, _packed_monomials, _unpack, monomials)

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


def _integer_blocks(sigma: OneForm, d: int, order: int) -> Iterator[tuple[int, list[list[int]]]]:
    """Identity (*) as integer rows of [matrix | rhs], one block per equation
    degree k = d-1 .. order-1, built when it is asked for: each block's
    rows times one positive integer, its scale, paired with that scale.

    The components' integer terms are taken once, up front.  The degree-k
    rows read the components of degrees max(d, k+1-(order-d)) .. k+1, those
    below d being zero, whose integer terms are brought to the lcm of their
    denominators.  Row i of the block
    is the monomial x^(k-i) y^i, as in `monomials`: the low field of its
    packed key.
    """
    a, b = sigma.components
    top = order - d
    n = _num_columns(top)
    terms = {(name, i): series.component(i)._integer_terms()
             for name, series in (("A", a), ("B", b)) for i in range(d, order + 1)}
    for k in range(d - 1, order):
        degrees = range(max(k + 1 - top, d), k + 2)
        scale = math.lcm(*[terms[name, i][1] for name in "AB" for i in degrees])
        rows = [[0] * (n + 1) for _ in range(k + 1)]
        for i in degrees:
            j = k + 1 - i
            for name in UNKNOWN_NAMES:
                # X, Y enter through d/dy of their products, Z, W through -d/dx
                poly, den = terms["A" if name in "XZ" else "B", i]
                f = scale // den
                for exp, shift in zip(monomials(2, j), _packed_monomials(2, j)):
                    c = _column(name, exp)
                    for key, v in poly:
                        t = key + shift
                        t0, t1 = t >> _FIELD_BITS, t & _FIELD_MASK
                        if name in "XY":
                            if t1:
                                rows[t1 - 1][c] = f * v * t1
                        elif t0:
                            rows[t1][c] = -f * v * t0
        # the right-hand side d/dx B_{k+1} - d/dy A_{k+1}
        for name, sign, var in (("B", 1, 0), ("A", -1, 1)):
            poly, den = terms[name, k + 1]
            f = sign * (scale // den)
            for key, v in poly:
                exp = _unpack(key, 2)
                if exp[var]:
                    rows[exp[1] - var][n] += f * v * exp[var]
        yield scale, rows


def _tested_blocks(sigma: OneForm, d: int, order: int) -> Iterator[tuple[int, list[list[int]]]]:
    """`_integer_blocks`, raising on a block the constant candidate X0 = W0 = -1
    does not solve: it solves an integer row exactly when it solves its Fraction row."""
    x0, w0, n = _column("X", (0, 0)), _column("W", (0, 0)), _num_columns(order - d)
    for scale, rows in _integer_blocks(sigma, d, order):
        if any(-row[x0] - row[w0] != row[n] for row in rows):
            raise AssertionError("constant-candidate self-test failed: assembled "
                                 "system is inconsistent with its own identity")
        yield scale, rows


def _block_system(blocks: list[tuple[int, list[list[int]]]], d: int, top: int) -> AffineSystem:
    """The integer blocks of equation degrees d-1, d, ... as an `AffineSystem`
    over unknown degrees 0 .. top, each row stored at its block's scale."""
    return AffineSystem(
        rows=[row for _, rows in blocks for row in rows],
        scales=[scale for scale, rows in blocks for _ in rows],
        column_labels=_column_labels(top),
        row_labels=[f"deg{k}:{k - i},{i}" for k, (_, rows) in enumerate(blocks, start=d - 1)
                    for i in range(len(rows))])


def with_gauge(system: AffineSystem) -> AffineSystem:
    """Append the normalization row X0 = 0, at scale 1."""
    return AffineSystem(rows=system.rows + [_gauge_row(system.num_cols)],
                        scales=system.scales + [1],
                        column_labels=list(system.column_labels),
                        row_labels=system.row_labels + [GAUGE_ROW_LABEL])


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


def genericity_guard(sigma: OneForm) -> GuardReport:
    """Rank conditions the staged elimination relies on, per leading block.

    The staged analysis treats certain monomial multiples of the leading
    coefficients (and, at later stages, the next coefficients) as having no
    relations beyond the derivative symmetry of the leading pair, the Euler
    identities, and the almost-closed identity linking consecutive degrees.
    Each check asserts that the corresponding family has exactly the rank
    those relations predict.  A random draw over bounded integers can miss
    these open conditions, hence the explicit re-verification.

    The families are ranked from the largest down.  A family holds the rows,
    or x times the rows, of each family it lists, so if its rows come out
    independent so do theirs, with no elimination; independent A_x, A_y, B_y
    rows force an independent leading pair (A_d = l*B_d gives A_y = l*B_y).
    """
    if sigma.num_vars != 2:
        raise MismatchError("the guard handles 1-forms in two variables")
    d = sigma.lowest_degree()
    if d is None:
        raise MismatchError("zero form has no leading data to check")
    a, b = sigma.components
    one, lin, quad, cub = (_packed_monomials(2, k) for k in range(4))

    def derivatives(k: int) -> tuple[list[IntTerms], list[IntTerms]]:
        """A_k, B_k and A_x, A_y, B_y, B_x as integer terms, each at a positive
        scale, which leaves ranks alone; B_x is left out when it equals A_y."""
        pa, pb = a.component(k), b.component(k)
        ax, ay, bx, by = (p.partial(var) for p in (pa, pb) for var in (0, 1))
        return ([p._integer_terms()[0] for p in (pa, pb)],
                [p._integer_terms()[0] for p in [ax, ay, by] + ([] if bx == ay else [bx])])

    def mults(shifts: tuple[int, ...], polys: list[IntTerms]) -> list[tuple]:
        return [(p, e) for p in polys for e in shifts]

    lead, dd = derivatives(d)
    have_next = sigma.trunc_order > d + 1
    dd1 = derivatives(d + 1)[1] if have_next else []

    # (name, least d, degree, (integer terms, packed shift) pairs, expected
    # rank, contained families): each pair is the row of x^shift times the
    # polynomial.  Past the leading pair no family lists A_k, B_k or their
    # multiples: by Euler, k * P = x * P_x + y * P_y, so those rows lie in
    # the span of the family's derivative rows
    table: list[tuple[str, int, int, list | None, int, tuple[str, ...]]] = [
        ("leading_pair", 1, d, mults(one, lead), 2, ()),
        ("degree0_forcing", 3, d - 1, mults(one, dd[:3]), 3, ("leading_pair",)),
        ("stage_d", 5, d, mults(lin, dd), 6, ("degree0_forcing",)),
        ("stage_d1_reduction", 7, d + 1, mults(quad, dd), 9, ("stage_d",)),
        ("stage_d1_joint", 13, d + 1, mults(quad, dd) + mults(lin, dd1) if have_next else None,
         15, ("stage_d1_reduction",)),
        ("stage_d2_reduction", 9, d + 2, mults(cub, dd), 12, ("stage_d1_reduction",)),
        ("stage_d2_joint", 18, d + 2, mults(cub, dd) + mults(quad, dd1) if have_next else None,
         21, ("stage_d2_reduction", "stage_d1_joint")),
    ]
    families = {name: (family, degree, inside) for name, min_d, degree, family, _, inside
                in table if d >= min_d and family is not None}
    ranks: dict[str, int] = {}
    # a family comes before those it contains, so their ranks are known when reached
    for name in reversed(families):
        family, degree, inside = families[name]
        if name not in ranks:
            index = {key: i for i, key in enumerate(_packed_monomials(2, degree))}
            ranks[name] = len(_echelon([_shifted_row(t, e, index) for t, e in family], degree + 1))
        if ranks[name] == len(family):
            ranks.update((sub, len(families[sub][0])) for sub in inside if sub in families)
    checks = [GuardCheck(name, name in ranks, expected, ranks.get(name),
                         ranks.get(name, expected) == expected)
              for name, _, _, _, expected, _ in table]
    return GuardReport(lowest_degree=d, checks=tuple(checks))


def guarded_builds(first: Instance) -> Iterator[tuple[Instance, OneForm, GuardReport]]:
    """(instance, sigma, guard report) of each build of `first` from its seed
    upward whose genericity guard passes; raises once 100 seeds in a row fail."""
    passed = first.seed - 1     # the last seed whose guard passed
    for seed in itertools.count(first.seed):
        if seed - passed > 100:
            raise RuntimeError(f"guard rejected 100 seeds in a row, through seed {seed - 1}")
        instance = replace(first, seed=seed)
        sigma, _ = build(instance)
        guard = genericity_guard(sigma)
        if guard.passed:
            passed = seed
            yield instance, sigma, guard


# ---------------------------------------------------------------------------
# unit condition


def find_unit_solution(particular: list[Fraction], directions: list[list[int]]
                       ) -> list[Fraction] | None:
    """A solution with (1+X0)(1+W0) - Y0 Z0 != 0, or None if none exists.

    The solutions are particular + sum of w_i * directions[i] over weights
    w_i, for any directions that span them, independent or not.  The
    particular point is tried first.  Otherwise the quadratic is expanded
    symbolically in the weights, from columns 0 .. 3 (X0, Y0, Z0, W0) of
    the particular point and of each direction; if some coefficient
    survives, its monomial names at most two weights, and a {-1,0,1} scan
    over just those two (complete for per-variable degree <= 2) produces a
    nonzero point.  Returns None only when the quadratic is identically
    zero on the solution set.
    """
    def point(weights: dict[int, Fraction]) -> list[Fraction]:
        out = list(particular)
        for i, w in weights.items():
            if w:
                out = [x + w * y for x, y in zip(out, directions[i])]
        return out

    xp, yp, zp, wp = particular[:4]
    if (1 + xp) * (1 + wp) - yp * zp != 0:
        return point({})
    # a direction that moves none of X0 .. W0 does not enter the quadratic
    coords = {i: vec[:4] for i, vec in enumerate(directions) if any(vec[:4])}
    linear = {}
    for i, (xi, yi, zi, wi) in coords.items():
        c = (1 + xp) * wi + xi * (1 + wp) - yp * zi - yi * zp
        if c != 0:
            linear[i] = c
    quadratic = {}
    for i, j in itertools.combinations_with_replacement(coords, 2):
        xi, yi, zi, wi = coords[i]
        xj, yj, zj, wj = coords[j]
        c = xi * wi - yi * zi if i == j else xi * wj + xj * wi - yi * zj - yj * zi
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
            return point(assign)
    raise AssertionError("restricted nonzero quadratic vanished on its own grid")


# ---------------------------------------------------------------------------
# reconstruction


def _radial_potential(eta: OneForm, order: int) -> TruncSeries:
    """Potential of eta below `order`, normalized to vanish at 0.

    Radial integration: the degree k+1 part is (x*eta1_k + y*eta2_k)/(k+1);
    the Euler identity plus closedness below order-1 make its gradient match
    eta below `order` exactly, which `_reconstruct` checks by multiplication.
    """
    one, two = eta.components
    return TruncSeries.from_parts(2, order + 1, (
        one.component(k).shift((1, 0)).add(two.component(k).shift((0, 1)))
        .scale(Fraction(1, k + 1)) for k in range(order)))


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
    `_column`: unknown degree, then name, then monomial."""
    parts: list[list[HomogPoly]] = [[] for _ in UNKNOWN_NAMES]
    values = iter(point)
    for j in range(trunc):
        for polys in parts:
            polys.append(HomogPoly(2, j, {exp: v for exp, v in zip(monomials(2, j), values) if v}))
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
    # (*) makes the scaled pair closed below `order`, so phi's gradient is the
    # pair below order+1: each partial is checked against its cofactors on (A, B)
    x, y, z, w = series = _series_from_point(point, order - sigma.lowest_degree() + 1)
    phi = _radial_potential(scaled_pair(sigma, *series), order + 1)
    one = TruncSeries(2, x.trunc_order, {0: HomogPoly.from_terms(2, 0, {(0, 0): 1})})
    ideal = TruncatedIdeal(sigma.components)
    for i, cofactors in enumerate(((one.add(x), y), (z, one.add(w)))):
        if not MembershipWitness(phi.partial(i), cofactors, order + 1).verify(ideal):
            raise AssertionError(f"phi's gradient is not the scaled pair below {order + 1}")
    return PotentialWitness(*series, phi=phi, gradient_matches_below=order + 1)


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


def _with_candidate(kernel: list[list[int]], touched: set[int], n: int) -> list[list[int]]:
    """The ungauged kernel of a prefix from its gauged one.

    The constant candidate X0 = W0 = -1, paired with rhs -1, solves every
    row of [matrix | rhs] but not the gauge row, so it spans the gap.  Its
    W0 entry is left out while no row touches W0, whose unit vector is then
    in the kernel; the gauge row touches X0.  It goes last, so that the
    read-off takes its point from the gauged kernel whenever it can: a
    closed form's rhs vector then gives the point zero.
    """
    candidate = [0] * (n + 1)
    for c in (_column("X", (0, 0)), _column("W", (0, 0)), n):
        if c == n or c in touched:
            candidate[c] = -1
    return kernel + [candidate]


def _stage_record(k: int, kernel: list[list[int]], touched: set[int], top: int,
                  labels: list[str]) -> StageRecord:
    """Per unknown-degree block of a consistent prefix through degree k: the
    dimension of its projection and its columns fixed on every solution.

    `kernel` spans, with the unit vectors of the columns outside `touched`,
    the t with [matrix | rhs].t = 0, and `read_off` gives its point
    -p / p_rhs and the directions on the touched columns.  A block J's
    projection has dimension |J - touched| + the rank of the directions
    restricted to J, which vanish off `touched`; a touched column is fixed
    when every direction is zero there, at the same value on every solution.
    """
    n = len(labels)
    p, directions = read_off(kernel)
    blocks = []
    for j in range(top + 1):
        lo, hi = _column("X", (j, 0)), _column("X", (j + 1, 0))
        inside = [c for c in range(lo, hi) if c in touched]
        dim = hi - lo - len(inside) + (matrix_rank([t[lo:hi] for t in directions]) if inside else 0)
        forced = {labels[c]: Fraction(-p[c], p[n]) for c in inside
                  if not any(t[c] for t in directions)}
        blocks.append(BlockRecord(dim, forced))
    return StageRecord(k, True, tuple(blocks))


def _solutions(basis: RowBasis, kernel: list[list[int]]
               ) -> tuple[list[Fraction], list[list[int]]] | None:
    """The solution set of the rows `basis` has scanned, from `kernel`, their
    kernel on the touched columns: `read_off`'s point as Fractions, and its
    directions with the unit vectors of the columns no scanned row touches;
    None when the rows are inconsistent."""
    solutions = read_off(kernel)
    if solutions is None:
        return None
    p, directions = solutions
    n = basis.ncols
    touched = set(basis.columns)
    return ([Fraction(-x, p[n]) for x in p[:n]],
            directions + [[int(i == c) for i in range(n)] for c in range(n) if c not in touched])


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
    n = _num_columns(top)
    labels = _column_labels(top)
    notes: list[str] = []
    guard = genericity_guard(sigma) if guard is None else guard
    independent = guard.check("leading_pair").passed
    basis = RowBasis(n)
    basis.extend([_gauge_row(n)])
    y0, z0 = _column("Y", (0, 0)), _column("Z", (0, 0))

    # one scan, building each block when it reaches it: each prefix's gauged
    # kernel is kept, and read in the ungauged view until a prefix forces
    # (Y0, Z0) = (0, 0); once that picks the gauge, the scan stops at the
    # first inconsistent gauged prefix, which may lie before it
    blocks: list[tuple[int, list[list[int]]]] = []
    prefixes: list[tuple[int, list[list[int]], set[int]]] = []
    gauged, forced_zero, failing = False, False, None
    for k, (scale, rows) in enumerate(_tested_blocks(sigma, d, order), start=d - 1):
        blocks.append((scale, rows))
        basis.extend(rows)
        if failing is None and not basis.consistent:
            failing = k
        kernel, touched = basis.kernel(), set(basis.columns)
        prefixes.append((k, kernel, touched))
        if not gauged:
            p, directions = read_off(_with_candidate(kernel, touched, n))
            forced_zero = all(c in touched and not p[c] and not any(t[c] for t in directions)
                              for c in (y0, z0))
            gauged = forced_zero and independent
        if gauged and failing is not None:
            break
    notes.append("self-test: constant-candidate solution satisfies the system")

    if gauged:
        branch, gauge = "forced_degree0", "X0=0"
    else:
        # the ungauged view has no inconsistent prefix
        branch, gauge, failing = "open_degree0", "none", None
        if forced_zero:
            notes.append("degree-0 coefficients forced but the leading pair is "
                         "dependent; refutation path disabled")
    # each consistent prefix's kernel in the view taken gives its staged record
    views = [(k, kernel if gauged else _with_candidate(kernel, touched, n), touched)
             for k, kernel, touched in prefixes if failing is None or k < failing]
    records = [_stage_record(k, kernel, touched, top, labels) for k, kernel, touched in views]
    if failing is not None:
        prefix = with_gauge(_block_system(blocks[:failing - d + 2], d, top))
        num, den = basis.combination(prefix.num_rows)
        # the basis scanned the gauge row first; the prefix ends with it
        certificate = farkas_certificate(prefix, num[1:] + num[:1], den)
        records.extend(StageRecord(j, False) for j in range(failing, order))
        return DeciderOutcome(
            verdict="infeasible", order=order, lowest_degree=d, failing_degree=failing,
            certificate=certificate, failing_system=prefix, staged=records,
            gauge=gauge, branch=branch, guard=guard, notes=notes)

    common = dict(order=order, lowest_degree=d, staged=records, gauge=gauge,
                  branch=branch, guard=guard, notes=notes)
    unit = find_unit_solution(*_solutions(basis, views[-1][1]))
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


def tilde_obstruction(ct: HomogPoly, dt: HomogPoly) -> Fraction:
    """The obstruction C~1_x + D~1_y of the shifted linear parts that
    `tilde_transform` returns."""
    return ct.coeff((1, 0)) + dt.coeff((0, 1))


def obstruction_pair_check(sigma: OneForm, c: TruncSeries, d_series: TruncSeries) -> dict:
    """Consistency of the two overlapping forced constraints on the
    degree-2 unknown block.

    Equations through degree d+1 force the combination Z2_xx - Y2_yy to one
    value; adding degree d+2 forces a second, differently scaled value of
    the same combination.  The pair is consistent exactly when the
    obstruction scalar vanishes; this check reports both forced values (from
    normalized prefix systems; None where the combination is not forced)
    and whether they agree.  Consistency is a necessary condition only — no
    feasibility claim is implied.
    """
    d = sigma.lowest_degree()
    if d is None or d < 1:
        raise MismatchError("the 1-form must vanish at the origin and be nonzero")
    order = d + 3
    _validate_sigma(sigma, order)
    tilde_sum = tilde_obstruction(*tilde_transform(c, d_series))
    functional = {_column("Z", (2, 0)): 2, _column("Y", (0, 2)): -2}
    out: dict = {
        "obstruction": obstruction(c, d_series),
        "tilde_obstruction": tilde_sum,
        "predicted_first": 2 * tilde_sum / (d + 3),
        "predicted_second": 2 * tilde_sum / (d + 4),
    }
    # one column pass: the gauge row, the blocks through degree d+1, then degree d+2
    n = _num_columns(order - d)
    basis = RowBasis(n)
    basis.extend([_gauge_row(n)])
    blocks = _tested_blocks(sigma, d, order)
    for key, count in (("first", 3), ("second", 1)):
        for _, rows in itertools.islice(blocks, count):
            basis.extend(rows)
        solutions = _solutions(basis, basis.kernel())
        if solutions is None:
            out[key] = {"feasible": False}
        else:
            # the functional is forced when it is zero on every direction,
            # and then it has its value at the point on every solution
            point, directions = solutions
            forced = all(sum(w * vec[i] for i, w in functional.items()) == 0
                         for vec in directions)
            value = sum(w * point[i] for i, w in functional.items()) if forced else None
            out[key] = {"feasible": True, "forced": forced, "value": value}
    first, second = out["first"], out["second"]
    out["consistent"] = second["feasible"] and not (
        first["feasible"] and first["forced"] and second["forced"]
        and first["value"] != second["value"])
    return out
