"""Independent brute-force reference implementations for the test suite.

Everything here recomputes results from first principles — plain exponent
dicts, nested-loop convolution, and a fresh Gaussian elimination — without
calling the package's own engines, so agreement is meaningful evidence.
The Fraction solver below imports only the data classes of `acforms.linalg`,
so it can return the same types as the kernel it is checked against.  The
exceptions are the package's earlier code kept as references:
`reduced_form_certificate`, the kernel's earlier certificate path, reuses
the kernel's forward and backward passes, because what it checks is the
back-substitution that replaced the backward pass; `fraction_assemble_system`
and `fraction_stage_record`, the decider's earlier Fraction assembly and
staged records, use the polynomial arithmetic and the decider's records and
column layout, because what they check is the integer rows and the integer
read-off that replaced them; `fraction_membership_witness`, the ideal
engine's earlier membership stages, uses the polynomial arithmetic and the
witness type, because what it checks is the integer stage solve that
replaced its Fraction systems.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from acforms.decide import (UNKNOWN_NAMES, BlockRecord, StageRecord, _column,
                            _validate_sigma)
from acforms.ideals import MembershipWitness, TruncatedIdeal
from acforms.linalg import (AffineSystem, FarkasCertificate, SolutionSet, _echelon,
                            _reduce, _scaled)
from acforms.poly import HomogPoly, TruncSeries, monomials


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
    work = [list(row) + [b] for row, b in zip(system.matrix, system.rhs)]
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
    scaled = [_scaled(list(row) + [b]) for row, b in zip(system.matrix, system.rhs)]
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
    return AffineSystem(matrix=matrix, rhs=rhs, column_labels=col_labels,
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
    return AffineSystem(matrix=[system.matrix[i] for i in keep],
                        rhs=[system.rhs[i] for i in keep],
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
        outcome = fraction_solve_affine(AffineSystem(matrix=matrix, rhs=rhs,
                                                     column_labels=labels))
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


def poly_scale(p: dict, s: Fraction) -> dict:
    return {e: c * s for e, c in p.items() if c * s != 0}


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
