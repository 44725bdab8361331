"""Independent brute-force reference implementations for the test suite.

Everything here recomputes results from first principles — plain exponent
dicts, nested-loop convolution, and a fresh Gaussian elimination — without
calling the package's own engines, so agreement is meaningful evidence.
Only the data classes of `acforms.linalg` are imported, so the Fraction
solver below can return the same types as the kernel it is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from acforms.linalg import AffineSystem, FarkasCertificate, SolutionSet


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
