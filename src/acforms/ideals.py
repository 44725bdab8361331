"""Graded ideal computations in the local ring at the origin.

All questions handled here reduce to finite exact linear algebra because the
ideals of interest contain a power of the maximal ideal m = (x1, ..., xn):

* `graded_cover_check` asks whether the degree-n graded piece m^n / m^(n+1)
  is spanned by monomial multiples of the generators' leading forms.  Cover
  at n implies cover at every larger degree (multiply covering combinations
  by the variables), so the least covered degree N certifies m^N inside the
  ideal of the complete local ring by successive approximation.
* `colength` counts the dimension of the quotient ring once such an N is
  known: monomials of degree < N modulo the image of the generators.
* `membership_witness` runs the successive-approximation loop explicitly,
  peeling the lowest unresolved component of the residual with a graded
  solve and accumulating cofactors; the returned witness re-verifies by
  plain re-multiplication, independent of the solver.

No Groebner machinery: the graded rank checks are complete for ideals that
contain a power of m, and every positive answer doubles as a certificate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import Echelon, matrix_rank
from .poly import (Exponent, HomogPoly, MismatchError, TruncSeries, graded_dim,
                   monomials)


@dataclass(frozen=True)
class TruncatedIdeal:
    """Finitely many generator series sharing variables and truncation order."""

    generators: tuple[TruncSeries, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise MismatchError("an ideal needs at least one generator")
        nv = self.generators[0].num_vars
        order = self.generators[0].trunc_order
        for g in self.generators:
            if g.num_vars != nv:
                raise MismatchError("generators disagree on variable count")
            if g.trunc_order != order:
                raise MismatchError("generators disagree on truncation order")

    @property
    def num_vars(self) -> int:
        return self.generators[0].num_vars

    @property
    def trunc_order(self) -> int:
        return self.generators[0].trunc_order


def _shifted_row(terms: list[tuple[Exponent, int]], shift: Exponent,
                 index: dict[Exponent, int]) -> list[int]:
    """Integer coefficient row of x^shift times the given integer terms."""
    row = [0] * len(index)
    for exp, v in terms:
        row[index[tuple(map(operator.add, exp, shift))]] = v
    return row


def _leading_rows(ideal: TruncatedIdeal, n: int, index: dict[Exponent, int]
                  ) -> tuple[list[tuple[int, Exponent]], dict[int, int], list[list[int]]]:
    """Integer rows of the degree-n components of m*g, over the generators g
    with lowest(g) <= n and the monomials m of degree n - lowest(g).

    That component is m times the leading form of g, which is scaled to
    integers once: the row of (i, m) is scales[i] * m * lead(g_i) on the
    monomials of `index`.  Returns the (i, m) of each row, the scales and
    the rows.
    """
    shifts: list[tuple[int, Exponent]] = []
    scales: dict[int, int] = {}
    rows: list[list[int]] = []
    for i, g in enumerate(ideal.generators):
        low = g.lowest_degree()
        if low is None or low > n:
            continue
        terms, scales[i] = g.component(low)._integer_terms()
        for exp in monomials(ideal.num_vars, n - low):
            shifts.append((i, exp))
            rows.append(_shifted_row(terms, exp, index))
    return shifts, scales, rows


def graded_cover_check(ideal: TruncatedIdeal, n: int) -> bool:
    """True iff the ideal's leading forms span the whole degree-n graded piece.

    The spanning rows are m*g over generators g and monomials m of degree
    n - lowest(g): their degree-n component is m times the leading form of
    g.  Scaling a row does not change the rank.
    """
    if not 0 <= n < ideal.trunc_order:
        raise MismatchError(f"degree {n} outside the certified range [0, {ideal.trunc_order})")
    index = {exp: i for i, exp in enumerate(monomials(ideal.num_vars, n))}
    _, _, rows = _leading_rows(ideal, n, index)
    return matrix_rank(rows) == graded_dim(ideal.num_vars, n)


def min_power_in_ideal(ideal: TruncatedIdeal, max_n: int) -> int | None:
    """Least N <= max_n whose graded piece is covered; None if not detected.

    A positive answer is a proof that m^N lies in the completed ideal (cover
    propagates upward and successive approximation converges); None only
    means no cover was found up to max_n.
    """
    if max_n >= ideal.trunc_order:
        raise MismatchError(f"max degree {max_n} outside the certified range "
                            f"[0, {ideal.trunc_order})")
    for n in range(0, max_n + 1):
        if graded_cover_check(ideal, n):
            return n
    return None


def _image_vectors(ideal: TruncatedIdeal, order: int) -> tuple[list[Exponent], list[list[int]]]:
    """Spanning vectors of the ideal's image in R / m^order, as integer rows.

    Every residue of an ideal element is a polynomial combination of the
    generators truncated below `order`, so monomial multiples m*g with
    deg(m) + lowest(g) < order span the image.  The parts of each generator
    below `order` are scaled to integers by one common factor; scaling a row
    does not change any rank taken of these rows.
    """
    nv = ideal.num_vars
    basis = [exp for j in range(order) for exp in monomials(nv, j)]
    index = {exp: i for i, exp in enumerate(basis)}
    vectors: list[list[int]] = []
    for g in ideal.generators:
        low = g.lowest_degree()
        if low is None:
            continue
        scaled = {j: part._integer_terms() for j, part in g.parts.items() if j < order}
        common = lcm(*[den for _, den in scaled.values()])
        for mdeg in range(0, order - low):
            terms = [(exp, v * (common // den)) for j, (part, den) in scaled.items()
                     if mdeg + j < order for exp, v in part]
            vectors.extend(_shifted_row(terms, exp, index) for exp in monomials(nv, mdeg))
    return basis, vectors


def colength(ideal: TruncatedIdeal, max_n: int) -> int | None:
    """Dimension of R / ideal, or None when no power of m was detected inside.

    Once m^N lies in the ideal, the quotient is spanned by monomials of
    degree < N and the count is exact; otherwise the colength may be
    infinite or just out of certified range, and None is returned.
    """
    found = min_power_in_ideal(ideal, max_n)
    if found is None:
        return None
    basis, vectors = _image_vectors(ideal, found)
    return len(basis) - matrix_rank(vectors)


def ideal_contained_mod(inner: TruncatedIdeal, outer: TruncatedIdeal, order: int) -> bool:
    """True iff the image of `inner` in R / m^order lies inside that of `outer`."""
    _check_mod_order(inner, outer, order)
    basis, vo = _image_vectors(outer, order)
    _, vi = _image_vectors(inner, order)
    echelon = Echelon(len(basis))
    echelon.extend(vo)
    rank_outer = echelon.rank
    echelon.extend(vi)
    return echelon.rank == rank_outer


def ideal_equal_mod(lhs: TruncatedIdeal, rhs: TruncatedIdeal, order: int) -> bool:
    """True iff the two ideals have the same image in R / m^order."""
    _check_mod_order(lhs, rhs, order)
    basis, vl = _image_vectors(lhs, order)
    _, vr = _image_vectors(rhs, order)
    echelon = Echelon(len(basis))
    echelon.extend(vl)
    rank_l = echelon.rank
    echelon.extend(vr)
    return rank_l == matrix_rank(vr) == echelon.rank


def _check_mod_order(a: TruncatedIdeal, b: TruncatedIdeal, order: int) -> None:
    if a.num_vars != b.num_vars:
        raise MismatchError("ideals live in different variable counts")
    if order > a.trunc_order or order > b.trunc_order:
        raise MismatchError(f"modulus degree {order} exceeds a truncation order "
                            f"({a.trunc_order}, {b.trunc_order})")


@dataclass(frozen=True)
class MembershipWitness:
    """Explicit cofactors expressing a target in an ideal below valid_order."""

    target: TruncSeries
    cofactors: tuple[TruncSeries, ...]
    valid_order: int

    def residual(self, ideal: TruncatedIdeal) -> TruncSeries:
        if len(self.cofactors) != len(ideal.generators):
            raise MismatchError("cofactor count does not match generator count")
        acc = self.target
        for c, g in zip(self.cofactors, ideal.generators):
            acc = acc.sub(c.mul(g))
        return acc

    def verify(self, ideal: TruncatedIdeal) -> bool:
        """Independent re-multiplication check of the defining invariant."""
        res = self.residual(ideal)
        if res.trunc_order < self.valid_order:
            return False
        return all(res.component(k).is_zero for k in range(self.valid_order))


def membership_witness(target: TruncSeries, ideal: TruncatedIdeal,
                       order: int) -> MembershipWitness | int:
    """Successive-approximation membership of `target` below degree `order`.

    Each stage solves the graded problem writing the lowest unresolved
    residual component as a combination of the generators' leading forms,
    then subtracts the full products; the residual's lowest degree strictly
    increases.  Returns the witness, or the first degree whose graded
    problem is unsolvable.  Cofactor degrees never exceed
    order - 1 - lowest(generator); later degrees cannot affect the residual
    below `order`.
    """
    if target.num_vars != ideal.num_vars:
        raise MismatchError("target and ideal live in different variable counts")
    if order > target.trunc_order or order > ideal.trunc_order:
        raise MismatchError(f"order {order} exceeds a truncation order "
                            f"({target.trunc_order}, {ideal.trunc_order})")
    nv = ideal.num_vars
    lows = [g.lowest_degree() for g in ideal.generators]
    residual: dict[int, HomogPoly] = {k: p for k, p in target.parts.items() if k < order}
    cofactors: list[dict[int, HomogPoly]] = [{} for _ in ideal.generators]

    while True:
        pending = [k for k, p in residual.items() if not p.is_zero]
        if not pending:
            break
        n = min(pending)
        # the stage's system has one column per row of _leading_rows, and
        # the residual component, scaled to integers, as right-hand side;
        # the point with free coordinates zero is exact under both scalings
        index = {exp: row for row, exp in enumerate(monomials(nv, n))}
        columns, scales, rows = _leading_rows(ideal, n, index)
        rhs_terms, rhs_scale = residual[n]._integer_terms()
        rhs = _shifted_row(rhs_terms, (0,) * nv, index)
        echelon = Echelon(len(columns))
        echelon.extend([[row[e] for row in rows] + [rhs[e]] for e in range(len(index))])
        if not echelon.consistent:
            return n
        # each generator's cofactor piece of this stage, then one product
        # and one residual update per generator part
        pieces: dict[int, dict[Exponent, Fraction]] = {}
        for (i, exp), weight in zip(columns, echelon.solution().particular):
            if weight != 0:
                pieces.setdefault(i, {})[exp] = weight * scales[i] / rhs_scale
        for i, terms in pieces.items():
            deg = n - lows[i]
            piece = HomogPoly.from_terms(nv, deg, terms)
            merged = cofactors[i].get(deg, HomogPoly.zero(nv, deg)).add(piece)
            if merged.is_zero:
                cofactors[i].pop(deg, None)
            else:
                cofactors[i][deg] = merged
            for j, part in ideal.generators[i].parts.items():
                t = deg + j
                if t >= order:
                    continue
                nxt = residual.get(t, HomogPoly.zero(nv, t)).sub(piece.mul(part))
                if nxt.is_zero:
                    residual.pop(t, None)
                else:
                    residual[t] = nxt
        if n in residual and not residual[n].is_zero:
            raise AssertionError(f"degree {n} residual survived its own solve")

    series = []
    for i, table in enumerate(cofactors):
        low = lows[i]
        cap = order - low if low is not None else order
        series.append(TruncSeries(nv, max(cap, 1), dict(table)))
    return MembershipWitness(target=target.truncate(order),
                             cofactors=tuple(series), valid_order=order)
