"""Graded ideal computations in the local ring at the origin.

All questions handled here reduce to finite exact linear algebra because the
ideals of interest contain a power of the maximal ideal m = (x1, ..., xn):

* `graded_cover_check`, `min_power_in_ideal` and `colength` read one
  leading pass.  Degree n is covered when monomial multiples of the
  generators' leading forms span the graded piece m^n / m^(n+1).  Cover at
  n implies cover at every larger degree (multiply covering combinations
  by the variables), so the least covered degree N certifies m^N inside
  the ideal of the complete local ring by successive approximation.  The
  pass ranks the leading rows up the degrees by x * I_n inside I_(n+1):
  monomials are first-variable major, so x times a degree-n row is that
  row padded with trailing zeros, degree n's echelon rows padded span
  every degree-(n+1) row m*g with x dividing m, and only the rows with x
  not dividing m are new.  It stops at N, its first full degree, and gives
  the rank of each slice below N.  `colength` then counts the dimension of
  the quotient ring: monomials of degree < N modulo the image of the
  generators.  The image is ranked one degree at a time, as the
  Hilbert-Samuel function is (Greuel and Pfister, *A Singular Introduction
  to Commutative Algebra*, ch. 5): the spanning rows m*g are
  block-triangular by their lowest degree, so the rank is the sum of the
  ranks of the degree-n slices of the rows starting at degree n, the
  leading rows plus rows carried in.  A slice that the pass finds
  independent, with no rows carried in, is ranked already.  Only a
  dependent slice, or one with rows carried in, needs the rows'
  higher-degree tails, and its zero-sliced combinations are carried to
  their next nonzero degree; two coprime leading forms give no dependent
  slice below N, so no full row is built.
  `ideal_equal_mod` compares these graded ranks: one ideal's image lies in
  another's iff adding its generators leaves the other's rank unchanged.
* `membership_witness` runs the successive-approximation loop explicitly,
  one degree n at a time: the residual's degree-n component
  r_n = t_n - sum of c_{i,k} * g_{i,n-k} over the cofactor parts found so
  far is summed as integer products over one denominator, and a graded
  solve, whose point with free coordinates zero is back-substituted, gives
  each generator's cofactor part of degree n - lowest(g_i).  The solve's
  rows, the degree-n monomials, go last monomial first, so a leading
  form's multiples mostly pivot on rows that no earlier pivot has
  combined, and fraction-free elimination works with smaller entries;
  the pivot columns, the verdict and the point with free coordinates
  zero do not depend on row order.  Cofactor parts stay integers over
  one denominator, which is how the returned witness's polynomials store
  them; `MembershipWitness.verify` checks the witness's series
  `residual`, which shares no code with the stages.

Rows and the stages' residuals are built from the polynomials' integer
terms keyed by packed exponents (see `poly`): a column index maps packed
monomial keys to positions, and a shifted row adds one packed shift to each key.

No Groebner machinery: the graded rank checks are complete for ideals that
contain a power of m, and every positive answer doubles as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable

from .linalg import _back_substitute, _echelon
from .poly import (HomogPoly, IntTerms, MismatchError, TruncSeries, _add_products,
                   _packed_monomials, graded_dim)

# (i, lowest(g_i), integer terms of the leading form of g_i, their scale)
LeadingForm = tuple[int, int, IntTerms, int]


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


def _index(num_vars: int, degrees: Iterable[int]) -> dict[int, int]:
    """Column of each packed monomial of the given degrees, degree by degree
    and in `monomials` order within a degree."""
    return {key: i for i, key in enumerate(
        key for n in degrees for key in _packed_monomials(num_vars, n))}


def _shifted_row(terms: IntTerms, shift: int, index: dict[int, int]) -> list[int]:
    """Integer coefficient row of the packed monomial `shift` times the given
    integer terms."""
    row = [0] * len(index)
    for key, v in terms:
        row[index[key + shift]] = v
    return row


def _leading_forms(ideal: TruncatedIdeal) -> list[LeadingForm]:
    """(i, lowest(g_i), integer terms, scale) of each nonzero generator g_i:
    its leading form scaled to integers once, by the lcm of its
    denominators."""
    return [(i, low, *g.component(low)._integer_terms())
            for i, g in enumerate(ideal.generators) if (low := g.lowest_degree()) is not None]


def _leading_rows(leads: list[LeadingForm], num_vars: int, n: int,
                  index: dict[int, int]) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Integer rows of the degree-n components of m*g, over the generators g
    with lowest(g) <= n and the monomials m of degree n - lowest(g).

    That component is m times the leading form of g: the row of (i, m) is
    the scale of g_i times m * lead(g_i) on the monomials of `index`, for
    the leading forms of `_leading_forms`.  Returns the (i, m) of each row
    and the rows; each m is a packed key.
    """
    shifts: list[tuple[int, int]] = []
    rows: list[list[int]] = []
    for i, low, terms, _ in leads:
        # no monomial has a negative degree
        for shift in _packed_monomials(num_vars, n - low):
            shifts.append((i, shift))
            rows.append(_shifted_row(terms, shift, index))
    return shifts, rows


def graded_cover_check(ideal: TruncatedIdeal, n: int) -> bool:
    """True iff the ideal's leading forms span the whole degree-n graded piece.

    The spanning rows are m*g over generators g and monomials m of degree
    n - lowest(g): their degree-n component is m times the leading form of
    g.  Cover propagates upward, so degree n is covered iff the least
    covered degree is at most n.
    """
    return _least_cover(ideal, n)[2] is not None


def min_power_in_ideal(ideal: TruncatedIdeal, max_n: int) -> int | None:
    """Least N <= max_n whose graded piece is covered; None if not detected.

    A positive answer is a proof that m^N lies in the completed ideal (cover
    propagates upward and successive approximation converges); None only
    means no cover was found up to max_n.
    """
    return _least_cover(ideal, max_n)[2]


def _leading_ranks(leads: list[LeadingForm], num_vars: int, stop: int) -> list[int]:
    """Rank of the rows of `_leading_rows` at each degree n below `stop`,
    up to the least covered degree, whose rank is its dimension; every
    later degree is covered too.

    One pass over the degrees keeps echelon rows spanning the degree-n
    rows.  Monomials are first-variable major, so x*mu has mu's column
    among the monomials of degree n + 1, and the echelon rows of degree n
    padded with trailing zeros span the degree-(n + 1) rows m*g with x
    dividing m.  Only the rows with x not dividing m are built, those of
    the monomials m in the other variables, and eliminated against them:
    one per generator in two variables, and in one variable only m = 1, at
    the generator's lowest degree.
    """
    first = min((low for _, low, _, _ in leads), default=stop)
    ranks = [0] * min(first, stop)
    echelon: list[list[int]] = []
    for n in range(len(ranks), stop):
        dim = graded_dim(num_vars, n)
        index = _index(num_vars, [n])
        pad = [0] * (dim - graded_dim(num_vars, n - 1))
        # the monomials of degree k free of x follow the graded_dim(num_vars,
        # k - 1) multiples of x
        rows = [row + pad for row in echelon] + [
            _shifted_row(terms, shift, index) for _, low, terms, _ in leads
            for shift in _packed_monomials(num_vars, n - low)[graded_dim(num_vars, n - low - 1):]]
        pivots = _echelon(rows, dim)
        echelon = rows[:len(pivots)]
        ranks.append(len(pivots))
        if len(pivots) == dim:
            break
    return ranks


def _least_cover(ideal: TruncatedIdeal,
                 max_n: int) -> tuple[list[LeadingForm], list[int], int | None]:
    """The leading forms, the leading pass `_leading_ranks` up to max_n, and
    the least degree up to max_n that the leading forms cover: the pass's
    last degree when its slice is full, and otherwise None."""
    if not 0 <= max_n < ideal.trunc_order:
        raise MismatchError(f"max degree {max_n} outside the certified range "
                            f"[0, {ideal.trunc_order})")
    nv = ideal.num_vars
    leads = _leading_forms(ideal)
    ranks = _leading_ranks(leads, nv, max_n + 1)
    last = len(ranks) - 1
    return leads, ranks, last if ranks[last] == graded_dim(nv, last) else None


def _graded_rank(ideal: TruncatedIdeal, order: int, leads: list[LeadingForm] | None = None,
                 ranks: list[int] | None = None) -> int:
    """Rank of the ideal's image in R / m^order, one degree at a time.

    Every residue of an ideal element is a polynomial combination of the
    generators truncated below `order`, so the monomial multiples m*g with
    deg(m) + lowest(g) < order span the image.  These rows are
    block-triangular by their lowest degree deg(m) + lowest(g), so the rank
    is the sum over n of the rank of the degree-n slices of the rows whose
    lowest degree is n: the rows of `_leading_rows`, plus rows carried in.
    The leading pass `_leading_ranks` ranks the rows of `_leading_rows`
    (the caller may pass the leading forms and that pass, run at least up
    to `order`), so a slice with no rows carried in is independent when
    that rank is its row count.  Only the other slices need the rows'
    higher-degree tails: their full integer rows, each generator's parts
    below `order` scaled by one common factor, are eliminated over degree
    n's columns, which ranks the slice, and each row that comes out zero
    there is carried to its next nonzero degree, or dropped when it has
    none below `order`.
    """
    nv = ideal.num_vars
    if leads is None or ranks is None:
        leads = _leading_forms(ideal)
        ranks = _leading_ranks(leads, nv, order)
    index: dict[int, int] = {}
    starts: list[int] = []
    parts: dict[int, dict[int, IntTerms]] = {}
    carried: dict[int, list[list[int]]] = {}
    rank = 0
    # no row has its lowest degree below the least lowest degree
    for n in range(min((low for _, low, _, _ in leads), default=order), order):
        held = carried.pop(n, [])
        # the degrees past the pass's last are covered
        leading = ranks[n] if n < len(ranks) else graded_dim(nv, n)
        if not held and leading == sum(graded_dim(nv, n - low) for _, low, _, _ in leads):
            rank += leading
            continue
        if not parts:
            index = _index(nv, range(order))
            starts = [0, *accumulate(graded_dim(nv, k) for k in range(order))]
            parts = {i: ideal.generators[i]._integer_parts(order)[0] for i, *_ in leads}
        lo, hi = starts[n], starts[n + 1]
        # m*g keeps the parts of g below order - deg(m) = order - n + lowest(g)
        full = [_shifted_row([term for j, part in parts[i].items()
                              if j < order - n + low for term in part], shift, index)
                for i, low, _, _ in leads for shift in _packed_monomials(nv, n - low)] + held
        # the full rows are zero left of degree n, so their pivots over its
        # columns are the slice rank
        pivots = _echelon(full, hi, lo)
        rank += len(pivots)
        for row in full[len(pivots):]:
            later = next((k for k in range(n + 1, order) if any(row[starts[k]:starts[k + 1]])),
                         None)
            if later is not None:
                carried.setdefault(later, []).append(row)
    return rank


def colength(ideal: TruncatedIdeal, max_n: int) -> int | None:
    """Dimension of R / ideal, or None when no power of m was detected inside.

    Once m^N lies in the ideal, the quotient is spanned by monomials of
    degree < N and the count is exact; otherwise the colength may be
    infinite or just out of certified range, and None is returned.  One
    leading pass gives N, the least degree up to max_n that the leading
    forms cover, and the independent slices of the graded rank below it.
    """
    leads, ranks, found = _least_cover(ideal, max_n)
    if found is None:
        return None
    return (sum(graded_dim(ideal.num_vars, n) for n in range(found))
            - _graded_rank(ideal, found, leads, ranks))


def _image_rank(order: int, *ideals: TruncatedIdeal) -> int:
    """Rank of the sum of the ideals' images in R / m^order: the graded rank
    over all their generators, each truncated below `order` so that they
    share one truncation order."""
    return _graded_rank(TruncatedIdeal(tuple(
        g.truncate(order) for ideal in ideals for g in ideal.generators)), order)


def ideal_equal_mod(lhs: TruncatedIdeal, rhs: TruncatedIdeal, order: int) -> bool:
    """True iff the two ideals have the same image in R / m^order."""
    _check_mod_order(lhs, rhs, order)
    return _image_rank(order, lhs) == _image_rank(order, lhs, rhs) == _image_rank(order, rhs)


def _check_mod_order(a: TruncatedIdeal, b: TruncatedIdeal, order: int) -> None:
    if a.num_vars != b.num_vars:
        raise MismatchError("ideals live in different variable counts")
    if order < 0:
        # m^0 = R, so order 0 compares images in the zero ring; below it there is no quotient
        raise MismatchError(f"modulus degree {order} is negative")
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
        """Independent re-multiplication check of the defining invariant: the
        `residual` is certified and zero below valid_order.  Target,
        cofactors and generators are first cut at valid_order, which moves
        neither the residual below it nor whether it is certified there."""
        below = self.valid_order
        if below < 0:
            raise MismatchError(f"valid order {below} is negative")

        def cut(s: TruncSeries) -> TruncSeries:
            return s.truncate(min(s.trunc_order, below))
        res = MembershipWitness(cut(self.target), tuple(map(cut, self.cofactors)), below).residual(
            TruncatedIdeal(tuple(map(cut, ideal.generators))))
        return res.trunc_order >= below and res.is_zero()


def _degree_residual(base: IntTerms, base_den: int,
                     products: list[tuple[IntTerms, int, IntTerms]]) -> tuple[IntTerms, int]:
    """base / base_den minus the sum of a * b / den over the products
    (a, den, b), as integer terms over one denominator in lowest terms;
    no terms when the difference is zero."""
    common = lcm(base_den, *[den for _, den, _ in products])
    acc = {key: v * (common // base_den) for key, v in base}
    for a, den, b in products:
        f = common // den
        _add_products(acc, [(key, -f * v) for key, v in a], b)
    terms = [(key, v) for key, v in acc.items() if v]
    g = gcd(common, *[v for _, v in terms])
    return [(key, v // g) for key, v in terms], common // g


def membership_witness(target: TruncSeries, ideal: TruncatedIdeal,
                       order: int) -> MembershipWitness | int:
    """Successive-approximation membership of `target` below degree `order`.

    Stage n solves the graded problem writing the degree-n residual
    r_n = t_n - sum over i and k of c_{i,k} * g_{i,n-k} as a combination of
    the generators' leading forms; its solution is each generator's
    cofactor part of degree n - lowest(g_i), so r_n vanishes afterwards and
    later residuals see it.  Returns the witness, or the first degree whose
    graded problem is unsolvable.  Cofactor degrees never exceed
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
    # target and generators as integer terms, each over one denominator; the
    # cofactor parts pieces[i][k] likewise, each over its own denominator
    target_parts, target_den = target._integer_parts(order)
    gens = [g._integer_parts(order) for g in ideal.generators]
    leads = _leading_forms(ideal)
    scales = {i: scale for i, _, _, scale in leads}
    pieces: list[dict[int, tuple[IntTerms, int]]] = [{} for _ in lows]

    for n in range(order):
        residual, scale = _degree_residual(
            target_parts.get(n, []), target_den,
            [(terms, den * gens[i][1], gens[i][0][n - k])
             for i, table in enumerate(pieces) for k, (terms, den) in table.items()
             if n - k in gens[i][0]])
        if not residual:
            continue
        # the stage's system has one column per row of _leading_rows, and
        # r_n times `scale` as right-hand side; it is unsolvable when a row
        # past the pivots keeps a nonzero right-hand side, and the point
        # with free coordinates zero is exact under both scalings.  Its
        # rows, the degree-n monomials, go last monomial first: a leading
        # form's multiples then mostly pivot on the bottom row of their
        # band, which no earlier pivot has combined.  Row order moves
        # neither the pivot columns, nor the verdict, nor that point.
        index = _index(nv, [n])
        columns, rows = _leading_rows(leads, nv, n, index)
        rhs = _shifted_row(residual, 0, index)
        width = len(columns)
        system = [[row[e] for row in rows] + [rhs[e]] for e in reversed(range(len(index)))]
        pivots = _echelon(system, width)
        if any(row[width] for row in system[len(pivots):]):
            return n
        num, den = _back_substitute(system, pivots, width)
        solved: dict[int, IntTerms] = {}
        for (i, shift), weight in zip(columns, num):
            if weight:
                solved.setdefault(i, []).append((shift, weight * scales[i]))
        for i, terms in solved.items():
            g = gcd(den * scale, *[v for _, v in terms])
            pieces[i][n - lows[i]] = [(key, v // g) for key, v in terms], den * scale // g
        # the new parts times the leading forms must cancel r_n
        left, _ = _degree_residual(residual, scale, [
            (part, part_den * gens[i][1], gens[i][0][lows[i]])
            for i in solved for part, part_den in [pieces[i][n - lows[i]]]])
        if left:
            raise AssertionError(f"degree {n} residual survived its own solve")

    cofactors = tuple(
        TruncSeries(nv, max(order - (low or 0), 1), {
            k: HomogPoly._reduced(nv, k, dict(terms), den) for k, (terms, den) in table.items()})
        for table, low in zip(pieces, lows))
    return MembershipWitness(target=target.truncate(order), cofactors=cofactors,
                             valid_order=order)
