"""Exact graded arithmetic: homogeneous polynomials and truncated series.

A homogeneous polynomial is a sparse map from exponent tuples to nonzero
rational coefficients; the zero polynomial of any degree is the empty map.
Coefficients are `fractions.Fraction`, hence always in lowest terms with a
positive denominator.

A truncated series of order N carries one homogeneous component per degree
below N and certifies nothing at degree N or above.  Arithmetic tracks the
largest truncation order that the operands justify: sums keep the minimum of
the operand orders, partial derivatives lower the order by one, and products
are certified below min(N₁ + low₂, N₂ + low₁) where lowᵢ is the lowest
nonzero degree of the other factor (its truncation order when it is zero) —
unknown tails only reach a product degree after being shifted up by the
other factor's lowest degree.

Products, of polynomials and of series, do no Fraction arithmetic in their
inner loop: each factor is scaled once by the lcm of its denominators (its
content, in the sense of von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 6), the integer products are summed per degree and exponent,
and one Fraction is built per nonzero output term over the product of the
two denominators.  `shift` multiplies
by a monomial with no arithmetic at all.

Inside those integer terms an exponent is a packed key: one int with a
field of `_FIELD_BITS` bits per variable, first variable in the highest
field, so the key of a product monomial is the sum of its factors' keys
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  Integer terms are refused from
degree `_DEGREE_BOUND` on, which keeps every field of a sum of two keys
below 2^_FIELD_BITS.  Keys are unpacked once per output term, when the
Fraction result is built; `HomogPoly.coeffs` and everything public or
serialized keep exponent tuples.

Validation happens where polynomials enter: the public constructor,
`from_terms` and the `serialize` readers check every exponent and reject
stored zeros.  Arithmetic results (`add`, `sub`, `scale`, `mul`, `shift`,
`partial`, `antiderivative`) are built from already validated operands and
go through the private `_trusted` constructor, which skips that per-term
check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]
RationalLike = Fraction | int | str


class MismatchError(ValueError):
    """Operands disagree in variable count, degree, or truncation data."""


_ZERO = Fraction(0)


def _frac(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def monomials(num_vars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, first variable major.

    For two variables and degree 2 the order is (2,0), (1,1), (0,2).
    """
    if num_vars < 1:
        raise MismatchError(f"need at least one variable, got {num_vars}")
    if degree < 0:
        return []
    if num_vars == 1:
        return [(degree,)]
    out: list[Exponent] = []
    for head in range(degree, -1, -1):
        out.extend((head,) + tail for tail in monomials(num_vars - 1, degree - head))
    return out


def graded_dim(num_vars: int, degree: int) -> int:
    """Dimension of the space of homogeneous polynomials of one degree."""
    if degree < 0:
        return 0
    return comb(degree + num_vars - 1, num_vars - 1)


_FIELD_BITS = 20
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_DEGREE_BOUND = 1 << (_FIELD_BITS - 1)     # least degree that is not packed

IntTerms = list[tuple[int, int]]     # (packed key, integer coefficient) pairs


def _check_packable(degree: int) -> None:
    if degree >= _DEGREE_BOUND:
        raise MismatchError(f"degree {degree} reaches the packing bound {_DEGREE_BOUND}")


def _pack(exp: Exponent) -> int:
    key = 0
    for e in exp:
        key = key << _FIELD_BITS | e
    return key


def _unpack(key: int, num_vars: int) -> Exponent:
    exp = [key & _FIELD_MASK]
    for _ in range(num_vars - 1):
        key >>= _FIELD_BITS
        exp.append(key & _FIELD_MASK)
    return tuple(reversed(exp))


@cache
def _packed_monomials(num_vars: int, degree: int) -> tuple[int, ...]:
    """Packed keys of `monomials(num_vars, degree)`, in that order."""
    _check_packable(degree)
    return tuple(_pack(exp) for exp in monomials(num_vars, degree))


def _add_products(acc: dict[int, int], terms_a: IntTerms, terms_b: IntTerms) -> None:
    """Add every product of an integer term of a and one of b into acc."""
    for ka, va in terms_a:
        for kb, vb in terms_b:
            key = ka + kb
            acc[key] = acc.get(key, 0) + va * vb


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial with exact rational coefficients.

    `coeffs` maps exponent tuples (summing to `degree`, one entry per
    variable) to nonzero Fractions.  Instances are treated as immutable;
    every operation returns a fresh polynomial.
    """

    num_vars: int
    degree: int
    coeffs: Mapping[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for exp, c in self.coeffs.items():
            if len(exp) != self.num_vars:
                raise MismatchError(f"exponent {exp} has {len(exp)} entries, expected {self.num_vars}")
            if sum(exp) != self.degree:
                raise MismatchError(f"exponent {exp} has degree {sum(exp)}, expected {self.degree}")
            if any(e < 0 for e in exp):
                raise MismatchError(f"negative exponent in {exp}")
            if c == 0:
                raise MismatchError(f"stored zero coefficient at {exp}")

    @classmethod
    def _trusted(cls, num_vars: int, degree: int,
                 coeffs: dict[Exponent, Fraction]) -> HomogPoly:
        """An arithmetic result: its terms come from validated operands, so
        the per-term check of `__post_init__` is skipped."""
        p = object.__new__(cls)
        object.__setattr__(p, "num_vars", num_vars)
        object.__setattr__(p, "degree", degree)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> HomogPoly:
        return cls(num_vars, degree, {})

    @classmethod
    def from_terms(cls, num_vars: int, degree: int,
                   terms: Mapping[Exponent, RationalLike]) -> HomogPoly:
        """Build from a possibly unnormalised term map (zeros dropped)."""
        coeffs: dict[Exponent, Fraction] = {}
        for exp, raw in terms.items():
            c = _frac(raw)
            if c != 0:
                coeffs[tuple(exp)] = c
        return cls(num_vars, degree, coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: Exponent) -> Fraction:
        return self.coeffs.get(tuple(exp), _ZERO)

    def terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Terms in canonical order (first variable major)."""
        for exp in sorted(self.coeffs, key=lambda e: tuple(-x for x in e)):
            yield exp, self.coeffs[exp]

    def _check_compatible(self, other: HomogPoly) -> None:
        if self.num_vars != other.num_vars:
            raise MismatchError(f"variable counts differ: {self.num_vars} vs {other.num_vars}")
        if self.degree != other.degree:
            raise MismatchError(f"degrees differ: {self.degree} vs {other.degree}")

    def add(self, other: HomogPoly) -> HomogPoly:
        return self._combine(other, operator.add)

    def sub(self, other: HomogPoly) -> HomogPoly:
        return self._combine(other, operator.sub)

    def _combine(self, other: HomogPoly,
                 op: Callable[[Fraction, Fraction], Fraction]) -> HomogPoly:
        """Termwise `op` (add or sub) in one pass, dropping terms that cancel."""
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = op(coeffs.get(exp, _ZERO), c)
            if s == 0:
                coeffs.pop(exp, None)
            else:
                coeffs[exp] = s
        return HomogPoly._trusted(self.num_vars, self.degree, coeffs)

    def scale(self, factor: RationalLike) -> HomogPoly:
        f = _frac(factor)
        if f == 0:
            return HomogPoly.zero(self.num_vars, self.degree)
        return HomogPoly._trusted(self.num_vars, self.degree,
                                  {exp: c * f for exp, c in self.coeffs.items()})

    def _integer_terms(self) -> tuple[IntTerms, int]:
        """Terms scaled to integers by the lcm of the denominators, keyed by
        packed exponents, and that lcm."""
        _check_packable(self.degree)
        pairs = [(_pack(exp), c.as_integer_ratio()) for exp, c in self.coeffs.items()]
        den = lcm(*[q for _, (_, q) in pairs])
        return [(key, p * (den // q)) for key, (p, q) in pairs], den

    @classmethod
    def _from_integer_terms(cls, num_vars: int, degree: int,
                            terms: Iterable[tuple[int, int]], den: int) -> HomogPoly:
        """The polynomial of packed integer terms over `den`, zeros dropped."""
        return cls._trusted(num_vars, degree, {_unpack(key, num_vars): Fraction(v, den)
                                               for key, v in terms if v})

    def mul(self, other: HomogPoly) -> HomogPoly:
        if self.num_vars != other.num_vars:
            raise MismatchError(f"variable counts differ: {self.num_vars} vs {other.num_vars}")
        terms_a, den_a = self._integer_terms()
        terms_b, den_b = other._integer_terms()
        acc: dict[int, int] = {}
        _add_products(acc, terms_a, terms_b)
        return HomogPoly._from_integer_terms(self.num_vars, self.degree + other.degree,
                                             acc.items(), den_a * den_b)

    def shift(self, exp: Exponent) -> HomogPoly:
        """Product with the monomial x^exp: exponents move, coefficients are reused."""
        if len(exp) != self.num_vars or min(exp) < 0:
            raise MismatchError(f"shift {exp} is not an exponent in {self.num_vars} variables")
        coeffs = {tuple(map(operator.add, e, exp)): c for e, c in self.coeffs.items()}
        return HomogPoly._trusted(self.num_vars, self.degree + sum(exp), coeffs)

    def partial(self, var: int) -> HomogPoly:
        """Exact partial derivative with respect to variable index `var`."""
        if not 0 <= var < self.num_vars:
            raise MismatchError(f"variable index {var} out of range for {self.num_vars} variables")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.coeffs.items():
            e = exp[var]
            if e == 0:
                continue
            new = list(exp)
            new[var] = e - 1
            out[tuple(new)] = c * e
        return HomogPoly._trusted(self.num_vars, max(self.degree - 1, 0), out)

    def antiderivative(self, var: int) -> HomogPoly:
        """Coefficientwise antiderivative in one variable, constant term zero."""
        if not 0 <= var < self.num_vars:
            raise MismatchError(f"variable index {var} out of range for {self.num_vars} variables")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.coeffs.items():
            new = list(exp)
            new[var] = exp[var] + 1
            out[tuple(new)] = c / (exp[var] + 1)
        return HomogPoly._trusted(self.num_vars, self.degree + 1, out)

    def norm(self) -> Fraction:
        """Max |p|/q over the coefficients p/q by integer cross-multiplication (0 when zero)."""
        top, den = 0, 1
        for p, q in (c.as_integer_ratio() for c in self.coeffs.values()):
            if abs(p) * den > top * q:
                top, den = abs(p), q
        return Fraction(top, den)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names = _var_names(self.num_vars)
        parts = []
        for exp, c in self.terms():
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(exp) if e > 0]
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _var_names(num_vars: int) -> Sequence[str]:
    if num_vars <= 3:
        return ("x", "y", "z")[:num_vars]
    return tuple(f"x{i}" for i in range(num_vars))


@dataclass(frozen=True)
class TruncSeries:
    """Power series known exactly below `trunc_order`.

    `parts` stores the nonzero homogeneous components, keyed by degree.
    Nothing is recorded (or claimed) about degrees >= trunc_order.
    """

    num_vars: int
    trunc_order: int
    parts: Mapping[int, HomogPoly] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trunc_order < 0:
            raise MismatchError(f"truncation order must be >= 0, got {self.trunc_order}")
        for k, p in self.parts.items():
            if not 0 <= k < self.trunc_order:
                raise MismatchError(f"component of degree {k} outside [0, {self.trunc_order})")
            if p.num_vars != self.num_vars or p.degree != k:
                raise MismatchError(f"component at degree {k} has shape ({p.num_vars} vars, degree {p.degree})")
            if p.is_zero:
                raise MismatchError(f"stored zero component at degree {k}")

    @classmethod
    def zero(cls, num_vars: int, trunc_order: int) -> TruncSeries:
        return cls(num_vars, trunc_order, {})

    @classmethod
    def from_parts(cls, num_vars: int, trunc_order: int,
                   parts: Iterable[HomogPoly]) -> TruncSeries:
        """Collect homogeneous pieces: pieces of one degree are added, and zero
        pieces and sums that cancel are dropped."""
        table: dict[int, HomogPoly] = {}
        for p in parts:
            if p.is_zero:
                continue
            if p.degree in table:
                table[p.degree] = table[p.degree].add(p)
                if table[p.degree].is_zero:
                    del table[p.degree]
            else:
                table[p.degree] = p
        return cls(num_vars, trunc_order, table)

    def component(self, degree: int) -> HomogPoly:
        if not 0 <= degree < self.trunc_order:
            raise MismatchError(f"component of degree {degree} not certified below order {self.trunc_order}")
        return self.parts.get(degree, HomogPoly.zero(self.num_vars, degree))

    def lowest_degree(self) -> int | None:
        """Smallest degree with a nonzero component, None if none stored."""
        return min(self.parts) if self.parts else None

    def is_zero(self) -> bool:
        return not self.parts

    def truncate(self, order: int) -> TruncSeries:
        if order > self.trunc_order:
            raise MismatchError(f"cannot extend truncation {self.trunc_order} to {order}")
        return TruncSeries(self.num_vars, order,
                           {k: p for k, p in self.parts.items() if k < order})

    def _check_vars(self, other: TruncSeries) -> None:
        if self.num_vars != other.num_vars:
            raise MismatchError(f"variable counts differ: {self.num_vars} vs {other.num_vars}")

    def add(self, other: TruncSeries) -> TruncSeries:
        return self._combine(other, HomogPoly.add)

    def sub(self, other: TruncSeries) -> TruncSeries:
        return self._combine(other, HomogPoly.sub)

    def _combine(self, other: TruncSeries,
                 op: Callable[[HomogPoly, HomogPoly], HomogPoly]) -> TruncSeries:
        """Componentwise `op` (add or sub) in one pass, to the lower order."""
        self._check_vars(other)
        order = min(self.trunc_order, other.trunc_order)
        parts = {k: p for k, p in self.parts.items() if k < order}
        for k, q in other.parts.items():
            if k < order:
                s = op(parts.get(k, HomogPoly.zero(self.num_vars, k)), q)
                if s.is_zero:
                    parts.pop(k, None)
                else:
                    parts[k] = s
        return TruncSeries(self.num_vars, order, parts)

    def scale(self, factor: RationalLike) -> TruncSeries:
        f = _frac(factor)
        if f == 0:
            return TruncSeries.zero(self.num_vars, self.trunc_order)
        return TruncSeries(self.num_vars, self.trunc_order,
                           {k: p.scale(f) for k, p in self.parts.items()})

    def _effective_lowest(self) -> int:
        """Degree below which the series is certified zero-free of surprises:
        the lowest stored degree, or the truncation order for the zero series."""
        return min(self.parts) if self.parts else self.trunc_order

    def _integer_parts(self, below: int) -> tuple[dict[int, IntTerms], int]:
        """The parts of degree < below as integer terms over one common
        factor, the lcm of their denominators, and that factor."""
        scaled = {k: p._integer_terms() for k, p in self.parts.items() if k < below}
        common = lcm(*[den for _, den in scaled.values()])
        return {k: [(key, v * (common // den)) for key, v in terms]
                for k, (terms, den) in scaled.items()}, common

    def mul(self, other: TruncSeries) -> TruncSeries:
        """Product, certified as far as the operands' unknown tails allow.

        Each factor is scaled to integers once, the integer products are
        summed per degree and exponent, and one Fraction is built per
        nonzero output term."""
        self._check_vars(other)
        low_a, low_b = self._effective_lowest(), other._effective_lowest()
        order = min(self.trunc_order + low_b, other.trunc_order + low_a)
        parts_a, den_a = self._integer_parts(order - low_b)
        parts_b, den_b = other._integer_parts(order - low_a)
        acc: dict[int, dict[int, int]] = {}
        for i, terms_a in parts_a.items():
            for j, terms_b in parts_b.items():
                if i + j >= order:
                    continue
                _add_products(acc.setdefault(i + j, {}), terms_a, terms_b)
        products = (HomogPoly._from_integer_terms(self.num_vars, k, out.items(), den_a * den_b)
                    for k, out in acc.items())
        return TruncSeries(self.num_vars, order, {p.degree: p for p in products if not p.is_zero})

    def partial(self, var: int) -> TruncSeries:
        """Termwise derivative; the certified order drops by one."""
        order = max(self.trunc_order - 1, 0)
        parts = []
        for k, p in self.parts.items():
            if k == 0:
                continue
            dp = p.partial(var)
            if not dp.is_zero and dp.degree < order:
                parts.append(dp)
        return TruncSeries.from_parts(self.num_vars, order, parts)

    def __str__(self) -> str:
        if not self.parts:
            return f"0 + O(m^{self.trunc_order})"
        body = " + ".join(str(self.parts[k]) for k in sorted(self.parts))
        return f"{body} + O(m^{self.trunc_order})"


@dataclass(frozen=True)
class OneForm:
    """Tuple of coefficient series, one per variable, sharing truncation data."""

    components: tuple[TruncSeries, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise MismatchError("a 1-form needs at least one component")
        nv = self.components[0].num_vars
        if len(self.components) != nv:
            raise MismatchError(f"{len(self.components)} components for {nv} variables")
        for s in self.components:
            if s.num_vars != nv:
                raise MismatchError("components disagree on variable count")
            if s.trunc_order != self.components[0].trunc_order:
                raise MismatchError("components disagree on truncation order")

    @property
    def num_vars(self) -> int:
        return self.components[0].num_vars

    @property
    def trunc_order(self) -> int:
        return self.components[0].trunc_order

    def lowest_degree(self) -> int | None:
        degs = [s.lowest_degree() for s in self.components]
        degs = [d for d in degs if d is not None]
        return min(degs) if degs else None
