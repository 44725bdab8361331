"""Exact graded arithmetic: homogeneous polynomials and truncated series.

A homogeneous polynomial is stored as packed integer terms over one
denominator: a map from packed exponent keys to nonzero integers v, and
den > 0 with gcd(den, every v) = 1, so each coefficient is v / den (one
content per polynomial, as in von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 6).  The state is canonical, so `==` compares it.  A packed
key is one int with a field of `_FIELD_BITS` bits per variable, first
variable in the highest field, so the key of a product monomial is the sum
of its factors' keys and descending keys are first-variable-major order
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  A stored degree stays below
`_STORE_BOUND`, so each exponent fits its field, and a factor of a product
below `_DEGREE_BOUND`, so each field of a sum of two keys does too.

Arithmetic works on the terms alone and brings each result to the stored
form with one gcd and, for a negative denominator, a sign flip.  Fractions
are built only where coefficients are read, by `coeff`, `terms`, `coeffs`
and `norm`, and only when asked for.  Validation happens where polynomials
enter: the public constructor, `from_terms` and the `serialize` readers
check every exponent, reject stored zeros, inexact coefficients (float or
bool) and degrees from `_STORE_BOUND` on; the constructor and the series
reader store through `HomogPoly._store`, which takes the terms over the lcm
of their denominators with no gcd.  Arithmetic results come from validated
operands and skip the per-term check.

A truncated series of order N carries one homogeneous component per degree
below N and certifies nothing at degree N or above.  Arithmetic tracks the
largest truncation order that the operands justify: sums keep the minimum of
the operand orders, partial derivatives lower the order by one, and products
are certified below min(N₁ + low₂, N₂ + low₁) where lowᵢ is the lowest
nonzero degree of the other factor (its truncation order when it is zero) —
unknown tails only reach a product degree after being shifted up by the
other factor's lowest degree.  A series product brings each factor's parts
to one denominator once and sums the integer products per packed key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]
RationalLike = Fraction | int | str


class MismatchError(ValueError):
    """Operands disagree in variable count, degree, or truncation data."""


def _ratio(value: RationalLike, parse: bool = False) -> tuple[int, int]:
    """(p, q) in lowest terms of an int, a Fraction, or with `parse` a str."""
    if parse and isinstance(value, str):
        value = Fraction(value)
    if type(value) is int or isinstance(value, Fraction):
        return value.as_integer_ratio()
    raise MismatchError(f"coefficient {value!r} is not an exact rational (int or Fraction)")


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
_DEGREE_BOUND = 1 << (_FIELD_BITS - 1)     # least degree that is not a factor
_STORE_BOUND = 2 * _DEGREE_BOUND           # least degree that is not stored

IntTerms = list[tuple[int, int]]     # (packed key, integer coefficient) pairs


def _check_packable(degree: int, bound: int = _DEGREE_BOUND) -> None:
    if degree >= bound:
        raise MismatchError(f"degree {degree} reaches the packing bound {bound}")


def _pack(exp: Sequence[int]) -> int | None:
    """The packed key of an exponent; None unless every entry is an int >= 0."""
    key = 0
    for e in exp:
        if type(e) is not int or e < 0:
            return None
        key = key << _FIELD_BITS | e
    return key


def _unpack(key: int, num_vars: int) -> Exponent:
    exp: Exponent = ()
    for _ in range(num_vars):
        exp = (key & _FIELD_MASK,) + exp
        key >>= _FIELD_BITS
    return exp


@cache
def _packed_monomials(num_vars: int, degree: int) -> tuple[int, ...]:
    """Packed keys of `monomials(num_vars, degree)`, in that order."""
    _check_packable(degree)
    return tuple(_pack(exp) for exp in monomials(num_vars, degree))


def _add_products(acc: dict[int, int], terms_a: Iterable[tuple[int, int]],
                  terms_b: Iterable[tuple[int, int]]) -> None:
    """Add every product of an integer term of a and one of b into acc."""
    for ka, va in terms_a:
        for kb, vb in terms_b:
            key = ka + kb
            acc[key] = acc.get(key, 0) + va * vb


@dataclass(frozen=True, init=False, repr=False)
class HomogPoly:
    """Homogeneous polynomial with exact rational coefficients, built from a
    map of exponent tuples (summing to `degree`, one entry per variable) to
    nonzero rationals.  Instances are immutable and stored as the module
    docstring says; every operation returns a fresh polynomial."""

    num_vars: int
    degree: int
    _terms: dict[int, int]
    _den: int

    def __init__(self, num_vars: int, degree: int,
                 coeffs: Mapping[Exponent, Fraction | int] | None = None) -> None:
        ratios = {}
        for exp, c in (coeffs or {}).items():
            if len(exp) != num_vars:
                raise MismatchError(f"exponent {exp} has {len(exp)} entries, expected {num_vars}")
            if sum(exp) != degree:
                raise MismatchError(f"exponent {exp} has degree {sum(exp)}, expected {degree}")
            if (key := _pack(exp)) is None:
                raise MismatchError(f"exponent {exp} is not non-negative integers")
            p, q = _ratio(c)
            if p == 0:
                raise MismatchError(f"stored zero coefficient at {exp}")
            ratios[key] = p, q
        self._store(num_vars, degree, ratios)

    def _store(self, num_vars: int, degree: int,
               ratios: Mapping[int, tuple[int, int]]) -> HomogPoly:
        """Store nonzero p/q in lowest terms per packed key of `degree` over
        the lcm of the q.  Each prime power of the lcm divides some q exactly,
        so the numerators are already coprime to it and no gcd is taken."""
        _check_packable(degree, _STORE_BOUND)
        den = lcm(*[q for _, q in ratios.values()])
        self.__dict__.update(num_vars=num_vars, degree=degree, _den=den, _terms={
            key: p if q == den else p * (den // q) for key, (p, q) in ratios.items()})
        return self

    @classmethod
    def _reduced(cls, num_vars: int, degree: int, terms: dict[int, int], den: int) -> HomogPoly:
        """The polynomial of the packed terms over `den` (no zero term, any
        nonzero `den`), brought to lowest terms with a positive denominator."""
        _check_packable(degree, _STORE_BOUND)
        if den != 1:
            g = gcd(den, *terms.values())
            if den < 0:
                g = -g
            if g != 1:
                terms = {key: v // g for key, v in terms.items()}
                den //= g
        p = object.__new__(cls)
        p.__dict__.update(num_vars=num_vars, degree=degree, _terms=terms, _den=den)
        return p

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> HomogPoly:
        return cls._reduced(num_vars, degree, {}, 1)

    @classmethod
    def from_terms(cls, num_vars: int, degree: int,
                   terms: Mapping[Exponent, RationalLike]) -> HomogPoly:
        """Build from a possibly unnormalised term map (zeros dropped)."""
        return cls(num_vars, degree, {tuple(exp): Fraction(*r) for exp, raw in terms.items()
                                      if (r := _ratio(raw, parse=True))[0]})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def coeffs(self) -> dict[Exponent, Fraction]:
        """Exponent tuples to nonzero Fractions, built on each call."""
        return dict(self.terms())

    def coeff(self, exp: Exponent) -> Fraction:
        key = _pack(exp) if len(exp) == self.num_vars and sum(exp) == self.degree else None
        return Fraction(self._terms.get(key, 0), self._den)

    def terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Terms in canonical order (first variable major): descending keys."""
        for key in sorted(self._terms, reverse=True):
            yield _unpack(key, self.num_vars), Fraction(self._terms[key], self._den)

    def __repr__(self) -> str:
        return f"HomogPoly(num_vars={self.num_vars}, degree={self.degree}, coeffs={self.coeffs!r})"

    def add(self, other: HomogPoly) -> HomogPoly:
        return self._combine(other, 1)

    def sub(self, other: HomogPoly) -> HomogPoly:
        return self._combine(other, -1)

    def _combine(self, other: HomogPoly, sign: int) -> HomogPoly:
        """self + sign * other over the lcm of the denominators, in one pass
        that drops the terms that cancel."""
        if self.num_vars != other.num_vars:
            raise MismatchError(f"variable counts differ: {self.num_vars} vs {other.num_vars}")
        if self.degree != other.degree:
            raise MismatchError(f"degrees differ: {self.degree} vs {other.degree}")
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        acc = {key: v * fa for key, v in self._terms.items()} if fa != 1 else dict(self._terms)
        for key, v in other._terms.items():
            if s := acc.get(key, 0) + fb * v:
                acc[key] = s
            else:
                del acc[key]
        return HomogPoly._reduced(self.num_vars, self.degree, acc, den)

    def scale(self, factor: RationalLike) -> HomogPoly:
        p, q = _ratio(factor, parse=True)
        if p == 0:
            return HomogPoly.zero(self.num_vars, self.degree)
        return HomogPoly._reduced(self.num_vars, self.degree,
                                  {key: v * p for key, v in self._terms.items()}, self._den * q)

    def _integer_terms(self) -> tuple[IntTerms, int]:
        """The terms and the denominator, for use as a factor of a product."""
        _check_packable(self.degree)
        return list(self._terms.items()), self._den

    def mul(self, other: HomogPoly) -> HomogPoly:
        if self.num_vars != other.num_vars:
            raise MismatchError(f"variable counts differ: {self.num_vars} vs {other.num_vars}")
        (terms_a, den_a), (terms_b, den_b) = self._integer_terms(), other._integer_terms()
        acc: dict[int, int] = {}
        _add_products(acc, terms_a, terms_b)
        return HomogPoly._reduced(self.num_vars, self.degree + other.degree,
                                  {key: v for key, v in acc.items() if v}, den_a * den_b)

    def shift(self, exp: Exponent) -> HomogPoly:
        """Product with the monomial x^exp: one key added to each term's."""
        if len(exp) != self.num_vars or (key := _pack(exp)) is None:
            raise MismatchError(f"shift {exp} is not an exponent in {self.num_vars} variables")
        return HomogPoly._reduced(self.num_vars, self.degree + sum(exp),
                                  {k + key: v for k, v in self._terms.items()}, self._den)

    def partial(self, var: int) -> HomogPoly:
        """Exact partial derivative with respect to variable index `var`."""
        if not 0 <= var < self.num_vars:
            raise MismatchError(f"variable index {var} out of range for {self.num_vars} variables")
        offset = _FIELD_BITS * (self.num_vars - 1 - var)     # of var's field in a key
        unit = 1 << offset
        out = {key - unit: v * e for key, v in self._terms.items()
               if (e := key >> offset & _FIELD_MASK)}
        return HomogPoly._reduced(self.num_vars, max(self.degree - 1, 0), out, self._den)

    def antiderivative(self, var: int) -> HomogPoly:
        """Coefficientwise antiderivative in one variable, constant term zero,
        over the lcm of the new exponents."""
        if not 0 <= var < self.num_vars:
            raise MismatchError(f"variable index {var} out of range for {self.num_vars} variables")
        offset = _FIELD_BITS * (self.num_vars - 1 - var)     # of var's field in a key
        raised = [(key + (1 << offset), v, (key >> offset & _FIELD_MASK) + 1)
                  for key, v in self._terms.items()]
        m = lcm(*{e for _, _, e in raised})
        return HomogPoly._reduced(self.num_vars, self.degree + 1,
                                  {key: v * (m // e) for key, v, e in raised}, self._den * m)

    def norm(self) -> Fraction:
        """Max |p|/q over the coefficients p/q (0 when zero)."""
        return Fraction(max(map(abs, self._terms.values()), default=0), self._den)

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
        if _ratio(factor, parse=True)[0] == 0:
            return TruncSeries.zero(self.num_vars, self.trunc_order)
        return TruncSeries(self.num_vars, self.trunc_order,
                           {k: part.scale(factor) for k, part in self.parts.items()})

    def _effective_lowest(self) -> int:
        """Degree below which the series is certified zero-free of surprises:
        the lowest stored degree, or the truncation order for the zero series."""
        return min(self.parts) if self.parts else self.trunc_order

    def _integer_parts(self, below: int) -> tuple[dict[int, IntTerms], int]:
        """The parts of degree < below as integer terms over one common
        factor, the lcm of their denominators, and that factor."""
        scaled = {k: p._integer_terms() for k, p in self.parts.items() if k < below}
        common = lcm(*[den for _, den in scaled.values()])
        return {k: terms if den == common else [(key, v * (common // den)) for key, v in terms]
                for k, (terms, den) in scaled.items()}, common

    def mul(self, other: TruncSeries) -> TruncSeries:
        """Product, certified as far as the operands' unknown tails allow.

        Each factor's parts are brought to one denominator once, and the
        integer products are summed per degree and packed key."""
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
        products = (HomogPoly._reduced(self.num_vars, k, {key: v for key, v in out.items() if v},
                                       den_a * den_b) for k, out in acc.items())
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
