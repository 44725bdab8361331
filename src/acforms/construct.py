"""Order-by-order construction of almost closed 1-forms in two variables.

A pair of series (A, B), both starting in degree d, is *almost closed* for
multipliers (C, D) when A_y - B_x = C*A + D*B.  The leading pair is taken
from a potential-like seed polynomial P of degree d+1 (A_d = P_x, B_d = P_y,
so the degree d-1 component of A_y - B_x vanishes).  Each later order k
solves the single graded constraint

    A_{k,y} - B_{k,x} = E_{k-1},   E_{k-1} = (C*A + D*B)_{k-1},

by choosing a free degree k-1 polynomial F and integrating: A_k is the
y-antiderivative of F plus a free multiple of x^k, B_k the x-antiderivative
of F - E_{k-1} plus a free multiple of y^k.  This parameterises the entire
affine space of solutions at each order.

In `bounded` mode the free data is rescaled so the norm recursion
||F_{k-1}|| < 4*CC*AA_{k-1} holds (CC the multiplier magnitude, AA the
running coefficient norm), which gives a geometric growth bound and hence a
positive radius of convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .poly import HomogPoly, MismatchError, OneForm, TruncSeries, _packed_monomials
from .prng import Stream

MODES = ("generic", "bounded")


class HypothesisError(ValueError):
    """Inputs violate the hypothesis of the norm/radius bound."""


@dataclass(frozen=True)
class Instance:
    """Reproducible construction request.

    N is the truncation order of the output: components of degree d..N-1
    are produced.  In bounded mode C and D must be affine linear (no
    components of degree two or higher).  `b_vanish_from`, when set, forces
    B_k = 0 for k >= that degree by spending the order-k freedom on F = E
    and zero top terms.
    """

    d: int
    N: int
    C: TruncSeries
    D: TruncSeries
    seed: int
    coeff_bound: int = 10
    mode: str = "generic"
    b_vanish_from: int | None = None

    def __post_init__(self) -> None:
        if self.d < 2:
            raise MismatchError(f"leading degree must be >= 2, got {self.d}")
        if self.N <= self.d:
            raise MismatchError(f"truncation order {self.N} must exceed leading degree {self.d}")
        if self.C.num_vars != 2 or self.D.num_vars != 2:
            raise MismatchError("multipliers must be series in two variables")
        needed = self.N - 1 - self.d
        for name, s in (("C", self.C), ("D", self.D)):
            if s.trunc_order < needed:
                raise MismatchError(
                    f"{name} is certified below degree {s.trunc_order} but the "
                    f"construction consumes its components below degree {needed}")
        if self.coeff_bound < 1:
            raise MismatchError("coefficient bound must be positive")
        if self.mode not in MODES:
            raise MismatchError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "bounded":
            _require_affine_linear(self.C, "C")
            _require_affine_linear(self.D, "D")


def _require_affine_linear(s: TruncSeries, name: str) -> None:
    for k in s.parts:
        if k >= 2:
            raise HypothesisError(
                f"{name} has a nonzero component in degree {k}; the growth bound "
                "requires multipliers with constant and linear parts only")


def _draw_homog(stream: Stream, degree: int, bound: int) -> HomogPoly:
    # integer coefficients, drawn in monomial order, are packed terms over 1
    terms = {key: v for key in _packed_monomials(2, degree)
             if (v := stream.int_between(-bound, bound))}
    return HomogPoly._reduced(2, degree, terms, 1)


def affine_series(c0: Fraction, cx: Fraction, cy: Fraction, trunc: int) -> TruncSeries:
    """The multiplier c0 + cx*x + cy*y, known below degree `trunc`."""
    parts = {}
    if c0:
        parts[0] = HomogPoly(2, 0, {(0, 0): Fraction(c0)})
    linear = {e: Fraction(c) for e, c in (((1, 0), cx), ((0, 1), cy)) if c}
    if linear:
        parts[1] = HomogPoly(2, 1, linear)
    return TruncSeries(2, trunc, parts)


def multiplier_magnitude(C: TruncSeries, D: TruncSeries) -> Fraction:
    """max(|C_0|, |D_0|, 2*||C_1||, 2*||D_1||) for affine linear C, D."""
    for name, s in (("C", C), ("D", D)):
        if s.trunc_order < 2:
            raise HypothesisError(
                f"{name} must certify its constant and linear parts "
                f"(truncation order {s.trunc_order} < 2)")
    _require_affine_linear(C, "C")
    _require_affine_linear(D, "D")
    return max(C.component(0).norm(), D.component(0).norm(),
               2 * C.component(1).norm(), 2 * D.component(1).norm())


def convergence_bound(C: TruncSeries, D: TruncSeries) -> tuple[Fraction, Fraction, Fraction]:
    """(CC, growth ratio beta, radius lower bound 1/beta).

    Requires affine linear multipliers; coefficient growth in bounded mode is
    at most geometric with ratio beta = max(1, 8*CC), so the series converge
    on a disc of radius at least 1/beta.
    """
    cc = multiplier_magnitude(C, D)
    beta = max(Fraction(1), 8 * cc)
    return cc, beta, Fraction(1) / beta


def _defect(instance: Instance, a: dict[int, HomogPoly], b: dict[int, HomogPoly],
            k: int) -> HomogPoly:
    """The degree k-1 component of C*A + D*B from the parts below degree k."""
    out = HomogPoly.zero(2, k - 1)
    for i in range(k - instance.d):
        for multiplier, parts in ((instance.C, a), (instance.D, b)):
            if not (m_i := multiplier.component(i)).is_zero:
                out = out.add(m_i.mul(parts[k - 1 - i]))
    return out


def build(instance: Instance) -> tuple[OneForm, dict[int, dict[str, Fraction]]]:
    """Deterministic construction of an instance, with its norm log.

    Draw order (documented for reproducibility): seed polynomial coefficients
    in monomial order, then per order k the free polynomial coefficients
    followed by the two top coefficients.  Bounded mode rescales the free
    polynomial to ||F|| = 2*CC*AA < 4*CC*AA and zeroes the top terms.

    The log holds per degree k the norms `A` and `B` of A_k and B_k and
    `running`, the largest of them at degrees k and k-1; bounded orders
    below `b_vanish_from` add the free polynomial's norm `F` and its
    ceiling `bound` = 4*CC*AA.
    """
    inst = instance
    bound = inst.coeff_bound
    stream = Stream(inst.seed)
    seed_poly = _draw_homog(stream, inst.d + 1, bound)
    a, b = {inst.d: seed_poly.partial(0)}, {inst.d: seed_poly.partial(1)}
    cc = multiplier_magnitude(inst.C, inst.D) if inst.mode == "bounded" else None
    norm_log: dict[int, dict[str, Fraction]] = {}
    previous: tuple[Fraction, ...] = ()

    for k in range(inst.d, inst.N):
        row = {}
        if k > inst.d:
            raw = _draw_homog(stream, k - 1, bound)
            top_a = stream.int_between(-bound, bound)
            top_b = stream.int_between(-bound, bound)
            defect = _defect(inst, a, b, k)
            if inst.b_vanish_from is not None and k >= inst.b_vanish_from:
                # spend the order k freedom on making B_k vanish
                free, top_b = defect, 0
            elif inst.mode == "bounded":
                target = 4 * cc * norm_log[k - 1]["running"]
                raw_norm = raw.norm()
                free = (raw.scale(target / (2 * raw_norm)) if target and raw_norm
                        else HomogPoly.zero(2, k - 1))
                top_a = top_b = 0
                row = {"F": free.norm(), "bound": target}
            else:
                free = raw
            # A_{k,y} = free and B_{k,x} = free - E_{k-1}, plus the free top terms
            a[k] = free.antiderivative(1).add(HomogPoly.from_terms(2, k, {(k, 0): top_a}))
            b[k] = free.sub(defect).antiderivative(0).add(
                HomogPoly.from_terms(2, k, {(0, k): top_b}))
            check = a[k].partial(1).sub(b[k].partial(0)).sub(defect)
            if not check.is_zero:
                raise AssertionError(f"order {k} residual nonzero: {check}")
        norms = (a[k].norm(), b[k].norm())
        norm_log[k] = {"A": norms[0], "B": norms[1], "running": max(*norms, *previous), **row}
        previous = norms

    return OneForm(tuple(TruncSeries(2, inst.N, {k: p for k, p in parts.items() if not p.is_zero})
                         for parts in (a, b))), norm_log


@dataclass(frozen=True)
class AlmostClosedReport:
    """Degreewise residual check of A_y - B_x = C*A + D*B."""

    ok: bool
    first_failure: int | None
    residuals: dict[int, HomogPoly]
    checked_below: int

    def failures(self) -> Iterator[int]:
        return (k for k in sorted(self.residuals) if not self.residuals[k].is_zero)


def verify_almost_closed(sigma: OneForm, C: TruncSeries, D: TruncSeries) -> AlmostClosedReport:
    """Exact residual per degree, from one below the lowest degree upward."""
    if sigma.num_vars != 2:
        raise MismatchError("almost closed verification handles two variables")
    a, b = sigma.components
    lhs = a.partial(1).sub(b.partial(0))
    rhs = C.mul(a).add(D.mul(b))
    res = lhs.sub(rhs)
    low = sigma.lowest_degree()
    start = max((low or 1) - 1, 0)
    residuals = {k: res.component(k) for k in range(start, res.trunc_order)}
    first = next((k for k in sorted(residuals) if not residuals[k].is_zero), None)
    return AlmostClosedReport(ok=first is None, first_failure=first,
                              residuals=residuals, checked_below=res.trunc_order)
