"""Exact arithmetic for truncated almost closed 1-forms in the plane.

Modules: `poly` (graded polynomials and truncated series), `linalg` (exact
affine systems with Farkas certificates), `construct` (order-by-order
instance builder with growth bounds), `ideals` (truncated ideal engine),
`decide` (potential feasibility decider), `serialize` (canonical JSON),
`cli` (command-line drivers).
"""

from .construct import (AlmostClosedReport, ConstructionState, HypothesisError,
                        Instance, affine_series, build, convergence_bound,
                        init_leading, multiplier_magnitude, verify_almost_closed)
from .decide import (ClosednessError, DeciderOutcome, GuardReport,
                     assemble_system, decide, genericity_guard,
                     integrate_closed, obstruction, obstruction_pair_check,
                     staged_report, tilde_transform, verify_potential,
                     with_gauge)
from .ideals import (MembershipWitness, TruncatedIdeal, colength,
                     graded_cover_check, ideal_contained_mod, ideal_equal_mod,
                     membership_witness, min_power_in_ideal)
from .linalg import (AffineSystem, FarkasCertificate, SolutionSet, solve_affine,
                     verify_farkas)
from .poly import HomogPoly, MismatchError, OneForm, TruncSeries

__all__ = [
    "AffineSystem", "AlmostClosedReport", "ClosednessError",
    "ConstructionState", "DeciderOutcome", "FarkasCertificate", "GuardReport",
    "HomogPoly", "HypothesisError", "Instance", "MembershipWitness",
    "MismatchError", "OneForm", "SolutionSet", "TruncSeries", "TruncatedIdeal",
    "affine_series", "assemble_system", "build", "colength",
    "convergence_bound", "decide", "genericity_guard", "graded_cover_check",
    "ideal_contained_mod", "ideal_equal_mod", "init_leading",
    "integrate_closed", "membership_witness", "min_power_in_ideal", "multiplier_magnitude",
    "obstruction", "obstruction_pair_check", "solve_affine",
    "staged_report", "tilde_transform", "verify_almost_closed",
    "verify_farkas", "verify_potential", "with_gauge",
]
