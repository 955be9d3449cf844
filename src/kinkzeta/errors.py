"""Semantic exception hierarchy shared across the package."""

__all__ = ["KinkZetaError", "DomainError", "PoleError", "ConvergenceError",
           "BranchCollisionError", "UnsupportedFamilyError",
           "EnergyDivergenceError", "WronskianDegeneracyError"]


class KinkZetaError(Exception):
    """Base class for all library errors."""


class DomainError(KinkZetaError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(KinkZetaError, ArithmeticError):
    """Evaluation requested at (or too close to) a pole."""


class ConvergenceError(KinkZetaError, RuntimeError):
    """An adaptive quadrature or series failed to reach its tolerance."""


class BranchCollisionError(DomainError):
    """A contour parameter produces a non-integrable endpoint singularity
    (known from the input, before any quadrature runs)."""


class UnsupportedFamilyError(KinkZetaError, ValueError):
    """The requested operation is not defined for this model family."""


class EnergyDivergenceError(KinkZetaError, ArithmeticError):
    """The energy integral of an unbounded solution diverges."""


class WronskianDegeneracyError(KinkZetaError, ArithmeticError):
    """Two spectral solutions are proportional (band edge)."""
