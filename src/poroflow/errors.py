"""Exception types shared across the solver modules."""

from __future__ import annotations


class PoroflowError(Exception):
    """Base class for all errors raised by this package."""


class DomainViolation(PoroflowError):
    """Input lies outside the mathematical domain of a transform."""


class Degenerate(PoroflowError):
    """beta = 0: the pressure transform is undefined; use the plain Darcy path."""


class TransformOverflow(PoroflowError):
    """exp() argument beyond the float64 range; result would be non-finite."""


class BadDimensions(PoroflowError):
    """Mesh dimensions cannot be realized (e.g. well wider than the side)."""


class UnknownLabel(PoroflowError):
    """Boundary segment label not present in the mesh."""


class NonFiniteData(PoroflowError, ValueError):
    """Prescribed data (boundary data or body-force potential) evaluated
    to NaN or +-inf."""


class SingularMobility(PoroflowError):
    """A per-cell mobility tensor is not symmetric positive definite."""


class NoConvergence(PoroflowError):
    """Iterative solve failed to reach the requested tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class IncompatibleNeumann(PoroflowError):
    """Pure-velocity boundary data with non-zero net flux: no solution."""


class NonExistence(PoroflowError):
    """A transformed value at or above the Kirchhoff ceiling (U >= C in the
    gauge of the solve), which no real pressure maps to. nodes holds where
    it was found; on a mesh whose stiffness has positive off-diagonal
    entries the discrete solution can overshoot data that have a
    solution."""

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes if nodes is not None else []


class PartitionMismatch(PoroflowError):
    """Two solutions do not share the same boundary partition or mesh."""


class NotApplicable(PoroflowError):
    """Hypotheses of a principle check do not hold for the given data."""

