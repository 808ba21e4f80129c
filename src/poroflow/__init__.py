"""Porous-media flow with pressure-dependent (Barus) viscosity.

Two solution paths for the same boundary value problem: direct Picard
iteration on the nonlinear system, and a change of dependent variable that
makes the problem linear (one solve). Plus closed-form 1D solutions, an
executable verification suite (extremum principles, reciprocity, bounded
production flux).
"""

from .errors import (
    BadDimensions,
    Degenerate,
    DomainViolation,
    IncompatibleNeumann,
    NoConvergence,
    NonExistence,
    NonFiniteData,
    NotApplicable,
    PartitionMismatch,
    PoroflowError,
    SingularMobility,
    TransformOverflow,
    UnknownLabel,
)
from .geometry import (
    BoundarySpec,
    Mesh,
    PermeabilityField,
    ScalarField,
    VectorField,
    make_rectangle_mesh,
    make_reservoir_mesh,
)
from .transform import BodyForcePotential, FluidModel

__all__ = [
    "BadDimensions",
    "BodyForcePotential",
    "BoundarySpec",
    "Degenerate",
    "DomainViolation",
    "FluidModel",
    "IncompatibleNeumann",
    "Mesh",
    "NoConvergence",
    "NonExistence",
    "NonFiniteData",
    "NotApplicable",
    "PartitionMismatch",
    "PermeabilityField",
    "PoroflowError",
    "ScalarField",
    "SingularMobility",
    "TransformOverflow",
    "UnknownLabel",
    "VectorField",
    "make_rectangle_mesh",
    "make_reservoir_mesh",
]

__version__ = "0.1.0"
