"""Pointwise maps between physical pressure, modified pressure, and the
transformed variables that linearize the pressure-dependent-viscosity flow
problem.

All functions accept scalars or numpy arrays and are pure; the exponential
viscosity law mu = mu0 * exp[beta * (p/p0 - 1)] is the single constitutive
input. Arguments that would push exp() outside the float64 range raise
TransformOverflow so downstream assembly never sees non-finite coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import Degenerate, DomainViolation, NonFiniteData, TransformOverflow

# exp saturates the positive-normal float64 range beyond this magnitude.
# Implementation choice (documented), not physics.
EXP_ARG_LIMIT = 709.0


@dataclass(frozen=True)
class FluidModel:
    """Exponential (Barus) viscosity law parameters.

    mu0 : reference viscosity at pressure p0 [Pa.s]
    beta : dimensionless pressure-sensitivity exponent
    p0 : reference pressure [Pa]
    """

    mu0: float
    beta: float
    p0: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.mu0, self.beta, self.p0])):
            raise NonFiniteData(
                f"fluid parameters must be finite, got mu0={self.mu0}, "
                f"beta={self.beta}, p0={self.p0}"
            )
        if not (self.mu0 > 0.0):
            raise ValueError(f"mu0 must be positive, got {self.mu0}")
        if not (self.p0 > 0.0):
            raise ValueError(f"p0 must be positive, got {self.p0}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")

    @property
    def is_degenerate(self) -> bool:
        """True when beta = 0 (constant viscosity; transforms undefined)."""
        return self.beta == 0.0


@dataclass(frozen=True)
class BodyForcePotential:
    """Scalar potential xi(x, y) [Pa] with rho*b = -grad(xi), or no body
    force when ``xi`` is None (``is_zero``), which the solvers short-cut.

    Evaluation raises NonFiniteData where xi is NaN or infinite.
    """

    xi: Optional[Callable] = None

    @property
    def is_zero(self) -> bool:
        return self.xi is None

    @staticmethod
    def zero() -> "BodyForcePotential":
        return BodyForcePotential()

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.is_zero:
            out = np.zeros(np.broadcast(x, y).shape)
            return float(out) if out.ndim == 0 else out
        out = np.asarray(self.xi(x, y), dtype=float)
        out = np.broadcast_to(out, np.broadcast(x, y).shape).copy()
        if not np.all(np.isfinite(out)):
            raise NonFiniteData("body-force potential evaluated to a non-finite value")
        return float(out) if out.ndim == 0 else out

    def at_points(self, points: np.ndarray):
        """Evaluate at an (n, 2) coordinate array."""
        points = np.asarray(points, dtype=float)
        return np.atleast_1d(self(points[..., 0], points[..., 1]))


@dataclass(frozen=True)
class TransformConstants:
    """Integration-constant pair (A, B) selecting a member of the transform
    family; A=1, B=0 is the main pipeline choice, A=1, B=-p0/beta recovers
    the Kirchhoff variable."""

    A: float = 1.0
    B: float = 0.0

    def __post_init__(self):
        if self.A == 0.0:
            raise ValueError("A must be non-zero")


def _checked_exp(arg, exp=np.exp):
    arg = np.asarray(arg, dtype=float)
    if np.any(np.abs(arg) > EXP_ARG_LIMIT):
        worst = float(np.max(np.abs(arg)))
        raise TransformOverflow(
            f"exp argument magnitude {worst:.3g} exceeds {EXP_ARG_LIMIT}; "
            "result not representable in float64"
        )
    return exp(arg)


def _scalar_like(template, value):
    value = np.asarray(value)
    if np.ndim(template) == 0:
        return float(value)
    return value


def viscosity(p, fluid: FluidModel):
    """Viscosity mu0 * exp[beta * (p/p0 - 1)] at pressure p [Pa]."""
    arg = fluid.beta * (np.asarray(p, dtype=float) / fluid.p0 - 1.0)
    return _scalar_like(p, fluid.mu0 * _checked_exp(arg))


def reference_viscosity_field(xi_value, fluid: FluidModel):
    """Position-dependent reference viscosity mu0 * exp[-beta*xi/p0]."""
    arg = -fluid.beta * np.asarray(xi_value, dtype=float) / fluid.p0
    return _scalar_like(xi_value, fluid.mu0 * _checked_exp(arg))


def hopf_cole_forward(P, fluid: FluidModel):
    """Map the transformed variable P < 0 back to the modified pressure.

    ptilde = p0 * (1 - ln[-beta*P/p0] / beta). Monotonically increasing on
    (-inf, 0); a non-negative P has no real pre-image and raises
    DomainViolation (that is exactly how non-existence of a pressure
    solution manifests).
    """
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: transform undefined; use barus_direct.picard_solve")
    Pa = np.asarray(P, dtype=float)
    if np.any(Pa >= 0.0):
        bad = np.flatnonzero(np.atleast_1d(Pa >= 0.0))
        raise DomainViolation(
            f"transformed variable must be negative; {bad.size} value(s) >= 0"
        )
    # Near P = -p0/beta the log argument rounds away the digits that order
    # close inputs; there -P - p0/beta is exact (Sterbenz), so log1p of it
    # keeps them and the map stays monotone in float64.
    s = fluid.p0 / fluid.beta
    near = (Pa <= -0.5 * s) & (Pa >= -2.0 * s)
    z = np.where(near, (-Pa - s) / s, 0.0)
    log_arg = np.where(near, np.log1p(z), np.log(-fluid.beta * Pa / fluid.p0))
    out = fluid.p0 * (1.0 - log_arg / fluid.beta)
    return _scalar_like(P, out)


def hopf_cole_inverse(p, xi_value, fluid: FluidModel):
    """Map physical pressure (plus potential xi) to the transformed variable.

    P = -(p0/beta) * exp[-beta*((p + xi)/p0 - 1)]; always strictly negative.
    """
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: transform undefined; use barus_direct.picard_solve")
    ptilde = np.asarray(p, dtype=float) + np.asarray(xi_value, dtype=float)
    arg = -fluid.beta * (ptilde / fluid.p0 - 1.0)
    out = -(fluid.p0 / fluid.beta) * _checked_exp(arg)
    return _scalar_like(p, out)


def kirchhoff_ceiling(fluid: FluidModel, p_ref=None):
    """Supremum of the Kirchhoff variable, its limit as ptilde -> inf:
    (p0/beta) * exp[-beta*(p_ref/p0 - 1)], minus the Hopf-Cole value at
    p_ref (default p0). A transformed value at or above it has no real
    pressure."""
    p_ref = fluid.p0 if p_ref is None else p_ref
    return float(-hopf_cole_inverse(p_ref, 0.0, fluid))


def kirchhoff_forward(ptilde, fluid: FluidModel, p_ref=None):
    """Kirchhoff variable: integral of 1/g from p_ref (default p0) to ptilde.

    P_K = C * (1 - exp[-beta*(ptilde - p_ref)/p0]) with C the
    kirchhoff_ceiling, evaluated with expm1 so that contrasts to p_ref
    keep full relative precision. The expm1 argument is clamped at
    -EXP_ARG_LIMIT from below, where expm1 is already -1: far above p_ref
    the value is C, not an overflow.
    """
    ceiling = kirchhoff_ceiling(fluid, p_ref)
    p_ref = fluid.p0 if p_ref is None else p_ref
    arg = -fluid.beta * (np.asarray(ptilde, dtype=float) - p_ref) / fluid.p0
    out = -ceiling * _checked_exp(np.maximum(arg, -EXP_ARG_LIMIT), np.expm1)
    return _scalar_like(ptilde, out)


def kirchhoff_inverse(P_K, fluid: FluidModel, p_ref=None):
    """Modified pressure from the Kirchhoff variable (inverse of
    kirchhoff_forward with the same p_ref).

    ptilde = p_ref - (p0/beta) * ln[1 - P_K/C], evaluated with log1p;
    requires P_K < C, the kirchhoff_ceiling.
    """
    ceiling = kirchhoff_ceiling(fluid, p_ref)
    p_ref = fluid.p0 if p_ref is None else p_ref
    x = -np.asarray(P_K, dtype=float) / ceiling
    if np.any(x <= -1.0):
        bad = np.flatnonzero(np.atleast_1d(x <= -1.0))
        raise DomainViolation(
            f"Kirchhoff inverse undefined: log argument <= 0 at {bad.size} value(s)"
        )
    out = p_ref - fluid.p0 * np.log1p(x) / fluid.beta
    return _scalar_like(P_K, out)


def family_from_pressure(ptilde, constants: TransformConstants, fluid: FluidModel):
    """General two-constant transform: ptilde -> P with
    A*P + B = -(p0/beta) * exp[-beta*(ptilde/p0 - 1)].

    (A=1, B=0) gives the main transformed variable; (A=1, B=-p0/beta) the
    Kirchhoff one.
    """
    return (hopf_cole_inverse(ptilde, 0.0, fluid) - constants.B) / constants.A


def family_to_pressure(P, constants: TransformConstants, fluid: FluidModel):
    """General two-constant transform: P -> ptilde (inverse of
    family_from_pressure): hopf_cole_forward of A*P + B, which must be
    negative."""
    return hopf_cole_forward(constants.A * np.asarray(P, dtype=float) + constants.B, fluid)
