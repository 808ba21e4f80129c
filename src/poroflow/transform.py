"""Pointwise maps between physical pressure, modified pressure and the
transformed variable that linearizes the pressure-dependent-viscosity flow
problem; the exponential viscosity law mu = mu0 * exp[beta * (p/p0 - 1)] is
the single constitutive input.

The one transform kernel is the Kirchhoff pair kirchhoff_forward /
kirchhoff_inverse: P_K(ptilde; p_ref), the integral of mu0/mu from p_ref,
with supremum C(p_ref), the kirchhoff_ceiling, which holds the only
exponential of the law. Every member A*P + B = HC of the two-constant
family, HC = -(p0/beta) * exp[-beta*(ptilde/p0 - 1)] the Hopf-Cole variable
(hopf_cole_inverse, A = 1, B = 0), satisfies
P = (P_K(ptilde; p_ref) - C(p_ref) - B)/A for any p_ref.

All functions accept scalars or numpy arrays and are pure. Arguments that
would push exp() outside the float64 range raise TransformOverflow so
downstream assembly never sees non-finite coefficients.
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


def kirchhoff_ceiling(fluid: FluidModel, p_ref):
    """Supremum of the Kirchhoff variable measured from p_ref, its limit as
    ptilde -> inf: C = (p0/beta) * exp[-beta*(p_ref/p0 - 1)]. A transformed
    value at or above it has no real pressure. Vectorized over p_ref."""
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: transform undefined; use barus_direct.picard_solve")
    arg = -fluid.beta * (np.asarray(p_ref, dtype=float) / fluid.p0 - 1.0)
    return _scalar_like(p_ref, (fluid.p0 / fluid.beta) * _checked_exp(arg))


def hopf_cole_inverse(p, xi_value, fluid: FluidModel):
    """Map physical pressure (plus potential xi) to the Hopf-Cole variable
    P = -(p0/beta) * exp[-beta*((p + xi)/p0 - 1)], the negated
    kirchhoff_ceiling at p + xi; always strictly negative."""
    return -kirchhoff_ceiling(fluid, np.add(p, xi_value))


def kirchhoff_forward(ptilde, fluid: FluidModel, p_ref):
    """Kirchhoff variable: integral of mu0/mu from p_ref to ptilde.

    P_K = C * (1 - exp[-beta*(ptilde - p_ref)/p0]) with C the
    kirchhoff_ceiling, evaluated with expm1 so that contrasts to p_ref
    keep full relative precision. The expm1 argument is clamped at
    -EXP_ARG_LIMIT from below, where expm1 is already -1: far above p_ref
    the value is C, not an overflow.
    """
    ceiling = kirchhoff_ceiling(fluid, p_ref)
    arg = -fluid.beta * (np.asarray(ptilde, dtype=float) - p_ref) / fluid.p0
    out = -ceiling * _checked_exp(np.maximum(arg, -EXP_ARG_LIMIT), np.expm1)
    return _scalar_like(ptilde, out)


def kirchhoff_inverse(P_K, fluid: FluidModel, p_ref):
    """Modified pressure from the Kirchhoff variable (inverse of
    kirchhoff_forward with the same p_ref).

    ptilde = p_ref - (p0/beta) * ln[1 - P_K/C], evaluated with log1p;
    requires P_K < C, the kirchhoff_ceiling.
    """
    ceiling = kirchhoff_ceiling(fluid, p_ref)
    x = -np.asarray(P_K, dtype=float) / ceiling
    if np.any(x <= -1.0):
        bad = np.flatnonzero(np.atleast_1d(x <= -1.0))
        raise DomainViolation(
            f"Kirchhoff inverse undefined: log argument <= 0 at {bad.size} value(s)"
        )
    out = p_ref - fluid.p0 * np.log1p(x) / fluid.beta
    return _scalar_like(P_K, out)
