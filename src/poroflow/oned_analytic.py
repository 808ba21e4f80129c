"""Closed-form solutions for the velocity-driven 1D strip: inflow v0 at
x = 0, pressure p_R at x = L, constant scalar permeability, no body force.

Both the direct nonlinear form and the transformed linear form are
provided, together with the sharp inflow threshold above which no real
pressure solution exists. With p_R = p0 (the default) the expressions
reduce to their simplest form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Degenerate, NonExistence, NonFiniteData
from .transform import FluidModel, _checked_exp


@dataclass(frozen=True)
class StripProblem:
    L: float  # strip length [m]
    k: float  # scalar permeability [m^2]
    fluid: FluidModel
    v0: float  # prescribed inlet velocity [m/s]
    p_R: Optional[float] = None  # outlet pressure [Pa]; default fluid.p0

    def __post_init__(self):
        if self.p_R is None:
            object.__setattr__(self, "p_R", self.fluid.p0)
        if not np.all(np.isfinite([self.L, self.k, self.v0, self.p_R])):
            raise NonFiniteData(
                f"strip data must be finite, got L={self.L}, k={self.k}, "
                f"v0={self.v0}, p_R={self.p_R}"
            )
        if not (self.L > 0.0):
            raise ValueError("L must be positive")
        if not (self.k > 0.0):
            raise ValueError("k must be positive")

    @property
    def outlet_exp(self) -> float:
        """exp[-beta*(p_R/p0 - 1)]; equals 1 in the p_R = p0 setup. Raises
        TransformOverflow where the exponential leaves float64."""
        f = self.fluid
        return float(_checked_exp(-f.beta * (self.p_R / f.p0 - 1.0)))


def existence_threshold(problem: StripProblem) -> float:
    """Critical inlet velocity v* = p0*k/(mu0*L*beta) (times
    exp[-beta*(p_R/p0 - 1)] for a non-reference outlet pressure); a
    solution exists iff v0 < v*."""
    f = problem.fluid
    if f.is_degenerate:
        raise Degenerate("beta = 0: the strip problem is always well-posed")
    return f.p0 * problem.k * problem.outlet_exp / (f.mu0 * problem.L * f.beta)


def direct_pressure_1d(x, problem: StripProblem):
    """Pressure from integrating the nonlinear momentum balance:

    p(x) = p0 * (1 - ln[E_R - (mu0*v0*beta/(p0*k))*(L - x)] / beta)

    with E_R = exp[-beta*(p_R/p0 - 1)]. Raises NonExistence where the log
    argument is non-positive (v0 at or above the threshold).
    """
    f = problem.fluid
    if f.is_degenerate:
        raise Degenerate("beta = 0: pressure is linear, no closed nonlinear form")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > problem.L):
        raise ValueError("x must lie in [0, L]")
    arg = problem.outlet_exp - (f.mu0 * problem.v0 * f.beta / (f.p0 * problem.k)) * (
        problem.L - xa
    )
    if np.any(arg <= 0.0):
        raise NonExistence(
            "no real pressure at the requested position: inlet velocity "
            f"{problem.v0:.6g} is at or above the threshold "
            f"{existence_threshold(problem):.6g}"
        )
    out = f.p0 * (1.0 - np.log(arg) / f.beta)
    return float(out) if np.ndim(x) == 0 else out


def transformed_pressure_1d(x, problem: StripProblem):
    """Transformed variable of the same strip problem:

    P(x) = -(p0/beta)*E_R + (mu0*v0/k)*(L - x)

    Defined for every v0: the linear problem is always solvable; only the
    inversion back to pressure can fail.
    """
    f = problem.fluid
    if f.is_degenerate:
        raise Degenerate("beta = 0: transform undefined")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > problem.L):
        raise ValueError("x must lie in [0, L]")
    out = -(f.p0 / f.beta) * problem.outlet_exp + (f.mu0 * problem.v0 / problem.k) * (
        problem.L - xa
    )
    return float(out) if np.ndim(x) == 0 else out


def velocity_1d(problem: StripProblem) -> float:
    """Incompressibility plus the inlet condition pin v(x) = v0 everywhere."""
    return float(problem.v0)
