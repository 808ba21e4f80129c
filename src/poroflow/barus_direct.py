"""Direct solution of the pressure-dependent-viscosity problem by Picard
(successive substitution) iteration on the modified pressure, reusing the
linear P1 kernel: freeze the viscosity at the previous iterate's centroid
values, solve the resulting linear problem, repeat.

This is the baseline "solve the nonlinear model directly" path that the
transformed approach is benchmarked against.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import darcy_linear, transform
from .darcy_linear import SparseSystem
from .errors import NoConvergence, TransformOverflow
from .geometry import BoundarySpec, Mesh, PermeabilityField, ScalarField, VectorField
from .transform import BodyForcePotential, FluidModel

log = logging.getLogger("poroflow.picard")


@dataclass
class PicardConfig:
    tol: float = 1e-10  # relative update tolerance
    max_iter: int = 200

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class PicardReport:
    p: ScalarField
    v: VectorField
    iterations: int
    update_history: list
    converged: bool
    wall_time: float
    reactions: np.ndarray = None
    linear_iterations: int = 0

    def to_text(self) -> str:
        lines = [
            "poroflow picard report",
            f"iterations = {self.iterations}",
            f"converged = {self.converged}",
            f"wall_time_s = {self.wall_time:.6f}",
            f"p_min = {self.p.values.min():.10e}",
            f"p_max = {self.p.values.max():.10e}",
        ]
        lines += [f"update[{i}] = {u:.6e}" for i, u in enumerate(self.update_history)]
        return "\n".join(lines) + "\n"


def _potential_at(mesh, xi):
    """xi at the nodes and at the triangle centroids. A zero xi gives 0.0
    for both: adding it gives the bits a zero array would, and the
    centroids are never built."""
    if xi.is_zero:
        return 0.0, 0.0
    return xi.at_points(mesh.nodes), xi.at_points(mesh.centroids())


def _assemble_at(
    mesh, fluid, xi_cents, K, mbcs, ptilde_values
) -> tuple[SparseSystem, np.ndarray]:
    tri_mean = ptilde_values[mesh.triangles].mean(axis=1)
    mu = transform.viscosity(tri_mean - xi_cents, fluid)
    mobility = K.tensors / np.asarray(mu)[:, None, None]
    return darcy_linear.assemble(mesh, mobility, mbcs, _shared=True), mobility


def picard_solve(
    mesh: Mesh,
    fluid: FluidModel,
    xi: BodyForcePotential,
    K: PermeabilityField,
    bcs: BoundarySpec,
    config: Optional[PicardConfig] = None,
) -> PicardReport:
    """Fixed-point iteration from p = p0 everywhere: mobility from the
    previous pressure iterate (viscosity at triangle centroids), one linear
    solve per sweep.

    Divergence guard: the relaxation factor starts at 1; three consecutive
    growing update norms halve it, and after four halvings the solve raises
    NoConvergence. An iterate whose viscosity overflows float64 also raises
    NoConvergence, with the report of the last iterate that had a finite
    one. beta = 0 is a single linear solve (the viscosity does not depend
    on pressure, so the first sweep is already the fixed point).
    """
    config = config or PicardConfig()
    t0 = time.perf_counter()

    mbcs = darcy_linear.modified_bcs(bcs, xi)
    xi_nodes, xi_cents = _potential_at(mesh, xi)

    ptilde = np.full(mesh.n_nodes, fluid.p0) + xi_nodes

    def finish(ptilde_k, system, mobility, history, converged, lin_iters):
        """Report on iterate ptilde_k, with the system assembled at it."""
        fieldP = ScalarField(mesh, ptilde_k)
        return PicardReport(
            p=ScalarField(mesh, ptilde_k - xi_nodes),
            v=darcy_linear.recover_velocity(fieldP, mobility),
            iterations=len(history),
            update_history=history,
            converged=converged,
            wall_time=time.perf_counter() - t0,
            reactions=darcy_linear.nodal_reactions(system, fieldP),
            linear_iterations=lin_iters,
        )

    system, mobility = _assemble_at(mesh, fluid, xi_cents, K, mbcs, ptilde)
    if fluid.beta == 0.0:
        # the mobility does not depend on pressure: one system serves all
        result = darcy_linear.solve(system)
        return finish(result.field.values, system, mobility, [0.0], True, result.iterations)

    omega = 1.0
    history = []
    lin_total = 0
    grow = 0
    halvings = 0

    for _ in range(config.max_iter):
        result = darcy_linear.solve(system)
        lin_total += result.iterations
        new = (1.0 - omega) * ptilde + omega * result.field.values
        upd = float(
            np.linalg.norm(new - ptilde) / max(np.linalg.norm(new), 1e-300)
        )
        try:
            # the system at the new iterate serves its report or the next sweep
            new_system, new_mobility = _assemble_at(mesh, fluid, xi_cents, K, mbcs, new)
        except TransformOverflow as err:
            raise NoConvergence(
                f"sweep {len(history) + 1} (update {upd:.3e}) gave an iterate whose "
                f"viscosity overflows: {err}; the report holds iterate {len(history)}",
                report=finish(ptilde, system, mobility, history, False, lin_total),
            ) from err
        if history and upd > history[-1]:
            grow += 1
        else:
            grow = 0
        history.append(upd)
        log.debug("picard sweep %d: update %.3e (omega=%.3f)", len(history), upd, omega)
        ptilde, system, mobility = new, new_system, new_mobility
        if upd <= config.tol:
            return finish(ptilde, system, mobility, history, True, lin_total)
        if grow >= 3:
            halvings += 1
            if halvings > 4:
                raise NoConvergence(
                    f"update norm diverging after {len(history)} sweeps "
                    f"despite {halvings - 1} relaxation halvings",
                    report=finish(ptilde, system, mobility, history, False, lin_total),
                )
            omega *= 0.5
            grow = 0

    raise NoConvergence(
        f"no convergence to tol={config.tol} within {config.max_iter} sweeps "
        f"(last update {history[-1]:.3e})",
        report=finish(ptilde, system, mobility, history, False, lin_total),
    )


def nonlinear_residual(
    p: ScalarField,
    mesh: Mesh,
    fluid: FluidModel,
    xi: BodyForcePotential,
    K: PermeabilityField,
    bcs: BoundarySpec,
) -> float:
    """Relative algebraic residual of the pressure-dependent discrete
    system evaluated at the given field (reduced to the free unknowns, so
    the scale is purely flux-like)."""
    mbcs = darcy_linear.modified_bcs(bcs, xi)
    xi_nodes, xi_cents = _potential_at(mesh, xi)
    ptilde = p.values + xi_nodes
    system, _ = _assemble_at(mesh, fluid, xi_cents, K, mbcs, ptilde)

    r = (system.raw_matrix @ ptilde - system.raw_rhs)[system.free]
    scale = float(np.linalg.norm(system.b_red))
    if scale == 0.0:
        scale = float(np.linalg.norm(system.raw_matrix @ ptilde)) or 1.0
    return float(np.linalg.norm(r) / scale)
