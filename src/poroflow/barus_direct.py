"""Direct solution of the pressure-dependent-viscosity problem by Picard
(successive substitution) iteration on the modified pressure, reusing the
linear P1 kernel with an edge-secant mobility.

The P1 stiffness k_ij of K/mu0~ has zero row sums, so the discrete
transformed equations sum_j k_ij (P_K(p~_j) - P_K(p~_i)) = b_i are the
equations sum_j k_ij s_ij (p~_j - p~_i) = b_i, with P_K the Kirchhoff
variable and s_ij its secant on [p~_i, p~_j], the mean of mu0~/mu there.
Both paths measure P_K from one p_ref, chosen by darcy_linear._gauge.
A sweep freezes s_ij at the previous iterate and solves the linear problem,
so the fixed point is the nodal solution of the transformed path (with
pure-velocity data, each sweep's p~ peaks at p_ref, as that path grounds
it). The stiffness is assembled once; a sweep scales its off-diagonal
entries by s_ij and sets the diagonal to minus the row sums. A later sweep
is solved by conjugate gradients from the previous sweep's solution,
preconditioned by the one held factor (of the K/mu0~ system, or else of an
earlier sweep matrix) rescaled to the sweep's diagonal, and is factored in
the held factor's place only when CG stalls (see darcy_linear). A sweep matrix is
close to D^1/2 A D^1/2, with A the K/mu0~ system and D the nodal mu0~/mu,
so at xi = 0 the factor of the transformed path's system can serve every
sweep and outlive the Picard solve.

This is the baseline "solve the nonlinear model directly" path that the
transformed approach is benchmarked against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import darcy_linear, transform
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
    reactions: np.ndarray = None
    linear_iterations: int = 0  # CG iterations summed over the sweeps


def _kirchhoff(ptilde, fluid, p_ref):
    """The variable the secant system is linear in: the Kirchhoff variable
    from p_ref, or ptilde itself at beta = 0, where the problem is linear."""
    return ptilde if fluid.is_degenerate else transform.kirchhoff_forward(ptilde, fluid, p_ref)


def _secant_weights(ptilde, edges, fluid):
    """s_ij for each edge (i, j): the mean of mu0~/mu = exp[-beta (p~ - p0)/p0]
    over [p~_i, p~_j]. It is taken from the endpoint of lower pressure,
    w_lo (1 - e^-x)/x with x = beta |p~_j - p~_i| / p0 >= 0 (1 at x = 0),
    so expm1 cannot overflow and (i, j) and (j, i) give the same bits.
    Raises TransformOverflow where exp leaves float64."""
    w = transform._checked_exp(-fluid.beta * (ptilde - fluid.p0) / fluid.p0)
    i, j = edges
    x = fluid.beta * np.abs(ptilde[j] - ptilde[i]) / fluid.p0
    mean = np.ones_like(x)
    pos = x > 0.0
    mean[pos] = -np.expm1(-x[pos]) / x[pos]
    return np.maximum(w[i], w[j]) * mean


def _base_system(mesh, fluid, xi, K, bcs):
    """(xi_nodes, p_ref, base): xi at the nodes, p_ref of darcy_linear._gauge
    and the K/mu0~ system with pressure data p + xi."""
    xi_nodes, _, _, p_ref = darcy_linear._gauge(mesh, fluid, xi, bcs)
    mobility = darcy_linear.mobility_tensors(mesh, fluid, xi, K)
    base = darcy_linear.assemble(mesh, mobility, bcs.map_pressure(lambda p, x, y: p + xi(x, y)))
    return xi_nodes, p_ref, base


def _secant_system(base, ptilde, fluid):
    """The edge-secant system at ptilde: base, the held K/mu0~ system with
    the data of the modified pressure, with its stiffness scaled by the
    weights at ptilde; base itself when every weight is 1."""
    scaling = darcy_linear._edge_scaling(base)
    weights = _secant_weights(ptilde, scaling.edges, fluid)
    return base if np.all(weights == 1.0) else scaling.system(base, weights)


def picard_solve(
    mesh: Mesh,
    fluid: FluidModel,
    xi: BodyForcePotential,
    K: PermeabilityField,
    bcs: BoundarySpec,
    config: Optional[PicardConfig] = None,
) -> PicardReport:
    """Fixed-point iteration from p = p0 everywhere with the edge-secant
    mobility of the module docstring: each sweep freezes s_ij at the
    previous iterate and makes one linear solve. The K/mu0~ system is
    assembled once (a hit after a transformed solve on the same mesh); a
    sweep refills its values. From p = p0 with xi = 0 every s_ij is 1, so
    the first sweep solves the assembled system and reuses its held factor;
    with a nonzero xi the first sweep is factored. Each later sweep runs CG
    from the previous sweep's solution, preconditioned by the one factor the
    entry holds (that of the assembled system, or of an earlier sweep of
    this call) rescaled to the sweep's diagonal, and is factored only when
    CG gives up; report.linear_iterations sums the CG iterations. The sweep
    solution an earlier call left held is cleared before the first sweep,
    and a sweep factor it left serves no sweep of this call: the first
    sweep refactors the assembled system or factors itself. So no bit of
    the result depends on them.

    The report's velocity and reactions are those of the Kirchhoff variable
    of the final iterate on the K/mu0~ stiffness, measured from the p_ref of
    the transformed path (the lowest prescribed p + xi), so they keep their
    digits where the pressure lies far above p0.

    Divergence guard: the relaxation factor starts at 1; three consecutive
    growing update norms halve it, and after four halvings the solve raises
    NoConvergence. An iterate whose viscosity overflows float64 also raises
    NoConvergence, with the report of the last iterate that had a finite
    one. beta = 0 is a single linear solve (the viscosity does not depend
    on pressure, so the first sweep is already the fixed point).
    """
    config = config or PicardConfig()

    xi_nodes, p_ref, base = _base_system(mesh, fluid, xi, K, bcs)

    def sweep_solution(result):
        """p~ of a sweep; a pure-velocity sweep peaks at 0, not p_ref."""
        values = result.field.values
        return values if base.dirichlet_map else values + p_ref

    def finish(ptilde_k, history, converged, lin_iters):
        """Report on iterate ptilde_k."""
        potential = ScalarField(mesh, _kirchhoff(ptilde_k, fluid, p_ref))
        return PicardReport(
            p=ScalarField(mesh, ptilde_k - xi_nodes),
            v=darcy_linear.recover_velocity(potential, base),
            iterations=len(history),
            update_history=history,
            converged=converged,
            reactions=darcy_linear.nodal_reactions(base, potential),
            linear_iterations=lin_iters,
        )

    if fluid.beta == 0.0:
        # the mobility does not depend on pressure: one system serves all
        result = darcy_linear.solve(base)
        return finish(sweep_solution(result), [0.0], True, result.iterations)

    darcy_linear._edge_scaling(base).x = None  # no CG start from an earlier call
    ptilde = np.full(mesh.n_nodes, fluid.p0) + xi_nodes
    system = _secant_system(base, ptilde, fluid)
    omega = 1.0
    history = []
    lin_total = 0
    grow = 0
    halvings = 0

    for _ in range(config.max_iter):
        result = darcy_linear.solve(system)
        lin_total += result.iterations
        new = (1.0 - omega) * ptilde + omega * sweep_solution(result)
        upd = float(
            np.linalg.norm(new - ptilde) / max(np.linalg.norm(new), 1e-300)
        )
        try:
            # the system of the next sweep, and the check that new has a report
            system = _secant_system(base, new, fluid)
        except TransformOverflow as err:
            raise NoConvergence(
                f"sweep {len(history) + 1} (update {upd:.3e}) gave an iterate whose "
                f"viscosity overflows: {err}; the report holds iterate {len(history)}",
                report=finish(ptilde, history, False, lin_total),
            ) from err
        if history and upd > history[-1]:
            grow += 1
        else:
            grow = 0
        history.append(upd)
        log.debug("picard sweep %d: update %.3e (omega=%.3f)", len(history), upd, omega)
        ptilde = new
        if upd <= config.tol:
            return finish(ptilde, history, True, lin_total)
        if grow >= 3:
            halvings += 1
            if halvings > 4:
                raise NoConvergence(
                    f"update norm diverging after {len(history)} sweeps "
                    f"despite {halvings - 1} relaxation halvings",
                    report=finish(ptilde, history, False, lin_total),
                )
            omega *= 0.5
            grow = 0

    raise NoConvergence(
        f"no convergence to tol={config.tol} within {config.max_iter} sweeps "
        f"(last update {history[-1]:.3e})",
        report=finish(ptilde, history, False, lin_total),
    )


def nonlinear_residual(
    p: ScalarField,
    mesh: Mesh,
    fluid: FluidModel,
    xi: BodyForcePotential,
    K: PermeabilityField,
    bcs: BoundarySpec,
) -> float:
    """Relative algebraic residual of the edge-secant system (the system
    picard_solve iterates on and solve_transformed_bvp solves) at the given
    field: (raw_K @ P_K(p~) - raw_rhs) at the free nodes, with raw_K the
    K/mu0~ stiffness and P_K the Kirchhoff variable from the p_ref of the
    transformed path, relative to the norm of the reduced load of the secant
    system at the field (flux-like)."""
    xi_nodes, p_ref, base = _base_system(mesh, fluid, xi, K, bcs)
    ptilde = p.values + xi_nodes
    PK = _kirchhoff(ptilde, fluid, p_ref)

    r = (base.raw_matrix @ PK - base.raw_rhs)[base.free]
    scale = float(np.linalg.norm(_secant_system(base, ptilde, fluid).b_red))
    if scale == 0.0:
        scale = float(np.linalg.norm(base.raw_matrix @ PK)) or 1.0
    return float(np.linalg.norm(r) / scale)
