"""Direct solution of the pressure-dependent-viscosity problem by Picard
(successive substitution) iteration on the modified pressure, reusing the
linear P1 kernel with an edge-secant mobility.

The P1 stiffness k_ij of K/mu0~ has zero row sums, so the discrete
transformed equations sum_j k_ij (P_K(p~_j) - P_K(p~_i)) = b_i are the
equations sum_j k_ij s_ij (p~_j - p~_i) = b_i, with P_K the Kirchhoff
variable and s_ij its secant on [p~_i, p~_j], the mean of mu0~/mu there.
Both paths measure P_K from one p_ref, chosen by darcy_linear._gauge. A
sweep freezes s_ij at the previous iterate and solves the linear problem,
so the fixed point is the nodal solution of the transformed path (with
pure-velocity data, each sweep's p~ peaks at p_ref, as that path grounds
it). The stiffness is assembled once, with the modified pressures p + xi
that darcy_linear._gauge reads as its Dirichlet values. A sweep whose
weights s_ij are all 1 solves that system (darcy_linear.solve); any other
is one call of darcy_linear._solve_sweep with the assembled system, the
weights and its start, the previous sweep's reduced solution, so the held
entry keeps no iterate. That call scales the off-diagonal entries by s_ij,
sets the diagonal to minus the row sums, reduces the result as the
assembly does and solves it by darcy_linear's sweep policy (see its module
docstring): CG on the held factor, or a factor of its own that takes the
held one's place. A sweep matrix is close to D^1/2 A D^1/2, with A the
K/mu0~ system and D the nodal mu0~/mu, so at xi = 0 the factor of the
transformed path's system can serve every sweep and outlive the Picard
solve.

This is the baseline "solve the nonlinear model directly" path that the
transformed approach is benchmarked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import darcy_linear, transform
from .errors import NoConvergence, TransformOverflow
from .geometry import BoundarySpec, Mesh, PermeabilityField, ScalarField, VectorField
from .transform import BodyForcePotential, FluidModel


# Sweeps in a row whose update norm predicts more than max_iter sweeps that
# stop Picard (see picard_solve).
_SLOW_SWEEPS = 3


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
    reactions: np.ndarray
    linear_iterations: int  # CG iterations summed over the sweeps


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
    np.divide(-np.expm1(-x), x, out=mean, where=x > 0.0)
    return np.maximum(w[i], w[j]) * mean


def _base_system(mesh, fluid, xi, K, bcs):
    """(xi_nodes, p_ref, base): xi at the nodes, p_ref of darcy_linear._gauge
    and the K/mu0~ system with pressure data p + xi, on the partition and
    velocity data of bcs."""
    xi_nodes, dnodes, _, modified, p_ref = darcy_linear._gauge(mesh, fluid, xi, bcs)
    mobility = darcy_linear.mobility_tensors(mesh, fluid, xi, K)
    base = darcy_linear._assemble(mesh, mobility, bcs, dnodes, modified)
    return (np.zeros(mesh.n_nodes) if xi_nodes is None else xi_nodes), p_ref, base


def _weights(base, ptilde, fluid):
    """The secant weights at ptilde of the edges of base, the held K/mu0~
    system, or None where every weight is 1."""
    weights = _secant_weights(ptilde, darcy_linear._edge_scaling(base).edges, fluid)
    return None if (weights == 1.0).all() else weights


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
    with a nonzero xi the first sweep is factored. The iterate is the last
    sweep's solution, with no relaxation, and the next sweep's start; the
    sweeps are solved by darcy_linear's sweep policy (see its module
    docstring), and report.linear_iterations sums their CG iterations. A
    sweep factor that an earlier call left serves no sweep of this call: the
    first sweep refactors the assembled system or factors itself. So no bit
    of the result depends on earlier calls.

    The report's velocity and reactions are those of the Kirchhoff variable
    of the final iterate on the K/mu0~ stiffness, measured from the p_ref of
    the transformed path (the lowest prescribed p + xi), so they keep their
    digits where the pressure lies far above p0.

    One stop monitor (after the contraction monitors of Deuflhard, Newton
    Methods for Nonlinear Problems, 2004): an update norm h_k below the last
    one predicts convergence after k + log(tol/h_k)/log(h_k/h_{k-1}) sweeps,
    and one that is not below it predicts it never. Three predictions in a
    row above max_iter raise NoConvergence, with the report of the last
    iterate: so do norms that grow, and norms that fall ever more slowly,
    as they can on data with no solution. An iterate whose viscosity
    overflows float64 also raises NoConvergence, with the report of the
    last iterate that had a finite one. beta = 0 is a single linear
    solve (the viscosity does not depend on pressure, so the first sweep is
    already the fixed point). A later sweep whose linear solve fails (its
    factorization, or its backward error; see darcy_linear.solve) raises
    NoConvergence with the report of the last iterate; a failure of the
    first sweep surfaces unchanged. On a mesh whose stiffness is not an
    M-matrix (obtuse triangles, anisotropic K) a sweep matrix can be
    indefinite, which banded Cholesky, unlike sparse LU, cannot factor.
    """
    config = config or PicardConfig()

    xi_nodes, p_ref, base = _base_system(mesh, fluid, xi, K, bcs)

    def sweep_solution(result):
        """p~ of a sweep; a pure-velocity sweep peaks at 0, not p_ref."""
        values = result.field.values
        return values if bcs.pressure else values + p_ref

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

    ptilde = np.full(mesh.n_nodes, fluid.p0) + xi_nodes
    weights, start = _weights(base, ptilde, fluid), None
    history = []
    lin_total = 0
    slow = 0  # sweeps in a row that predict more than max_iter

    for _ in range(config.max_iter):
        try:
            if weights is None:
                result = darcy_linear.solve(base)
            else:
                result = darcy_linear._solve_sweep(base, weights, start)
        except NoConvergence as err:
            if not history:  # no iterate to report
                raise
            raise NoConvergence(
                f"sweep {len(history) + 1} has no accepted linear solve: {err}; "
                f"the report holds iterate {len(history)}",
                report=finish(ptilde, history, False, lin_total),
            ) from err
        lin_total += result.iterations
        new = sweep_solution(result)
        # the norms neither overflow nor underflow where the update is
        # representable (darcy_linear._norm); a huge iterate can overflow
        # new - ptilde: upd is then inf or NaN, without a warning, and the
        # stop monitor below sees it
        with np.errstate(over="ignore", invalid="ignore"):
            upd = darcy_linear._norm(new - ptilde) / max(darcy_linear._norm(new), 1e-300)
        try:
            # the weights of the next sweep, which starts CG from this one's
            # reduced solution, and the check that new has a report
            weights, start = _weights(base, new, fluid), result.reduced
        except TransformOverflow as err:
            raise NoConvergence(
                f"sweep {len(history) + 1} (update {upd:.3e}) gave an iterate whose "
                f"viscosity overflows: {err}; the report holds iterate {len(history)}",
                report=finish(ptilde, history, False, lin_total),
            ) from err
        history.append(upd)
        ptilde = new
        if upd <= config.tol:
            return finish(ptilde, history, True, lin_total)
        k = len(history)
        if k > 1:
            rho = upd / history[-2]
            # contraction at the last ratio rho < 1 meets tol after `predicted`
            # sweeps; an update norm that does not shrink never does
            predicted = k + math.log(config.tol / upd) / math.log(rho) if rho < 1.0 else math.inf
            slow = slow + 1 if predicted > config.max_iter else 0
        if slow == _SLOW_SWEEPS:
            raise NoConvergence(
                f"update norm contracting too slowly: on each of sweeps {k - 2} to {k} it grew "
                f"or its ratio predicted more than max_iter={config.max_iter} sweeps",
                report=finish(ptilde, history, False, lin_total),
            )

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

    r = (base.raw_matrix @ PK - base.raw_rhs)[base.is_free]
    weights = _weights(base, ptilde, fluid)
    b_red = base.b_red if weights is None else darcy_linear._edge_scaling(base).refill(base, weights)[1]
    scale = darcy_linear._norm(b_red)
    if scale == 0.0:
        scale = darcy_linear._norm(base.raw_matrix @ PK) or 1.0
    return darcy_linear._norm(r) / scale
