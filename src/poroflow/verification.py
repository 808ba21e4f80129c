"""Executable checks on computed fields: boundary-data compatibility,
minimum/maximum and comparison principles, reciprocity residuals for the
linear (transformed) and nonlinear (pressure-dependent viscosity) forms,
and the bounded production-flux law with its one-solve calibration.

Principle checks operate on nodal values: a P1 field attains its extrema
at nodes, so the scan is exact for the discrete field. Boundary data are
read through the helpers of ``geometry``: the integrals over velocity
segments use the Gauss points at which ``darcy_linear.assemble`` loads the
data, sign and ordering hypotheses are tested at the edge ends and those
points, and pressure data at the segment nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import darcy_linear, transform
from .errors import Degenerate, NotApplicable, PartitionMismatch
from .geometry import (
    BoundarySpec,
    Mesh,
    PermeabilityField,
    ScalarField,
    _edge_quadrature,
    _edge_samples,
    _node_data,
)
from .transform import BodyForcePotential, FluidModel


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    net_flux: float  # net prescribed outflow over the velocity segments


def compatibility_check(mesh: Mesh, bcs: BoundarySpec) -> CompatibilityReport:
    """Zero-net-flux requirement for pure-velocity boundary data.

    With any pressure segment present the problem is anchored and the check
    always passes; the net flux is reported either way.
    """
    net = 0.0
    scale = 0.0
    for label, data in bcs.velocity.items():
        for _, _, wl, vn in _edge_quadrature(mesh, label, data):
            net += float((wl * vn).sum())
            scale += float((wl * np.abs(vn)).sum())
    if bcs.pressure:
        return CompatibilityReport(compatible=True, net_flux=net)
    ok = abs(net) <= 1e-12 * max(scale, 1e-300) if scale > 0.0 else net == 0.0
    return CompatibilityReport(compatible=ok, net_flux=net)


# ---------------------------------------------------------------------------
# extremum principles


@dataclass(frozen=True)
class PrincipleReport:
    satisfied: bool
    bound: float  # extremal prescribed boundary value
    worst_interior: float  # extremal nodal value of the field
    violation_nodes: np.ndarray
    tolerance_used: float


def _velocity_sign(mesh: Mesh, bcs: BoundarySpec):
    """Min and max of the prescribed normal velocity over Gamma_v samples."""
    if not bcs.velocity:
        return 0.0, 0.0
    vn = np.concatenate([_edge_samples(mesh, lab, d) for lab, d in bcs.velocity.items()])
    return float(vn.min()), float(vn.max())


def _prescribed_values(mesh: Mesh, bcs: BoundarySpec) -> np.ndarray:
    vals = [_node_data(mesh, lab, d)[1] for lab, d in bcs.pressure.items()]
    return np.concatenate(vals) if vals else np.array([])


def _default_tol(values: np.ndarray) -> float:
    """1e-10 of the range of values; of their magnitude, at least 1, when
    they are all equal."""
    rng = float(values.max() - values.min())
    return 1e-10 * (rng if rng > 0.0 else max(abs(float(values.max())), 1.0))


def _check_principle(field: ScalarField, bcs: BoundarySpec, lower: bool) -> PrincipleReport:
    """The body of check_min_principle (lower) and check_max_principle."""
    values = field.values
    vmin, vmax = _velocity_sign(field.mesh, bcs)
    if lower and vmax > 0.0:
        raise NotApplicable(
            f"minimum principle needs v_n <= 0 on the velocity segments (max {vmax:.3g})"
        )
    if not lower and vmin < 0.0:
        raise NotApplicable(
            f"maximum principle needs v_n >= 0 on the velocity segments (min {vmin:.3g})"
        )
    prescribed = _prescribed_values(field.mesh, bcs)
    if prescribed.size == 0:
        raise NotApplicable("no pressure segment: no boundary bound to compare against")
    tol = _default_tol(values)
    if lower:
        bound, worst = float(prescribed.min()), float(values.min())
        bad = np.flatnonzero(values < bound - tol)
    else:
        bound, worst = float(prescribed.max()), float(values.max())
        bad = np.flatnonzero(values > bound + tol)
    return PrincipleReport(bad.size == 0, bound, worst, bad, tol)


def check_min_principle(field: ScalarField, bcs: BoundarySpec) -> PrincipleReport:
    """Lower bound: no nodal value below the smallest prescribed pressure
    datum, up to _default_tol of the field (tolerance_used). Applicable
    only when the prescribed normal velocity is <= 0 everywhere (inflow or
    sealed); otherwise NotApplicable."""
    return _check_principle(field, bcs, lower=True)


def check_max_principle(field: ScalarField, bcs: BoundarySpec) -> PrincipleReport:
    """Mirror of check_min_principle: v_n >= 0 required, no nodal value
    above the largest prescribed datum, up to the same tolerance."""
    return _check_principle(field, bcs, lower=False)


@dataclass(frozen=True)
class ComparisonReport:
    ordered: bool
    violation_nodes: np.ndarray
    tolerance_used: float


def check_comparison(
    sol1: ScalarField,
    sol2: ScalarField,
    bcs1: BoundarySpec,
    bcs2: BoundarySpec,
) -> ComparisonReport:
    """Ordering of solutions from ordered boundary data: if v_n(1) >= v_n(2)
    on the velocity segments and the prescribed pressure of (2) dominates
    that of (1), then sol2 >= sol1 nodewise, up to _default_tol of both
    fields together (tolerance_used).

    Raises NotApplicable when the hypotheses do not hold.
    """
    mesh = sol1.mesh
    if sol2.mesh is not mesh:
        raise PartitionMismatch("both solutions must live on the same mesh")
    if not bcs1.same_partition(bcs2):
        raise PartitionMismatch("boundary partitions differ between the two problems")

    for label in bcs1.velocity:
        v1 = _edge_samples(mesh, label, bcs1.velocity[label])
        v2 = _edge_samples(mesh, label, bcs2.velocity[label])
        if np.any(v1 < v2):
            raise NotApplicable(f"hypothesis v_n(1) >= v_n(2) fails on segment {label!r}")
    for label in bcs1.pressure:
        _, p1 = _node_data(mesh, label, bcs1.pressure[label])
        _, p2 = _node_data(mesh, label, bcs2.pressure[label])
        if np.any(p2 < p1):
            raise NotApplicable(
                f"hypothesis p(2) >= p(1) fails on pressure segment {label!r}"
            )

    both = np.concatenate([sol1.values, sol2.values])
    tol = _default_tol(both)
    bad = np.flatnonzero(sol2.values < sol1.values - tol)
    return ComparisonReport(ordered=bad.size == 0, violation_nodes=bad, tolerance_used=tol)


# ---------------------------------------------------------------------------
# reciprocity


@dataclass(frozen=True)
class FluxSolution:
    """Solution data entering the reciprocity integrals: the boundary field
    (transformed variable for the linear identity, modified pressure for
    the nonlinear one) and the consistent nodal flux vector."""

    field: ScalarField
    reactions: np.ndarray


def _gamma_v_integral(mesh, bcs_other, field_values, weight):
    """integral over Gamma_v of v_n(other) * weight(field) with the P1
    trace interpolated to the quadrature points."""
    total = 0.0
    for label, data in bcs_other.velocity.items():
        for edges, t, wl, vn in _edge_quadrature(mesh, label, data):
            fa, fb = field_values[edges[:, 0]], field_values[edges[:, 1]]
            total += float((wl * vn * weight(fa + t * (fb - fa))).sum())
    return total


def _gamma_p_sum(mesh, bcs_other, reactions, weight):
    """Sum over Gamma_p nodes of weight(prescribed datum of the *other*
    problem) times the consistent nodal flux."""
    total = 0.0
    for label, data in bcs_other.pressure.items():
        nodes, vals = _node_data(mesh, label, data)
        total += float((weight(vals) * reactions[nodes]).sum())
    return total


def _reciprocity(sol1, sol2, bcs1, bcs2, mesh, weight):
    if sol1.field.mesh is not mesh or sol2.field.mesh is not mesh:
        raise PartitionMismatch("solutions must be defined on the given mesh")
    if not bcs1.same_partition(bcs2):
        raise PartitionMismatch("the two problems must share one boundary partition")

    # Shifting every weight by one constant c changes both sides by the same
    # amount, -c times the summed outflow of the two problems through the
    # velocity segments (each problem conserves mass). Taking c near the
    # weights removes their common baseline (p0/beta for the Hopf-Cole
    # variable, ~1 for the Barus weight), which would otherwise swamp the
    # contrasts in cancellation.
    data = np.concatenate([_prescribed_values(mesh, bcs1), _prescribed_values(mesh, bcs2)])
    ref = float(np.mean(weight(data))) if data.size else 0.0

    def shifted(f):
        return weight(f) - ref

    lhs_v = _gamma_v_integral(mesh, bcs2, sol1.field.values, shifted)
    lhs_p = _gamma_p_sum(mesh, bcs2, sol1.reactions, shifted)
    rhs_v = _gamma_v_integral(mesh, bcs1, sol2.field.values, shifted)
    rhs_p = _gamma_p_sum(mesh, bcs1, sol2.reactions, shifted)
    lhs = lhs_v - lhs_p
    rhs = rhs_v - rhs_p
    scale = max(abs(lhs), abs(rhs), abs(lhs_v), abs(lhs_p), abs(rhs_v), abs(rhs_p), 1e-300)
    return abs(lhs - rhs) / scale


def reciprocity_residual_darcy(
    sol1: FluxSolution,
    sol2: FluxSolution,
    bcs1: BoundarySpec,
    bcs2: BoundarySpec,
    mesh: Mesh,
) -> float:
    """Relative defect of the linear reciprocal identity

    int_{Gv} v_n(2) P(1) - int_{Gp} P_p(2) v(1).n  =  (1 <-> 2)

    with boundary fluxes taken in consistent (reaction) form. The boundary
    specs must prescribe data for the same variable the fields carry.
    """
    return _reciprocity(sol1, sol2, bcs1, bcs2, mesh, lambda f: f)


def reciprocity_residual_barus(
    sol1: FluxSolution,
    sol2: FluxSolution,
    bcs1: BoundarySpec,
    bcs2: BoundarySpec,
    mesh: Mesh,
    fluid: FluidModel,
) -> float:
    """Relative defect of the nonlinear reciprocal identity, whose
    integrands weight the fluxes by exp[-beta*(ptilde/p0 - 1)] of the
    solved / prescribed modified pressures."""
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: use reciprocity_residual_darcy")

    def weight(ptilde):
        return np.exp(-fluid.beta * (np.asarray(ptilde, dtype=float) / fluid.p0 - 1.0))

    return _reciprocity(sol1, sol2, bcs1, bcs2, mesh, weight)


# ---------------------------------------------------------------------------
# bounded production flux


@dataclass(frozen=True)
class CeilingFluxModel:
    """One-parameter flux law Q(p_inj) calibrated from a single solve.

    C : flux per unit transformed-pressure difference [m^3/(s.Pa) per width]
    p_atm : production pressure, where the Kirchhoff variable of the law
        is zero (fluid.p0 in the canonical setup); its exponent scale is p0
    """

    C: float
    fluid: FluidModel
    p_atm: float

    def ceiling(self) -> float:
        """Asymptotic flux as the injection pressure grows without bound:
        C * kirchhoff_ceiling(fluid, p_atm) = C * (p0/beta) *
        exp[-beta*(p_atm/p0 - 1)]."""
        return self.C * transform.kirchhoff_ceiling(self.fluid, self.p_atm)


def calibrate_ceiling_flux(
    mesh: Mesh,
    fluid: FluidModel,
    K: PermeabilityField,
    p_inj_calibration: float,
    p_prod: Optional[float] = None,
) -> CeilingFluxModel:
    """One transformed solve at the calibration injection pressure fixes
    C = Q_well / P_K(p_inj), P_K the Kirchhoff variable measured from
    p_prod; every other injection pressure then follows from the law of
    predict_flux without further solves.

    The mesh carries the labels make_reservoir_mesh writes: pressure
    p_inj_calibration on "inlet", p_prod on "well", no flow through "wall".
    Q_well is the summed nodal reaction of the well. The solve has no body
    force (the linear-decomposition argument needs constant transformed
    boundary data), and the calibration pressure must differ from the
    production pressure.
    """
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: the flux grows linearly, no ceiling exists")
    p_prod = fluid.p0 if p_prod is None else float(p_prod)
    if p_inj_calibration == p_prod:
        raise ValueError("calibration pressure must differ from the production pressure")

    bcs = BoundarySpec(
        pressure={"inlet": p_inj_calibration, "well": p_prod}, velocity={"wall": 0.0}
    )
    # the solve measures its Kirchhoff variable from the lower of the two
    # pressures, free of the common baseline that would swamp Q; the flux
    # needs neither the pressure mapped back nor the velocity
    xi = BodyForcePotential.zero()
    system, result, *_ = darcy_linear._kirchhoff_solve(mesh, fluid, xi, K, bcs)
    reactions = darcy_linear.nodal_reactions(system, result.field)
    Q = float(reactions[mesh.nodes_with_label("well")].sum())
    dP = transform.kirchhoff_forward(p_inj_calibration, fluid, p_prod)
    return CeilingFluxModel(C=Q / dP, fluid=fluid, p_atm=p_prod)


def predict_flux(model: CeilingFluxModel, p_inj: float) -> float:
    """Closed-form production flux, C times the Kirchhoff variable of p_inj
    measured from p_atm: Q = model.ceiling() * (1 - exp[-beta*(p_inj -
    p_atm)/p0]). Zero at p_inj = p_atm, strictly increasing, bounded by
    model.ceiling()."""
    if p_inj < model.p_atm:
        raise ValueError("p_inj must be >= the production pressure")
    return model.C * transform.kirchhoff_forward(p_inj, model.fluid, model.p_atm)
