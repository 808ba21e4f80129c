"""Executable checks on computed fields: boundary-data compatibility,
minimum/maximum and comparison principles, reciprocity residuals for the
linear (transformed) and nonlinear (pressure-dependent viscosity) forms,
and the bounded production-flux law with its one-solve calibration.

Principle checks operate on nodal values: a P1 field attains its extrema
at nodes, so the scan is exact for the discrete field. Boundary data are
read through the helpers of ``geometry``: the integrals over velocity
segments use the Gauss points at which ``darcy_linear.assemble`` loads the
data, sign and ordering hypotheses are tested at the edge ends and those
points, and pressure data are the nodal values ``_pressure_data`` gives,
the values the assembly eliminates.
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
    _pressure_data,
)
from .transform import BodyForcePotential, FluidModel


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    net_flux: float  # net prescribed outflow over the velocity segments


def compatibility_check(mesh: Mesh, bcs: BoundarySpec) -> CompatibilityReport:
    """Zero-net-flux requirement for pure-velocity boundary data, by the
    rule darcy_linear.solve applies to the Neumann load it assembles.

    With any pressure segment present the problem is anchored and the check
    always passes; the net flux is reported either way.
    """
    compatible, net = darcy_linear._compatibility(darcy_linear._neumann_load(mesh, bcs))
    return CompatibilityReport(compatible=compatible or bool(bcs.pressure), net_flux=net)


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
    _, prescribed = _pressure_data(field.mesh, bcs)
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
    # the same node set for both; sorted, as the labels may come in another order
    (n1, p1), (n2, p2) = _pressure_data(mesh, bcs1), _pressure_data(mesh, bcs2)
    if np.any(p2[np.argsort(n2)] < p1[np.argsort(n1)]):
        raise NotApplicable("hypothesis p(2) >= p(1) fails on the pressure segments")

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


def _reciprocity(sol1, sol2, bcs1, bcs2, mesh, weight):
    if sol1.field.mesh is not mesh or sol2.field.mesh is not mesh:
        raise PartitionMismatch("solutions must be defined on the given mesh")
    if not bcs1.same_partition(bcs2):
        raise PartitionMismatch("the two problems must share one boundary partition")

    # Shifting every weight by one constant c changes both sides by the same
    # amount, -c times the summed outflow of the two problems through the
    # velocity segments (each problem conserves mass). Taking c near the
    # weights removes their common baseline (about p0/beta for both the
    # Hopf-Cole variable and the Barus weight), which would otherwise swamp
    # the contrasts in cancellation.
    (nodes1, data1), (nodes2, data2) = _pressure_data(mesh, bcs1), _pressure_data(mesh, bcs2)
    data = np.concatenate([data1, data2])
    ref = float(np.mean(weight(data))) if data.size else 0.0

    def shifted(f):
        return weight(f) - ref

    # over Gamma_p, each node's flux once, weighted by the other problem's datum
    lhs_v = _gamma_v_integral(mesh, bcs2, sol1.field.values, shifted)
    lhs_p = float((shifted(data2) * sol1.reactions[nodes2]).sum())
    rhs_v = _gamma_v_integral(mesh, bcs1, sol2.field.values, shifted)
    rhs_p = float((shifted(data1) * sol2.reactions[nodes1]).sum())
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
    integrands weight the fluxes by kirchhoff_ceiling = (p0/beta) *
    exp[-beta*(ptilde/p0 - 1)] of the solved / prescribed modified
    pressures; the factor p0/beta cancels in the relative defect."""
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: use reciprocity_residual_darcy")
    return _reciprocity(
        sol1, sol2, bcs1, bcs2, mesh, lambda f: transform.kirchhoff_ceiling(fluid, f)
    )


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
    Q_well is the summed nodal reaction of the well. The calibration reads
    no velocity, so none is computed (report.v is computed on first read).
    The solve has no body force (the linear-decomposition argument needs
    constant transformed boundary data), and the calibration pressure must
    differ from the production pressure.

    The law is the superposition the transformed solve itself makes on
    these data: the one label with nonzero Kirchhoff data (the inlet, or
    the well when p_inj_calibration lies below p_prod, where the gauge
    moves to it) contributes its datum times its held unit response, so
    the reactions, and Q, are that datum times those of the response. The
    calibration solve
    makes that response; later transformed solves on the mesh with
    constant data superpose it without a triangular solve, and solves
    with data that vary along a label fall back to a direct solve (see
    darcy_linear.solve_transformed_bvp).
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
    # pressures, free of the common baseline that would swamp Q
    report = darcy_linear.solve_transformed_bvp(mesh, fluid, BodyForcePotential.zero(), K, bcs)
    Q = float(report.reactions[mesh.nodes_with_label("well")].sum())
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
