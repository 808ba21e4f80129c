"""Pressure-primal P1 Galerkin kernel for the linear Darcy-type problem
-div[M grad u] = 0 with mixed pressure/velocity boundary data, plus the
three-step transformed solution path for the pressure-dependent-viscosity
model.

M is the per-triangle mobility tensor (permeability over viscosity).
Dirichlet rows are removed by symmetric elimination, the reduced SPD system
is solved with a fill-reducing sparse LU factorization, and boundary fluxes
are extracted from the unconstrained residual (reaction form), which is
discretely conservative.

The factor of the last reduced matrix factored is kept while the mesh it
was built on lives, and a solve whose reduced matrix is bitwise the same
reuses it. The transformed problem's matrix depends on the mesh, the
permeability and mu0 but not on the boundary data, so a sweep over
pressure data factors once.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import transform
from .errors import (
    Degenerate,
    IncompatibleNeumann,
    NoConvergence,
    NonExistence,
    SingularMobility,
    UnknownLabel,
)
from .geometry import (
    BoundarySpec,
    Mesh,
    PermeabilityField,
    ScalarField,
    VectorField,
    edge_keys,
    eval_bc,
    triangle_edges,
)
from .transform import BodyForcePotential, FluidModel

# 2-point Gauss rule on [0, 1]; exact for cubics, matches the boundary
# quadrature used by the verification integrals.
_GAUSS2_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS2_W = np.array([0.5, 0.5])


@dataclass
class LinearSolveConfig:
    """How ``solve`` checks the reduced system: the relative residual of
    the sparse LU solution must not exceed rtol."""

    rtol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rtol < 1.0):
            raise ValueError(f"rtol must lie in (0, 1), got {self.rtol}")


@dataclass
class SparseSystem:
    """Assembled discrete problem.

    raw_matrix/raw_rhs hold the unconstrained stiffness and Neumann load
    (needed for reaction fluxes). The Dirichlet-eliminated system is
    A_red @ u[free] = b_red, with u = lift at the constrained nodes; pure-
    velocity data is grounded there by pinning node 0 to zero.
    """

    mesh: Mesh
    raw_matrix: sp.csr_matrix
    raw_rhs: np.ndarray
    dirichlet_map: dict
    bcs: BoundarySpec
    free: np.ndarray  # int32 indices of the unknown nodes
    lift: np.ndarray  # nodal values: Dirichlet data, zero at free nodes
    A_red: sp.csr_matrix  # symmetric, int32 indices
    b_red: np.ndarray


@dataclass
class LinearSolveResult:
    field: ScalarField
    iterations: int
    residual: float  # final relative residual of the reduced system


@dataclass
class SolveReport:
    """Outcome of the transformed (or constant-viscosity) solution path."""

    p: ScalarField
    v: VectorField
    P: Optional[ScalarField]
    iterations: int
    residual: float
    wall_time: float
    reactions: np.ndarray
    transform_violation: bool = False
    extras: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            "poroflow solve report",
            f"nodes = {self.p.mesh.n_nodes}",
            f"triangles = {self.p.mesh.n_triangles}",
            f"linear_residual = {self.residual:.6e}",
            f"wall_time_s = {self.wall_time:.6f}",
            f"p_min = {self.p.values.min():.10e}",
            f"p_max = {self.p.values.max():.10e}",
            f"speed_max = {np.hypot(self.v.values[:, 0], self.v.values[:, 1]).max():.10e}",
            f"transform_violation = {self.transform_violation}",
        ]
        if self.P is not None:
            lines.append(f"P_min = {self.P.values.min():.10e}")
            lines.append(f"P_max = {self.P.values.max():.10e}")
        for k, v in self.extras.items():
            lines.append(f"{k} = {v}")
        return "\n".join(lines) + "\n"


def p1_gradients(mesh: Mesh):
    """Constant P1 shape-function gradients and triangle areas.

    Returns (grads, areas) with grads[t, i] = grad(phi_i) on triangle t.
    """
    x = mesh.nodes[mesh.triangles, 0]
    y = mesh.nodes[mesh.triangles, 1]
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    grads = np.empty(x.shape + (2,))
    grads[:, :, 0] = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    grads[:, :, 1] = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    grads /= area2[:, None, None]
    return grads, 0.5 * area2


def _check_spd(mobility: np.ndarray):
    a, d = mobility[:, 0, 0], mobility[:, 1, 1]
    b = 0.5 * (mobility[:, 0, 1] + mobility[:, 1, 0])
    asym = np.abs(mobility[:, 0, 1] - mobility[:, 1, 0])
    scale = np.maximum(np.abs(mobility).max(axis=(1, 2)), 1e-300)
    det = a * d - b * b
    bad = (a <= 0) | (det <= 0) | (asym > 1e-10 * scale)
    if np.any(bad):
        raise SingularMobility(
            f"{int(bad.sum())} mobility tensor(s) fail symmetric positive-definiteness"
        )


def _neumann_load(mesh: Mesh, bcs: BoundarySpec) -> np.ndarray:
    """rhs_i = -integral over velocity segments of phi_i * v_n (2-pt Gauss)."""
    rhs = np.zeros(mesh.n_nodes)
    for label, data in bcs.velocity.items():
        edges = mesh.edges_with_label(label)
        a = mesh.nodes[edges[:, 0]]
        b = mesh.nodes[edges[:, 1]]
        length = np.hypot(*(b - a).T)
        for t, w in zip(_GAUSS2_T, _GAUSS2_W):
            q = a + t * (b - a)
            vn = eval_bc(data, q[:, 0], q[:, 1])
            np.add.at(rhs, edges[:, 0], -w * length * vn * (1.0 - t))
            np.add.at(rhs, edges[:, 1], -w * length * vn * t)
    return rhs


def _dirichlet_values(mesh: Mesh, bcs: BoundarySpec) -> dict:
    out = {}
    for label, data in bcs.pressure.items():
        nodes = mesh.nodes_with_label(label)
        vals = eval_bc(data, mesh.nodes[nodes, 0], mesh.nodes[nodes, 1])
        for n, v in zip(nodes, np.atleast_1d(vals)):
            out[int(n)] = float(v)
    return out


def assemble(mesh: Mesh, mobility: np.ndarray, bcs: BoundarySpec) -> SparseSystem:
    """P1 stiffness for -div[M grad u] = 0 with the given boundary data.

    mobility : (n_tri, 2, 2) symmetric positive-definite tensors.
    """
    mobility = np.asarray(mobility, dtype=float)
    if mobility.shape != (mesh.n_triangles, 2, 2):
        raise ValueError("one 2x2 mobility tensor per triangle required")
    _check_spd(mobility)
    bcs.validate_partition(mesh)

    # Element entries k_ij = area * grad(phi_i) . M grad(phi_j): the diagonal
    # and one of each off-diagonal pair, edges (i, i+1 mod 3). The stiffness
    # is then D + U + U^T, exactly symmetric, so the CSR arrays of A_red are
    # also its CSC arrays; no (n_tri, 3, 3) array or 9-entry COO is built,
    # which keeps the assembly's memory peak low.
    grads, areas = p1_gradients(mesh)
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    fx = mobility[:, 0, 0, None] * gx + mobility[:, 0, 1, None] * gy  # M grad(phi_j)
    fy = mobility[:, 1, 0, None] * gx + mobility[:, 1, 1, None] * gy
    diag = (gx * fx + gy * fy) * areas[:, None]
    nxt = [1, 2, 0]
    off = (gx * fx[:, nxt] + gy * fy[:, nxt]) * areas[:, None]
    del grads, gx, gy, fx, fy  # freed before the sparse build: lower peak
    tri = mesh.triangles.astype(np.int32)
    a, b = tri.ravel(), tri[:, nxt].ravel()
    n = mesh.n_nodes
    upper = sp.csr_matrix((off.ravel(), (np.minimum(a, b), np.maximum(a, b))), shape=(n, n))
    raw = upper + upper.T + sp.diags(np.bincount(a, diag.ravel(), minlength=n))
    raw_rhs = _neumann_load(mesh, bcs)

    dirichlet = _dirichlet_values(mesh, bcs)
    pinned = dirichlet or {0: 0.0}
    lift = np.zeros(n)
    lift[list(pinned)] = list(pinned.values())
    is_free = np.ones(n, dtype=bool)
    is_free[list(pinned)] = False
    free = np.flatnonzero(is_free).astype(np.int32)

    return SparseSystem(
        mesh=mesh,
        raw_matrix=raw,
        raw_rhs=raw_rhs,
        dirichlet_map=dirichlet,
        bcs=bcs,
        free=free,
        lift=lift,
        A_red=raw[free][:, free],
        b_red=(raw_rhs - raw @ lift)[free],
    )


# (weakref to the Mesh, SHA-256 of the reduced matrix, SuperLU factor) of
# the last matrix factored, or None. One entry at most: a held factor costs
# about 37 MB at 48k nodes.
_factor_entry = None


def _release(ref):
    """Weakref callback: a collected mesh takes its factor with it, unless
    the entry has since been replaced by another one."""
    global _factor_entry
    entry = _factor_entry
    if entry is not None and entry[0] is ref:
        _factor_entry = None


def _digest(A) -> bytes:
    """SHA-256 of everything SuperLU reads from A: shape, dtypes, indptr,
    indices and data."""
    arrays = (A.indptr, A.indices, A.data)
    h = hashlib.sha256(repr((A.shape, [a.dtype.str for a in arrays])).encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.digest()


def _lu(A, b, mesh):
    """Solve A x = b (A SPD) with a SuperLU factor of A; returns
    (x, relative residual). The factor is kept until the next call that
    sees another matrix, or until mesh is collected; a call whose A has the
    same digest reuses it."""
    global _factor_entry
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    digest = _digest(A)
    entry = _factor_entry
    if entry is not None and entry[1] == digest:
        lu = entry[2]
    else:
        # drop the old factor before building the new one: never two at once
        _factor_entry = entry = None
        # A is symmetric: its CSR arrays, read as CSC, are A itself (no copy)
        try:
            lu = spla.splu(
                sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                relax=4,
                panel_size=8,
                options={"SymmetricMode": True},
            )
        except RuntimeError as err:  # SuperLU reports an exactly singular factor
            raise NoConvergence(f"sparse LU factorization failed: {err}") from err
        _factor_entry = (weakref.ref(mesh, _release), digest, lu)
    x = lu.solve(b)
    return x, float(np.linalg.norm(b - A @ x) / bnorm)


def solve(system: SparseSystem, config: Optional[LinearSolveConfig] = None) -> LinearSolveResult:
    """Solve the assembled system for the nodal field.

    The reduced SPD matrix is solved with a fill-reducing sparse LU
    (iterations = 0) and the relative residual is checked against
    config.rtol on every call; a residual above it, or not finite, raises
    NoConvergence. The factor is reused while system.mesh lives, for as
    long as the calls see a reduced matrix with the same shape, pattern and
    values; any other matrix replaces it. A reused factor gives results
    bitwise identical to a fresh one.

    Pure-velocity problems are checked against the zero-net-flux
    compatibility condition first (IncompatibleNeumann if violated) and are
    then grounded by pinning node 0, so the result is one member of the
    constant-shifted family.
    """
    config = config or LinearSolveConfig()
    if not system.dirichlet_map:
        net = float(system.raw_rhs.sum())
        scale = float(np.abs(system.raw_rhs).sum())
        if abs(net) > 1e-12 * max(scale, 1e-300):
            raise IncompatibleNeumann(
                f"pure-velocity data with net boundary flux {-net:.6e}; "
                "compatibility condition violated"
            )

    x_red, res = _lu(system.A_red, system.b_red, system.mesh)
    if not res <= config.rtol:  # also catches a non-finite residual
        raise NoConvergence(f"sparse LU residual {res:.3e} exceeds rtol={config.rtol}")

    values = system.lift.copy()
    values[system.free] = x_red
    return LinearSolveResult(ScalarField(system.mesh, values), 0, res)


def recover_velocity(P: ScalarField, mobility: np.ndarray) -> VectorField:
    """Per-triangle velocity v = -M grad(P) from the exact P1 gradient."""
    mesh = P.mesh
    grads, _ = p1_gradients(mesh)
    gp = np.einsum("tid,ti->td", grads, P.values[mesh.triangles])
    v = -np.einsum("tab,tb->ta", np.asarray(mobility, dtype=float), gp)
    return VectorField(mesh, v)


def nodal_reactions(system: SparseSystem, P: ScalarField) -> np.ndarray:
    """Residual of the unconstrained equations: r_i approximates the
    outward boundary flux integral of phi_i * v.n (zero at interior nodes
    of a converged solve)."""
    return system.raw_rhs - system.raw_matrix @ P.values


def boundary_flux(P: ScalarField, system: SparseSystem, label: str) -> float:
    """Outward volumetric flux through one boundary segment (positive =
    outflow).

    Pressure segments use the consistent reaction form; velocity segments
    integrate the prescribed normal velocity (what the discrete solution
    carries there by construction).
    """
    if label in system.bcs.pressure:
        nodes = system.mesh.nodes_with_label(label)
        return float(nodal_reactions(system, P)[nodes].sum())
    if label in system.bcs.velocity:
        mesh = system.mesh
        edges = mesh.edges_with_label(label)
        a, b = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
        length = np.hypot(*(b - a).T)
        total = 0.0
        for t, w in zip(_GAUSS2_T, _GAUSS2_W):
            q = a + t * (b - a)
            vn = eval_bc(system.bcs.velocity[label], q[:, 0], q[:, 1])
            total += float((w * length * vn).sum())
        return total
    raise UnknownLabel(f"label {label!r} not present in the boundary spec")


def boundary_flux_direct(v: VectorField, mesh: Mesh, label: str) -> float:
    """Direct edge integration of v.n (cross-check for boundary_flux)."""
    edges = mesh.edges_with_label(label)
    n = mesh.n_nodes
    tri_keys = edge_keys(triangle_edges(mesh.triangles), n)
    order = np.argsort(tri_keys)
    # a boundary edge belongs to exactly one triangle
    hit = order[np.searchsorted(tri_keys[order], edge_keys(edges, n))]
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    # v.n * length with the outward normal (d_y, -d_x) / length
    return float((v.values[hit // 3] * np.column_stack([d[:, 1], -d[:, 0]])).sum())


def mobility_tensors(
    mesh: Mesh, fluid: FluidModel, xi: BodyForcePotential, K: PermeabilityField
) -> np.ndarray:
    """Per-triangle (1/mu0_tilde) K with the reference viscosity evaluated
    at triangle centroids."""
    cents = mesh.centroids()
    mu0t = transform.reference_viscosity_field(xi.at_points(cents), fluid)
    return K.tensors / np.asarray(mu0t)[:, None, None]


def modified_bcs(bcs: BoundarySpec, xi: BodyForcePotential) -> BoundarySpec:
    """Pressure data shifted by the body-force potential (p + xi);
    velocity data is unchanged."""
    return bcs.map_pressure(lambda p, x, y: p + xi(x, y))


def transform_bcs(bcs: BoundarySpec, fluid: FluidModel, xi: BodyForcePotential) -> BoundarySpec:
    """Map physical pressure boundary data to the transformed variable;
    velocity data is unchanged."""
    return bcs.map_pressure(lambda p, x, y: transform.hopf_cole_inverse(p, xi(x, y), fluid))


def solve_transformed_bvp(
    mesh: Mesh,
    fluid: FluidModel,
    xi: BodyForcePotential,
    K: PermeabilityField,
    bcs: BoundarySpec,
    config: Optional[LinearSolveConfig] = None,
) -> SolveReport:
    """Three-step solution of the nonlinear problem via one linear solve:
    map pressure data to the transformed variable, solve the linear
    problem, map the nodal solution back.

    Raises NonExistence (with the violating node set) when the transformed
    solution has no real pressure at some node off the pressure segments.

    The solve runs in the Kirchhoff variable measured from p_ref, the lowest
    prescribed modified pressure (p0 for pure-velocity data). Its boundary
    data carry the contrasts without the common baseline, which is about
    3.4e10 at Table-1 parameters and would swamp them. Nodes on pressure
    segments take their pressure straight from the data, which may lie
    further above p_ref than float64 can resolve in that variable. Velocity
    and reactions come from the Kirchhoff field; report.P is that field in
    the Hopf-Cole gauge (P = P_K - kirchhoff_ceiling).

    Pure-velocity data fix the transformed solution up to a constant; the
    member returned has p = p0 at node 0 (NonExistence if that member has
    no real pressure).
    """
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: use the plain constant-viscosity solve")
    t0 = time.perf_counter()

    xi_nodes = xi.at_points(mesh.nodes)
    prescribed = _dirichlet_values(mesh, bcs)
    dnodes = np.fromiter(prescribed, dtype=np.int64, count=len(prescribed))
    dvals = np.fromiter(prescribed.values(), dtype=float, count=len(prescribed))
    p_ref = float((dvals + xi_nodes[dnodes]).min()) if dnodes.size else fluid.p0

    kbcs = bcs.map_pressure(
        lambda p, x, y: transform.kirchhoff_forward(p + xi(x, y), fluid, p_ref)
    )
    mobility = mobility_tensors(mesh, fluid, xi, K)
    system = assemble(mesh, mobility, kbcs)
    result = solve(system, config)
    U = result.field.values
    ceiling = transform.kirchhoff_ceiling(fluid, p_ref)

    inner = np.ones(mesh.n_nodes, dtype=bool)
    inner[dnodes] = False
    if np.any(U[inner] >= ceiling):
        nodes = np.flatnonzero(inner & (U >= ceiling))
        raise NonExistence(
            f"transformed solution has no real pressure at {nodes.size} node(s); "
            "no real pressure solution exists for this boundary data",
            nodes=nodes,
        )

    p = np.empty(mesh.n_nodes)
    p[inner] = transform.kirchhoff_inverse(U[inner], fluid, p_ref) - xi_nodes[inner]
    p[dnodes] = dvals
    P = U - ceiling
    P[dnodes] = transform.hopf_cole_inverse(dvals, xi_nodes[dnodes], fluid)

    return SolveReport(
        p=ScalarField(mesh, p),
        v=recover_velocity(result.field, mobility),
        P=ScalarField(mesh, P),
        iterations=result.iterations,
        residual=result.residual,
        wall_time=time.perf_counter() - t0,
        reactions=nodal_reactions(system, result.field),
        transform_violation=False,
    )


def solve_darcy_bvp(
    mesh: Mesh,
    fluid: FluidModel,
    xi: BodyForcePotential,
    K: PermeabilityField,
    bcs: BoundarySpec,
    config: Optional[LinearSolveConfig] = None,
) -> SolveReport:
    """Constant-viscosity (beta = 0) solve of the same boundary value
    problem; the fallback path when the transform is degenerate."""
    t0 = time.perf_counter()
    mobility = mobility_tensors(mesh, fluid, xi, K)
    xi_nodes = xi.at_points(mesh.nodes)
    system = assemble(mesh, mobility, modified_bcs(bcs, xi))
    result = solve(system, config)
    v = recover_velocity(result.field, mobility)
    return SolveReport(
        p=ScalarField(mesh, result.field.values - xi_nodes),
        v=v,
        P=None,
        iterations=result.iterations,
        residual=result.residual,
        wall_time=time.perf_counter() - t0,
        reactions=nodal_reactions(system, result.field),
    )
