"""Pressure-primal P1 Galerkin kernel for the linear Darcy-type problem
-div[M grad u] = 0 with mixed pressure/velocity boundary data, plus the
three-step transformed solution path for the pressure-dependent-viscosity
model.

M is the per-triangle mobility tensor (permeability over viscosity).
Dirichlet rows are removed by symmetric elimination, the reduced SPD system
is solved with a fill-reducing sparse LU factorization, and boundary fluxes
are extracted from the unconstrained residual (reaction form), which is
discretely conservative. Boundary data enter through the one boundary
rule of ``geometry`` (2-point Gauss on each velocity edge, nodal values on
pressure segments), the rule the theorem checks in ``verification`` use too.

The constant-viscosity (beta = 0) problem is ``barus_direct.picard_solve``,
which solves it with one linear solve.

Every solve is accepted by its normwise backward error on the reduced
system A x = b (Rigal and Gaches; Higham, ch. 7): omega = ||b - A x||_2 /
(a_max ||x||_2 + ||b||_2) <= 64 eps, a_max the largest diagonal entry of A,
a lower bound on ||A||_2 that makes the test stricter. A relative residual
grows with the condition number as meshes refine; omega does not. a_max is
held with the reduced matrix, or read from a sweep's diagonal.

The transformed problem's matrix depends on the mesh, the permeability and
mu0 but not on the boundary data, so the module holds one entry for the
last system assembled: its mesh (by weak reference), a copy of its
mobility, its free nodes, its raw and reduced matrices, its flux operator
(the two CSR matrices that map nodal values to the per-triangle velocity,
see recover_velocity) and, once solved, one LU factor. No P1 gradients are
held: the flux operator's data are the products M grad(phi_j) that the
assembly forms anyway. An assembly with the same mesh, the same mobility
bits and the same Dirichlet node set builds only the load, the Dirichlet
values and the reduced right-hand side. Every assembly returns the held
matrices and flux operator themselves, read-only: their data, indices and
indptr arrays cannot be written, so no caller can change what a later call
finds. A system keeps them alive after the entry is replaced or freed, so
its velocity never depends on what is held. A solve of the held reduced
matrix reuses its factor; any other matrix drops the entry and is factored
without being held. So a sweep over pressure data on one mesh assembles
and factors once.

The sweep matrices of ``barus_direct``'s Picard solve have the held pattern
and other values. The entry keeps the reduced solution of the last solve
with that pattern. A sweep runs conjugate gradients (CG) from it,
preconditioned by the held factor rescaled symmetrically by the square root
of the ratio of the factored matrix's diagonal to the sweep matrix's: a
sweep matrix is close to the factored one with each edge scaled by the mean
of a nodal weight, so the held reduced factor can serve every sweep. CG
stops once the recomputed relative residual is at most ``_PCG_RTOL`` =
1e-14, below 64 eps, so every CG exit passes the acceptance test, and gives
up after ``_PCG_MAX`` = 8 iterations, or on a diagonal ratio or a curvature
that is not positive and finite. An exit is accepted only when each
component of r = b - A x meets |r_i| <= 2^16 eps (a_ii |x_i| + |b_i|), and
CG gives up otherwise. As a_ii |x_i| <= (|A| |x|)_i, an accepted exit has a
componentwise (Oettli-Prager, Numer. Math. 1964) backward error of at most
2^16 eps, a bound row scaling leaves intact where a normwise one fails. A
sweep with no held solution, or where CG gives up, is factored, and its
factor and diagonal replace the held factor; the reduced matrix is
refactored on its next solve. The held factor is dropped before any new one
is made, so there is one factor at most. The entry is freed when its mesh
is collected or a factorization fails.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass

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
    _edge_quadrature,
    _pressure_data,
    _tensor_scale,
    edge_keys,
    triangle_edges,
)
from .transform import BodyForcePotential, FluidModel


# Bound on the normwise backward error of every reduced solve (see solve).
_OMEGA_MAX = 64 * np.finfo(float).eps
# Relative residual at which CG on a Picard sweep stops.
_PCG_RTOL = 1e-14
# Bound on the componentwise backward error of a CG exit (see _pcg).
_PCG_ACCEPT = 2.0**16 * np.finfo(float).eps
# Iterations CG may take on a Picard sweep before the sweep is factored.
_PCG_MAX = 8


@dataclass
class SparseSystem:
    """Assembled discrete problem.

    raw_matrix/raw_rhs hold the unconstrained stiffness and Neumann load
    (needed for reaction fluxes). The Dirichlet-eliminated system is
    A_red @ u[free] = b_red, with u = lift at the constrained nodes; pure-
    velocity data is grounded there by pinning node 0 to zero. flux_operator
    is (Vx, Vy), which maps a nodal field to its velocity (recover_velocity).
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
    flux_operator: tuple  # (Vx, Vy), read-only, int32 indices


@dataclass
class LinearSolveResult:
    field: ScalarField
    iterations: int  # CG iterations of the solve; 0 for a direct solve
    residual: float  # normwise backward error of the reduced solve (see solve)


@dataclass
class SolveReport:
    """Outcome of the transformed solution path (beta > 0; at beta = 0 the
    problem is linear and barus_direct.picard_solve solves it)."""

    p: ScalarField
    v: VectorField
    P: ScalarField
    residual: float  # normwise backward error of the linear solve
    reactions: np.ndarray


def p1_gradients(mesh: Mesh):
    """Constant P1 shape-function gradients and triangle areas.

    Returns (grads, areas) with grads[t, i] = grad(phi_i) on triangle t.
    """
    (x0, x1, x2), (y0, y1, y2) = mesh._corner_coordinates()
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    grads = np.empty((area2.size, 3, 2))
    grads[:, 0, 0] = y1 - y2
    grads[:, 1, 0] = y2 - y0
    grads[:, 2, 0] = y0 - y1
    grads[:, 0, 1] = x2 - x1
    grads[:, 1, 1] = x0 - x2
    grads[:, 2, 1] = x1 - x0
    grads /= area2[:, None, None]
    return grads, 0.5 * area2


def _check_spd(mobility: np.ndarray):
    a, d = mobility[:, 0, 0], mobility[:, 1, 1]
    b = 0.5 * (mobility[:, 0, 1] + mobility[:, 1, 0])
    asym = np.abs(mobility[:, 0, 1] - mobility[:, 1, 0])
    scale = np.maximum(_tensor_scale(mobility), 1e-300)
    det = a * d - b * b
    # positive tests, so that a NaN entry fails them
    bad = ~((a > 0) & (det > 0) & (asym <= 1e-10 * scale))
    if np.any(bad):
        raise SingularMobility(
            f"{int(bad.sum())} mobility tensor(s) fail symmetric positive-definiteness"
        )


def _neumann_load(mesh: Mesh, bcs: BoundarySpec) -> np.ndarray:
    """rhs_i = -integral over velocity segments of phi_i * v_n (2-pt Gauss)."""
    rhs = np.zeros(mesh.n_nodes)
    for label, data in bcs.velocity.items():
        for edges, t, wl, vn in _edge_quadrature(mesh, label, data):
            np.add.at(rhs, edges[:, 0], -wl * vn * (1.0 - t))
            np.add.at(rhs, edges[:, 1], -wl * vn * t)
    return rhs


def _compatibility(load: np.ndarray):
    """(compatible, net outflow) of pure-velocity data from their Neumann
    load: the net load must vanish to 1e-12 of the summed nodal magnitudes."""
    net = float(load.sum())
    return abs(net) <= 1e-12 * max(float(np.abs(load).sum()), 1e-300), -net


@dataclass
class _Held:
    """The held entry: the last system assemble built and, once a solve has
    made one, its one factor."""

    mesh: weakref.ref
    mobility: np.ndarray
    free: np.ndarray
    raw_matrix: sp.csr_matrix
    A_red: sp.csr_matrix
    flux_operator: tuple  # (Vx, Vy) of mobility on mesh; see _flux_operator
    a_max: float  # the largest diagonal entry of A_red
    lu: spla.SuperLU = None  # of A_red, or of the last sweep matrix factored
    lu_diagonal: np.ndarray = None  # that sweep matrix's diagonal; None for A_red
    scaling: "_EdgeScaling" = None  # of barus_direct's sweeps, made on first need


# The one held entry, or None. One at most. On the 400x120 reservoir (48,521
# nodes, 96,000 triangles) its arrays come to 15.6 MB: mobility 3.1 MB, free
# nodes 0.2 MB, raw and reduced matrices 6.2 MB, flux operator 6.1 MB (4.6 MB
# of values, 1.5 MB of shared indices and indptr). Its factor has 2.48M
# entries in L and U, about 30 MB.
_entry = None


def _release(ref):
    """Weakref callback: a collected mesh takes its entry with it, unless
    the entry has since been replaced by another one."""
    global _entry
    entry = _entry
    if entry is not None and entry.mesh is ref:
        _entry = None


def _entry_for(mesh):
    """The held entry if it was built on this mesh object, else None."""
    entry = _entry
    return entry if entry is not None and entry.mesh() is mesh else None


def _same_bits(a, b) -> bool:
    """Same dtype, shape and bits: 0.0 and -0.0 differ, a NaN equals itself."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    as_int = np.dtype(f"u{a.itemsize}")
    return bool(np.array_equal(a.view(as_int), b.view(as_int)))


def _corner_fluxes(grads: np.ndarray, mobility: np.ndarray):
    """(fx, fy), each (n_tri, 3): the components of M grad(phi_j) at each
    corner j of each triangle."""
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    fx = mobility[:, 0, 0, None] * gx + mobility[:, 0, 1, None] * gy
    fy = mobility[:, 1, 0, None] * gx + mobility[:, 1, 1, None] * gy
    return fx, fy


def _flux_operator(fx, fy, tri: np.ndarray, n: int):
    """The flux operator (Vx, Vy) of the corner fluxes fx, fy on the int32
    triangles tri: two CSR (n_tri x n) matrices whose row t holds the three
    corner values of triangle t at its node columns, so that -(Vx @ U,
    Vy @ U) is the velocity of the nodal field U. Their data are fx and fy
    themselves, and they share tri as indices and one indptr."""
    indices = tri.ravel()
    indptr = np.arange(0, indices.size + 1, 3, dtype=np.int32)
    shape = (tri.shape[0], n)
    return tuple(sp.csr_matrix((f.ravel(), indices, indptr), shape=shape) for f in (fx, fy))


def _hold_system(mesh: Mesh, mobility: np.ndarray, free: np.ndarray) -> _Held:
    """Assemble the stiffness of mobility on mesh, reduce it to the free
    nodes and hold both, with the flux operator, in a new entry."""
    global _entry
    _entry = None  # the old matrices and factor go before the new ones are built
    # Element entries k_ij = area * grad(phi_i) . M grad(phi_j): the diagonal
    # and one of each off-diagonal pair, edges (i, i+1 mod 3). The stiffness
    # is then D + U + U^T, exactly symmetric, so the CSR arrays of A_red are
    # also its CSC arrays; no (n_tri, 3, 3) array or 9-entry COO is built,
    # which keeps the assembly's memory peak low.
    grads, areas = p1_gradients(mesh)
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    fx, fy = _corner_fluxes(grads, mobility)
    diag = (gx * fx + gy * fy) * areas[:, None]
    nxt = [1, 2, 0]
    off = (gx * fx[:, nxt] + gy * fy[:, nxt]) * areas[:, None]
    # fx and fy, the data of the flux operator, take the gradients' place
    # before the sparse build: no higher peak, and no gradients held
    del grads, gx, gy
    tri = mesh.triangles.astype(np.int32)
    a, b = tri.ravel(), tri[:, nxt].ravel()
    n = mesh.n_nodes
    upper = sp.csr_matrix((off.ravel(), (np.minimum(a, b), np.maximum(a, b))), shape=(n, n))
    raw_diagonal = np.bincount(a, diag.ravel(), minlength=n)
    raw = upper + upper.T + sp.diags(raw_diagonal)
    red = raw[free][:, free]
    a_max = float(raw_diagonal[free].max(initial=0.0))
    del upper, off, diag, raw_diagonal, b  # freed before the flux operator is built

    _entry = _Held(
        mesh=weakref.ref(mesh, _release),
        mobility=mobility.copy(),
        free=free.copy(),
        raw_matrix=raw,
        A_red=red,
        flux_operator=_flux_operator(fx, fy, tri, n),
        a_max=a_max,
    )
    for m in (raw, red, *_entry.flux_operator):
        for array in (m.data, m.indices, m.indptr):
            array.setflags(write=False)  # every caller gets these matrices
    return _entry


def assemble(mesh: Mesh, mobility: np.ndarray, bcs: BoundarySpec) -> SparseSystem:
    """P1 stiffness for -div[M grad u] = 0 with the given boundary data.

    mobility : (n_tri, 2, 2) symmetric positive-definite tensors.

    The stiffness, its reduction and the flux operator are held for the
    next call (see the module docstring). A call on the same mesh object,
    with a mobility of the same bits and the same Dirichlet node set,
    takes them from the held entry and builds only the load, the Dirichlet
    values and b_red; its result is bitwise that of a fresh assembly. Any
    other call assembles in full and replaces the entry. The returned
    raw_matrix, A_red and flux_operator are the held matrices, read-only:
    writing to their data, indices or indptr raises ValueError, and a
    changed copy is another matrix to solve. The other arrays of the system
    belong to the caller. A mesh is taken as fixed once built.
    """
    mobility = np.asarray(mobility, dtype=float)
    if mobility.shape != (mesh.n_triangles, 2, 2):
        raise ValueError("one 2x2 mobility tensor per triangle required")
    held = _entry_for(mesh)
    if held is None or not _same_bits(held.mobility, mobility):
        held = None
        _check_spd(mobility)
    bcs.validate_partition(mesh)

    raw_rhs = _neumann_load(mesh, bcs)
    nodes, values = _pressure_data(mesh, bcs)
    n = mesh.n_nodes
    lift = np.zeros(n)
    lift[nodes] = values
    is_free = np.ones(n, dtype=bool)
    is_free[nodes if nodes.size else 0] = False  # pure-velocity: node 0 pinned at 0
    free = np.flatnonzero(is_free).astype(np.int32)
    if held is None or not _same_bits(held.free, free):
        held = _hold_system(mesh, mobility, free)

    raw = held.raw_matrix
    return SparseSystem(
        mesh=mesh,
        raw_matrix=raw,
        raw_rhs=raw_rhs,
        dirichlet_map=dict(zip(nodes.tolist(), values.tolist())),
        bcs=bcs,
        free=free,
        lift=lift,
        A_red=held.A_red,
        b_red=(raw_rhs - raw @ lift)[free],
        flux_operator=held.flux_operator,
    )


class _EdgeScaling:
    """The systems of a held system's pattern with other stiffness values:
    each off-diagonal pair k_ij = k_ji scaled by one factor per edge, each
    diagonal entry minus the row sum of the scaled entries, reduced to the
    free nodes as the held system is. Its maps (scaled pairs, diagonal, and
    the raw data position of each A_red entry) and data arrays are made once
    per entry; a call refills the data and builds no sparse matrix, so the
    system it returns is overwritten by the next call.

    x, the reduced solution of the last solve with the held pattern, is
    where CG starts on the next sweep (see _solve_sweep); a Picard solve
    sets it to None first, so it starts from what it makes itself."""

    def __init__(self, held: _Held):
        raw, red = held.raw_matrix, held.A_red
        n = raw.shape[0]
        # raw is canonical (rows ascending, columns sorted in each row), so
        # the keys row * n + col of its entries ascend
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(raw.indptr))
        keys = rows * n + raw.indices
        upper = np.flatnonzero(rows < raw.indices)
        i, j = rows[upper], raw.indices[upper].astype(np.int64)
        self.edges = (i, j)
        self.n = n
        self._upper = upper
        self._lower = np.searchsorted(keys, j * n + i)
        self._diag = np.flatnonzero(rows == raw.indices)  # one per node, in order
        free = held.free.astype(np.int64)
        red_rows = np.repeat(free, np.diff(red.indptr))
        self._to_red = np.searchsorted(keys, red_rows * n + free[red.indices])
        self.diagonal = red.diagonal()  # of A_red: d_F in _pcg while its factor is held
        self._base = raw.data
        self._raw = sp.csr_matrix((np.empty_like(raw.data), raw.indices, raw.indptr), shape=raw.shape)
        self.A_red = sp.csr_matrix((np.empty_like(red.data), red.indices, red.indptr), shape=red.shape)
        self.x = None

    def system(self, base: SparseSystem, scale: np.ndarray) -> SparseSystem:
        """base, the held system, with the stiffness scaled by scale (one
        factor per pair of self.edges). The scaled pairs get one product
        each, so A_red stays bitwise symmetric."""
        data = self._raw.data
        off = self._base[self._upper] * scale
        data[self._upper] = off
        data[self._lower] = off
        i, j = self.edges
        data[self._diag] = -(np.bincount(i, off, self.n) + np.bincount(j, off, self.n))
        np.take(data, self._to_red, out=self.A_red.data)
        return dataclasses.replace(
            base,
            raw_matrix=self._raw,
            A_red=self.A_red,
            b_red=(base.raw_rhs - self._raw @ base.lift)[base.free],
        )


def _edge_scaling(system: SparseSystem) -> _EdgeScaling:
    """The edge scaling of system, which holds the matrices of the entry."""
    held = _entry_for(system.mesh)
    assert held is not None and held.raw_matrix is system.raw_matrix
    if held.scaling is None:
        held.scaling = _EdgeScaling(held)
    return held.scaling


def _factor(A):
    """SuperLU factor of the SPD matrix A, in its own fill-reducing order."""
    try:
        # A is symmetric: its CSR arrays, read as CSC, are A itself (no copy)
        return spla.splu(
            sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            relax=4,
            panel_size=8,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:  # SuperLU reports an exactly singular factor
        raise NoConvergence(f"sparse LU factorization failed: {err}") from err


def _pcg(held, A, b, bnorm, d_A):
    """Conjugate gradients on A x = b, an A with the held pattern and the
    diagonal d_A, from held.scaling.x, preconditioned by S F^-1 S. F is
    held.lu, the factor of held.A_red or of a sweep matrix, and S =
    diag(sqrt(d_F / d_A)), with d_F the diagonal of the matrix F factored: a
    sweep matrix is close to D^1/2 B D^1/2 for the factored B and a positive
    diagonal D, and S F^-1 S is then close to its inverse. Returns (x,
    iterations) once the recomputed relative residual is at most _PCG_RTOL,
    if x meets the componentwise test of the module docstring, or (None,
    iterations) when it does not, _PCG_MAX iterations have not met the
    residual, a ratio d_F / d_A is not positive and finite (0 iterations) or
    a curvature p.Ap is not. No reference to the factor outlives the call,
    so the caller can free it before it makes the next one."""
    lu, d_F = held.lu, held.lu_diagonal
    if d_F is None:
        d_F = held.scaling.diagonal
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d_F / d_A
    if not np.all((ratio > 0.0) & (ratio < np.inf)):  # a NaN fails too
        return None, 0
    s = np.sqrt(ratio)

    x = held.scaling.x
    r = b - A @ x
    p, rz = None, 0.0
    for k in range(1, _PCG_MAX + 1):
        z = s * lu.solve(s * r)
        rz, rz_old = float(r @ z), rz
        p = z if p is None else z + (rz / rz_old) * p
        Ap = A @ p
        curvature = float(p @ Ap)
        if not 0.0 < curvature < np.inf:
            return None, k
        x = x + (rz / curvature) * p
        r = b - A @ x
        if np.linalg.norm(r) <= _PCG_RTOL * bnorm:
            accepted = np.all(np.abs(r) <= _PCG_ACCEPT * (d_A * np.abs(x) + np.abs(b)))
            return (x if accepted else None), k
    return None, _PCG_MAX


def _solve_sweep(held, A, b, bnorm):
    """Solve A x = b for A, the sweep matrix of held.scaling; returns (x,
    CG iterations, a_max of A). Where the scaling holds a solution (a later
    Picard sweep), CG runs from it (see _pcg), and the held factor stays.
    Otherwise, or when CG gives up, the held factor is dropped and A is
    factored; its factor and diagonal are held for the sweeps after it."""
    scaling = held.scaling
    d_A = A.diagonal()
    iterations = 0
    if scaling.x is not None:
        x, iterations = _pcg(held, A, b, bnorm, d_A)
        if x is not None:
            scaling.x = x
            return x, iterations, d_A.max()
    held.lu = None  # the held factor goes before the next is made
    held.lu, held.lu_diagonal = _factor(A), d_A
    scaling.x = held.lu.solve(b)
    return scaling.x, iterations, d_A.max()


def _lu(A, b, mesh):
    """Solve A x = b (A SPD); returns (x, omega of solve, CG iterations).
    When A is the reduced matrix held for mesh, the entry keeps its SuperLU
    factor and later calls reuse it, unless a sweep factor has taken its
    slot since. A sweep matrix of the entry's edge scaling is solved by
    _solve_sweep. Any other A drops the entry and is factored without being
    held. The entry holds one factor at most, and a failed factorization
    drops it."""
    global _entry
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    held = _entry_for(mesh)
    scaling = held.scaling if held is not None else None
    iterations = 0
    try:
        if scaling is not None and A is scaling.A_red:
            x, iterations, a_max = _solve_sweep(held, A, b, bnorm)
        elif held is not None and A is held.A_red:
            if held.lu is None or held.lu_diagonal is not None:
                held.lu = held.lu_diagonal = None  # a sweep factor goes first
                held.lu = _factor(A)
            x = held.lu.solve(b)
            if scaling is not None:
                scaling.x = x
            a_max = held.a_max
        else:
            _entry = held = None  # the held factor goes first: never two at once
            x = _factor(A).solve(b)
            a_max = A.diagonal().max()
    except NoConvergence:
        _entry = None
        raise
    omega = np.linalg.norm(b - A @ x) / (a_max * np.linalg.norm(x) + bnorm)
    return x, float(omega), iterations


def solve(system: SparseSystem) -> LinearSolveResult:
    """Solve the assembled system for the nodal field.

    The reduced SPD matrix is solved with a fill-reducing sparse LU, and
    every solve must pass the backward-error test of the module docstring,
    omega <= 64 eps; an omega above it, or not finite, raises
    NoConvergence, and result.residual is omega. The factor of the held
    reduced matrix, the A_red that assemble returns, is held with the entry
    of the module docstring and reused while system.mesh lives. A reused
    factor gives results bitwise identical to a fresh one. A Picard sweep
    matrix of barus_direct is solved by preconditioned CG when the entry
    holds a sweep solution to start from, and is factored, its factor
    taking the held one's place, when it does not or CG gives up;
    result.iterations counts the CG iterations, 0 for a direct solve. Any
    other matrix, a changed copy of the held one too, drops the entry and is
    factored without being held.

    Pure-velocity problems are checked against the zero-net-flux
    compatibility condition first (IncompatibleNeumann if violated) and are
    then grounded by pinning node 0; the member of the constant-shifted
    family returned is the one whose largest value is 0.
    """
    if not system.dirichlet_map:
        compatible, net = _compatibility(system.raw_rhs)
        if not compatible:
            raise IncompatibleNeumann(
                f"pure-velocity data with net boundary flux {net:.6e}; "
                "compatibility condition violated"
            )

    x_red, omega, iterations = _lu(system.A_red, system.b_red, system.mesh)
    if not omega <= _OMEGA_MAX:  # also catches a non-finite omega
        raise NoConvergence(f"linear solve backward error {omega:.3e} exceeds {_OMEGA_MAX:.3e}")

    values = system.lift.copy()
    values[system.free] = x_red
    if not system.dirichlet_map:
        values -= values.max()
    return LinearSolveResult(ScalarField(system.mesh, values), iterations, omega)


def recover_velocity(P: ScalarField, system: SparseSystem) -> VectorField:
    """Per-triangle velocity v = -M grad(P) from the exact P1 gradient, M
    the mobility system was assembled with: v = -(Vx @ P, Vy @ P) with
    system.flux_operator, the sum over the corners j of (M grad(phi_j)) P_j.
    This sum rounds differently from M (sum_j grad(phi_j) P_j), the product
    of the 2x2 tensor with the gradient: the two differ by at most 2e-15 of
    max|v| on the 400x120 reservoir and 7.2e-15 on the crossed 40x12 one."""
    vx, vy = system.flux_operator
    v = np.empty((P.mesh.n_triangles, 2))
    np.negative(vx @ P.values, out=v[:, 0])
    np.negative(vy @ P.values, out=v[:, 1])
    return VectorField(P.mesh, v)


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
        # the label's rows of nodal_reactions, each summed in the same order
        nodes = system.mesh.nodes_with_label(label)
        return float((system.raw_rhs[nodes] - system.raw_matrix[nodes] @ P.values).sum())
    if label in system.bcs.velocity:
        total = 0.0
        for _, _, wl, vn in _edge_quadrature(system.mesh, label, system.bcs.velocity[label]):
            total += float((wl * vn).sum())
        return total
    raise UnknownLabel(f"label {label!r} not present in the boundary spec")


def boundary_flux_direct(v: VectorField, mesh: Mesh, label: str) -> float:
    """Direct edge integration of v.n (cross-check for boundary_flux)."""
    edges = mesh.edges_with_label(label)
    n = mesh.n_nodes
    # only a triangle with two corners on the labelled edges can hold one;
    # the edges of those few are searched instead of all 3 * n_tri
    on = np.zeros(n, dtype=np.int8)
    on[edges] = 1
    t0, t1, t2 = mesh.triangles.T
    near = np.flatnonzero(on[t0] + on[t1] + on[t2] >= 2)
    tri_keys = edge_keys(triangle_edges(mesh.triangles[near]), n)
    order = np.argsort(tri_keys)
    # a boundary edge belongs to exactly one triangle
    hit = near[order[np.searchsorted(tri_keys[order], edge_keys(edges, n))] // 3]
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    # v.n * length with the outward normal (d_y, -d_x) / length
    return float((v.values[hit] * np.column_stack([d[:, 1], -d[:, 0]])).sum())


def mobility_tensors(
    mesh: Mesh, fluid: FluidModel, xi: BodyForcePotential, K: PermeabilityField
) -> np.ndarray:
    """Per-triangle (1/mu0_tilde) K with the reference viscosity evaluated
    at triangle centroids.

    With a zero potential the reference viscosity is mu0 everywhere, so the
    result is K / mu0, bit for bit what the centroid evaluation gives
    (mu0 * exp(-0.0) == mu0), without building the centroids.
    """
    if xi.is_zero:
        return K.tensors / fluid.mu0
    cents = mesh.centroids()
    mu0t = transform.reference_viscosity_field(xi.at_points(cents), fluid)
    return K.tensors / np.asarray(mu0t)[:, None, None]


def transform_bcs(bcs: BoundarySpec, fluid: FluidModel, xi: BodyForcePotential) -> BoundarySpec:
    """Map physical pressure boundary data to the transformed variable;
    velocity data is unchanged."""
    return bcs.map_pressure(lambda p, x, y: transform.hopf_cole_inverse(p, xi(x, y), fluid))


def _gauge(mesh, fluid, xi, bcs):
    """The Kirchhoff gauge of both solution paths. Returns (xi_nodes,
    dnodes, dvals, p_ref): xi at the nodes, the Dirichlet nodes and their
    prescribed pressures, and p_ref, the lowest prescribed modified
    pressure p + xi (p0 without pressure data), which the Kirchhoff variable
    is measured from."""
    xi_nodes = xi.at_points(mesh.nodes)
    dnodes, dvals = _pressure_data(mesh, bcs)
    p_ref = float((dvals + xi_nodes[dnodes]).min()) if dnodes.size else fluid.p0
    return xi_nodes, dnodes, dvals, p_ref


def solve_transformed_bvp(
    mesh: Mesh,
    fluid: FluidModel,
    xi: BodyForcePotential,
    K: PermeabilityField,
    bcs: BoundarySpec,
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
    the Hopf-Cole gauge (P = P_K - kirchhoff_ceiling). The ceiling-flux
    calibration of verification is this solve, read at its well reactions.

    Pure-velocity data fix the transformed solution up to a constant; the
    member returned, as by barus_direct.picard_solve, has its largest p + xi
    at p0, where the Kirchhoff variable is 0 (see solve), so it always has a
    real pressure.
    """
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: use barus_direct.picard_solve (one linear solve)")
    xi_nodes, dnodes, dvals, p_ref = _gauge(mesh, fluid, xi, bcs)
    kbcs = bcs.map_pressure(
        lambda p, x, y: transform.kirchhoff_forward(p + xi(x, y), fluid, p_ref)
    )
    system = assemble(mesh, mobility_tensors(mesh, fluid, xi, K), kbcs)
    result = solve(system)
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
    P = U - ceiling
    P[dnodes] = transform.hopf_cole_inverse(dvals, xi_nodes[dnodes], fluid)
    p = np.empty(mesh.n_nodes)
    p[inner] = transform.kirchhoff_inverse(U[inner], fluid, p_ref) - xi_nodes[inner]
    p[dnodes] = dvals
    return SolveReport(
        p=ScalarField(mesh, p),
        v=recover_velocity(result.field, system),
        P=ScalarField(mesh, P),
        residual=result.residual,
        reactions=nodal_reactions(system, result.field),
    )
