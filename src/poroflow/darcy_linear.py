"""Pressure-primal P1 Galerkin kernel for the linear Darcy-type problem
-div[M grad u] = 0 with mixed pressure/velocity boundary data, plus the
three-step transformed solution path for the pressure-dependent-viscosity
model.

M is the per-triangle mobility tensor (permeability over viscosity).
Dirichlet rows are removed by symmetric elimination, the reduced SPD system
is solved with a direct factor, banded Cholesky or sparse LU (see below),
and boundary fluxes are extracted from the unconstrained residual (reaction
form), which is discretely conservative. Boundary data enter through the
one boundary rule of ``geometry`` (2-point Gauss on each velocity edge,
nodal values on pressure segments), the rule the theorem checks in
``verification`` use too.
A system describes its Dirichlet nodes by the mask is_free of the other
nodes and by dirichlet, their ascending list, with the lift, its data
there, and dirichlet_rows, the raw matrix's rows at those nodes. The mask
serves the n-long gathers and scatters of a solve; the list serves the
boundary-sized reads, which a scan of the mask would make O(n).
Every reaction at a Dirichlet node comes from those rows (_reactions). A
node two pressure labels share is the later one's (geometry._owned), and
data with no pressure label are pure-velocity data, grounded by pinning
node 0.

The constant-viscosity (beta = 0) problem is ``barus_direct.picard_solve``,
which solves it with one linear solve.

Every reduced solution, solved or superposed, is accepted by one test
(_accept), its normwise backward error on the reduced system A x = b (Rigal
and Gaches; Higham, ch. 7): omega = ||b - A x||_2 / (a_max ||x||_2 +
||b||_2) <= 64 eps, a_max the largest diagonal entry of A, a lower bound on
||A||_2 that makes the test stricter, and a finite x. A relative residual
grows with the condition number as meshes refine; omega does not. a_max is
held with the reduced matrix, or read from a sweep's diagonal. The test
takes ||b - A x|| in one of two forms. A solve forms r = b - A x once (a
CG sweep passes on the one it stopped at). A superposition of held
responses takes an upper bound on ||r|| from what each response keeps, and
forms r only where that bound does not pass (see _superpose). The
transformed solve's reactions are the Dirichlet rows' at the pressure
nodes and +0.0 at the free nodes, whose equations are the ones solved
(see SolveReport). Every norm of a reduced solve, and every inner product
of CG, is a BLAS dot product that reports no overflow (_norm); where v . v
leaves the normal range, v is scaled by a power of two first, so a norm is
finite wherever ||v|| is representable, and a finite one keeps the bits of
sqrt(v . v). A solve with a norm that is not finite is not accepted.

Every factorization follows one rule (_factor), which reads the matrix's
pattern and its nodes' coordinates and nothing else, so a matrix gets the
same kind of factor cold, warm or after a Picard sweep. The unknowns are
numbered by their coordinate along the longer side of their bounding box,
the other coordinate breaking ties. On a structured rectangle longer in x
that gives a half-bandwidth kd = ny + 1 (2 ny + 1 on a crossed mesh with
anisotropic K). Where kd <= _BAND_MAX = 64, LAPACK's banded Cholesky
factors the matrix in upper band storage (dpbtrf; the band method of George
and Liu, Computer Solution of Large Sparse Positive Definite Systems,
1981); elsewhere SuperLU does, in its own fill-reducing order. 64 lies
between kd 49, where the band's n (kd + 1) doubles equal SuperLU's L and U
bytes on the Table-1 reservoirs, and kd 97, where they are 1.45 times as
many: past 64 the band still factors faster, but it is the larger factor,
and the largest meshes set the memory peak. The two factors' solutions
differ by rounding.

The transformed problem's matrix depends on the mesh, the permeability and
mu0 but not on the boundary data, so the module holds one entry for the
last system assembled: its mesh (by weak reference), its mobility (the
read-only K/mu0 of mobility_tensors itself, or else a copy), its Dirichlet
nodes, its raw and reduced matrices, the reduced matrix's largest diagonal
entry, absolute row sum and row length, the raw matrix's Dirichlet rows
(CSR), their coupling to the free nodes (_Coupling: the free nodes those
rows reach and the free boundary nodes, and each entry of the rows in a
free column, boundary-sized), its flux operator (the two CSR matrices that
map nodal values to the per-triangle velocity, see recover_velocity) and,
once solved, one factor, of either kind. No P1 gradients are held: the flux
operator's data are the products M grad(phi_j) that the assembly forms
anyway. An assembly on the same mesh, with the held mobility array itself
or else one of the same bits, and with the same Dirichlet node set builds
only the load, the Dirichlet values and the reduced right-hand side, the
last from the coupling (_Coupling.rhs), with no n-long sparse product; what
a warm superposed solve does per call is listed below. The load and the
Dirichlet values read the boundary geometry the mesh keeps (see geometry).
The solution paths read the pressure data once, for their gauge (_gauge),
and hand the caller's spec, for its partition and velocity data, and the
mapped values to the assembly (_assemble), so a warm transformed solve
evaluates each datum once, builds no BoundarySpec and computes no boundary
geometry. Every assembly returns the held matrices and flux operator
themselves, read-only: their data, indices and indptr arrays cannot be
written, so no caller can change what a later call finds. A system keeps
them alive after the entry is replaced or freed, so its velocity never
depends on what is held. The transformed solve computes no velocity and
maps no node back: its report keeps U, the flux operator (not the system)
and the pressure data, and computes v and p from them on first read (see
SolveReport). A solve of the held reduced matrix reuses its factor; any
other matrix drops the entry and is factored without being held. So a sweep
over pressure data on one mesh assembles and factors once.

The transformed problem is linear in its variable, so where its mapped data
are constant on every label its reduced solution is x = sum of c_l H_l, c_l
the datum of label l and H_l the reduced solution for unit data on l alone
(the linear-decomposition argument of verification.calibrate_ceiling_flux).
The entry holds one H_l per label with nonzero data, for one partition of
the labels (the pressure and velocity labels, each in spec order), made on
first need by the held factor of the reduced matrix (see _superpose). With
each it keeps the norm of its residual, from the one product with A_red
made then, and H_l's norm, its right-hand side at the coupling's rows and
that side's norm, and its largest and smallest values (_ResponseBounds). A
transformed solve whose pressure labels each take one value at the nodes
they own, whose velocity data are constants and which has a pressure node
forms x from them and accepts it from the bound on its residual that they
give, and makes no triangular solve and no product with A_red once its
responses are held. An x the bound does not pass is tested on its formed
residual; an x that test rejects, any other data and every solve outside
the transformed path take solve. The responses are solutions of the reduced
matrix, not of the factor, so a sweep factor that takes the slot leaves
them held; a call with another partition replaces them, and they go with
the entry. Per call, such a warm superposed solve makes a fixed number of
n-long passes: the load, the lift and the free mask; the zeros of b_red; x,
one pass per term; the norm of x, for the test (_accept); U (the free
scatter of x), P and the zeros of the reactions. Where the responses'
extrema do not bound x below C it also scans U's largest value. The rest is
boundary-sized: the data at the pressure nodes, C(p_ref) and the Kirchhoff
map there, the coupling's sums, scattered into b_red and gathered back for
the bound, and the Dirichlet rows, for the reactions at those nodes. It
evaluates no constant datum at points, and neither do the assembly of its
Hopf-Cole data nor the checks of ``verification`` that read them:
transform_bcs maps a constant to a constant at the zero potential, and
geometry._pressure_data fills a constant in over the nodes its label owns.

The sweep policy. A sweep of ``barus_direct``'s Picard solve is one call,
_solve_sweep(base, weights, start), the only place this policy runs: base
the held system, weights one per edge, start the previous sweep's reduced
solution or None (a sweep whose weights are all 1 is base itself, which
Picard hands to solve). The sweep matrix has the held pattern and other
values; the call refills only A_red and the coupling's values, for b_red
(see _EdgeScaling), and builds no system, so solve sees only assembled
systems. The entry holds no iteration state. A sweep runs conjugate
gradients (CG) from its start, preconditioned by the held factor rescaled
symmetrically by the square root of the ratio of the factored matrix's
diagonal to the sweep matrix's: a sweep matrix is close to the factored one
with each edge scaled by the mean of a nodal weight, so the held reduced
factor can serve every sweep. CG stops once the recomputed relative
residual is at most ``_PCG_RTOL`` = 1e-14, below 64 eps, so every CG exit
passes the acceptance test, and gives up after ``_PCG_MAX`` = 8 iterations,
or on a diagonal ratio or a curvature that is not positive and finite. An
exit is accepted only when each component of r = b - A x meets |r_i| <=
2^16 eps (a_ii |x_i| + |b_i|), and CG gives up otherwise. As a_ii |x_i| <=
(|A| |x|)_i, an accepted exit has a componentwise (Oettli-Prager, Numer.
Math. 1964) backward error of at most 2^16 eps, a bound row scaling leaves
intact where a normwise one fails. A sweep with no start, or where CG gives
up, is factored, and its factor and diagonal replace the held factor; the
reduced matrix is refactored on its next solve. The sweeps share the held
pattern, so _factor gives every factor of one mesh one kind. The held
factor is dropped before any new one is made, so there is one factor at
most. The entry is freed when its mesh is collected or a factorization
fails.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

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
    _finite,
    _owned,
    _pressure_data,
    _tensor_scale,
    edge_keys,
    eval_bc,
    triangle_edges,
)
from .transform import BodyForcePotential, FluidModel


# Bound on the normwise backward error of every reduced solve (see solve).
_OMEGA_MAX = 64 * np.finfo(float).eps
# The unit roundoff u of float64: fl(a op b) = (a op b)(1 + d), |d| <= u.
_UNIT = 2.0**-53
# The smallest normal float: a v . v below it is scaled (see _norm).
_NORMAL_MIN = float(np.finfo(float).tiny)
# Relative residual at which CG on a Picard sweep stops.
_PCG_RTOL = 1e-14
# Bound on the componentwise backward error of a CG exit (see _pcg).
_PCG_ACCEPT = 2.0**16 * np.finfo(float).eps
# Iterations CG may take on a Picard sweep before the sweep is factored.
_PCG_MAX = 8
# Largest half-bandwidth factored by banded Cholesky (see _factor).
_BAND_MAX = 64


@dataclass
class SparseSystem:
    """Assembled discrete problem.

    raw_matrix/raw_rhs hold the unconstrained stiffness and Neumann load
    (needed for reaction fluxes). The Dirichlet-eliminated system is A_red
    @ u[is_free] = b_red, with u = lift at the other nodes (see the module
    docstring). bcs gives the partition and the velocity data; lift holds
    the pressure values eliminated, which the solution paths map from the
    caller's data. dirichlet lists the nodes off is_free, and dirichlet_rows
    holds raw_matrix's rows at them, for the reactions there (_reactions).
    flux_operator is (Vx, Vy), which maps a nodal field to its velocity
    (recover_velocity)."""

    mesh: Mesh
    raw_matrix: sp.csr_matrix
    raw_rhs: np.ndarray
    bcs: BoundarySpec
    is_free: np.ndarray  # bool mask of the unknown nodes
    lift: np.ndarray  # nodal values: Dirichlet data, zero at free nodes
    dirichlet: np.ndarray  # int32, ascending, read-only; [0] for pure-velocity data
    dirichlet_rows: sp.csr_matrix  # raw_matrix[dirichlet], read-only
    A_red: sp.csr_matrix  # symmetric, int32 indices
    b_red: np.ndarray
    flux_operator: tuple  # (Vx, Vy), read-only, int32 indices

    @property
    def dirichlet_map(self) -> dict:
        """{node: its eliminated value} in ascending node order, from
        dirichlet and lift; empty for pure-velocity data. Built on each
        read: nothing in the package reads it."""
        nodes = self.dirichlet if self.bcs.pressure else self.dirichlet[:0]
        return dict(zip(nodes.tolist(), self.lift[nodes].tolist()))


@dataclass
class LinearSolveResult:
    field: ScalarField
    iterations: int  # CG iterations of the solve; 0 for a direct solve
    # normwise backward error of the reduced solve, or a bound on it (see _accept)
    residual: float
    reduced: np.ndarray  # at the free nodes, ascending, as solved: no shift, no copy
    # an upper bound on the largest value of reduced, from the responses it
    # was superposed from (see _superpose); inf for any other solve
    _peak: float = dataclasses.field(default=math.inf, repr=False, compare=False)


@dataclass
class SolveReport:
    """Outcome of the transformed solution path (beta > 0; at beta = 0 the
    problem is linear and barus_direct.picard_solve solves it).

    U is the solved Kirchhoff field and P the Hopf-Cole field U - C, C the
    kirchhoff_ceiling, with hopf_cole_inverse of the data at the Dirichlet
    nodes. Where the mapped data are constant on every label, U is the sum
    of the held per-label responses scaled by the data (see _superpose),
    and differs from that of solve by rounding. v and reactions come from
    U, not P: their net Dirichlet reaction is smaller than that of P put
    through a system assembled in the Hopf-Cole gauge.

    v is computed from U on its first read, by the flux operator of the
    system solved, which the report holds (read-only, shared with the held
    entry while that lives, and kept alive by the report after the entry
    moves on); later reads return the same VectorField.
    Its bits are those of recover_velocity(U, system). Likewise p, the
    physical pressure: the data on the pressure segments, elsewhere the
    kirchhoff_inverse of U minus xi, from the pressure data, p_ref, C and, for
    a nonzero potential only, xi at the nodes. The solve has checked that U
    is below C there, so a read cannot raise.

    reactions are those of _reactions(system, U) at the Dirichlet nodes
    (node 0 for pure-velocity data), the bits of nodal_reactions(system, U)
    there, and +0.0 at every free node, on both paths: a free node's
    discrete equation is the one solved, and residual bounds what rounding
    leaves of it. residual is the backward error omega of the test of
    solve (_accept): for a U that solve solved, or a superposition the
    bound did not pass, omega of the formed residual b_red - A_red x; for a
    superposed U, the upper bound on it that the held responses give (see
    _superpose), at least the omega of the formed residual."""

    U: ScalarField
    P: ScalarField
    residual: float  # normwise backward error of the linear solve
    reactions: np.ndarray
    _flux_operator: tuple = dataclasses.field(repr=False, compare=False)  # (Vx, Vy)
    # (fluid, p_ref, C, xi at the nodes or None, pressure nodes, their data)
    _back_map: tuple = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def v(self) -> VectorField:
        return _velocity(self.U, self._flux_operator)

    @functools.cached_property
    def p(self) -> ScalarField:
        fluid, p_ref, ceiling, xi_nodes, dnodes, dvals = self._back_map
        U = self.U.values
        inner = np.ones(U.size, dtype=bool)
        inner[dnodes] = False
        p = np.empty(U.size)
        p_inner = transform._kirchhoff_inverse(U[inner], fluid, p_ref, ceiling)
        p[inner] = p_inner if xi_nodes is None else p_inner - xi_nodes[inner]
        p[dnodes] = dvals
        return ScalarField(self.U.mesh, p)


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
        _add_label_load(rhs, mesh, label, data)
    return rhs


def _add_label_load(rhs: np.ndarray, mesh: Mesh, label: str, data) -> None:
    """Add one velocity label's part of the Neumann load to rhs, in place.
    A mesh's boundary is one closed curve, its edges oriented around it (see
    Mesh), so a label's edge starts are distinct, and so are its edge ends:
    an indexed add then adds each term once, with the bits of np.add.at."""
    for edges, t, wl, vn in _edge_quadrature(mesh, label, data):
        f = wl * -vn  # the bits of -wl * vn; a constant vn is negated as a float
        rhs[edges[:, 0]] += f * (1.0 - t)
        rhs[edges[:, 1]] += f * t


def _compatibility(load: np.ndarray):
    """(compatible, net outflow) of pure-velocity data from their Neumann
    load: the net load must vanish to 1e-12 of the summed nodal magnitudes."""
    net = float(load.sum())
    return abs(net) <= 1e-12 * max(float(np.abs(load).sum()), 1e-300), -net


@dataclass
class _Responses:
    """The reduced solutions of A_red for unit data on one label each, of
    one partition of the labels: a pressure label's response has lift 1 at
    the nodes it owns (geometry._owned) and no load, a velocity label's the
    load of normal velocity 1 on it and no lift. Each is made on first need,
    read-only, with what the bounds of _superpose read of it."""

    partition: tuple  # (pressure labels, velocity labels), each in spec order
    nodes: dict  # pressure label -> the nodes it owns, ascending (read-only)
    H: dict  # label -> its response
    bounds: dict  # label -> its response's _ResponseBounds


@dataclass(frozen=True)
class _ResponseBounds:
    """What the bounds of _superpose read of one response H, made with it:
    its right-hand side b at the coupling's rows (_Coupling.pos; b is 0 at
    the other free nodes), read-only, the norms of H, of b and of the
    residual fl(b - A_red H) as formed once, and the largest and smallest
    value of H."""

    b: np.ndarray
    norm: float
    rho: float
    b_norm: float
    high: float
    low: float


@dataclass
class _Held:
    """The held entry: the last system assemble built and, once a solve has
    made one, its one factor."""

    mesh: weakref.ref
    mobility: np.ndarray  # mobility_tensors' read-only K/mu0, or a copy
    dirichlet: np.ndarray  # int32, ascending; [0] for pure-velocity data
    raw_matrix: sp.csr_matrix
    A_red: sp.csr_matrix
    dirichlet_rows: sp.csr_matrix  # raw[dirichlet], for the reactions there
    flux_operator: tuple  # (Vx, Vy) of mobility on mesh; see _flux_operator
    a_max: float  # the largest diagonal entry of A_red
    a_norm: float  # the largest absolute row sum of A_red, its infinity norm
    row_nnz: int  # the most entries in one row of A_red
    # of the Dirichlet nodes to the free ones, for b_red; built by the
    # assembly that made the entry
    coupling: "_Coupling" = None
    # of A_red, or of the last sweep matrix factored: a _BandFactor where kd
    # <= _BAND_MAX in the coordinate order, else a SuperLU (see _factor); one
    # pattern, so one kind, for both
    lu: "_BandFactor | spla.SuperLU" = None
    lu_diagonal: np.ndarray = None  # that sweep matrix's diagonal; None for A_red
    scaling: "_EdgeScaling" = None  # of barus_direct's sweeps, made on first need
    responses: _Responses = None  # of the last partition superposed (see _superpose)


# The one held entry, or None. One at most. Its mobility at xi = 0 is
# mobility_tensors' array, shared and not copied, and the flux operator's two
# matrices share their indices and indptr.
_entry = None

# The K/mu0 of mobility_tensors at xi = 0, read-only: (weak reference to
# K.tensors, mu0, K/mu0), or None. One at most, freed with K.tensors; the
# held entry keeps the same array while it holds the system of that K.
_mobility = None


def _release(ref):
    """Weakref callback: a collected mesh takes its entry with it, unless
    the entry has since been replaced by another one."""
    global _entry
    entry = _entry
    if entry is not None and entry.mesh is ref:
        _entry = None


def _forget_mobility(ref):
    """Weakref callback: a collected K.tensors takes its K/mu0 with it."""
    global _mobility
    memo = _mobility
    if memo is not None and memo[0] is ref:
        _mobility = None


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


def _hold_system(mesh: Mesh, mobility: np.ndarray, dirichlet, is_free) -> _Held:
    """Assemble the stiffness of mobility on mesh, reduce it to the free
    nodes (the mask is_free of those off the int32 ascending dirichlet) and
    hold both, with dirichlet, the Dirichlet rows and the flux operator, in
    a new entry. mobility_tensors' K/mu0 is held as it is; any other
    mobility array is copied, as its caller may change it."""
    global _entry
    _entry = None  # the old matrices and factor go before the new ones are built
    n = mesh.n_nodes
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
    upper = sp.csr_matrix((off.ravel(), (np.minimum(a, b), np.maximum(a, b))), shape=(n, n))
    raw_diagonal = np.bincount(a, diag.ravel(), minlength=n)
    raw = upper + upper.T + sp.diags(raw_diagonal)
    free = np.flatnonzero(is_free).astype(np.int32)
    red = raw[free][:, free]
    a_max = float(raw_diagonal[free].max(initial=0.0))
    del upper, off, diag, raw_diagonal, b  # freed before the flux operator is built
    # |A_red| @ 1, its absolute row sums, for the bounds of _superpose, built
    # once the temporaries above are freed
    absolute = sp.csr_matrix((np.abs(red.data), red.indices, red.indptr), shape=red.shape)
    a_norm = float((absolute @ np.ones(free.size)).max(initial=0.0))
    del absolute
    dirichlet_rows = raw[dirichlet]

    memo = _mobility
    _entry = _Held(
        mesh=weakref.ref(mesh, _release),
        mobility=mobility if memo is not None and mobility is memo[2] else mobility.copy(),
        dirichlet=dirichlet,
        raw_matrix=raw,
        A_red=red,
        dirichlet_rows=dirichlet_rows,
        flux_operator=_flux_operator(fx, fy, tri, n),
        a_max=a_max,
        a_norm=a_norm,
        row_nnz=int(np.diff(red.indptr).max(initial=0)),
    )
    dirichlet.setflags(write=False)  # every caller gets these arrays
    for m in (raw, red, dirichlet_rows, *_entry.flux_operator):
        for array in (m.data, m.indices, m.indptr):
            array.setflags(write=False)
    return _entry


class _Coupling:
    """The raw matrix's entries between the Dirichlet nodes and the free
    nodes, boundary-sized, from which every reduced right-hand side is
    formed (rhs). nodes are the free nodes a Dirichlet row reaches and the
    free boundary nodes, the only nodes a Neumann load lands on, ascending,
    and pos their places among the free nodes. Each entry of the Dirichlet
    rows (of the int32 ascending dirichlet) in a free column, in their CSR
    order, has its slot (the place of its column in nodes), its Dirichlet
    node dnode and its value; by symmetry it is also the entry of that free
    row in that Dirichlet column."""

    def __init__(self, mesh: Mesh, rows: sp.csr_matrix, dirichlet: np.ndarray, is_free: np.ndarray):
        columns, free = rows.indices, is_free[rows.indices]
        reached = np.zeros(mesh.n_nodes, dtype=bool)
        reached[mesh.boundary_edges] = reached[columns] = True
        reached[dirichlet] = False
        self.n_free, self.nodes = is_free.size - dirichlet.size, np.flatnonzero(reached)
        # a free node's place among the free nodes: itself less the Dirichlet nodes below it
        self.pos = self.nodes - np.searchsorted(dirichlet, self.nodes)
        self.slot = np.searchsorted(self.nodes, columns[free])
        self.dnode = np.repeat(dirichlet, np.diff(rows.indptr))[free]
        self.values = rows.data[free]  # the held raw matrix's; a sweep has its own (_EdgeScaling)

    def rhs(self, raw_rhs: np.ndarray, lift: np.ndarray, values: np.ndarray) -> np.ndarray:
        """b_red = (raw_rhs - raw @ lift)[free], bitwise, for a raw matrix
        whose coupling entries are values, a raw_rhs that is 0 off the
        boundary and a lift that is 0 at the free nodes. Each row sums its
        Dirichlet products from +0.0 in ascending Dirichlet order, as scipy's
        product does, whose other products are signed zeros that leave the
        sum as it is; a row that no Dirichlet node reaches keeps raw_rhs -
        0.0, and the rows off nodes are the 0.0 - 0.0 of the interior."""
        sums = np.bincount(self.slot, values * lift[self.dnode], self.nodes.size)
        b = np.zeros(self.n_free)
        b[self.pos] = raw_rhs[self.nodes] - sums
        return b


def assemble(mesh: Mesh, mobility: np.ndarray, bcs: BoundarySpec) -> SparseSystem:
    """P1 stiffness for -div[M grad u] = 0 with the given boundary data.

    mobility : (n_tri, 2, 2) symmetric positive-definite tensors.

    The stiffness, its reduction, its Dirichlet nodes and rows and the flux
    operator are held for the next call (see the module docstring). A call on the
    same mesh object, with the held mobility array itself (the read-only
    K/mu0 that mobility_tensors returns at xi = 0) or else one of the same
    bits, and with the same Dirichlet node set, takes them from the held
    entry and builds only the load, the Dirichlet values and b_red (see
    _Coupling.rhs); its result is bitwise that of a fresh assembly. Any other
    call assembles in full and replaces the entry. The returned raw_matrix,
    dirichlet_rows, A_red and flux_operator are the held matrices, and
    dirichlet the held node list, read-only: writing to them (a matrix's
    data, indices or indptr) raises ValueError, and a changed copy is
    another matrix to solve. The other arrays of the system belong to the
    caller. A mesh is taken as fixed once built.
    """
    return _assemble(mesh, mobility, bcs, *_pressure_data(mesh, bcs))


def _assemble(
    mesh: Mesh, mobility: np.ndarray, bcs: BoundarySpec, nodes: np.ndarray, values: np.ndarray
) -> SparseSystem:
    """assemble with the pressure data already read: values at nodes, as
    geometry._pressure_data gives them for bcs, or their image under a
    pointwise map (the solution paths read the data once, for their gauge,
    and map the values). bcs gives the partition and the velocity data, and
    its pressure data are not evaluated. values must be finite."""
    _finite(values, ", ".join(bcs.pressure))
    mobility = np.asarray(mobility, dtype=float)
    if mobility.shape != (mesh.n_triangles, 2, 2):
        raise ValueError("one 2x2 mobility tensor per triangle required")
    held = _entry_for(mesh)
    if held is None or not (mobility is held.mobility or _same_bits(held.mobility, mobility)):
        held = None
        _check_spd(mobility)
    bcs.validate_partition(mesh)

    raw_rhs = _neumann_load(mesh, bcs)
    lift = np.zeros(mesh.n_nodes)
    lift[nodes] = values
    # pure-velocity data: node 0 pinned at 0
    dirichlet = nodes.astype(np.int32) if nodes.size else np.zeros(1, dtype=np.int32)
    dirichlet.sort()
    # a gather through this mask takes the free nodes in ascending order
    is_free = np.ones(mesh.n_nodes, dtype=bool)
    is_free[dirichlet] = False
    same_nodes = held is not None and held.dirichlet.size == dirichlet.size
    if not (same_nodes and (held.dirichlet == dirichlet).all()):
        held = _hold_system(mesh, mobility, dirichlet, is_free)
        held.coupling = _Coupling(mesh, held.dirichlet_rows, held.dirichlet, is_free)

    return SparseSystem(
        mesh=mesh,
        raw_matrix=held.raw_matrix,
        raw_rhs=raw_rhs,
        bcs=bcs,
        is_free=is_free,
        lift=lift,
        dirichlet=held.dirichlet,
        dirichlet_rows=held.dirichlet_rows,
        A_red=held.A_red,
        b_red=held.coupling.rhs(raw_rhs, lift, held.coupling.values),
        flux_operator=held.flux_operator,
    )


class _EdgeScaling:
    """The sweep matrices of a held system: its pattern with each
    off-diagonal pair k_ij = k_ji scaled by one weight per edge and each
    diagonal entry minus the row sum of the scaled entries, reduced to the
    free nodes as the held system is. Made once per entry: the edges, each
    pair's held value, and one source map that takes each entry of A_red and
    each value of the held coupling (see _Coupling) from the scaled pairs
    followed by the diagonal. refill writes the values into one A_red and
    one array of coupling values and builds no sparse matrix, so each call
    overwrites the last."""

    def __init__(self, held: _Held, is_free: np.ndarray):
        raw, red = held.raw_matrix, held.A_red
        n = raw.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(raw.indptr))
        cols = raw.indices.astype(np.int64)
        upper = rows < cols
        i, j = rows[upper], cols[upper]
        self.edges = (i, j)
        self.n = n
        self._pairs = raw.data[upper]
        # raw is canonical (rows ascending, columns sorted in each row), so
        # the keys row * n + col of its entries above the diagonal ascend;
        # an entry's source is the pair whose key is its own or, below the
        # diagonal, its transpose's, and a diagonal entry's is its node,
        # after the pairs
        keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        source = np.searchsorted(keys[upper], keys)
        diag = rows == cols
        source[diag] = i.size + rows[diag]
        # A_red's entries are raw's of a free row and a free column, and the
        # coupling's those of a Dirichlet row and a free column, each in
        # raw's order
        self._to_red = source[is_free[rows] & is_free[cols]]
        self._to_coupling = source[~is_free[rows] & is_free[cols]]
        self.coupling = held.coupling
        self.diagonal = red.diagonal()  # of A_red: d_F in _pcg while its factor is held
        self.A_red = sp.csr_matrix((np.empty_like(red.data), red.indices, red.indptr), shape=red.shape)
        self.values = np.empty(self._to_coupling.size)  # the sweep's coupling values

    def refill(self, base: SparseSystem, weights: np.ndarray):
        """(A_red, b_red, the diagonal of A_red) of base, the held system,
        with the stiffness scaled by weights (one per pair of self.edges);
        A_red is self.A_red, refilled. Each scaled pair is one product, so
        A_red stays bitwise symmetric; b_red comes from the refilled
        coupling values by the rule of assemble (_Coupling.rhs), and the
        diagonal from the values written, not read back from the matrix."""
        off = self._pairs * weights
        i, j = self.edges
        diagonal = -(np.bincount(i, off, self.n) + np.bincount(j, off, self.n))
        values = np.concatenate((off, diagonal))
        np.take(values, self._to_red, out=self.A_red.data)
        np.take(values, self._to_coupling, out=self.values)
        b_red = self.coupling.rhs(base.raw_rhs, base.lift, self.values)
        return self.A_red, b_red, diagonal[base.is_free]


def _edge_scaling(system: SparseSystem) -> _EdgeScaling:
    """The edge scaling of system, which holds the matrices of the entry."""
    held = _entry_for(system.mesh)
    assert held is not None and held.raw_matrix is system.raw_matrix
    if held.scaling is None:
        held.scaling = _EdgeScaling(held, system.is_free)
    return held.scaling


class _BandFactor:
    """Cholesky factor of an SPD matrix in LAPACK's upper band storage (the
    (kd + 1, n) Fortran array of dpbtrf), with the order its unknowns were
    numbered in; solve(b) is the solution in the matrix's own order, as
    SuperLU's is, and leaves b as it is."""

    __slots__ = ("band", "order")

    def __init__(self, band: np.ndarray, order: np.ndarray):
        self.band, self.order = band, order

    def solve(self, b: np.ndarray) -> np.ndarray:
        y, _ = lapack.dpbtrs(self.band, b[self.order], overwrite_b=1)  # the gather is a copy
        x = np.empty_like(y)
        x[self.order] = y
        return x


def _factor(A, nodes, is_free):
    """Factor of the SPD matrix A, whose unknowns are the nodes (n x 2
    coordinates) where is_free holds, in ascending order: a _BandFactor
    where its half-bandwidth kd in the coordinate order is at most
    _BAND_MAX, else SuperLU's in its own fill-reducing order. The
    coordinate order numbers the unknowns by their coordinate along the
    longer side of their bounding box, the other coordinate breaking ties;
    the band holds A's upper triangle in that order, entry (i, j) at [kd + i
    - j, j], and dpbtrf factors it in place. The rule depends on A's pattern
    and the coordinates only, so one matrix gets one kind of factor whenever
    it is factored. A failed factorization (a leading minor that is not
    positive, or SuperLU's exactly singular factor) drops the held entry and
    raises NoConvergence."""
    global _entry
    points = np.compress(is_free, nodes, axis=0)
    x, y = points.T
    if np.ptp(y) > np.ptp(x):
        x, y = y, x
    order = np.lexsort((y, x))
    new = np.empty(order.size, dtype=np.int32)  # new[k]: the place of unknown k in order
    new[order] = np.arange(order.size, dtype=np.int32)
    # the spread of one row bounds kd from below, so a mesh too wide for the
    # band is told by its middle row, without a scan of every entry
    m = order.size // 2
    if np.abs(new[A.indices[A.indptr[m]:A.indptr[m + 1]]] - new[m]).max(initial=0) <= _BAND_MAX:
        i, j = np.repeat(new, np.diff(A.indptr)), np.take(new, A.indices)  # (row, column) in order
        upper = i <= j
        i, j = i[upper], j[upper]
        kd = int((j - i).max(initial=0))
        if kd <= _BAND_MAX:
            band = np.zeros((order.size, kd + 1))  # its transpose is the Fortran band
            band[j, kd + i - j] = A.data[upper]
            band, info = lapack.dpbtrf(band.T, overwrite_ab=1)
            if info == 0:
                return _BandFactor(band, order)
            _entry = None
            raise NoConvergence(
                f"banded Cholesky factorization failed: leading minor {info} not positive"
            )
        del i, j, upper
    del points, x, y, order, new  # gone before SuperLU's peak
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
        _entry = None
        raise NoConvergence(f"sparse LU factorization failed: {err}") from err


def _pcg(held, A, b, bnorm, d_A, start):
    """Conjugate gradients on A x = b, an A with the held pattern and the
    diagonal d_A, from start, preconditioned by S F^-1 S. F is held.lu,
    the factor of held.A_red or of a sweep matrix, and S =
    diag(sqrt(d_F / d_A)), with d_F the diagonal of the matrix F factored: a
    sweep matrix is close to D^1/2 B D^1/2 for the factored B and a positive
    diagonal D, and S F^-1 S is then close to its inverse. Returns (x, r,
    iterations), r = b - A x as recomputed, once its relative size is at most
    _PCG_RTOL, if x meets the componentwise test of the module docstring, or
    (None, None, iterations) when it does not, _PCG_MAX iterations have not
    met the residual, a ratio d_F / d_A is not positive and finite (0
    iterations) or a curvature p.Ap is not. No reference to the factor
    outlives the call, so the caller can free it before it makes the next."""
    lu, d_F = held.lu, held.lu_diagonal
    if d_F is None:
        d_F = held.scaling.diagonal
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d_F / d_A
    if not ((ratio > 0.0) & (ratio < np.inf)).all():  # a NaN fails too
        return None, None, 0
    s = np.sqrt(ratio)

    x = start
    r = b - A @ x
    p, rz = None, 0.0
    for k in range(1, _PCG_MAX + 1):
        z = s * lu.solve(s * r)
        rz, rz_old = float(np.vdot(r, z)), rz  # vdot: see _norm
        p = z if p is None else z + (rz / rz_old) * p
        Ap = A @ p
        curvature = float(np.vdot(p, Ap))
        if not 0.0 < curvature < np.inf:
            return None, None, k
        x = x + (rz / curvature) * p
        r = b - A @ x
        if _norm(r) <= _PCG_RTOL * bnorm:
            accepted = (np.abs(r) <= _PCG_ACCEPT * (d_A * np.abs(x) + np.abs(b))).all()
            return (x, r, k) if accepted else (None, None, k)
    return None, None, _PCG_MAX


def _solve_sweep(base: SparseSystem, weights: np.ndarray, start) -> LinearSolveResult:
    """Solve the Picard sweep whose matrix is base's, the held system's, with
    its stiffness scaled by weights, one per pair of _edge_scaling(base).edges
    (see _EdgeScaling.refill), by the sweep policy of the module docstring.
    Where start, a reduced solution, is given, CG runs from it (see _pcg),
    and the held factor stays. Otherwise, or when CG gives up, the held
    factor is dropped and the sweep matrix is factored; its factor and
    diagonal are held for the sweeps after it. The result is accepted by
    the test of solve (_accept); result.iterations counts the CG iterations,
    those of a CG run that gave up too. Its field is not scanned: base's
    lift is that of an assembly, which checked it finite, and the test
    shows x finite."""
    _check_compatible(base)
    held = _entry_for(base.mesh)
    A, b, d_A = _edge_scaling(base).refill(base, weights)
    bnorm = _norm(b)
    x, r, iterations = None, None, 0
    if bnorm == 0.0:  # x = 0, and b - A x is b itself
        x, r = np.zeros_like(b), b
    elif start is not None:
        # CG runs on b and start scaled by the power of two that puts ||b|| in
        # [1/2, 1), so its inner products stay in range at any scale of the
        # data; the scaling is exact, so x and r have the bits of an unscaled run
        e = math.frexp(bnorm)[1]
        b_e, start_e = np.ldexp(b, -e), np.ldexp(start, -e)
        x, r, iterations = _pcg(held, A, b_e, math.ldexp(bnorm, -e), d_A, start_e)
        if x is not None:
            x, r = np.ldexp(x, e), np.ldexp(r, e)
    if x is None:
        held.lu = None  # the held factor goes before the next is made
        held.lu, held.lu_diagonal = _factor(A, base.mesh.nodes, base.is_free), d_A
        x = held.lu.solve(b)
        r = b - A @ x
    return _accept(base, x, r, d_A.max(), bnorm, iterations, ScalarField._of_finite)


def _reduced_factor(held, system):
    """The factor of held.A_red, the reduced matrix of system, made in the
    slot if it is empty or holds a sweep factor, which goes first."""
    if held.lu is None or held.lu_diagonal is not None:
        held.lu = held.lu_diagonal = None
        held.lu = _factor(held.A_red, system.mesh.nodes, system.is_free)
    return held.lu


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float array, sqrt(v . v) by BLAS (np.vdot, which,
    unlike v.dot, reports no overflow) where v . v is a normal float: the
    bits of np.linalg.norm. Elsewhere v is scaled by the power of two that
    puts its largest magnitude in [1/2, 1): the norm is then 0 only for v =
    0, inf only beyond the float range, and NaN for a v with a NaN."""
    s = float(np.vdot(v, v))
    if _NORMAL_MIN <= s < math.inf:
        return math.sqrt(s)
    m = float(np.abs(v).max(initial=0.0))
    if not 0.0 < m < math.inf:
        return m
    e = math.frexp(m)[1]
    w = np.ldexp(v, -e)
    try:
        return math.ldexp(math.sqrt(np.vdot(w, w)), e)
    except OverflowError:
        return math.inf


def _accept(system, x, r, a_max, bnorm, iterations, field):
    """The LinearSolveResult of x, the reduced solution of system, if x
    passes the one test of the module docstring, omega = ||b_red - A_red x||
    / (a_max ||x|| + bnorm) <= 64 eps with a finite denominator, else
    NoConvergence; a_max is the largest diagonal entry of A_red and bnorm
    ||b_red||, and result.residual is the omega tested.

    The test takes its numerator in one of two forms, its two proofs. r is
    either the residual b_red - A_red x as formed (solve, a sweep, and a
    superposition the bound did not pass), whose norm gives omega, or a
    float: an upper bound on ||b_red - A_red x|| (a superposition, see
    _superpose), which gives an omega at least as large, so an x it passes
    would pass with its residual formed too.

    The field, built by field, is the lift with x at the free nodes, for
    pure-velocity data shifted to peak at 0. x is not scanned: its norm is
    finite only for a finite x (see _norm)."""
    # Python floats: a NaN gives a NaN omega, not a warning, and an overflow
    # inf; the denominator is 0 only where b_red = 0 is solved by x = 0
    xnorm = _norm(x)
    rnorm = r if isinstance(r, float) else _norm(r)
    a_max = float(a_max)
    denominator = a_max * xnorm + bnorm
    if denominator == math.inf and xnorm < math.inf and bnorm < math.inf:
        # a_max ||x|| overflowed: the same quotient, divided through by ||x||
        rnorm, denominator = rnorm / xnorm, a_max + bnorm / xnorm
    omega = rnorm / denominator if denominator else 0.0
    if not (omega <= _OMEGA_MAX and denominator < math.inf):
        raise NoConvergence(
            f"linear solve backward error {omega:.3e} (bound {_OMEGA_MAX:.3e}), ||x|| {xnorm:.3e}"
        )
    values = np.empty(system.lift.size)
    values[system.is_free] = x
    values[system.dirichlet] = system.lift[system.dirichlet]
    if not system.bcs.pressure:
        values -= values.max()
    return LinearSolveResult(field(system.mesh, values), iterations, omega, x)


def _check_compatible(system: SparseSystem) -> None:
    """IncompatibleNeumann where system has pure-velocity data that fail the
    zero-net-flux compatibility condition."""
    if not system.bcs.pressure:
        compatible, net = _compatibility(system.raw_rhs)
        if not compatible:
            raise IncompatibleNeumann(
                f"pure-velocity data with net boundary flux {net:.6e}; "
                "compatibility condition violated"
            )


def solve(system: SparseSystem) -> LinearSolveResult:
    """Solve the assembled system for the nodal field.

    The reduced SPD matrix is solved with the factor the rule of the module
    docstring gives it (_factor): banded Cholesky where its half-bandwidth
    in the coordinate order is at most _BAND_MAX = 64, else a fill-reducing
    sparse LU. The solution must pass the test of the module docstring
    (_accept), else NoConvergence; result.residual is omega, and
    result.iterations is 0. A factorization that fails raises NoConvergence
    and drops the entry. The factor of the held reduced matrix, the A_red
    that assemble returns, is held with the entry of the module docstring
    and reused while system.mesh lives. A reused factor gives results
    bitwise identical to a fresh one. Any other matrix, a changed copy of
    the held one too, drops the entry and is factored without being held.
    A Picard sweep is not a system: it is solved by _solve_sweep. result.field
    is scanned, as the system is the caller's: a non-finite lift value
    raises ValueError.

    Pure-velocity problems (no pressure label) are checked against the
    zero-net-flux compatibility condition first (IncompatibleNeumann if
    violated) and are then grounded by pinning node 0; the member of the
    constant-shifted family returned is the one whose largest value is 0.
    result.reduced is the solution at the free nodes as solved, before that
    shift: the CG start of barus_direct's next sweep.
    """
    global _entry
    _check_compatible(system)
    A, b = system.A_red, system.b_red
    bnorm = _norm(b)
    held = _entry_for(system.mesh)
    r, a_max = None, 0.0
    if bnorm == 0.0:  # x = 0, and b - A x is b itself
        x, r = np.zeros_like(b), b
    elif held is not None and A is held.A_red:
        x, a_max = _reduced_factor(held, system).solve(b), held.a_max
    else:
        _entry = None  # the held factor goes first: never two at once
        x, a_max = _factor(A, system.mesh.nodes, system.is_free).solve(b), A.diagonal().max()
    if r is None:
        r = b - A @ x
    return _accept(system, x, r, a_max, bnorm, 0, ScalarField)


def recover_velocity(P: ScalarField, system: SparseSystem) -> VectorField:
    """Per-triangle velocity v = -M grad(P) from the exact P1 gradient, M
    the mobility system was assembled with: v = -(Vx @ P, Vy @ P) with
    system.flux_operator, the sum over the corners j of (M grad(phi_j)) P_j.
    This sum rounds differently from M (sum_j grad(phi_j) P_j), the product
    of the 2x2 tensor with the gradient: the two differ by rounding."""
    return _velocity(P, system.flux_operator)


def _velocity(P: ScalarField, flux_operator) -> VectorField:
    """The velocity kernel: -(Vx @ P, Vy @ P) for flux_operator (Vx, Vy)."""
    vx, vy = flux_operator
    v = np.empty((P.mesh.n_triangles, 2))
    np.negative(vx @ P.values, out=v[:, 0])
    np.negative(vy @ P.values, out=v[:, 1])
    return VectorField(P.mesh, v)


def nodal_reactions(system: SparseSystem, P: ScalarField) -> np.ndarray:
    """Residual of the unconstrained equations: r_i approximates the
    outward boundary flux integral of phi_i * v.n (zero at interior nodes
    of a converged solve)."""
    return system.raw_rhs - system.raw_matrix @ P.values


def _reactions(system: SparseSystem, values: np.ndarray) -> np.ndarray:
    """nodal_reactions of the nodal values at system.dirichlet, in that
    order, from the Dirichlet rows the system carries: each row sums its
    entries in the order raw_matrix's does, so the bits are the same."""
    return system.raw_rhs[system.dirichlet] - system.dirichlet_rows @ values


def boundary_flux(P: ScalarField, system: SparseSystem, label: str) -> float:
    """Outward volumetric flux through one boundary segment (positive =
    outflow).

    Pressure segments use the consistent reaction form, summed over the
    nodes the label owns (geometry._owned: a node two pressure segments
    share belongs to the later one, whose value geometry._pressure_data
    reads there), so the pressure segments' fluxes sum to the net reaction.
    Velocity segments integrate the prescribed normal velocity (what the
    discrete solution carries there by construction).
    """
    if label in system.bcs.pressure:
        # the reactions at the label's nodes, ascending, as in nodal_reactions
        nodes = _owned(system.mesh, system.bcs.pressure)[label]
        reactions = _reactions(system, P.values)
        return float(reactions[np.searchsorted(system.dirichlet, nodes)].sum())
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
    (mu0 * exp(-0.0) == mu0), without building the centroids. That array is
    read-only, and the last one made is kept, keyed on K.tensors (read-only
    too, see PermeabilityField) by weak reference and on mu0: a repeat call
    returns the same object, which assemble recognises without comparing
    its bits. With a nonzero potential each call returns a new array that
    belongs to the caller.
    """
    global _mobility
    if xi.is_zero:
        memo = _mobility
        if memo is None or memo[0]() is not K.tensors or memo[1] != fluid.mu0:
            mobility = K.tensors / fluid.mu0
            mobility.setflags(write=False)
            _mobility = memo = (weakref.ref(K.tensors, _forget_mobility), fluid.mu0, mobility)
        return memo[2]
    cents = mesh.centroids()
    mu0t = transform.reference_viscosity_field(xi.at_points(cents), fluid)
    return K.tensors / np.asarray(mu0t)[:, None, None]


def transform_bcs(bcs: BoundarySpec, fluid: FluidModel, xi: BodyForcePotential) -> BoundarySpec:
    """The same partition with each pressure datum p replaced by its
    Hopf-Cole image hopf_cole_inverse(p, xi, fluid); velocity data is
    unchanged. At the zero potential a constant p maps to the float
    hopf_cole_inverse(float(p), 0.0, fluid), mapped here, so an image that
    leaves float64 raises TransformOverflow at once (a NaN maps to NaN and
    raises NonFiniteData where the data are read); it has the bits of the
    array image at every node. A callable, or any datum under another
    potential, maps to a callable of (x, y). A zero potential is not
    evaluated: p + 0.0 has the bits of p plus its array of zeros."""

    def mapped(data):
        if xi.is_zero:
            if not callable(data):
                return transform.hopf_cole_inverse(float(data), 0.0, fluid)
            return lambda x, y: transform.hopf_cole_inverse(eval_bc(data, x, y), 0.0, fluid)
        return lambda x, y: transform.hopf_cole_inverse(eval_bc(data, x, y), xi(x, y), fluid)

    return dataclasses.replace(bcs, pressure={label: mapped(d) for label, d in bcs.pressure.items()})


def _gauge(mesh, fluid, xi, bcs):
    """The Kirchhoff gauge of both solution paths. Returns (xi_nodes,
    dnodes, dvals, modified, p_ref): xi at the nodes (None for the zero
    potential), the Dirichlet nodes, their prescribed pressures p and p + xi,
    and p_ref, the lowest p + xi (p0 without pressure data), which the
    Kirchhoff variable is measured from."""
    xi_nodes = None if xi.is_zero else xi.at_points(mesh.nodes)
    dnodes, dvals = _pressure_data(mesh, bcs)
    modified = dvals + (0.0 if xi_nodes is None else xi_nodes[dnodes])
    p_ref = float(modified.min()) if dnodes.size else fluid.p0
    return xi_nodes, dnodes, dvals, modified, p_ref


def _responses(held: _Held, system: SparseSystem) -> _Responses:
    """The responses held for the partition of system, a fresh empty set
    (which replaces the held one) if they belong to another."""
    bcs = system.bcs
    partition = (tuple(bcs.pressure), tuple(bcs.velocity))
    responses = held.responses
    if responses is None or responses.partition != partition:
        held.responses = responses = _Responses(partition, _owned(system.mesh, partition[0]), {}, {})
    return responses


def _response(held: _Held, responses: _Responses, system: SparseSystem, label: str):
    """(H, its _ResponseBounds): the held response of label, solved by the
    held factor of A_red on first need (see _Responses), with the one
    product with A_red it costs, for rho."""
    H = responses.H.get(label)
    if H is None:
        n = system.mesh.n_nodes
        load, lift = np.zeros(n), np.zeros(n)
        if label in responses.nodes:
            lift[responses.nodes[label]] = 1.0
        else:
            _add_label_load(load, system.mesh, label, 1.0)
        b = held.coupling.rhs(load, lift, held.coupling.values)
        H = _reduced_factor(held, system).solve(b)
        r = held.A_red @ H
        np.subtract(b, r, out=r)
        b = b[held.coupling.pos]
        for a in (H, b):
            a.setflags(write=False)
        responses.H[label] = H
        responses.bounds[label] = _ResponseBounds(
            b, _norm(H), _norm(r), _norm(b), float(H.max()), float(H.min())
        )
    return H, responses.bounds[label]


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative error of
    k roundings in a row (Higham, ch. 3)."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _superpose(system: SparseSystem):
    """Solve system, assembled on the held A_red, as x = sum of c_l H_l in
    spec order (pressure labels, then velocity labels): c_l the constant
    datum of label l, H_l its held response (see _Responses); labels with
    datum 0 add nothing. Returns the LinearSolveResult of solve, or None
    where that takes solve itself: pure-velocity data, a callable velocity
    datum, a pressure label whose values differ between its nodes, data
    that are 0 on every label or a b_red of norm 0, or an x that fails
    the test of solve (_accept). A first response made with a sweep factor
    in the slot refactors A_red, as solve does.

    x is tested with no product with A_red. With b_l the right-hand side of
    H_l, b_red - A_red x = (b_red - sum c_l b_l) + sum c_l (b_l - A_red H_l)
    - A_red e, e the rounding of x, |e| <= gamma_L sum |c_l| |H_l| for L
    terms. Each response keeps rho_l, the norm of its residual as formed,
    which is within gamma_{m+1} (|b_l| + |A_red| |H_l|) of the exact one, m
    the most entries in a row of A_red; and ||(|A_red| |H_l|)|| <= N_l =
    ||A_red||_inf ||H_l||, as A_red is symmetric. The b_l are 0 off the
    coupling's rows, and so is b_red, so the first term is boundary-sized,
    and it is formed within gamma_{L+1} (|b_red| + sum |c_l| |b_l|). So

        ||b_red - A_red x|| <= ||fl(b_red - sum c_l b_l)||
            + gamma_{L+1} (||b_red|| + sum |c_l| ||b_l||)
            + sum |c_l| (rho_l + gamma_{m+1} (||b_l|| + N_l))
            + gamma_L sum |c_l| N_l,

    up to the rounding of the norms and sums themselves (relative, about n
    u), and the test takes this bound (omega-bar) for ||r||. Where it does
    not pass, r = b_red - A_red x is formed and tested as solve tests it.
    result._peak bounds x from the responses' extrema: x_i <= sum
    max(c_l max H_l, c_l min H_l) + gamma_{2L} sum |c_l| max |H_l|, gamma_L
    for the rounding of x and as much again for that of the sum."""
    bcs = system.bcs
    held = _entry_for(system.mesh)
    assert held is not None and held.A_red is system.A_red  # system was just assembled
    if not bcs.pressure or any(callable(data) for data in bcs.velocity.values()):
        return None
    responses = _responses(held, system)
    terms = []
    for label, nodes in responses.nodes.items():
        values = system.lift[nodes]
        if values.size:
            c = float(values[0])
            if not (values == c).all():
                return None
            if c != 0.0:
                terms.append((label, c))
    terms += [(label, float(data)) for label, data in bcs.velocity.items() if float(data) != 0.0]
    gap = system.b_red[held.coupling.pos]  # b_red is 0 off the coupling's rows
    bnorm = _norm(gap)
    if not terms or bnorm == 0.0:
        return None
    x, g_row = None, _gamma(held.row_nnz + 1)
    # sums over the terms: |c_l| ||b_l||, the rho_l term, |c_l| N_l, the
    # largest c_l H_l and |c_l| max |H_l|
    b_sum = rho_sum = n_sum = peak = spread = 0.0
    for label, c in terms:
        H, bounds = _response(held, responses, system, label)
        cH = c * H
        x = cH if x is None else np.add(x, cH, out=x)
        gap -= c * bounds.b
        w, n_l = abs(c), held.a_norm * bounds.norm
        b_sum += w * bounds.b_norm
        rho_sum += w * (bounds.rho + g_row * (bounds.b_norm + n_l))
        n_sum += w * n_l
        peak += max(c * bounds.high, c * bounds.low)
        spread += w * max(bounds.high, -bounds.low)
    L = len(terms)
    bound = _norm(gap) + _gamma(L + 1) * (bnorm + b_sum) + rho_sum + _gamma(L) * n_sum
    # the lift of a system assemble has just built is finite
    try:
        result = _accept(system, x, bound, held.a_max, bnorm, 0, ScalarField._of_finite)
    except NoConvergence:
        r = system.A_red @ x
        np.subtract(system.b_red, r, out=r)  # b_red - A_red x
        try:
            result = _accept(system, x, r, held.a_max, _norm(system.b_red), 0, ScalarField._of_finite)
        except NoConvergence:
            return None
    result._peak = peak + _gamma(2 * L) * spread
    return result


def _overshoot_note(raw: sp.csr_matrix) -> str:
    """The part of a NonExistence message that says where the overshoot may
    be discrete: where the symmetric raw stiffness has off-diagonal pairs
    k_ij = k_ji > 0, counted in one pass over its entries above the
    diagonal, it is no M-matrix, and the discrete solution can leave the
    range of data that have a continuous one. Empty where there are none."""
    rows = np.repeat(np.arange(raw.shape[0], dtype=raw.indices.dtype), np.diff(raw.indptr))
    pairs = int(np.count_nonzero((raw.data > 0.0) & (raw.indices > rows)))
    if not pairs:
        return ""
    return (
        f"; the stiffness has {pairs} positive off-diagonal pair(s), so the discrete "
        "maximum principle fails on this mesh and the overshoot may be discretization error"
    )


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

    Raises NonExistence (with the violating node set, and U/C in its
    message) when the transformed solution U reaches the ceiling C at some
    node off the pressure segments, where it has no real pressure. Where
    the stiffness has positive off-diagonal pairs, the message gives their
    count and says that the overshoot may be discretization error (see
    _overshoot_note).

    The solve runs in the Kirchhoff variable measured from p_ref, the lowest
    prescribed modified pressure (p0 for pure-velocity data). Its boundary
    data carry the contrasts without the common baseline, which is about
    3.4e10 at Table-1 parameters and would swamp them. Nodes on pressure
    segments take their pressure straight from the data, which may lie
    further above p_ref than float64 can resolve in that variable. Velocity
    and reactions come from the Kirchhoff field report.U, report.P is the
    Hopf-Cole field and report.p the physical pressure (see SolveReport).
    The reactions and the existence test are computed here; report.v and
    report.p are computed on their first read, so a caller that never reads
    them does not pay for them. The ceiling-flux calibration of verification
    is this solve, read at its well reactions.

    Where each pressure label takes one mapped value at the nodes it owns
    (geometry._owned), each velocity datum is a constant and there is a
    pressure node, the reduced solution is superposed from the per-label
    responses the held entry keeps, each made once by one triangular solve
    (see _superpose and the module docstring), and is accepted by the test
    of solve (_accept) from the bound on its residual that the responses
    give; the existence test then scans U only where their extrema do not
    bound it below C. Data
    that vary along a label (a callable that does, or any nonzero xi that
    varies along a pressure label), callable velocity data, pure-velocity
    data and a superposed solution that fails the test are solved by solve.

    Pure-velocity data fix the transformed solution up to a constant; the
    member returned, as by barus_direct.picard_solve, has its largest p + xi
    at p0, where the Kirchhoff variable is 0 (see solve), so it always has a
    real pressure.
    """
    if fluid.is_degenerate:
        raise Degenerate("beta = 0: use barus_direct.picard_solve (one linear solve)")
    xi_nodes, dnodes, dvals, modified, p_ref = _gauge(mesh, fluid, xi, bcs)
    ceiling = transform.kirchhoff_ceiling(fluid, p_ref)
    kvals = transform._kirchhoff_forward(modified, fluid, p_ref, ceiling)
    system = _assemble(mesh, mobility_tensors(mesh, fluid, xi, K), bcs, dnodes, kvals)
    result = _superpose(system) or solve(system)
    U = result.field.values

    # a superposed x lies below _peak: where that is below C, no free node
    # can be at or above it, and U is not scanned
    if not result._peak < ceiling and U.max() >= ceiling:
        nodes = np.flatnonzero(system.is_free & (U >= ceiling))
        if nodes.size:
            raise NonExistence(
                f"Kirchhoff solution U at or above its ceiling C at {nodes.size} node(s) "
                f"off the pressure segments (largest U/C {float(U[nodes].max()) / ceiling:.6g}), "
                f"which no real pressure maps to{_overshoot_note(system.raw_matrix)}",
                nodes=nodes,
            )
    P = U - ceiling
    P[dnodes] = transform.hopf_cole_inverse(modified, 0.0, fluid)
    # the Dirichlet rows' reactions there, +0.0 at the free nodes
    reactions = np.zeros(mesh.n_nodes)
    reactions[system.dirichlet] = _reactions(system, U)
    return SolveReport(
        U=result.field,
        # U is finite (see _accept), and so is P = U - C
        P=ScalarField._of_finite(mesh, P),
        residual=result.residual,
        reactions=reactions,
        _flux_operator=system.flux_operator,
        _back_map=(fluid, p_ref, ceiling, xi_nodes, dnodes, dvals),
    )
