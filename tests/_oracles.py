"""Independent reference computations used to derive expected test values.

Each oracle reaches the quantity under test by a different route than the
library (ODE integration instead of the closed form, quadrature instead of
the antiderivative, root finding instead of the explicit inverse), so
agreement is evidence rather than tautology.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from poroflow import darcy_linear, transform
from poroflow.geometry import BoundarySpec, ScalarField, edge_keys, eval_bc, triangle_edges
from poroflow.transform import BodyForcePotential


# Per-triangle kernels in their earlier formulation: (n_tri, 3, .) corner
# gathers, shifted column gathers, a mean over corners and a max over the
# tensor axes. The library gathers per-corner columns and takes elementwise
# maxima instead, and must give the same bits.


def signed_areas_gathered(mesh):
    p = mesh.nodes[mesh.triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def centroids_gathered(mesh):
    return mesh.nodes[mesh.triangles].mean(axis=1)


def p1_gradients_gathered(mesh):
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


def tensor_scale_over_axes(tensors):
    return np.abs(tensors).max(axis=(1, 2))


def mobility_at_centroids(mesh, fluid, xi, K):
    """K over the reference viscosity at the centroids, evaluated for every
    potential, the zero one included."""
    mu0t = transform.reference_viscosity_field(xi.at_points(centroids_gathered(mesh)), fluid)
    return K.tensors / np.asarray(mu0t)[:, None, None]


def boundary_flux_direct_sorted(v, mesh, label):
    """Direct edge flux that finds the triangle of each labelled edge by
    sorting the keys of all 3 * n_tri triangle edges."""
    edges = mesh.edges_with_label(label)
    n = mesh.n_nodes
    tri_keys = edge_keys(triangle_edges(mesh.triangles), n)
    order = np.argsort(tri_keys)
    hit = order[np.searchsorted(tri_keys[order], edge_keys(edges, n))]
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    return float((v.values[hit // 3] * np.column_stack([d[:, 1], -d[:, 0]])).sum())


def velocity_einsum(P, mobility):
    """v = -M grad(P) as the 2x2 tensor times the P1 gradient, two einsums
    over (n_tri, 3, 2) gradients and the gathered corner values (the
    library sums the corner fluxes M grad(phi_j) P_j instead)."""
    mesh = P.mesh
    grads, _ = p1_gradients_gathered(mesh)
    gp = np.einsum("tid,ti->td", grads, P.values[mesh.triangles])
    return -np.einsum("tab,tb->ta", np.asarray(mobility, dtype=float), gp)


def pressure_flux_full_reactions(P, system, label):
    """Reaction-form flux of a pressure label from the full nodal reaction
    vector (the library forms only the label's rows): the rows of the
    label's nodes that no later pressure label holds, in ascending order."""
    labels = list(system.bcs.pressure)
    owned = set(system.mesh.nodes_with_label(label).tolist())
    for other in labels[labels.index(label) + 1:]:
        owned -= set(system.mesh.nodes_with_label(other).tolist())
    nodes = np.array(sorted(owned), dtype=np.int64)
    return float(darcy_linear.nodal_reactions(system, P)[nodes].sum())


# Boundary loops in their earlier formulation: one hand-written loop per
# caller over the edges of a label, with its own copy of the Gauss rule. The
# library reads boundary data through the geometry helpers instead, and
# must give the same bits.

_GAUSS2_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS2_W = np.array([0.5, 0.5])


def neumann_load_per_label(mesh, bcs):
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


def label_geometry_uncached(mesh, label):
    """The boundary geometry of one label as every read of boundary data
    computed it before the mesh kept it: (edges, nodes, (x, y) of the nodes,
    [(t, w * length, x, y) per Gauss point], (x, y) of the samples: edge
    starts, edge ends, then the Gauss points)."""
    edges = edges_with_label_scan(mesh, label)
    nodes = np.unique(edges)
    a, b = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    length = np.hypot(*(b - a).T)
    gauss = []
    for t, w in zip(_GAUSS2_T, _GAUSS2_W):
        q = a + t * (b - a)
        gauss.append((t, w * length, q[:, 0], q[:, 1]))
    q = np.concatenate([a, b] + [a + t * (b - a) for t in _GAUSS2_T])
    return edges, nodes, (mesh.nodes[nodes, 0], mesh.nodes[nodes, 1]), gauss, (q[:, 0], q[:, 1])


def edges_with_label_scan(mesh, label):
    """Boundary edges of one label by a scan of every edge label (the
    library looks the rows up in a per-mesh index)."""
    return mesh.boundary_edges[[i for i, lab in enumerate(mesh.edge_labels) if lab == label]]


def labels_scan(mesh):
    """Distinct edge labels in first-seen order, by a scan."""
    seen = []
    for lab in mesh.edge_labels:
        if lab not in seen:
            seen.append(lab)
    return tuple(seen)


def segment_length(mesh, label):
    """Total length of the boundary edges carrying one label."""
    edges = mesh.edges_with_label(label)
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    return float(np.hypot(d[:, 0], d[:, 1]).sum())


def p1_interpolate(field, point):
    """P1 (barycentric) value of a nodal field at a point of the mesh, from
    the first triangle whose barycentric coordinates are all >= 0 (within
    a rounding tolerance)."""
    mesh = field.mesh
    pt = np.asarray(point, dtype=float)
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    d = pt - p[:, 0, :]
    e1 = p[:, 1, :] - p[:, 0, :]
    e2 = p[:, 2, :] - p[:, 0, :]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    l0 = 1.0 - l1 - l2
    tol = 1e-12 * max(mesh.extent)
    hits = np.flatnonzero((l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol))
    assert hits.size, f"point {pt.tolist()} lies outside the mesh"
    t = hits[0]
    lam = np.clip([l0[t], l1[t], l2[t]], 0.0, 1.0)
    return float(lam @ field.values[mesh.triangles[t]] / lam.sum())


def dirichlet_values_per_node(mesh, bcs):
    """(nodes, values) of the pressure data, node by node, the later label
    overwriting an earlier one's value at a shared node."""
    out = {}
    for label, data in bcs.pressure.items():
        nodes = mesh.nodes_with_label(label)
        vals = eval_bc(data, mesh.nodes[nodes, 0], mesh.nodes[nodes, 1])
        for n, v in zip(nodes, np.atleast_1d(vals)):
            out[int(n)] = float(v)
    return np.array(list(out), dtype=np.int64), np.array(list(out.values()), dtype=float)


def hopf_cole_inverse_by_hand(p, xi_value, fluid):
    """The Hopf-Cole variable -(p0/beta) * exp[-beta*((p + xi)/p0 - 1)] in
    its earlier formulation: its own exponential, taken in this order,
    instead of the negated Kirchhoff ceiling at p + xi."""
    ptilde = np.asarray(p, dtype=float) + np.asarray(xi_value, dtype=float)
    arg = -fluid.beta * (ptilde / fluid.p0 - 1.0)
    out = -(fluid.p0 / fluid.beta) * np.exp(arg)
    return float(out) if out.ndim == 0 else out


def secant_weights_masked(ptilde, edges, fluid):
    """barus_direct._secant_weights in its earlier formulation: the secant
    mean (1 - e^-x)/x taken by masked fancy-index passes over the x > 0."""
    w = np.exp(-fluid.beta * (ptilde - fluid.p0) / fluid.p0)
    i, j = edges
    x = fluid.beta * np.abs(ptilde[j] - ptilde[i]) / fluid.p0
    mean = np.ones_like(x)
    pos = x > 0.0
    mean[pos] = -np.expm1(-x[pos]) / x[pos]
    return np.maximum(w[i], w[j]) * mean


def pressure_mapped_back_eagerly(report, mesh, fluid, xi, bcs):
    """The physical pressure of a transformed report as the solve formed it
    before it was computed on first read: the data, node by node, on the
    pressure segments, and elsewhere the public kirchhoff_inverse of U from
    the lowest prescribed p + xi (p0 without pressure data), minus xi
    evaluated at every node, the zero potential too."""
    xi_nodes = xi.at_points(mesh.nodes)
    nodes, values = dirichlet_values_per_node(mesh, bcs)
    p_ref = float((values + xi_nodes[nodes]).min()) if nodes.size else fluid.p0
    inner = np.ones(mesh.n_nodes, dtype=bool)
    inner[nodes] = False
    p = np.empty(mesh.n_nodes)
    p[inner] = transform.kirchhoff_inverse(report.U.values[inner], fluid, p_ref) - xi_nodes[inner]
    p[nodes] = values
    return p


def ceiling_flux_constant_by_hand(mesh, fluid, K, p_inj, p_prod):
    """The bounded-flux constant C of a reservoir, from a Kirchhoff solve
    superposed by hand instead of by solve_transformed_bvp: with pressure
    data P_K(p_inj) on the inlet and 0 on the well, both measured from
    p_prod, and no flow through the wall, only the inlet has nonzero data,
    so the reduced solution is P_K(p_inj) H, H that of lift 1 on the inlet
    nodes off the well, by a fresh factor of A_red. Q is the reaction-form
    flux of the well."""
    dP = float(transform.kirchhoff_forward(p_inj, fluid, p_prod))
    system = _ceiling_flux_system(mesh, fluid, K, dP)
    unit = np.zeros(mesh.n_nodes)
    unit[np.setdiff1d(mesh.nodes_with_label("inlet"), mesh.nodes_with_label("well"))] = 1.0
    b = (np.zeros(mesh.n_nodes) - system.raw_matrix @ unit)[system.is_free]
    values = system.lift.copy()
    factor = darcy_linear._factor(system.A_red, mesh.nodes, system.is_free)
    values[system.is_free] = dP * factor.solve(b)
    field = ScalarField(mesh, values)
    return float(darcy_linear.boundary_flux(field, system, "well")) / dP


def ceiling_flux_constant_direct(mesh, fluid, K, p_inj, p_prod):
    """ceiling_flux_constant_by_hand with the Kirchhoff system solved
    directly, by darcy_linear.solve of its right-hand side."""
    dP = float(transform.kirchhoff_forward(p_inj, fluid, p_prod))
    system = _ceiling_flux_system(mesh, fluid, K, dP)
    result = darcy_linear.solve(system)
    return float(darcy_linear.boundary_flux(result.field, system, "well")) / dP


def _ceiling_flux_system(mesh, fluid, K, dP):
    bcs = BoundarySpec(pressure={"inlet": dP, "well": 0.0}, velocity={"wall": 0.0})
    mobility = darcy_linear.mobility_tensors(mesh, fluid, BodyForcePotential.zero(), K)
    return darcy_linear.assemble(mesh, mobility, bcs)


def scaled_stiffness(raw, edges, weights):
    """The raw stiffness of a Picard sweep, built from COO triplets rather
    than refilled: each pair k_ij = k_ji of edges (i, j) scaled by its
    weight and each diagonal entry minus the row sum of the scaled pairs,
    summed in the order darcy_linear sums them, so the values have its
    bits and the pattern (explicit zeros too) is raw's."""
    i, j = edges
    n = raw.shape[0]
    off = np.asarray(raw[i, j]).ravel() * weights
    diagonal = -(np.bincount(i, off, n) + np.bincount(j, off, n))
    nodes = np.arange(n)
    rows, cols = np.concatenate([i, j, nodes]), np.concatenate([j, i, nodes])
    return sp.coo_matrix((np.concatenate([off, off, diagonal]), (rows, cols)), shape=(n, n)).tocsr()


def jacobi_cg(A, b, rtol):
    """Solve the SPD system A x = b iteratively (instead of by the
    library's sparse LU): Jacobi-preconditioned conjugate gradients,
    stopped at relative residual rtol."""
    M = sp.diags(1.0 / A.diagonal())
    x, info = spla.cg(A, b, rtol=rtol, atol=0.0, maxiter=20 * b.size, M=M)
    assert info == 0, "reference CG did not converge"
    return x


def strip_pressure_ode(x_eval, L, k, fluid, v0, p_R=None):
    """Integrate dp/dx = -(mu0*v0/k) * exp[beta*(p/p0 - 1)] backward from
    x = L where p = p_R, with a tight adaptive RK45 tolerance."""
    p_R = fluid.p0 if p_R is None else p_R

    def rhs(_, p):
        return -(fluid.mu0 * v0 / k) * np.exp(fluid.beta * (p[0] / fluid.p0 - 1.0))

    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    order = np.argsort(-x_eval)  # integrate from L downward
    sol = solve_ivp(
        rhs,
        (L, float(x_eval[order][-1])),
        [p_R],
        t_eval=x_eval[order],
        rtol=1e-12,
        atol=1e-12 * fluid.p0,
        method="RK45",
    )
    assert sol.success
    out = np.empty_like(x_eval)
    out[order] = sol.y[0]
    return out


def kirchhoff_by_quadrature(ptilde, fluid):
    """Defining integral of the Kirchhoff variable, evaluated numerically."""

    def integrand(pp):
        return np.exp(-fluid.beta * (pp / fluid.p0 - 1.0))

    val, err = quad(integrand, fluid.p0, ptilde, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-9 * max(abs(val), 1.0)
    return val


def kirchhoff_inverse_by_rootfind(P_K, fluid, bracket_lo, bracket_hi):
    """Invert the Kirchhoff map by root finding on the forward quadrature."""
    return brentq(
        lambda pt: kirchhoff_by_quadrature(pt, fluid) - P_K,
        bracket_lo,
        bracket_hi,
        xtol=1e-14,
        rtol=8.9e-16,
    )


# Strang-Fix 6-point triangle rule, exact to polynomial degree 4.
_TRI6_BARY = None
_TRI6_W = None


def _tri6():
    global _TRI6_BARY, _TRI6_W
    if _TRI6_BARY is None:
        a, b = 0.445948490915965, 0.091576213509771
        wa, wb = 0.223381589678011, 0.109951743655322
        pts, w = [], []
        for c0, ww in ((a, wa), (b, wb)):
            pts += [
                (c0, c0, 1 - 2 * c0),
                (c0, 1 - 2 * c0, c0),
                (1 - 2 * c0, c0, c0),
            ]
            w += [ww] * 3
        _TRI6_BARY = np.array(pts)
        _TRI6_W = np.array(w)
    return _TRI6_BARY, _TRI6_W


def l2_error(field, exact_fn):
    """Element-quadrature L2 norm of (P1 field - exact), and the L2 norm of
    exact, over the whole mesh."""
    mesh = field.mesh
    bary, w = _tri6()
    tri_nodes = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    tri_vals = field.values[mesh.triangles]  # (T, 3)
    areas = mesh.signed_areas()
    err2 = 0.0
    ref2 = 0.0
    for lam, ww in zip(bary, w):
        xy = np.einsum("i,tid->td", lam, tri_nodes)
        fh = tri_vals @ lam
        fx = exact_fn(xy[:, 0], xy[:, 1])
        err2 += ww * float(((fh - fx) ** 2 * areas).sum())
        ref2 += ww * float((np.asarray(fx) ** 2 * areas).sum())
    return np.sqrt(err2), np.sqrt(ref2)


def edge_integral(p_a, p_b, length, f, n_panels=2000):
    """Composite-Simpson integral of f(linear trace) along one edge; the
    brute-force counterpart of the 2-point Gauss rule used in the library."""
    t = np.linspace(0.0, 1.0, 2 * n_panels + 1)
    vals = f(p_a + t * (p_b - p_a))
    w = np.ones_like(t)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = 1.0 / (2 * n_panels)
    return length * h / 3.0 * float((w * vals).sum())


# 2D exact solutions of the nonlinear problem, for the unit fluid (mu0 = beta
# = p0 = 1), a constant K and xi = c y. The reference viscosity is then mu0~ =
# e^{-c y}, and any Phi > 0 with div(e^{c y} K grad Phi) = 0 gives the
# modified pressure p + xi = 1 - ln Phi and the velocity e^{c y} K grad Phi:
# the transformed equations are Darcy's, with P_K an affine function of Phi.


def body_force_phi(shift):
    """(Phi, grad Phi) for xi = 0.5 y: Phi = shift + 0.15 x + 0.4 e^{-0.5 y},
    whose flux e^{0.5 y} grad Phi = (0.15 e^{0.5 y}, -0.2) is divergence-free.
    On [0, 2] x [0, 1], shift = 0.3 keeps Phi positive and shift = -0.3 makes
    it cross 0 in the upper left."""
    return (
        lambda x, y: shift + 0.15 * x + 0.4 * np.exp(-0.5 * y),
        lambda x, y: (np.full_like(x, 0.15), -0.2 * np.exp(-0.5 * y)),
    )


def exponential_phi():
    """(Phi, grad Phi) for xi = 0 and K = I: Phi = 3 + e^{x/2} cos(y/2), which
    is harmonic, at least 3.8 on [0, 2] x [0, 1] and not a polynomial, so
    that no P1 pattern is exact on it."""
    return (
        lambda x, y: 3.0 + np.exp(0.5 * x) * np.cos(0.5 * y),
        lambda x, y: (
            0.5 * np.exp(0.5 * x) * np.cos(0.5 * y),
            -0.5 * np.exp(0.5 * x) * np.sin(0.5 * y),
        ),
    )


def anisotropic_quadratic_phi(tensor, a, b, c, shift):
    """(Phi, grad Phi) for xi = 0 and the constant K = ((kxx, kxy), (kxy,
    kyy)) = tensor: Phi = shift + a x^2 + 2 b x y + c y^2, with
    div(K grad Phi) = 2 (kxx a + 2 kxy b + kyy c) = 0."""
    kxx, kxy, kyy = tensor
    assert kxx * a + 2.0 * kxy * b + kyy * c == 0.0
    return (
        lambda x, y: shift + a * x * x + 2.0 * b * x * y + c * y * y,
        lambda x, y: (2.0 * (a * x + b * y), 2.0 * (b * x + c * y)),
    )


def saddle_phi():
    """(Phi, grad Phi) for xi = 0: Phi = 5 - x^2 + y^2 >= 1 on [0, 2] x [0, 1],
    so P_K is x^2 - y^2 up to a constant."""
    return lambda x, y: 5.0 - x * x + y * y, lambda x, y: (-2.0 * x, 2.0 * y)


def harmonic_barus_solution(phi, grad_phi, xi_slope, tensor=(1.0, 0.0, 1.0)):
    """(pressure, velocity) of the exact solution of Phi under xi = xi_slope y
    and the constant K = ((kxx, kxy), (kxy, kyy)) = tensor: p(x, y) and
    v(x, y) -> (vx, vy)."""
    kxx, kxy, kyy = tensor

    def pressure(x, y):
        return 1.0 - np.log(phi(x, y)) - xi_slope * y

    def velocity(x, y):
        gx, gy = grad_phi(x, y)
        w = np.exp(xi_slope * y)
        return w * (kxx * gx + kxy * gy), w * (kxy * gx + kyy * gy)

    return pressure, velocity


_RECTANGLE_NORMALS = {"left": (-1.0, 0.0), "right": (1.0, 0.0), "top": (0.0, 1.0), "bottom": (0.0, -1.0)}


def rectangle_bcs(pressure, velocity, pressure_labels):
    """Data of an exact solution on the labels of make_rectangle_mesh: the
    pressure on pressure_labels, the outward normal velocity on the others."""

    def normal_velocity(label):
        nx, ny = _RECTANGLE_NORMALS[label]

        def vn(x, y):
            vx, vy = velocity(x, y)
            return nx * vx + ny * vy

        return vn

    return BoundarySpec(
        pressure={label: pressure for label in pressure_labels},
        velocity={
            label: normal_velocity(label)
            for label in _RECTANGLE_NORMALS
            if label not in pressure_labels
        },
    )
