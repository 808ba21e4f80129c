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
