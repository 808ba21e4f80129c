"""Picard iteration on the nonlinear system and its a-posteriori residual."""

import numpy as np
import pytest

from poroflow import (
    BodyForcePotential,
    BoundarySpec,
    FluidModel,
    NoConvergence,
    PermeabilityField,
    ScalarField,
    make_rectangle_mesh,
    make_reservoir_mesh,
)
from poroflow import barus_direct as bd
from poroflow import darcy_linear as dl
from poroflow import transform as tr

ZERO_XI = BodyForcePotential.zero()


def pressure_driven_exact(x, L, p_left, p_right, fluid):
    """Closed form for the pressure-driven strip, written out directly:
    the transformed variable is linear in x, so
    p(x) = p0 * (1 - ln[E_L + (E_R - E_L) * x/L] / beta)
    with E_* = exp[-beta*(p_*/p0 - 1)]."""
    E_L = np.exp(-fluid.beta * (p_left / fluid.p0 - 1.0))
    E_R = np.exp(-fluid.beta * (p_right / fluid.p0 - 1.0))
    return fluid.p0 * (1.0 - np.log(E_L + (E_R - E_L) * x / L) / fluid.beta)


def strip_bcs(p_left, p_right):
    return BoundarySpec(
        pressure={"left": p_left, "right": p_right},
        velocity={"top": 0.0, "bottom": 0.0},
    )


class TestPicardSolve:
    def test_beta_zero_single_iteration(self):
        fluid = FluidModel(mu0=1.0, beta=0.0, p0=1.0)
        mesh = make_rectangle_mesh(1.0, 1.0, 4, 4)
        K = PermeabilityField.isotropic(mesh, 1.0)
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, strip_bcs(0.0, 1.0))
        assert report.iterations == 1
        assert report.converged
        assert report.update_history == [0.0]
        assert np.max(np.abs(report.p.values - mesh.nodes[:, 0])) < 1e-10

    def test_pressure_driven_strip_matches_closed_form(self, table1_fluid):
        L = 100.0
        mesh = make_rectangle_mesh(L, 10.0, 64, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        p_left = 50.0 * table1_fluid.p0
        bcs = strip_bcs(p_left, table1_fluid.p0)
        report = bd.picard_solve(
            mesh, table1_fluid, ZERO_XI, K, bcs, bd.PicardConfig(tol=1e-12)
        )
        exact = pressure_driven_exact(
            mesh.nodes[:, 0], L, p_left, table1_fluid.p0, table1_fluid
        )
        rel = np.linalg.norm(report.p.values - exact) / np.linalg.norm(exact)
        # the Kirchhoff variable is linear in x, so the secant scheme is
        # nodally exact: what is left is rounding (3.6e-13)
        assert rel < 1e-11

    @pytest.mark.parametrize(
        "fluid, p_left, p_right",
        [
            (FluidModel(1.0, 60.0, 1.0), 3.0, 1.0),
            (FluidModel(1.0, 1.0, 1.0), 101.0, 100.0),
            (FluidModel(1.0, 60.0, 1.0), 3.5, 3.0),
        ],
        ids=["inlet_beyond_p0_gauge", "all_beyond_p0_gauge", "beta60_beyond_p0_gauge"],
    )
    def test_high_pressure_strip(self, fluid, p_left, p_right):
        # the Picard twin of the transformed path's test: a Kirchhoff
        # variable measured from p0 rounds pressures with beta*(p/p0 - 1)
        # beyond about 37 onto its ceiling, and the velocity and reactions
        # taken from it with them
        L, H, k = 1.0, 0.2, 1.0
        mesh = make_rectangle_mesh(L, H, 16, 2)
        K = PermeabilityField.isotropic(mesh, k)
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, strip_bcs(p_left, p_right))

        def e(p):
            return np.exp(-fluid.beta * (p / fluid.p0 - 1.0))

        v0 = fluid.p0 * k * (e(p_right) - e(p_left)) / (fluid.mu0 * fluid.beta * L)
        assert report.converged
        # 3.6e-9, 3.2e-9 and 1.5e-8 at the default tol
        assert np.abs(report.v.values - [v0, 0.0]).max() <= 1e-7 * v0
        outflow = report.reactions[mesh.nodes_with_label("right")].sum()
        assert abs(outflow - v0 * H) <= 1e-7 * v0 * H

    def test_agrees_with_transformed_path(self, table1_fluid):
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 30, 10)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"inlet": 4.2e9, "well": table1_fluid.p0}, velocity={"wall": 0.0}
        )
        direct = bd.picard_solve(
            mesh, table1_fluid, ZERO_XI, K, bcs, bd.PicardConfig(tol=1e-10)
        )
        transformed = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        rel = np.linalg.norm(direct.p.values - transformed.p.values) / np.linalg.norm(
            transformed.p.values
        )
        assert rel < 1e-11  # one discrete problem: 7.9e-13 at tol 1e-10

    def test_report_invariants(self, table1_fluid):
        mesh = make_rectangle_mesh(10.0, 2.0, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        report = bd.picard_solve(
            mesh, table1_fluid, ZERO_XI, K, strip_bcs(5e6, table1_fluid.p0)
        )
        assert len(report.update_history) == report.iterations
        assert report.converged
        assert report.update_history[-1] <= 1e-10

    def test_iteration_count_grows_with_drive(self, table1_fluid):
        mesh = make_reservoir_mesh(50.0, 15.0, 1.0, 16, 6)
        K = PermeabilityField.isotropic(mesh, 1e-12)

        def iters(p_inj):
            bcs = BoundarySpec(
                pressure={"inlet": p_inj, "well": table1_fluid.p0},
                velocity={"wall": 0.0},
            )
            return bd.picard_solve(
                mesh, table1_fluid, ZERO_XI, K, bcs, bd.PicardConfig(tol=1e-10)
            ).iterations

        low, high = iters(10 * table1_fluid.p0), iters(4.2e9)
        assert 1 <= low <= high  # qualitative trend, no fixed constant

    def test_max_iter_raises_with_partial_report(self, table1_fluid):
        mesh = make_rectangle_mesh(10.0, 2.0, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        with pytest.raises(NoConvergence) as err:
            bd.picard_solve(
                mesh,
                table1_fluid,
                ZERO_XI,
                K,
                strip_bcs(1e9, table1_fluid.p0),
                bd.PicardConfig(tol=1e-15, max_iter=2),
            )
        assert err.value.report is not None
        assert not err.value.report.converged
        assert len(err.value.report.update_history) == 2

    def test_oscillation_detection_and_relaxation(self, table1_fluid, monkeypatch):
        # synthetic diverging inner solve: update norms must grow, trip the
        # 3-growth detector, burn through the relaxation halvings, and raise
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        fluid = FluidModel(mu0=1.0, beta=1e-12, p0=1.0)
        state = {"n": 0}

        def fake_solve(system):
            state["n"] += 1
            values = np.full(mesh.n_nodes, fluid.p0)
            # alternating, geometrically growing, small against the base
            # field so the *relative* update norm itself keeps growing
            values[4] += (-1.0) ** state["n"] * 1e-8 * 1.5 ** state["n"]
            return dl.LinearSolveResult(
                field=ScalarField(mesh, values), iterations=1, residual=0.0
            )

        monkeypatch.setattr(dl, "solve", fake_solve)
        with pytest.raises(NoConvergence) as err:
            bd.picard_solve(
                mesh, fluid, ZERO_XI, K, strip_bcs(1.0, 1.0), bd.PicardConfig(tol=1e-14)
            )
        assert "diverging" in str(err.value)

    def test_propagates_linear_failures(self, monkeypatch):
        # a backward-error limit below eps makes every inner solve fail; the
        # linear kernel's failure must surface unchanged
        fluid = FluidModel(mu0=1.0, beta=60.0, p0=1.0)
        mesh = make_rectangle_mesh(1.0, 0.2, 16, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        monkeypatch.setattr(dl, "_OMEGA_MAX", 1e-18)
        with pytest.raises(NoConvergence):
            bd.picard_solve(mesh, fluid, ZERO_XI, K, strip_bcs(3.0, 1.0))

    def test_overflowing_iterate_raises_no_convergence(self, unit_fluid):
        # v0 = 1.2 v*, beyond the existence bound: the iterates climb until
        # the viscosity exp(beta*(p/p0 - 1)) of one leaves float64; the
        # report is the iterate before
        L = 10.0
        mesh = make_rectangle_mesh(L, 3.0, 8, 3)
        K = PermeabilityField.isotropic(mesh, 1.0)
        v_star = unit_fluid.p0 / (unit_fluid.mu0 * L * unit_fluid.beta)
        bcs = BoundarySpec(
            pressure={"right": unit_fluid.p0},
            velocity={"left": -1.2 * v_star, "top": 0.0, "bottom": 0.0},
        )
        with pytest.raises(NoConvergence, match="overflows") as err:
            bd.picard_solve(mesh, unit_fluid, ZERO_XI, K, bcs)
        report = err.value.report
        assert report is not None and not report.converged
        assert report.iterations == len(report.update_history) >= 1
        assert np.all(np.isfinite(report.p.values))
        assert np.all(np.isfinite(report.v.values))
        assert np.all(np.isfinite(report.reactions))
        tri_mean = report.p.values[mesh.triangles].mean(axis=1)
        assert np.all(np.isfinite(tr.viscosity(tri_mean, unit_fluid)))

    def test_near_critical_inflow_converges_to_transformed_path(self, unit_fluid):
        # v0 = 0.99 v*: slow (about 90 sweeps), but the secant iteration
        # has the transformed solution as its fixed point
        L = 10.0
        mesh = make_rectangle_mesh(L, 3.0, 8, 3)
        K = PermeabilityField.isotropic(mesh, 1.0)
        v_star = unit_fluid.p0 / (unit_fluid.mu0 * L * unit_fluid.beta)
        bcs = BoundarySpec(
            pressure={"right": unit_fluid.p0},
            velocity={"left": -0.99 * v_star, "top": 0.0, "bottom": 0.0},
        )
        report = bd.picard_solve(mesh, unit_fluid, ZERO_XI, K, bcs)
        transformed = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, bcs)
        assert report.converged
        contrast = transformed.p.values.max() - unit_fluid.p0
        assert np.abs(report.p.values - transformed.p.values).max() < 5e-9 * contrast
        speed = np.abs(transformed.v.values).max()
        assert np.abs(report.v.values - transformed.v.values).max() < 5e-9 * speed

    def test_extreme_contrast_converges_with_direct_solve(self, monkeypatch):
        # extreme viscosity contrast on the default backward-error limit; the
        # report sums the CG iterations of its linear solves
        fluid = FluidModel(mu0=1.0, beta=60.0, p0=1.0)
        mesh = make_rectangle_mesh(1.0, 0.2, 16, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = strip_bcs(3.0, 1.0)
        counts = []
        solve = dl.solve

        def recording(system):
            result = solve(system)
            counts.append(result.iterations)
            return result

        monkeypatch.setattr(dl, "solve", recording)
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.converged
        assert len(counts) == report.iterations
        assert report.linear_iterations == sum(counts) > 0
        assert bd.nonlinear_residual(report.p, mesh, fluid, ZERO_XI, K, bcs) < 1e-10

    @pytest.mark.parametrize("cap", [8, 19, 20, 50])
    def test_extreme_contrast_answer_independent_of_cg_cap(self, cap, monkeypatch):
        # the strip of test_extreme_contrast_converges_with_direct_solve: from
        # 20 iterations on, CG meets its relative residual on sweep 2 with
        # |x| = 5.8e7 where the solution lies in [1, 1.21], as the sweep's
        # diagonal spans 2.7e-47 to 0.21; the componentwise test refuses it
        monkeypatch.setattr(dl, "_PCG_MAX", cap)
        fluid = FluidModel(mu0=1.0, beta=60.0, p0=1.0)
        mesh = make_rectangle_mesh(1.0, 0.2, 16, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = strip_bcs(3.0, 1.0)
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        transformed = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert report.converged
        # 6.5e-12 of the contrast at caps 8 and 19
        assert np.abs(report.p.values - transformed.p.values).max() < 1e-11 * (3.0 - 1.0)


ANISOTROPIC_XI = {
    "zero": ZERO_XI,
    "0.3y": BodyForcePotential(lambda x, y: 0.3 * y),
    "0.01x+0.2y": BodyForcePotential(lambda x, y: 0.01 * x + 0.2 * y),
}


@pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
@pytest.mark.parametrize("xi", sorted(ANISOTROPIC_XI))
def test_secant_fixed_point_is_transformed_solution(xi, pattern, unit_fluid):
    # anisotropic K, a body force and beta*dp/p0 = 2: Picard and the one
    # linear solve give one discrete solution (gaps up to 1.2e-13)
    xi = ANISOTROPIC_XI[xi]
    mesh = make_rectangle_mesh(2.0, 1.0, 12, 6, pattern=pattern)
    K = PermeabilityField.uniform_tensor(mesh, 1.0, 0.3, 0.5)
    bcs = BoundarySpec(pressure={"left": 3.0, "right": 1.0}, velocity={"top": 0.0, "bottom": 0.05})
    report = bd.picard_solve(mesh, unit_fluid, xi, K, bcs, bd.PicardConfig(tol=1e-13))
    transformed = dl.solve_transformed_bvp(mesh, unit_fluid, xi, K, bcs)
    assert report.converged
    assert np.abs(report.p.values - transformed.p.values).max() < 1e-12 * 2.0
    speed = np.abs(transformed.v.values).max()
    assert np.abs(report.v.values - transformed.v.values).max() < 1e-12 * speed


class TestNonlinearResidual:
    def test_converged_solution_small_residual(self, table1_fluid):
        mesh = make_rectangle_mesh(10.0, 2.0, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = strip_bcs(1e8, table1_fluid.p0)
        tol = 1e-10
        report = bd.picard_solve(
            mesh, table1_fluid, ZERO_XI, K, bcs, bd.PicardConfig(tol=tol)
        )
        res = bd.nonlinear_residual(report.p, mesh, table1_fluid, ZERO_XI, K, bcs)
        assert res <= 10 * tol

    def test_interpolated_exact_solution_consistency(self, table1_fluid):
        # residual of the interpolated closed form decays under refinement
        L = 100.0
        p_left = 50.0 * table1_fluid.p0
        res = []
        for nx in (8, 16, 32):
            mesh = make_rectangle_mesh(L, 10.0, nx, 2)
            K = PermeabilityField.isotropic(mesh, 1e-12)
            bcs = strip_bcs(p_left, table1_fluid.p0)
            exact = ScalarField(
                mesh,
                pressure_driven_exact(
                    mesh.nodes[:, 0], L, p_left, table1_fluid.p0, table1_fluid
                ),
            )
            res.append(bd.nonlinear_residual(exact, mesh, table1_fluid, ZERO_XI, K, bcs))
        assert res[0] > res[1] > res[2]

    @pytest.mark.parametrize("case", ["reservoir", "strip_gravity", "strip_beyond_p0_gauge"])
    def test_transformed_solution_solves_secant_system(self, case, table1_fluid, unit_fluid):
        # the residual measures the system the transformed path solves
        if case == "reservoir":
            fluid, xi = table1_fluid, ZERO_XI
            mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 30, 10)
            K = PermeabilityField.isotropic(mesh, 1e-12)
            bcs = BoundarySpec(pressure={"inlet": 4.2e9, "well": fluid.p0}, velocity={"wall": 0.0})
        elif case == "strip_beyond_p0_gauge":
            # beta*(p/p0 - 1) >= 120 everywhere: read in a Kirchhoff variable
            # from p0 the exact solution leaves a residual of about 2e34
            fluid, xi = FluidModel(1.0, 60.0, 1.0), ZERO_XI
            mesh = make_rectangle_mesh(1.0, 0.2, 16, 2)
            K = PermeabilityField.isotropic(mesh, 1.0)
            bcs = strip_bcs(3.5, 3.0)
        else:
            fluid, xi = unit_fluid, BodyForcePotential(lambda x, y: 0.3 * y)
            mesh = make_rectangle_mesh(10.0, 3.0, 16, 4)
            K = PermeabilityField.isotropic(mesh, 1.0)
            bcs = BoundarySpec(
                pressure={"right": fluid.p0}, velocity={"left": -0.063, "top": 0.0, "bottom": 0.0}
            )
        report = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        assert bd.nonlinear_residual(report.p, mesh, fluid, xi, K, bcs) <= 1e-12

    def test_random_field_large_residual(self, table1_fluid):
        mesh = make_rectangle_mesh(10.0, 2.0, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = strip_bcs(1e7, table1_fluid.p0)
        rng = np.random.default_rng(4)
        junk = ScalarField(mesh, rng.uniform(1e5, 1e7, mesh.n_nodes))
        res = bd.nonlinear_residual(junk, mesh, table1_fluid, ZERO_XI, K, bcs)
        assert res > 0.1
