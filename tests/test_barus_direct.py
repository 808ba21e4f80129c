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
        assert rel < 1e-6  # discretization error of the frozen-coefficient scheme

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
        assert rel < 5e-3

    def test_report_invariants(self, table1_fluid):
        mesh = make_rectangle_mesh(10.0, 2.0, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        report = bd.picard_solve(
            mesh, table1_fluid, ZERO_XI, K, strip_bcs(5e6, table1_fluid.p0)
        )
        assert len(report.update_history) == report.iterations
        assert report.converged
        assert report.update_history[-1] <= 1e-10
        assert report.wall_time > 0.0

    def test_fixed_point_consistency(self, table1_fluid):
        # re-solving from the converged state must not move the solution
        mesh = make_rectangle_mesh(10.0, 2.0, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = strip_bcs(1e8, table1_fluid.p0)
        cfg = bd.PicardConfig(tol=1e-12)
        report = bd.picard_solve(mesh, table1_fluid, ZERO_XI, K, bcs, cfg)
        again = bd.picard_solve(
            mesh,
            table1_fluid,
            ZERO_XI,
            K,
            bcs,
            bd.PicardConfig(tol=1e-12, initial_pressure=report.p),
        )
        scale = np.abs(report.p.values).max()
        assert np.max(np.abs(again.p.values - report.p.values)) < 1e-9 * scale

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

        def fake_solve(system, config=None):
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

    def test_propagates_linear_failures(self):
        # a residual limit below eps makes every inner solve fail; the
        # linear kernel's failure must surface unchanged
        fluid = FluidModel(mu0=1.0, beta=60.0, p0=1.0)
        mesh = make_rectangle_mesh(1.0, 0.2, 16, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        cfg = bd.PicardConfig(linear=dl.LinearSolveConfig(rtol=1e-18))
        with pytest.raises(NoConvergence):
            bd.picard_solve(mesh, fluid, ZERO_XI, K, strip_bcs(3.0, 1.0), cfg)

    def test_overflowing_iterate_raises_no_convergence(self, unit_fluid):
        # v0 = 0.99 v*: an iterate overshoots far enough that its viscosity
        # exp(beta*(p/p0 - 1)) leaves float64; the report is the iterate before
        L = 10.0
        mesh = make_rectangle_mesh(L, 3.0, 8, 3)
        K = PermeabilityField.isotropic(mesh, 1.0)
        v_star = unit_fluid.p0 / (unit_fluid.mu0 * L * unit_fluid.beta)
        bcs = BoundarySpec(
            pressure={"right": unit_fluid.p0},
            velocity={"left": -0.99 * v_star, "top": 0.0, "bottom": 0.0},
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

    def test_extreme_contrast_converges_with_direct_solve(self):
        # extreme viscosity contrast on the default residual limit
        fluid = FluidModel(mu0=1.0, beta=60.0, p0=1.0)
        mesh = make_rectangle_mesh(1.0, 0.2, 16, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = strip_bcs(3.0, 1.0)
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.converged
        assert report.linear_iterations == 0
        assert bd.nonlinear_residual(report.p, mesh, fluid, ZERO_XI, K, bcs) < 1e-10


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

    def test_random_field_large_residual(self, table1_fluid):
        mesh = make_rectangle_mesh(10.0, 2.0, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = strip_bcs(1e7, table1_fluid.p0)
        rng = np.random.default_rng(4)
        junk = ScalarField(mesh, rng.uniform(1e5, 1e7, mesh.n_nodes))
        res = bd.nonlinear_residual(junk, mesh, table1_fluid, ZERO_XI, K, bcs)
        assert res > 0.1
