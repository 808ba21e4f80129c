"""Picard iteration on the nonlinear system and its a-posteriori residual."""

import math
import warnings

import numpy as np
import pytest

from poroflow import (
    BodyForcePotential,
    BoundarySpec,
    FluidModel,
    NoConvergence,
    NonExistence,
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
        # synthetic diverging inner solve: the update norm grows on sweeps 2,
        # 3 and 4, so the stop monitor raises at sweep 4, with no
        # relaxation to delay it
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
                field=ScalarField(mesh, values), iterations=1, residual=0.0,
                reduced=values[system.is_free],
            )

        monkeypatch.setattr(dl, "solve", fake_solve)
        with pytest.raises(NoConvergence) as err:
            bd.picard_solve(
                mesh, fluid, ZERO_XI, K, strip_bcs(1.0, 1.0), bd.PicardConfig(tol=1e-14)
            )
        assert "contracting too slowly" in str(err.value)
        assert state["n"] == 4
        assert err.value.report.iterations == len(err.value.report.update_history) == 4

    def test_propagates_linear_failures(self, monkeypatch):
        # a backward-error limit below eps makes every inner solve fail; the
        # linear kernel's failure must surface unchanged
        fluid = FluidModel(mu0=1.0, beta=60.0, p0=1.0)
        mesh = make_rectangle_mesh(1.0, 0.2, 16, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        monkeypatch.setattr(dl, "_OMEGA_MAX", 1e-18)
        with pytest.raises(NoConvergence):
            bd.picard_solve(mesh, fluid, ZERO_XI, K, strip_bcs(3.0, 1.0))

    @staticmethod
    def beyond_existence(ratio, fluid):
        """The 10x3 strip on 8x3 cells with inflow ratio * v* on the left."""
        L = 10.0
        mesh = make_rectangle_mesh(L, 3.0, 8, 3)
        K = PermeabilityField.isotropic(mesh, 1.0)
        v_star = fluid.p0 / (fluid.mu0 * L * fluid.beta)
        bcs = BoundarySpec(
            pressure={"right": fluid.p0},
            velocity={"left": -ratio * v_star, "top": 0.0, "bottom": 0.0},
        )
        return mesh, K, bcs

    def test_overflowing_iterate_raises_no_convergence(self, unit_fluid):
        # v0 = 1.5 v*, beyond the existence bound: the iterates climb until
        # the viscosity exp(beta*(p/p0 - 1)) of one leaves float64 on sweep
        # 5, before the update norm has grown three times; the report is
        # the iterate before
        mesh, K, bcs = self.beyond_existence(1.5, unit_fluid)
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

    def test_huge_finite_iterate_raises_no_convergence_without_warning(self, unit_fluid):
        # v0 = 1.233 v* on the 40x12 strip with anisotropic K and xi = 0.1 x:
        # a sweep solution is finite but so large that its norm overflows;
        # under warnings as errors the norms raise no RuntimeWarning, and
        # the viscosity overflow of that iterate ends the run with a report
        L = 10.0
        mesh = make_rectangle_mesh(L, 3.0, 40, 12)
        K = PermeabilityField.uniform_tensor(mesh, 1.0, 0.3, 0.5)
        xi = BodyForcePotential(lambda x, y: 0.1 * x)
        v_star = unit_fluid.p0 / (unit_fluid.mu0 * L * unit_fluid.beta)
        bcs = BoundarySpec(
            pressure={"right": unit_fluid.p0},
            velocity={"left": -1.233 * v_star, "top": 0.0, "bottom": 0.0},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence) as err:
                bd.picard_solve(mesh, unit_fluid, xi, K, bcs)
        report = err.value.report
        assert report is not None and not report.converged
        assert report.iterations == len(report.update_history) >= 1
        assert np.all(np.isfinite(report.p.values))

    def test_failed_later_sweep_raises_with_the_last_iterate(self, unit_fluid):
        # r = 7/6 on the 10x3 strip on 8x3 crossed cells: the cells are wider
        # than tall, so the stiffness is not an M-matrix, and the secant
        # weights of iterate 5 make sweep 6 indefinite, with a diagonal
        # entry that is not positive; CG gives up on it and its banded
        # Cholesky factorization fails. The report is that of iterate 5.
        L = 10.0
        mesh = make_rectangle_mesh(L, 3.0, 8, 3, "crossed")
        K = PermeabilityField.isotropic(mesh, 1.0)
        v_star = unit_fluid.p0 / (unit_fluid.mu0 * L * unit_fluid.beta)
        bcs = BoundarySpec(
            pressure={"right": unit_fluid.p0},
            velocity={"left": -(7.0 / 6.0) * v_star, "top": 0.0, "bottom": 0.0},
        )
        with pytest.raises(NoConvergence, match="sweep 6 has no accepted linear solve") as err:
            bd.picard_solve(mesh, unit_fluid, ZERO_XI, K, bcs)
        assert isinstance(err.value.__cause__, NoConvergence)
        report = err.value.report
        assert report is not None and not report.converged
        assert report.iterations == len(report.update_history) == 5
        assert np.all(np.isfinite(report.p.values))

    def test_growing_updates_raise_no_convergence(self, unit_fluid):
        # v0 = 1.2 v*, beyond the existence bound: the update norm shrinks on
        # sweep 3 by a ratio (0.90) that predicts more than max_iter = 200
        # sweeps, then grows on sweeps 4 and 5, and the stop monitor raises
        # with the report of sweep 5, whose viscosity is still finite
        mesh, K, bcs = self.beyond_existence(1.2, unit_fluid)
        with pytest.raises(NoConvergence, match="contracting too slowly") as err:
            bd.picard_solve(mesh, unit_fluid, ZERO_XI, K, bcs)
        report = err.value.report
        assert report is not None and not report.converged
        assert report.iterations == len(report.update_history) == 5
        h = report.update_history
        assert 3 + math.log(1e-10 / h[2]) / math.log(h[2] / h[1]) > 200
        assert h[2] < h[3] < h[4]
        assert np.all(np.isfinite(report.p.values))
        assert np.all(np.isfinite(report.v.values))
        assert np.all(np.isfinite(report.reactions))

    def test_no_solution_with_oscillating_updates_stops_early(self, unit_fluid):
        # the 10x3 strip on 8x3 crossed cells, anisotropic K, a body force
        # and v0 = (29/30) v*: the transformed path finds no solution in one
        # solve. Picard's update norm falls on every sweep, but its ratio
        # climbs toward 1, and the count it predicts passes max_iter = 200
        # on sweeps 15, 16 and 17: the contraction rule stops it there, not
        # max_iter after 200 sweeps (1,592 CG iterations)
        L = 10.0
        mesh = make_rectangle_mesh(L, 3.0, 8, 3, "crossed")
        K = PermeabilityField.uniform_tensor(mesh, 1.0, 0.3, 0.5)
        xi = BodyForcePotential(lambda x, y: -0.6 * y - 0.03 * x)
        v_star = unit_fluid.p0 / (unit_fluid.mu0 * L * unit_fluid.beta)
        bcs = BoundarySpec(
            pressure={"right": unit_fluid.p0},
            velocity={"left": -(29.0 / 30.0) * v_star, "top": 0.0, "bottom": 0.0},
        )
        with pytest.raises(NonExistence):
            dl.solve_transformed_bvp(mesh, unit_fluid, xi, K, bcs)
        with pytest.raises(NoConvergence) as err:
            bd.picard_solve(mesh, unit_fluid, xi, K, bcs, bd.PicardConfig(max_iter=200))
        assert "slowly" in str(err.value)
        assert err.value.report.iterations <= 50

    def test_pure_velocity_sweeps_start_from_the_reduced_solution(self, unit_fluid, factor_calls):
        # the mirrored 1x0.2 strip at xi = 0: every later sweep starts CG from
        # the previous sweep's reduced solution as solved, and no sweep is
        # factored; a start rebuilt from the nodal field, which solve shifts
        # to peak at 0, loses low bits, and sweep 2 is then factored
        mesh = make_rectangle_mesh(1.0, 0.2, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(
            pressure={}, velocity={"left": 1.5, "right": -1.5, "top": 0.0, "bottom": 0.0}
        )
        report = bd.picard_solve(mesh, unit_fluid, ZERO_XI, K, bcs)
        assert report.converged
        assert len(factor_calls) == 1  # the assembled system's, for sweep 1
        assert report.linear_iterations == 77

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

    @pytest.mark.parametrize(
        "case, sweeps", [("isotropic_r099", 90), ("anisotropic_body_force_r095", 73)]
    )
    def test_contraction_guard_lets_converging_runs_finish(self, case, sweeps, unit_fluid):
        # slow converging runs (90 and 73 sweeps) whose ratio settles near 1
        # still converge with max_iter set to their own sweep count: no
        # prediction of the contraction guard exceeds it three times in a row
        L = 10.0
        v_star = unit_fluid.p0 / (unit_fluid.mu0 * L * unit_fluid.beta)
        if case == "isotropic_r099":
            mesh = make_rectangle_mesh(L, 3.0, 8, 3)
            K, xi, r = PermeabilityField.isotropic(mesh, 1.0), ZERO_XI, 0.99
        else:
            mesh = make_rectangle_mesh(L, 3.0, 8, 3, "crossed")
            K = PermeabilityField.uniform_tensor(mesh, 1.0, 0.3, 0.5)
            xi, r = BodyForcePotential(lambda x, y: -0.6 * y - 0.03 * x), 0.95
        bcs = BoundarySpec(
            pressure={"right": unit_fluid.p0},
            velocity={"left": -r * v_star, "top": 0.0, "bottom": 0.0},
        )
        free = bd.picard_solve(mesh, unit_fluid, xi, K, bcs)
        assert free.converged and free.iterations == sweeps
        tight = bd.picard_solve(mesh, unit_fluid, xi, K, bcs, bd.PicardConfig(max_iter=sweeps))
        assert tight.converged and tight.update_history == free.update_history

    def test_extreme_contrast_converges_with_direct_solve(self, monkeypatch):
        # extreme viscosity contrast on the default backward-error limit; the
        # report sums the CG iterations of its linear solves
        fluid = FluidModel(mu0=1.0, beta=60.0, p0=1.0)
        mesh = make_rectangle_mesh(1.0, 0.2, 16, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = strip_bcs(3.0, 1.0)
        counts = []
        solve, solve_sweep = dl.solve, dl._solve_sweep

        def recording(result):
            counts.append(result.iterations)
            return result

        monkeypatch.setattr(dl, "solve", lambda system: recording(solve(system)))
        monkeypatch.setattr(dl, "_solve_sweep", lambda *args: recording(solve_sweep(*args)))
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

    def test_zero_secant_load_scales_by_the_stiffness(self, unit_fluid):
        # zero pressure data and sealed walls give the secant system a zero
        # load: the residual is then relative to ||raw_K P_K||, or absolute
        # when that is zero too
        mesh = make_rectangle_mesh(10.0, 3.0, 8, 3)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(pressure={"left": 0.0, "right": 0.0}, velocity={"top": 0.0, "bottom": 0.0})
        zero = ScalarField.constant(mesh, 0.0)
        assert bd.nonlinear_residual(zero, mesh, unit_fluid, ZERO_XI, K, bcs) == 0.0
        x, y = mesh.nodes.T
        p = ScalarField(mesh, 0.05 * np.sin(x) * y)
        system = dl.assemble(mesh, dl.mobility_tensors(mesh, unit_fluid, ZERO_XI, K), bcs)
        flux = system.raw_matrix @ tr.kirchhoff_forward(p.values, unit_fluid, 0.0)
        want = np.linalg.norm(flux[system.is_free]) / np.linalg.norm(flux)
        assert 0.1 < want < 1.0
        got = bd.nonlinear_residual(p, mesh, unit_fluid, ZERO_XI, K, bcs)
        assert got == pytest.approx(want, rel=1e-12)

    def test_random_field_large_residual(self, table1_fluid):
        mesh = make_rectangle_mesh(10.0, 2.0, 8, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = strip_bcs(1e7, table1_fluid.p0)
        rng = np.random.default_rng(4)
        junk = ScalarField(mesh, rng.uniform(1e5, 1e7, mesh.n_nodes))
        res = bd.nonlinear_residual(junk, mesh, table1_fluid, ZERO_XI, K, bcs)
        assert res > 0.1


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(tol=0.0), "tol must be positive"),
        (dict(tol=-1e-10), "tol must be positive"),
        (dict(tol=float("nan")), "tol must be positive"),
        (dict(max_iter=0), "max_iter must be >= 1"),
    ],
)
def test_picard_config_rejects(config, message):
    with pytest.raises(ValueError, match=message):
        bd.PicardConfig(**config)
