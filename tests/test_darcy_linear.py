"""Linear P1 kernel: assembly, sparse-LU solve, velocity recovery,
consistent boundary fluxes, and the three-step transformed solution path."""

import gc

import numpy as np
import pytest

from poroflow import (
    BodyForcePotential,
    BoundarySpec,
    Degenerate,
    FluidModel,
    IncompatibleNeumann,
    NoConvergence,
    NonExistence,
    PermeabilityField,
    ScalarField,
    SingularMobility,
    UnknownLabel,
    make_rectangle_mesh,
    make_reservoir_mesh,
)
from poroflow import darcy_linear as dl
from poroflow import oned_analytic as o1
from poroflow import transform as tr

import _oracles

UNIT_FLUID = FluidModel(mu0=1.0, beta=0.0, p0=1.0)
ZERO_XI = BodyForcePotential.zero()


def identity_mobility(mesh):
    return np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2)).copy()


def lr_dirichlet(p_left, p_right):
    return BoundarySpec(
        pressure={"left": p_left, "right": p_right},
        velocity={"top": 0.0, "bottom": 0.0},
    )


class TestAssemble:
    def test_two_triangle_poisson(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 1, 1)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        result = dl.solve(system)
        assert np.allclose(result.field.values, mesh.nodes[:, 0], atol=1e-12)

    def test_eliminated_matrix_symmetric(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 4, 4)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        d = system.A_red - system.A_red.T
        scale = np.abs(system.A_red.data).max()
        assert (np.abs(d.data).max() if d.nnz else 0.0) <= 1e-12 * scale

    def test_singular_mobility_rejected(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 1, 1)
        mob = identity_mobility(mesh)
        mob[0] = [[1.0, 2.0], [2.0, 1.0]]  # indefinite
        with pytest.raises(SingularMobility):
            dl.assemble(mesh, mob, lr_dirichlet(0.0, 1.0))

    def test_incompatible_pure_neumann(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        bcs = BoundarySpec(
            pressure={},
            velocity={"left": -1.0, "right": 0.0, "top": 0.0, "bottom": 0.0},
        )
        system = dl.assemble(mesh, identity_mobility(mesh), bcs)  # assembly fine
        with pytest.raises(IncompatibleNeumann):
            dl.solve(system)

    def test_compatible_pure_neumann(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        bcs = BoundarySpec(
            pressure={},
            velocity={"left": -1.0, "right": 1.0, "top": 0.0, "bottom": 0.0},
        )
        system = dl.assemble(mesh, identity_mobility(mesh), bcs)
        result = dl.solve(system)
        # inflow left, outflow right: v = (+1, 0), so P = -x up to a constant
        shifted = result.field.values - result.field.values[0]
        assert np.allclose(shifted, -(mesh.nodes[:, 0] - mesh.nodes[0, 0]), atol=1e-10)

    def test_mobility_scaling_linearity(self):
        # scaling the mobility scales the flux, not the pressure
        mesh = make_rectangle_mesh(1.0, 1.0, 8, 8)
        bcs = lr_dirichlet(1.0, 0.0)
        q = {}
        fields = {}
        for c in (1.0, 10.0):
            system = dl.assemble(mesh, c * identity_mobility(mesh), bcs)
            result = dl.solve(system)
            q[c] = dl.boundary_flux(result.field, system, "right")
            fields[c] = result.field.values
        assert np.allclose(fields[1.0], fields[10.0], atol=1e-10)
        assert q[10.0] == pytest.approx(10.0 * q[1.0], rel=1e-10)


class TestSolve:
    def test_single_unknown_one_iteration(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        bcs = BoundarySpec(
            pressure={"left": 0.0, "right": 0.0, "top": 0.0, "bottom": 0.0},
            velocity={},
        )
        system = dl.assemble(mesh, identity_mobility(mesh), bcs)
        assert sum(1 for _ in system.dirichlet_map) == mesh.n_nodes - 1
        result = dl.solve(system)
        assert result.iterations <= 1
        assert np.allclose(result.field.values, 0.0, atol=1e-14)

    def test_manufactured_linear_solution(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 7, 5)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        result = dl.solve(system)
        assert np.max(np.abs(result.field.values - mesh.nodes[:, 0])) < 1e-10

    def test_no_convergence_reported(self):
        # the LU residual (about 1e-15 here) cannot meet a limit below eps
        mesh = make_rectangle_mesh(1.0, 1.0, 20, 20)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        with pytest.raises(NoConvergence):
            dl.solve(system, dl.LinearSolveConfig(rtol=1e-18))

    def test_direct_and_cg_agree(self, table1_fluid):
        # the transformed reservoir system, solved by LU and by reference CG
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"inlet": 10 * table1_fluid.p0, "well": table1_fluid.p0},
            velocity={"wall": 0.0},
        )
        kbcs = bcs.map_pressure(lambda p, x, y: tr.kirchhoff_forward(p, table1_fluid))
        mobility = dl.mobility_tensors(mesh, table1_fluid, ZERO_XI, K)
        system = dl.assemble(mesh, mobility, kbcs)
        result = dl.solve(system)
        assert result.iterations == 0
        direct = result.field.values[system.free]
        cg = _oracles.jacobi_cg(system.A_red, system.b_red, rtol=1e-12)
        assert np.max(np.abs(direct - cg)) <= 1e-10 * np.max(np.abs(cg))

    def test_convergence_order_on_strip(self, table1_fluid):
        # 1D-in-2D strip: transformed solve vs the nonlinear closed form.
        # Nodal values are exact (the transformed solution is linear), so the
        # quadrature L2 error is pure interpolation error: O(h^2).
        k = 1e-12
        L, H = 100.0, 10.0
        problem = o1.StripProblem(L=L, k=k, fluid=table1_fluid, v0=0.8 * 8.550632911392405)
        errs = []
        for nx in (8, 16, 32):
            mesh = make_rectangle_mesh(L, H, nx, 2)
            bcs = BoundarySpec(
                pressure={"right": table1_fluid.p0},
                velocity={"left": -problem.v0, "top": 0.0, "bottom": 0.0},
            )
            K = PermeabilityField.isotropic(mesh, k)
            report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
            err, ref = _oracles.l2_error(
                report.p, lambda x, y: o1.direct_pressure_1d(x, problem)
            )
            errs.append(err / ref)
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5


class TestFactorReuse:
    """solve keeps the LU factor of the last reduced matrix while its mesh
    lives. Each test draws its own mobility scale, so no entry left by
    another test can match its matrix."""

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []
        splu = dl.spla.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(dl.spla, "splu", counting)
        return calls

    @staticmethod
    def strip_system(scale, nx=7):
        mesh = make_rectangle_mesh(1.0, 1.0, nx, 5)
        return mesh, dl.assemble(mesh, scale * identity_mobility(mesh), lr_dirichlet(0.0, 1.0))

    def test_second_solve_reuses_factor_bitwise(self, splu_calls):
        mesh, system = self.strip_system(1.25)
        first = dl.solve(system).field.values
        again = dl.solve(system).field.values
        assert len(splu_calls) == 1
        _, other = self.strip_system(1.25, nx=6)
        dl.solve(other)  # another matrix replaces the entry
        fresh = dl.solve(system).field.values
        assert len(splu_calls) == 3
        assert np.array_equal(again, fresh) and np.array_equal(first, fresh)
        assert np.max(np.abs(fresh - mesh.nodes[:, 0])) < 1e-10

    def test_values_changed_in_place_refactor(self, splu_calls):
        # same objects, new values: a cache keyed on identity would return
        # the old solution times 3
        mesh, system = self.strip_system(1.5)
        dl.solve(system)
        system.A_red.data *= 3.0
        system.b_red *= 3.0
        result = dl.solve(system)
        assert len(splu_calls) == 2
        assert np.max(np.abs(result.field.values - mesh.nodes[:, 0])) < 1e-10

    def test_entry_released_with_mesh(self, splu_calls):
        mesh, system = self.strip_system(1.75)
        result = dl.solve(system)
        del mesh, system, result
        gc.collect()
        assert dl._factor_entry is None
        # the same matrix on a new mesh finds nothing to reuse
        _, system = self.strip_system(1.75)
        dl.solve(system)
        assert len(splu_calls) == 2

    def test_residual_checked_on_reuse(self, splu_calls):
        _, system = self.strip_system(2.25)
        dl.solve(system)
        with pytest.raises(NoConvergence):
            dl.solve(system, dl.LinearSolveConfig(rtol=1e-18))
        assert len(splu_calls) == 1

    def test_singular_matrix_leaves_no_entry(self, splu_calls):
        mesh, system = self.strip_system(2.5)
        dl.solve(system)
        data = system.A_red.data.copy()
        system.A_red.data[:] = 0.0
        with pytest.raises(NoConvergence):
            dl.solve(system)
        assert dl._factor_entry is None
        system.A_red.data[:] = data
        result = dl.solve(system)
        assert len(splu_calls) == 3
        assert np.max(np.abs(result.field.values - mesh.nodes[:, 0])) < 1e-10


class TestRecoverVelocity:
    def test_linear_field(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        P = ScalarField.from_function(mesh, lambda x, y: x)
        v = dl.recover_velocity(P, identity_mobility(mesh))
        assert np.allclose(v.values, [-1.0, 0.0], atol=1e-13)

    def test_constant_field(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        v = dl.recover_velocity(ScalarField.constant(mesh, 3.0), identity_mobility(mesh))
        assert np.allclose(v.values, 0.0, atol=1e-13)

    def test_anisotropic_mobility(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        P = ScalarField.from_function(mesh, lambda x, y: x)
        mob = np.broadcast_to(np.diag([2.0, 1.0]), (mesh.n_triangles, 2, 2)).copy()
        v = dl.recover_velocity(P, mob)
        assert np.allclose(v.values, [-2.0, 0.0], atol=1e-13)


class TestBoundaryFlux:
    def test_divergence_theorem_on_square(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 6, 6)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(1.0, 0.0))
        result = dl.solve(system)
        assert dl.boundary_flux(result.field, system, "right") == pytest.approx(1.0, abs=1e-10)
        assert dl.boundary_flux(result.field, system, "left") == pytest.approx(-1.0, abs=1e-10)

    def test_direct_integration_cross_check(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 6, 6)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(1.0, 0.0))
        result = dl.solve(system)
        v = dl.recover_velocity(result.field, identity_mobility(mesh))
        for label in ("left", "right"):
            consistent = dl.boundary_flux(result.field, system, label)
            direct = dl.boundary_flux_direct(v, mesh, label)
            assert consistent == pytest.approx(direct, abs=1e-10)

    def test_closed_system_zero_flux(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        bcs = BoundarySpec(
            pressure={},
            velocity={"left": 0.0, "right": 0.0, "top": 0.0, "bottom": 0.0},
        )
        system = dl.assemble(mesh, identity_mobility(mesh), bcs)
        result = dl.solve(system)
        for label in mesh.labels:
            assert abs(dl.boundary_flux(result.field, system, label)) < 1e-12

    def test_global_conservation_reservoir(self, table1_fluid):
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 30, 12)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"inlet": 10 * table1_fluid.p0, "well": table1_fluid.p0},
            velocity={"wall": 0.0},
        )
        mob = dl.mobility_tensors(mesh, table1_fluid, ZERO_XI, K)
        tbcs = dl.transform_bcs(bcs, table1_fluid, ZERO_XI)
        system = dl.assemble(mesh, mob, tbcs)
        result = dl.solve(system)
        total = sum(dl.boundary_flux(result.field, system, lab) for lab in mesh.labels)
        # imbalance is bounded by the linear-solver residual
        g_full = np.zeros(mesh.n_nodes)
        for i, g in system.dirichlet_map.items():
            g_full[i] = g
        free = np.setdiff1d(np.arange(mesh.n_nodes), list(system.dirichlet_map))
        b_red = (system.raw_rhs - system.raw_matrix @ g_full)[free]
        assert abs(total) < 1e-12 * np.linalg.norm(b_red)

    def test_unknown_label(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        result = dl.solve(system)
        with pytest.raises(UnknownLabel):
            dl.boundary_flux(result.field, system, "nope")


class TestTransformedBVP:
    def test_no_driving_force(self, table1_fluid):
        mesh = make_rectangle_mesh(10.0, 2.0, 10, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = lr_dirichlet(table1_fluid.p0, table1_fluid.p0)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        # tolerances at the transform scale: p error ~ (p0/beta)*cg-error,
        # spurious speed ~ mobility * that error / cell size
        assert np.allclose(report.p.values, table1_fluid.p0, rtol=1e-8)
        v_scale = (1e-12 / table1_fluid.mu0) * (table1_fluid.p0 / table1_fluid.beta) / 10.0
        assert np.max(np.abs(report.v.values)) < 1e-10 * v_scale

    def test_degenerate_beta(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        K = PermeabilityField.isotropic(mesh, 1.0)
        with pytest.raises(Degenerate):
            dl.solve_transformed_bvp(mesh, UNIT_FLUID, ZERO_XI, K, lr_dirichlet(0.0, 1.0))

    def test_velocity_driven_nonexistence(self, table1_fluid):
        k = 1e-12
        L = 100.0
        vstar = o1.existence_threshold(
            o1.StripProblem(L=L, k=k, fluid=table1_fluid, v0=0.0)
        )
        mesh = make_rectangle_mesh(L, 10.0, 40, 4)
        K = PermeabilityField.isotropic(mesh, k)

        def strip_bcs(v0):
            return BoundarySpec(
                pressure={"right": table1_fluid.p0},
                velocity={"left": -v0, "top": 0.0, "bottom": 0.0},
            )

        with pytest.raises(NonExistence) as err:
            dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, strip_bcs(1.1 * vstar))
        assert len(err.value.nodes) > 0

        report = dl.solve_transformed_bvp(
            mesh, table1_fluid, ZERO_XI, K, strip_bcs(0.9 * vstar)
        )
        assert np.all(report.P.values < 0.0)

    def test_min_principle_surrogate(self, table1_fluid):
        # inflow (v_n <= 0) on the left wall: nodal transformed values stay
        # above the prescribed minimum on a structured non-obtuse mesh
        mesh = make_rectangle_mesh(10.0, 3.0, 20, 6)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"right": table1_fluid.p0},
            velocity={"left": -0.5, "top": 0.0, "bottom": 0.0},
        )
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        from poroflow.transform import hopf_cole_inverse

        bound = hopf_cole_inverse(table1_fluid.p0, 0.0, table1_fluid)
        scale = np.abs(report.P.values).max()
        assert report.P.values.min() >= bound - 1e-10 * scale

    def test_superposition(self, table1_fluid):
        # the map from transformed boundary data to the solution is linear
        mesh = make_reservoir_mesh(20.0, 6.0, 1.0, 10, 6)
        K = PermeabilityField.isotropic(mesh, 1.0)
        mob = identity_mobility(mesh)

        def solve_with(pi, pw, vwall):
            bcs = BoundarySpec(
                pressure={"inlet": pi, "well": pw}, velocity={"wall": vwall}
            )
            system = dl.assemble(mesh, mob, bcs)
            return dl.solve(system).field.values

        u1 = solve_with(-3.0, -1.0, 0.0)
        u2 = solve_with(-1.0, -0.5, 0.01)
        u12 = solve_with(-4.0, -1.5, 0.01)
        scale = np.abs(u12).max()
        assert np.max(np.abs(u12 - (u1 + u2))) < 1e-9 * scale

    def test_body_force_potential_path(self, table1_fluid):
        # hydrostatic-like balance: p + xi constant => no flow, p = const - xi
        mesh = make_rectangle_mesh(10.0, 2.0, 10, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        xi = BodyForcePotential(xi=lambda x, y: 500.0 * y)
        pref = 2.0 * table1_fluid.p0

        def p_bc(x, y):
            return pref - 500.0 * y

        bcs = BoundarySpec(
            pressure={"left": p_bc, "right": p_bc},
            velocity={"top": 0.0, "bottom": 0.0},
        )
        report = dl.solve_transformed_bvp(mesh, table1_fluid, xi, K, bcs)
        expect = pref - 500.0 * mesh.nodes[:, 1]
        assert np.max(np.abs(report.p.values - expect)) < 1e-8 * pref
        v_scale = (1e-12 / table1_fluid.mu0) * (table1_fluid.p0 / table1_fluid.beta) / 10.0
        assert np.max(np.abs(report.v.values)) < 1e-10 * v_scale

    @pytest.mark.parametrize(
        "fluid, p_left, p_right",
        [(FluidModel(1.0, 60.0, 1.0), 3.0, 1.0), (FluidModel(1.0, 1.0, 1.0), 101.0, 100.0)],
        ids=["inlet_beyond_p0_gauge", "all_beyond_p0_gauge"],
    )
    def test_high_pressure_strip(self, fluid, p_left, p_right):
        # beta*(p/p0 - 1) reaches 120 at the inlet of the first strip and
        # exceeds 99 everywhere on the second: a Kirchhoff variable measured
        # from p0 rounds those pressures onto its ceiling
        L, k = 1.0, 1.0
        mesh = make_rectangle_mesh(L, 0.2, 16, 2)
        K = PermeabilityField.isotropic(mesh, k)
        bcs = lr_dirichlet(p_left, p_right)
        report = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)

        def e(p):
            return np.exp(-fluid.beta * (p / fluid.p0 - 1.0))

        v0 = fluid.p0 * k * (e(p_right) - e(p_left)) / (fluid.mu0 * fluid.beta * L)
        problem = o1.StripProblem(L=L, k=k, fluid=fluid, v0=v0, p_R=p_right)
        x = mesh.nodes[:, 0]
        inlet = x == 0.0
        assert np.all(report.p.values[inlet] == p_left)
        exact = o1.direct_pressure_1d(x[~inlet], problem)
        err = np.max(np.abs(report.p.values[~inlet] - exact))
        assert err <= 1e-12 * (p_left - p_right)

    def test_pure_velocity_grounded_at_p0(self):
        # the transformed solution is fixed up to a constant; the member
        # returned has p = p0 at node 0, where the linear Kirchhoff
        # variable -mu0*v0*x/k is zero
        fluid = FluidModel(1.0, 1.0, 1.0)
        k, v0 = 1.0, 0.5
        mesh = make_rectangle_mesh(1.0, 0.2, 8, 2)
        K = PermeabilityField.isotropic(mesh, k)
        bcs = BoundarySpec(
            pressure={}, velocity={"left": -v0, "right": v0, "top": 0.0, "bottom": 0.0}
        )
        report = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert report.p.values[0] == fluid.p0
        exact = tr.kirchhoff_inverse(-fluid.mu0 * v0 * mesh.nodes[:, 0] / k, fluid)
        assert np.max(np.abs(report.p.values - exact)) < 1e-12

    def test_report_text(self, table1_fluid):
        mesh = make_reservoir_mesh(10.0, 3.0, 1.0, 5, 3)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"inlet": 2 * table1_fluid.p0, "well": table1_fluid.p0},
            velocity={"wall": 0.0},
        )
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        lines = report.to_text().splitlines()
        assert lines[0] == "poroflow solve report"
        keys = [line.split(" = ")[0] for line in lines[1:]]
        assert keys == [
            "nodes",
            "triangles",
            "linear_residual",
            "wall_time_s",
            "p_min",
            "p_max",
            "speed_max",
            "transform_violation",
            "P_min",
            "P_max",
        ]
        assert float(lines[3].split(" = ")[1]) == pytest.approx(report.residual, rel=1e-6)
