"""Linear P1 kernel: assembly, sparse-LU solve, velocity recovery,
consistent boundary fluxes, and the three-step transformed solution path."""

import dataclasses
import gc
import sys
import warnings

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
    NonFiniteData,
    PermeabilityField,
    ScalarField,
    SingularMobility,
    UnknownLabel,
    make_rectangle_mesh,
    make_reservoir_mesh,
)
from poroflow import barus_direct as bd
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
        # indefinite, and one NaN entry
        for bad in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, np.nan]]):
            mob = identity_mobility(mesh)
            mob[0] = bad
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

    def test_no_convergence_reported(self, monkeypatch):
        # the LU residual (about 1e-15 here) cannot meet a limit below eps
        mesh = make_rectangle_mesh(1.0, 1.0, 20, 20)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        monkeypatch.setattr(dl, "_OMEGA_MAX", 1e-18)
        with pytest.raises(NoConvergence):
            dl.solve(system)

    def test_direct_and_cg_agree(self, table1_fluid):
        # the transformed reservoir system, solved by LU and by reference CG
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"inlet": 10 * table1_fluid.p0, "well": table1_fluid.p0},
            velocity={"wall": 0.0},
        )
        kbcs = bcs.map_pressure(
            lambda p, x, y: tr.kirchhoff_forward(p, table1_fluid, table1_fluid.p0)
        )
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


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of the P1 element kernel, which every full assembly runs."""
    calls = []
    kernel = dl.p1_gradients

    def counting(mesh):
        calls.append(mesh.n_triangles)
        return kernel(mesh)

    monkeypatch.setattr(dl, "p1_gradients", counting)
    return calls


class TestFactorReuse:
    """solve keeps the LU factor of the last reduced matrix while its mesh
    lives. Each test draws its own mobility scale, so no entry left by
    another test can match its matrix."""

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
        # the held A_red refuses a write, so a cache keyed on identity cannot
        # return a factor of old values; a writable copy changed to D A D is
        # another matrix: one factorization, not held
        mesh, system = self.strip_system(1.5)
        dl.solve(system)
        with pytest.raises(ValueError):
            system.A_red.data *= 3.0
        A = system.A_red
        d = np.linspace(1.0, 2.0, A.shape[0])
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        scaled = A.copy()
        scaled.data *= d[rows] * d[A.indices]
        result = dl.solve(dataclasses.replace(system, A_red=scaled, b_red=d * system.b_red))
        assert len(splu_calls) == 2
        assert dl._entry is None
        x = result.field.values[system.free]
        assert np.max(np.abs(d * x - mesh.nodes[system.free, 0])) < 1e-10
        assert result.residual <= 1e-12

    def test_unstarted_sweep_factored_into_the_one_slot(self, monkeypatch):
        # a sweep matrix has A_red's pattern and other values; with no held
        # solution to start CG from it is factored once in its own order,
        # and its factor and diagonal take the slot of the A_red factor,
        # which a later solve of A_red then refactors
        specs = []
        splu = dl.spla.splu

        def recording(A, **kwargs):
            specs.append(kwargs["permc_spec"])
            return splu(A, **kwargs)

        monkeypatch.setattr(dl.spla, "splu", recording)
        mesh, system = self.strip_system(2.75)
        dl.solve(system)
        scaling = dl._edge_scaling(system)
        sweep = scaling.system(system, np.linspace(0.5, 2.0, scaling.edges[0].size))
        result = dl.solve(sweep)
        assert specs == ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A"]
        assert result.iterations == 0
        assert np.array_equal(dl._entry.lu_diagonal, sweep.A_red.diagonal())
        x = result.field.values[system.free]
        expected = dl.spla.spsolve(sweep.A_red.tocsc(), sweep.b_red)
        assert np.max(np.abs(x - expected)) < 1e-10
        assert result.residual <= 1e-12
        again = dl.solve(system)
        assert len(specs) == 3 and dl._entry.lu_diagonal is None
        assert np.max(np.abs(again.field.values - mesh.nodes[:, 0])) < 1e-10

    def test_entry_released_with_mesh(self, splu_calls):
        mesh, system = self.strip_system(1.75)
        result = dl.solve(system)
        del mesh, system, result
        gc.collect()
        assert dl._entry is None
        # the same matrix on a new mesh finds nothing to reuse
        _, system = self.strip_system(1.75)
        dl.solve(system)
        assert len(splu_calls) == 2

    def test_residual_checked_on_reuse(self, splu_calls, monkeypatch):
        _, system = self.strip_system(2.25)
        dl.solve(system)
        monkeypatch.setattr(dl, "_OMEGA_MAX", 1e-18)
        with pytest.raises(NoConvergence):
            dl.solve(system)
        assert len(splu_calls) == 1

    def test_singular_matrix_leaves_no_entry(self, splu_calls):
        # a Picard sweep matrix with every edge weight zero is singular; the
        # inflow keeps its load nonzero, so the solve reaches the factorization
        mesh = make_rectangle_mesh(1.0, 1.0, 7, 5)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.5, "top": 0.0, "bottom": 0.0})
        system = dl.assemble(mesh, 2.5 * identity_mobility(mesh), bcs)
        dl.solve(system)
        scaling = dl._edge_scaling(system)
        sweep = scaling.system(system, np.zeros(scaling.edges[0].size))
        with pytest.raises(NoConvergence):
            dl.solve(sweep)
        assert dl._entry is None
        result = dl.solve(system)
        assert len(splu_calls) == 3
        exact = 1.0 + 0.2 * (1.0 - mesh.nodes[:, 0])  # v = (0.5, 0) = -2.5 grad p
        assert np.max(np.abs(result.field.values - exact)) < 1e-10

    def test_zero_weight_sweep_after_cg_start_raises_without_warning(self, splu_calls):
        # with a solution held the sweep reaches CG first; its zero diagonal
        # gives a ratio that is not finite, so CG gives up without dividing
        # into a warning, and the factorization fails as before
        mesh = make_rectangle_mesh(1.0, 1.0, 7, 5)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.5, "top": 0.0, "bottom": 0.0})
        system = dl.assemble(mesh, 3.5 * identity_mobility(mesh), bcs)
        scaling = dl._edge_scaling(system)
        dl.solve(system)
        assert scaling.x is not None
        sweep = scaling.system(system, np.zeros(scaling.edges[0].size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence):
                dl.solve(sweep)
        assert dl._entry is None
        assert len(splu_calls) == 2

    def test_picard_after_transformed_factors_later_sweeps_only(self, splu_calls):
        # from p = p0 the first sweep is the transformed system: its factor
        # is reused, and the later sweeps run CG preconditioned by that
        # factor rescaled to each sweep's diagonal; CG solves every one of
        # them here, so Picard factors nothing and the factor stays held
        fluid = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
        mesh = make_rectangle_mesh(10.0, 3.0, 16, 4)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.063, "top": 0.0, "bottom": 0.0})
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert len(splu_calls) == 1
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.iterations >= 3
        assert len(splu_calls) == 1
        assert dl._entry.lu is not None

    @pytest.mark.parametrize("r, sweeps", [(0.26, 9), (0.63, 13), (0.95, 20)])
    def test_benchmark_strip_keeps_transformed_factor(self, r, sweeps, splu_calls):
        # the 80 x 24 strip at v0 = r v*: the factor of the transformed solve
        # preconditions every Picard sweep, so neither Picard nor the
        # transformed solve after it factors
        fluid = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
        mesh = make_rectangle_mesh(10.0, 3.0, 80, 24)
        K = PermeabilityField.isotropic(mesh, 1.0)
        v_star = fluid.p0 / (fluid.mu0 * 10.0 * fluid.beta)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -r * v_star, "top": 0.0, "bottom": 0.0})
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert len(splu_calls) == 1
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.converged and report.iterations == sweeps
        assert len(splu_calls) == 1
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert len(splu_calls) == 1

    def test_sweep_factor_rescaled_by_its_own_diagonal(self, splu_calls):
        # at xi = 0.3 y the first sweep is factored; the later sweeps are
        # close to that sweep matrix rescaled, so CG stalls on few of them
        # (rescaled by the A_red diagonal instead, every sweep factors)
        xi = BodyForcePotential(lambda x, y: 0.3 * y)
        mesh, fluid, K, bcs = self.picard_strip(0.09)
        report = bd.picard_solve(mesh, fluid, xi, K, bcs)
        assert report.converged and report.iterations == 22
        # the first sweep and two stalls
        assert len(splu_calls) <= 4

    @staticmethod
    def picard_strip(v0=0.063):
        mesh = make_rectangle_mesh(10.0, 3.0, 16, 4)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -v0, "top": 0.0, "bottom": 0.0})
        return mesh, FluidModel(mu0=1.0, beta=1.0, p0=1.0), PermeabilityField.isotropic(mesh, 1.0), bcs

    @staticmethod
    def live_factors():
        """Factors held by the entry or reachable from the locals of the
        poroflow frames on the stack (directly, as a bound solve or from a
        closure), counted once each."""
        held = dl._entry
        found = {id(held.lu): held.lu} if held.lu is not None else {}
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_globals.get("__name__", "").startswith("poroflow"):
                for value in list(frame.f_locals.values()):
                    cells = getattr(value, "__closure__", None) or ()
                    for obj in (value, getattr(value, "__self__", None), *(c.cell_contents for c in cells)):
                        if isinstance(obj, dl.spla.SuperLU):
                            found[id(obj)] = obj
            frame = frame.f_back
        return len(found)

    def test_without_cg_every_later_sweep_factors(self, monkeypatch, splu_calls):
        monkeypatch.setattr(dl, "_PCG_MAX", 0)
        mesh, fluid, K, bcs = self.picard_strip()
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.converged and report.iterations >= 3
        assert len(splu_calls) == 1 + report.iterations - 1
        assert report.linear_iterations == 0

    def sweep_slot_use(self, monkeypatch, y_coef):
        """Whether the slot holds a sweep factor after each sweep of a Picard
        solve, which is checked for one factor at most: the held factor is
        dropped, and no reference to it is left in the solver's frames,
        before a new one is made; after every sweep the entry holds one."""
        xi = BodyForcePotential(lambda x, y: y_coef * y) if y_coef else ZERO_XI
        held_at_factor, held_after, sweep_slot_used = [], [], []
        splu, solve = dl.spla.splu, dl.solve

        def factoring(*args, **kwargs):
            held_at_factor.append(self.live_factors())
            return splu(*args, **kwargs)

        def solving(system):
            result = solve(system)
            held_after.append(dl._entry.lu is not None)
            sweep_slot_used.append(dl._entry.lu_diagonal is not None)
            return result

        monkeypatch.setattr(dl.spla, "splu", factoring)
        monkeypatch.setattr(dl, "solve", solving)
        mesh, fluid, K, bcs = self.picard_strip(0.09)
        report = bd.picard_solve(mesh, fluid, xi, K, bcs)
        assert report.converged and len(held_after) == report.iterations
        assert held_at_factor and set(held_at_factor) == {0}
        assert all(held_after)
        return sweep_slot_used

    @pytest.mark.parametrize("y_coef", [0.0, 0.3])
    def test_one_factor_at_most(self, monkeypatch, y_coef):
        # at xi = 0 CG solves every later sweep on the A_red factor; at
        # xi = 0.3 y the first sweep has no solution to start CG from and
        # is factored
        assert any(self.sweep_slot_use(monkeypatch, y_coef)) == bool(y_coef)

    def test_one_factor_at_most_when_cg_stalls(self, monkeypatch):
        # one CG iteration is too few: later sweeps are factored
        monkeypatch.setattr(dl, "_PCG_MAX", 1)
        assert any(self.sweep_slot_use(monkeypatch, 0.0))

    def test_cold_picard_factors_no_held_matrix(self, splu_calls):
        # at xi = 0.3 y on a fresh strip: the first sweep, which has no
        # solution to start CG from, and one stall; A_red is never factored
        xi = BodyForcePotential(lambda x, y: 0.3 * y)
        mesh, fluid, K, bcs = self.picard_strip()
        report = bd.picard_solve(mesh, fluid, xi, K, bcs)
        assert report.converged and report.iterations == 13
        assert len(splu_calls) == 2

    def test_transformed_after_picard_drops_sweep_factor(self, monkeypatch):
        xi = BodyForcePotential(lambda x, y: 0.3 * y)
        mesh, fluid, K, bcs = self.picard_strip()
        bd.picard_solve(mesh, fluid, xi, K, bcs)
        assert dl._entry.lu is not None and dl._entry.lu_diagonal is not None
        held_at_factor = []
        splu = dl.spla.splu

        def factoring(*args, **kwargs):
            held_at_factor.append(self.live_factors())
            return splu(*args, **kwargs)

        monkeypatch.setattr(dl.spla, "splu", factoring)
        dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        assert held_at_factor == [0]
        assert dl._entry.lu is not None and dl._entry.lu_diagonal is None

    def test_warm_transformed_solve_compares_no_matrix(self, table1_fluid, splu_calls):
        # the solve gets the held A_red itself, found by identity, and a
        # workload that never changes the matrix makes no sweep machinery
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 20, 6)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        for p_inj in (10.0, 300.0):
            bcs = BoundarySpec(
                pressure={"inlet": p_inj * table1_fluid.p0, "well": table1_fluid.p0},
                velocity={"wall": 0.0},
            )
            dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        assert len(splu_calls) == 1
        assert dl._entry.scaling is None and dl._entry.lu_diagonal is None


class TestSystemReuse:
    """assemble holds the last system it built, keyed on the mesh object,
    the mobility bits and the Dirichlet node set. Each test builds its own
    meshes, so no entry left by another test can match."""

    @staticmethod
    def mesh():
        return make_rectangle_mesh(2.0, 1.0, 9, 5)

    @staticmethod
    def mobility(mesh):
        rng = np.random.default_rng(11)
        mob = identity_mobility(mesh) * rng.uniform(0.5, 2.0, (mesh.n_triangles, 1, 1))
        mob[:, 0, 1] = mob[:, 1, 0] = 0.1
        return mob

    @staticmethod
    def data(p_left=1.0, p_right=0.0, inflow=-0.3):
        return BoundarySpec(
            pressure={"left": p_left, "right": p_right},
            velocity={"top": lambda x, y: inflow * x, "bottom": 0.0},
        )

    @staticmethod
    def assert_same_system(got, ref):
        def same(a, b):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        for a, b in ((got.raw_matrix, ref.raw_matrix), (got.A_red, ref.A_red)):
            for name in ("indptr", "indices", "data"):
                same(getattr(a, name), getattr(b, name))
        for name in ("raw_rhs", "lift", "free", "b_red"):
            same(getattr(got, name), getattr(ref, name))

    def test_hit_equals_cold_assembly(self, kernel_calls):
        mesh = self.mesh()
        mob = self.mobility(mesh)
        dl.assemble(mesh, mob, self.data())
        assert len(kernel_calls) == 1
        # other data on the same Dirichlet nodes, a mobility array with the same bits
        hit = dl.assemble(mesh, mob.copy(), self.data(2.5, -1.0, 0.7))
        assert len(kernel_calls) == 1
        cold = dl.assemble(self.mesh(), mob, self.data(2.5, -1.0, 0.7))
        assert len(kernel_calls) == 2
        self.assert_same_system(hit, cold)

    @pytest.mark.parametrize("change", ["one_ulp", "negative_zero"])
    def test_other_mobility_bits_miss(self, change, kernel_calls):
        mesh = self.mesh()
        mob = self.mobility(mesh)
        dl.assemble(mesh, mob, self.data())
        other = mob.copy()
        if change == "one_ulp":
            other[3, 0, 0] = np.nextafter(other[3, 0, 0], np.inf)
        else:
            other[3, 0, 1] = other[3, 1, 0] = 0.0
            mob[3, 0, 1] = mob[3, 1, 0] = -0.0  # equal values, other bits
            dl.assemble(mesh, mob, self.data())
        got = dl.assemble(mesh, other, self.data())
        cold = dl.assemble(self.mesh(), other, self.data())
        assert len(kernel_calls) == (3 if change == "one_ulp" else 4)
        self.assert_same_system(got, cold)

    def test_other_dirichlet_nodes_miss(self, kernel_calls):
        mesh = self.mesh()
        mob = self.mobility(mesh)
        dl.assemble(mesh, mob, self.data())
        bcs = BoundarySpec(pressure={"left": 1.0}, velocity={"right": 0.2, "top": 0.0, "bottom": 0.0})
        got = dl.assemble(mesh, mob, bcs)
        cold = dl.assemble(self.mesh(), mob, bcs)
        assert len(kernel_calls) == 3
        self.assert_same_system(got, cold)

    def test_changes_in_place_do_not_leak(self, kernel_calls):
        # the held matrices are read-only; the other arrays are the caller's
        mesh = self.mesh()
        mob = self.mobility(mesh)
        first = dl.assemble(mesh, mob, self.data())
        for matrix in (first.raw_matrix, first.A_red):
            for name in ("data", "indices", "indptr"):
                with pytest.raises(ValueError):
                    getattr(matrix, name)[:] = 0
        with pytest.raises(ValueError):
            first.raw_matrix.data *= 2.0
        first.free[:] = 0
        first.lift[:] = 7.0
        again = dl.assemble(mesh, mob, self.data())
        assert len(kernel_calls) == 1
        self.assert_same_system(again, dl.assemble(self.mesh(), mob, self.data()))
        # the caller's mobility array, changed in place, is another mobility
        mob *= 3.0
        scaled = dl.assemble(mesh, mob, self.data())
        self.assert_same_system(scaled, dl.assemble(self.mesh(), mob, self.data()))
        assert len(kernel_calls) == 4

    def test_entry_released_with_mesh(self):
        mesh = self.mesh()
        system = dl.assemble(mesh, self.mobility(mesh), self.data())
        assert dl._entry is not None
        del mesh, system
        gc.collect()
        assert dl._entry is None

    def test_non_spd_mobility_never_held(self, kernel_calls):
        mesh = self.mesh()
        mob = self.mobility(mesh)
        dl.assemble(mesh, mob, self.data())
        entry = dl._entry
        bad = mob.copy()
        bad[0] = [[1.0, 2.0], [2.0, 1.0]]  # indefinite
        for _ in range(2):
            with pytest.raises(SingularMobility):
                dl.assemble(mesh, bad, self.data())
        assert dl._entry is entry
        dl.assemble(mesh, mob, self.data())
        assert len(kernel_calls) == 1

    def test_reservoir_op_runs_kernel_and_factorization_once(
        self, table1_fluid, kernel_calls, splu_calls
    ):
        # the benchmark's reservoir op: a solve, the flux system with the
        # Hopf-Cole data, then the next solve in the sweep
        fluid = table1_fluid
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1e-12)

        def bcs(p_inj):
            return BoundarySpec(pressure={"inlet": p_inj, "well": fluid.p0}, velocity={"wall": 0.0})

        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs(10.0 * fluid.p0))
        mobility = dl.mobility_tensors(mesh, fluid, ZERO_XI, K)
        dl.assemble(mesh, mobility, dl.transform_bcs(bcs(10.0 * fluid.p0), fluid, ZERO_XI))
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs(300.0 * fluid.p0))
        assert len(kernel_calls) == 1
        assert len(splu_calls) == 1


class TestRecoverVelocity:
    @staticmethod
    def velocity(P, mobility):
        """The velocity of P through the flux operator of a system assembled
        with mobility."""
        return dl.recover_velocity(P, dl.assemble(P.mesh, mobility, lr_dirichlet(1.0, 0.0)))

    def test_linear_field(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        P = ScalarField.from_function(mesh, lambda x, y: x)
        v = self.velocity(P, identity_mobility(mesh))
        assert np.allclose(v.values, [-1.0, 0.0], atol=1e-13)

    def test_constant_field(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        v = self.velocity(ScalarField.constant(mesh, 3.0), identity_mobility(mesh))
        assert np.allclose(v.values, 0.0, atol=1e-13)

    def test_anisotropic_mobility(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        P = ScalarField.from_function(mesh, lambda x, y: x)
        mob = np.broadcast_to(np.diag([2.0, 1.0]), (mesh.n_triangles, 2, 2)).copy()
        v = self.velocity(P, mob)
        assert np.allclose(v.values, [-2.0, 0.0], atol=1e-13)

    def test_flux_operator_read_only(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(1.0, 0.0))
        for matrix in system.flux_operator:
            for array in (matrix.data, matrix.indices, matrix.indptr):
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_warm_solve_builds_no_gradients(self, table1_fluid, kernel_calls):
        # the velocity of a warm solve, and of a Picard solve on the held
        # system, comes from the held flux operator
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1e-12)

        def bcs(p_inj):
            return BoundarySpec(pressure={"inlet": p_inj, "well": table1_fluid.p0}, velocity={"wall": 0.0})

        dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs(10.0 * table1_fluid.p0))
        assert len(kernel_calls) == 1
        dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs(300.0 * table1_fluid.p0))
        bd.picard_solve(mesh, table1_fluid, ZERO_XI, K, bcs(3.0 * table1_fluid.p0))
        assert len(kernel_calls) == 1


def held_entry_bytes():
    """Bytes of the held entry's arrays, each memory block counted once;
    the SuperLU factor is not counted."""
    arrays = []
    for field in dataclasses.fields(dl._entry):
        value = getattr(dl._entry, field.name)
        matrices = value if isinstance(value, tuple) else (value,)
        for m in matrices:
            if isinstance(m, np.ndarray):
                arrays.append(m)
            elif hasattr(m, "indptr"):
                arrays += [m.data, m.indices, m.indptr]
    blocks = {(a.__array_interface__["data"][0], a.nbytes) for a in arrays}
    return sum(nbytes for _, nbytes in blocks)


class TestHeldEntryBytes:
    # The entry of the 80x24 reservoir (3,840 triangles) when it held the P1
    # gradients in place of the flux operator: mobility, free nodes, the raw
    # and reduced matrices and the (n_tri, 3, 2) gradients.
    GRADIENT_ENTRY_BYTES = 567_584

    def test_flux_operator_costs_at_most_16_bytes_per_triangle(self, table1_fluid):
        # the operator's values replace the gradients byte for byte; its
        # int32 column indices (12 bytes per triangle) and row pointers (4,
        # and one closing entry) are shared by Vx and Vy
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 80, 24)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"inlet": 10.0 * table1_fluid.p0, "well": table1_fluid.p0}, velocity={"wall": 0.0}
        )
        dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        assert mesh.n_triangles == 3840
        assert dl._entry.lu is not None and dl._entry.scaling is None
        assert held_entry_bytes() <= self.GRADIENT_ENTRY_BYTES + 16 * mesh.n_triangles + 4


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
        v = dl.recover_velocity(result.field, system)
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
    def test_fine_strip_meets_residual_bound(self, unit_fluid):
        # the relative residual of the LU solution, 1.45e-12 here, grows with
        # the condition number; its backward error stays near eps
        mesh = make_rectangle_mesh(10.0, 3.0, 320, 96)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.01, "top": 0.0, "bottom": 0.0})
        report = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, bcs)
        assert report.residual <= 1e-12

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
        exact = tr.kirchhoff_inverse(-fluid.mu0 * v0 * mesh.nodes[:, 0] / k, fluid, fluid.p0)
        assert np.max(np.abs(report.p.values - exact)) < 1e-12
        # Picard grounds the same member, with and without a potential
        # (3.8e-12 and 4.1e-12 apart at its update tolerance of 1e-10)
        for xi in (ZERO_XI, BodyForcePotential(lambda x, y: 0.3 * y)):
            transformed = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
            picard = bd.picard_solve(mesh, fluid, xi, K, bcs)
            assert np.max(np.abs(picard.p.values - transformed.p.values)) < 1e-11

    def test_pure_velocity_mirrored_grounded_at_its_maximum(self):
        # inflow on the right: the pressure peaks there, and both paths
        # return the member whose largest p + xi is p0, where the linear
        # Kirchhoff variable mu0*v0*(x - 1)/k is zero (with node 0 at p0,
        # it would reach 1.5, beyond the ceiling of 1)
        fluid = FluidModel(1.0, 1.0, 1.0)
        k, v0 = 1.0, 1.5
        mesh = make_rectangle_mesh(1.0, 0.2, 8, 2)
        K = PermeabilityField.isotropic(mesh, k)
        bcs = BoundarySpec(
            pressure={}, velocity={"left": v0, "right": -v0, "top": 0.0, "bottom": 0.0}
        )
        x = mesh.nodes[:, 0]
        exact = tr.kirchhoff_inverse(fluid.mu0 * v0 * (x - 1.0) / k, fluid, fluid.p0)
        report = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert np.max(np.abs(report.p.values - exact)) < 1e-12
        # 4.8e-12 and 4.6e-12 apart at Picard's update tolerance of 1e-10
        for xi in (ZERO_XI, BodyForcePotential(lambda x, y: 0.3 * y)):
            transformed = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
            picard = bd.picard_solve(mesh, fluid, xi, K, bcs)
            assert (transformed.p.values + xi.at_points(mesh.nodes)).max() == fluid.p0
            assert np.max(np.abs(picard.p.values - transformed.p.values)) < 1e-11


class TestNonFiniteData:
    """A NaN or infinite boundary datum is rejected with the label it sits
    on, before it reaches the sparse factorization."""

    @pytest.mark.parametrize(
        "label,pressure,velocity",
        [
            ("inlet", {"inlet": lambda x, y: np.where(y > 1.0, np.nan, 2.0), "well": 1.0},
             {"wall": 0.0}),
            ("wall", {"inlet": 2.0, "well": 1.0}, {"wall": np.nan}),
            ("wall", {"inlet": 2.0, "well": 1.0},
             {"wall": lambda x, y: np.where(x > 5.0, np.inf, 0.0)}),
        ],
        ids=["nan-pressure", "nan-velocity", "inf-velocity"],
    )
    @pytest.mark.parametrize("solver", [dl.solve_transformed_bvp, bd.picard_solve],
                             ids=["transformed", "picard"])
    def test_rejected_with_label(self, solver, label, pressure, velocity):
        mesh = make_reservoir_mesh(10.0, 3.0, 1.0, 10, 3)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(pressure=pressure, velocity=velocity)
        fluid = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
        with pytest.raises(NonFiniteData, match=repr(label)):
            solver(mesh, fluid, ZERO_XI, K, bcs)
