"""Linear P1 kernel: assembly, direct solve, velocity recovery,
consistent boundary fluxes, and the three-step transformed solution path."""

import dataclasses
import gc
import sys
import types
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

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
from poroflow import geometry
from poroflow import oned_analytic as o1
from poroflow import transform as tr
from poroflow import verification as vf

import _oracles
from test_verification import corner_layouts

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

    @pytest.mark.parametrize("shape", [(8, 2), (7, 2, 2), (8, 3, 3)])
    def test_mobility_of_the_wrong_shape_rejected(self, shape):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)  # 8 triangles
        with pytest.raises(ValueError, match="one 2x2 mobility tensor per triangle"):
            dl.assemble(mesh, np.ones(shape), lr_dirichlet(0.0, 1.0))

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
        # the direct solve's backward error cannot meet a limit below eps
        mesh = make_rectangle_mesh(1.0, 1.0, 20, 20)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        monkeypatch.setattr(dl, "_OMEGA_MAX", 1e-18)
        with pytest.raises(NoConvergence):
            dl.solve(system)

    def test_direct_and_cg_agree(self, table1_fluid):
        # the transformed reservoir system, solved by its factor (banded
        # Cholesky at 40x12) and by reference CG
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"inlet": 10 * table1_fluid.p0, "well": table1_fluid.p0},
            velocity={"wall": 0.0},
        )
        kbcs = BoundarySpec(
            pressure={
                label: tr.kirchhoff_forward(p, table1_fluid, table1_fluid.p0)
                for label, p in bcs.pressure.items()
            },
            velocity=bcs.velocity,
        )
        mobility = dl.mobility_tensors(mesh, table1_fluid, ZERO_XI, K)
        system = dl.assemble(mesh, mobility, kbcs)
        result = dl.solve(system)
        assert result.iterations == 0
        direct = result.field.values[system.is_free]
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


def reduced_sweep(system, weights):
    """(A_red, b_red) of the Picard sweep of system with weights, reduced by
    scipy from the scaled stiffness built in _oracles, b_red = (raw_rhs -
    raw @ lift)[free]."""
    raw = _oracles.scaled_stiffness(system.raw_matrix, dl._edge_scaling(system).edges, weights)
    free = system.is_free
    return raw[free][:, free], (system.raw_rhs - raw @ system.lift)[free]


class TestFactorReuse:
    """solve keeps the factor of the last reduced matrix while its mesh
    lives. Each test draws its own mobility scale, so no entry left by
    another test can match its matrix."""

    @staticmethod
    def strip_system(scale, nx=7):
        mesh = make_rectangle_mesh(1.0, 1.0, nx, 5)
        return mesh, dl.assemble(mesh, scale * identity_mobility(mesh), lr_dirichlet(0.0, 1.0))

    def test_second_solve_reuses_factor_bitwise(self, factor_calls):
        mesh, system = self.strip_system(1.25)
        first = dl.solve(system).field.values
        again = dl.solve(system).field.values
        assert len(factor_calls) == 1
        _, other = self.strip_system(1.25, nx=6)
        dl.solve(other)  # another matrix replaces the entry
        fresh = dl.solve(system).field.values
        assert len(factor_calls) == 3
        assert np.array_equal(again, fresh) and np.array_equal(first, fresh)
        assert np.max(np.abs(fresh - mesh.nodes[:, 0])) < 1e-10

    def test_values_changed_in_place_refactor(self, factor_calls):
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
        assert len(factor_calls) == 2
        assert dl._entry is None
        x = result.field.values[system.is_free]
        assert np.max(np.abs(d * x - mesh.nodes[system.is_free, 0])) < 1e-10
        assert result.residual <= 1e-12

    def test_unstarted_sweep_factored_into_the_one_slot(self, monkeypatch):
        # a sweep matrix has A_red's pattern and other values; with no held
        # solution to start CG from it is factored once, by the kind of
        # factor A_red gets, and its factor and diagonal take the slot of the
        # A_red factor, which a later solve of A_red then refactors
        kinds = []
        factor = dl._factor

        def recording(*args):
            lu = factor(*args)
            kinds.append(type(lu))
            return lu

        monkeypatch.setattr(dl, "_factor", recording)
        mesh, system = self.strip_system(2.75)
        dl.solve(system)
        weights = np.linspace(0.5, 2.0, dl._edge_scaling(system).edges[0].size)
        result = dl._solve_sweep(system, weights, None)
        assert kinds == [dl._BandFactor, dl._BandFactor]
        assert result.iterations == 0
        A, b = reduced_sweep(system, weights)
        assert np.array_equal(dl._entry.lu_diagonal, A.diagonal())
        x = result.field.values[system.is_free]
        expected = dl.spla.spsolve(A.tocsc(), b)
        assert np.max(np.abs(x - expected)) < 1e-10
        assert result.residual <= 1e-12
        again = dl.solve(system)
        assert kinds == [dl._BandFactor] * 3 and dl._entry.lu_diagonal is None
        assert np.max(np.abs(again.field.values - mesh.nodes[:, 0])) < 1e-10

    def test_entry_released_with_mesh(self, factor_calls):
        mesh, system = self.strip_system(1.75)
        result = dl.solve(system)
        del mesh, system, result
        gc.collect()
        assert dl._entry is None
        # the same matrix on a new mesh finds nothing to reuse
        _, system = self.strip_system(1.75)
        dl.solve(system)
        assert len(factor_calls) == 2

    def test_residual_checked_on_reuse(self, factor_calls, monkeypatch):
        _, system = self.strip_system(2.25)
        dl.solve(system)
        monkeypatch.setattr(dl, "_OMEGA_MAX", 1e-18)
        with pytest.raises(NoConvergence):
            dl.solve(system)
        assert len(factor_calls) == 1

    def test_singular_matrix_leaves_no_entry(self, factor_calls):
        # a Picard sweep matrix with every edge weight zero is singular; the
        # inflow keeps its load nonzero, so the solve reaches the factorization
        mesh = make_rectangle_mesh(1.0, 1.0, 7, 5)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.5, "top": 0.0, "bottom": 0.0})
        system = dl.assemble(mesh, 2.5 * identity_mobility(mesh), bcs)
        dl.solve(system)
        with pytest.raises(NoConvergence):
            dl._solve_sweep(system, np.zeros(dl._edge_scaling(system).edges[0].size), None)
        assert dl._entry is None
        result = dl.solve(system)
        assert len(factor_calls) == 3
        exact = 1.0 + 0.2 * (1.0 - mesh.nodes[:, 0])  # v = (0.5, 0) = -2.5 grad p
        assert np.max(np.abs(result.field.values - exact)) < 1e-10

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    def test_sweep_system_reduces_the_scaled_stiffness(self, pattern):
        # the A_red, b_red and diagonal a sweep refills, and the A_red and
        # b_red of the system it scales, are bitwise a fresh reduction of
        # their raw matrix, (raw_rhs - raw @ lift)[free] for b_red; the
        # sweep's raw matrix is built in the test (_oracles.scaled_stiffness)
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7, pattern)
        bcs = BoundarySpec(
            pressure={"left": lambda x, y: 2.0 + y, "top": -1.5}, velocity={"bottom": -0.2, "right": 0.3}
        )
        system = dl.assemble(mesh, 4.5 * identity_mobility(mesh), bcs)
        scaling = dl._edge_scaling(system)
        weights = np.linspace(0.5, 2.0, scaling.edges[0].size)
        _, b_red, diagonal = scaling.refill(system, weights)
        assert not np.array_equal(scaling.A_red.data, system.A_red.data)
        free = system.is_free
        raw = system.raw_matrix
        want = (raw[free][:, free], (system.raw_rhs - raw @ system.lift)[free])
        want_sweep = reduced_sweep(system, weights)
        for (A, b), (want_A, want_b) in (
            ((system.A_red, system.b_red), want),
            ((scaling.A_red, b_red), want_sweep),
        ):
            for a in ("indptr", "indices", "data"):
                assert getattr(A, a).tobytes() == getattr(want_A, a).tobytes()
            assert b.tobytes() == want_b.tobytes()
        assert diagonal.tobytes() == want_sweep[0].diagonal().tobytes()

    def test_zero_weight_sweep_after_cg_start_raises_without_warning(self, factor_calls):
        # with a start the sweep reaches CG first; its zero diagonal gives a
        # ratio that is not finite, so CG gives up without dividing into a
        # warning, and the factorization fails as before
        mesh = make_rectangle_mesh(1.0, 1.0, 7, 5)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.5, "top": 0.0, "bottom": 0.0})
        system = dl.assemble(mesh, 3.5 * identity_mobility(mesh), bcs)
        start = dl.solve(system).reduced
        weights = np.zeros(dl._edge_scaling(system).edges[0].size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence):
                dl._solve_sweep(system, weights, start)
        assert dl._entry is None
        assert len(factor_calls) == 2

    def test_picard_after_transformed_factors_later_sweeps_only(self, factor_calls):
        # from p = p0 the first sweep is the transformed system: its factor
        # is reused, and the later sweeps run CG preconditioned by that
        # factor rescaled to each sweep's diagonal; CG solves every one of
        # them here, so Picard factors nothing and the factor stays held
        fluid = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
        mesh = make_rectangle_mesh(10.0, 3.0, 16, 4)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.063, "top": 0.0, "bottom": 0.0})
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert len(factor_calls) == 1
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.iterations >= 3
        assert len(factor_calls) == 1
        assert dl._entry.lu is not None

    def test_picard_leaves_no_vector_on_the_entry(self, monkeypatch):
        # each sweep call is passed its CG start: once picard_solve returns,
        # no array reachable from the held entry is a start, weight,
        # solution, residual or right-hand side of the call
        fluid = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
        mesh = make_rectangle_mesh(10.0, 3.0, 16, 4)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.063, "top": 0.0, "bottom": 0.0})
        vectors, starts = [], []
        solve, solve_sweep, refill = dl.solve, dl._solve_sweep, dl._EdgeScaling.refill

        def results(result):
            vectors.extend([result.reduced, result._r, result.field.values])
            return result

        def sweeping(base, weights, start):
            starts.append(start)
            vectors.extend([weights, start])
            return results(solve_sweep(base, weights, start))

        def refilling(scaling, base, weights):
            A, b_red, diagonal = refill(scaling, base, weights)
            vectors.append(b_red)
            return A, b_red, diagonal

        monkeypatch.setattr(dl, "solve", lambda system: results(solve(system)))
        monkeypatch.setattr(dl, "_solve_sweep", sweeping)
        monkeypatch.setattr(dl._EdgeScaling, "refill", refilling)
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.iterations >= 3 and dl._entry.scaling is not None
        assert len(starts) == report.iterations - 1 and all(v is not None for v in starts)
        held = reachable_arrays(dl._entry)
        assert any(a is dl._entry.scaling.A_red.data for a in held)
        for v in vectors:
            assert not any(np.shares_memory(v, a) for a in held)

    @pytest.mark.parametrize("r, sweeps", [(0.26, 9), (0.63, 13), (0.95, 20)])
    def test_benchmark_strip_keeps_transformed_factor(self, r, sweeps, factor_calls):
        # the 80 x 24 strip at v0 = r v*: the factor of the transformed solve
        # preconditions every Picard sweep, so neither Picard nor the
        # transformed solve after it factors
        fluid = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
        mesh = make_rectangle_mesh(10.0, 3.0, 80, 24)
        K = PermeabilityField.isotropic(mesh, 1.0)
        v_star = fluid.p0 / (fluid.mu0 * 10.0 * fluid.beta)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -r * v_star, "top": 0.0, "bottom": 0.0})
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert len(factor_calls) == 1
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.converged and report.iterations == sweeps
        assert len(factor_calls) == 1
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert len(factor_calls) == 1

    def test_sweep_factor_rescaled_by_its_own_diagonal(self, factor_calls):
        # at xi = 0.3 y the first sweep is factored; the later sweeps are
        # close to that sweep matrix rescaled, so CG stalls on few of them
        # (rescaled by the A_red diagonal instead, every sweep factors)
        xi = BodyForcePotential(lambda x, y: 0.3 * y)
        mesh, fluid, K, bcs = self.picard_strip(0.09)
        report = bd.picard_solve(mesh, fluid, xi, K, bcs)
        assert report.converged and report.iterations == 22
        # the first sweep and two stalls
        assert len(factor_calls) <= 4

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
                        if isinstance(obj, (dl._BandFactor, dl.spla.SuperLU)):
                            found[id(obj)] = obj
            frame = frame.f_back
        return len(found)

    @pytest.mark.parametrize(
        "off, b", [(2.0, [1.0, -1.0]), (np.inf, [1.0, 1.0]), (np.nan, [1.0, 1.0])],
        ids=["negative", "infinite", "nan"],
    )
    def test_cg_gives_up_on_a_curvature_not_positive_and_finite(self, off, b):
        # a positive diagonal passes the preconditioner's test, but the first
        # step's p.Ap is -2 (an indefinite A), +inf or NaN
        A = sp.csr_matrix(np.array([[1.0, off], [off, 1.0]]))
        lu = dl._factor(sp.identity(2, format="csr"), np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2, bool))
        held = types.SimpleNamespace(lu=lu, lu_diagonal=np.ones(2))
        b = np.array(b)
        x, r, iterations = dl._pcg(held, A, b, np.linalg.norm(b), A.diagonal(), np.zeros(2))
        assert x is None and r is None and iterations == 1

    def test_without_cg_every_later_sweep_factors(self, monkeypatch, factor_calls):
        monkeypatch.setattr(dl, "_PCG_MAX", 0)
        mesh, fluid, K, bcs = self.picard_strip()
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
        assert report.converged and report.iterations >= 3
        assert len(factor_calls) == 1 + report.iterations - 1
        assert report.linear_iterations == 0

    def sweep_slot_use(self, monkeypatch, y_coef):
        """Whether the slot holds a sweep factor after each sweep of a Picard
        solve, which is checked for one factor at most: the held factor is
        dropped, and no reference to it is left in the solver's frames,
        before a new one is made; after every sweep the entry holds one."""
        xi = BodyForcePotential(lambda x, y: y_coef * y) if y_coef else ZERO_XI
        held_at_factor, held_after, sweep_slot_used = [], [], []
        factor, solve, solve_sweep = dl._factor, dl.solve, dl._solve_sweep

        def factoring(*args):
            held_at_factor.append(self.live_factors())
            return factor(*args)

        def solved(result):
            held_after.append(dl._entry.lu is not None)
            sweep_slot_used.append(dl._entry.lu_diagonal is not None)
            return result

        monkeypatch.setattr(dl, "_factor", factoring)
        monkeypatch.setattr(dl, "solve", lambda system: solved(solve(system)))
        monkeypatch.setattr(dl, "_solve_sweep", lambda *args: solved(solve_sweep(*args)))
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

    def test_cold_picard_factors_no_held_matrix(self, factor_calls):
        # at xi = 0.3 y on a fresh strip: the first sweep, which has no
        # solution to start CG from, and one stall; A_red is never factored
        xi = BodyForcePotential(lambda x, y: 0.3 * y)
        mesh, fluid, K, bcs = self.picard_strip()
        report = bd.picard_solve(mesh, fluid, xi, K, bcs)
        assert report.converged and report.iterations == 13
        assert len(factor_calls) == 2

    def test_transformed_after_picard_drops_sweep_factor(self, monkeypatch):
        xi = BodyForcePotential(lambda x, y: 0.3 * y)
        mesh, fluid, K, bcs = self.picard_strip()
        bd.picard_solve(mesh, fluid, xi, K, bcs)
        assert dl._entry.lu is not None and dl._entry.lu_diagonal is not None
        held_at_factor = []
        factor = dl._factor

        def factoring(*args):
            held_at_factor.append(self.live_factors())
            return factor(*args)

        monkeypatch.setattr(dl, "_factor", factoring)
        dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        assert held_at_factor == [0]
        assert dl._entry.lu is not None and dl._entry.lu_diagonal is None

    def test_warm_transformed_solve_compares_no_matrix(self, table1_fluid, factor_calls):
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
        assert len(factor_calls) == 1
        assert dl._entry.scaling is None and dl._entry.lu_diagonal is None


class TestFactorKind:
    """_factor gives a matrix whose half-bandwidth kd in the coordinate order
    (along the longer side) is at most _BAND_MAX a banded Cholesky factor,
    and any other matrix SuperLU's. The kind depends on the pattern and the
    node coordinates only, so a mesh gets one kind cold, warm, for a Picard
    sweep and when A_red is refactored after it."""

    RESERVOIR_BCS = BoundarySpec(pressure={"inlet": 10.0, "well": 1.0}, velocity={"wall": 0.0})
    STRIP_BCS = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.063, "top": 0.0, "bottom": 0.0})
    # name: (mesh, boundary data, permeability, kd in the coordinate order)
    CASES = {
        "reservoir_40x12": (lambda: make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12), "reservoir", "iso", 13),
        "reservoir_80x24": (lambda: make_reservoir_mesh(100.0, 30.0, 0.2, 80, 24), "reservoir", "iso", 25),
        "reservoir_160x48": (lambda: make_reservoir_mesh(100.0, 30.0, 0.2, 160, 48), "reservoir", "iso", 49),
        "reservoir_320x96": (lambda: make_reservoir_mesh(100.0, 30.0, 0.2, 320, 96), "reservoir", "iso", None),
        "reservoir_400x120": (lambda: make_reservoir_mesh(100.0, 30.0, 0.2, 400, 120), "reservoir", "iso", None),
        "strip_80x24": (lambda: make_rectangle_mesh(10.0, 3.0, 80, 24), "strip", "iso", 25),
        # an anisotropic K couples the cell corners across each side: kd = 2 ny + 1
        "crossed_80x24": (lambda: make_rectangle_mesh(10.0, 3.0, 80, 24, "crossed"), "strip", "aniso", 49),
    }

    @classmethod
    def system(cls, name):
        build, data, k, _ = cls.CASES[name]
        mesh = build()
        tensor = np.eye(2) if k == "iso" else np.array([[1.0, 0.3], [0.3, 0.5]])
        mobility = np.broadcast_to(tensor, (mesh.n_triangles, 2, 2)).copy()
        bcs = cls.RESERVOIR_BCS if data == "reservoir" else cls.STRIP_BCS
        return mesh, dl.assemble(mesh, mobility, bcs)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_kind_cold_warm_and_after_a_sweep_factor(self, name, monkeypatch):
        kd = self.CASES[name][3]
        kind = dl._BandFactor if kd is not None else dl.spla.SuperLU
        kinds = []
        factor = dl._factor

        def recording(*args):
            lu = factor(*args)
            kinds.append(type(lu))
            return lu

        monkeypatch.setattr(dl, "_factor", recording)
        mesh, system = self.system(name)
        cold = dl.solve(system)
        warm = dl.solve(system)  # the held factor
        assert warm.field.values.tobytes() == cold.field.values.tobytes()
        assert kinds == [kind] and isinstance(dl._entry.lu, kind)
        if kd is not None:
            assert dl._entry.lu.band.shape == (kd + 1, system.A_red.shape[0])
            assert cold.residual <= dl._OMEGA_MAX
        weights = np.linspace(0.5, 2.0, dl._edge_scaling(system).edges[0].size)
        dl._solve_sweep(system, weights, None)  # no start: factored into the slot
        assert kinds == [kind] * 2 and dl._entry.lu_diagonal is not None
        again = dl.solve(system)  # A_red refactored
        assert kinds == [kind] * 3 and dl._entry.lu_diagonal is None
        assert again.field.values.tobytes() == cold.field.values.tobytes()

    def test_band_solve_leaves_its_argument(self):
        _, system = self.system("strip_80x24")
        lu = dl._factor(system.A_red, system.mesh.nodes, system.is_free)
        assert isinstance(lu, dl._BandFactor)
        b = np.random.default_rng(3).standard_normal(system.A_red.shape[0])
        kept = b.copy()
        x = lu.solve(b)
        assert b.tobytes() == kept.tobytes()
        a_max = system.A_red.diagonal().max()
        omega = np.linalg.norm(b - system.A_red @ x) / (a_max * np.linalg.norm(x) + np.linalg.norm(b))
        assert omega <= dl._OMEGA_MAX

    def test_indefinite_matrix_of_the_held_pattern_raises(self):
        # a sweep matrix with edge weights of both signs is symmetric and
        # indefinite; its banded Cholesky factorization fails, which drops
        # the entry, as SuperLU's singular factor does
        mesh = make_rectangle_mesh(1.0, 1.0, 7, 5)
        system = dl.assemble(mesh, 1.25 * identity_mobility(mesh), self.STRIP_BCS)
        dl.solve(system)
        weights = np.where(np.arange(dl._edge_scaling(system).edges[0].size) % 2, 1.0, -1.0)
        eigenvalues = np.linalg.eigvalsh(reduced_sweep(system, weights)[0].toarray())
        assert eigenvalues[0] < 0.0 < eigenvalues[-1]
        with pytest.raises(NoConvergence, match="banded Cholesky"):
            dl._solve_sweep(system, weights, None)
        assert dl._entry is None

    @pytest.mark.parametrize("band_max, kind", [(10, "SuperLU"), (13, "_BandFactor")])
    def test_the_widest_row_sets_kd(self, band_max, kind, monkeypatch):
        # crossed cells with anisotropic K on all-pressure data: the middle
        # row spans 7 places of the coordinate order and the widest row 13,
        # so a _BAND_MAX between the two passes the middle row's test and
        # still sends the matrix to SuperLU
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7, "crossed")
        mobility = np.broadcast_to([[1.0, 0.3], [0.3, 0.5]], (mesh.n_triangles, 2, 2)).copy()
        bcs = BoundarySpec(pressure={label: 1.0 for label in mesh.labels}, velocity={})
        system = dl.assemble(mesh, mobility, bcs)
        monkeypatch.setattr(dl, "_BAND_MAX", band_max)
        lu = dl._factor(system.A_red, mesh.nodes, system.is_free)
        assert type(lu).__name__ == kind

    def test_singular_matrix_under_superlu_raises(self, monkeypatch):
        # a node that no triangle holds has an empty row in A_red, so SuperLU,
        # which every matrix gets once _BAND_MAX is below every kd, finds an
        # exactly singular factor: NoConvergence, and the entry is dropped
        grid = make_rectangle_mesh(1.0, 1.0, 3, 3)
        mesh = geometry.Mesh(
            nodes=np.vstack([grid.nodes, [[0.5, 0.5]]]),
            triangles=grid.triangles,
            boundary_edges=grid.boundary_edges,
            edge_labels=grid.edge_labels,
            nx=grid.nx,
            ny=grid.ny,
            extent=grid.extent,
        ).validate()
        monkeypatch.setattr(dl, "_BAND_MAX", -1)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(1.0, 0.0))
        assert dl._entry is not None
        with pytest.raises(NoConvergence, match="sparse LU factorization failed"):
            dl.solve(system)
        assert dl._entry is None


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
        for name in ("raw_rhs", "lift", "is_free", "b_red"):
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
        first.is_free[:] = False
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

    @staticmethod
    def assert_reduced_raw_load(system):
        """b_red is (raw_rhs - raw_matrix @ lift)[free], bit for bit."""
        ref = (system.raw_rhs - system.raw_matrix @ system.lift)[system.is_free]
        assert system.b_red.dtype == ref.dtype and system.b_red.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    def test_b_red_is_the_reduced_raw_load(self, pattern):
        # pressure segments that meet at a corner, on a miss and on a hit
        mesh = make_rectangle_mesh(1.0, 1.0, 8, 8, pattern)
        mob = self.mobility(mesh)
        for bcs in corner_layouts():
            self.assert_reduced_raw_load(dl.assemble(mesh, mob, bcs))
        # pure-velocity data, grounded at node 0
        pure = BoundarySpec(
            pressure={}, velocity={"left": 0.4, "right": -0.4, "top": 0.0, "bottom": 0.0}
        )
        self.assert_reduced_raw_load(dl.assemble(mesh, mob, pure))

    @pytest.mark.parametrize("data", ["pressure", "pure_velocity"])
    def test_sweep_b_red_is_the_reduced_raw_load(self, data, unit_fluid):
        mesh = make_rectangle_mesh(10.0, 3.0, 8, 3, "crossed")
        K = PermeabilityField.uniform_tensor(mesh, 1.0, 0.3, 0.5)
        xi = BodyForcePotential(lambda x, y: 0.3 * y)
        if data == "pressure":
            bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.05, "top": 0.0, "bottom": 0.0})
        else:
            bcs = BoundarySpec(
                pressure={}, velocity={"left": 0.05, "right": -0.05, "top": 0.0, "bottom": 0.0}
            )
        _, _, base = bd._base_system(mesh, unit_fluid, xi, K, bcs)
        ptilde = 1.0 + 0.05 * mesh.nodes[:, 0] + 0.3 * mesh.nodes[:, 1]
        weights = bd._weights(base, ptilde, unit_fluid)
        assert weights is not None
        _, b_red, _ = dl._edge_scaling(base).refill(base, weights)
        ref = reduced_sweep(base, weights)[1]
        assert b_red.dtype == ref.dtype and b_red.tobytes() == ref.tobytes()

    def test_reservoir_op_runs_kernel_and_factorization_once(
        self, table1_fluid, kernel_calls, factor_calls
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
        assert len(factor_calls) == 1


class TestSharedMobility:
    """mobility_tensors keeps one read-only K/mu0 at xi = 0, and assemble
    recognises that array without comparing its bits."""

    @staticmethod
    def mobility_bits_compared(monkeypatch):
        """Shapes of the mobility arrays _same_bits compares."""
        calls = []
        same_bits = dl._same_bits

        def spy(a, b):
            if a.ndim == 3:
                calls.append(a.shape)
            return same_bits(a, b)

        monkeypatch.setattr(dl, "_same_bits", spy)
        return calls

    def test_zero_potential_mobility_is_one_read_only_array(self):
        mesh = make_rectangle_mesh(2.0, 1.0, 6, 3)
        K = PermeabilityField.uniform_tensor(mesh, 2.0, 0.3, 1.0)
        fluid = FluidModel(mu0=0.7, beta=1.0, p0=1.0)
        first = dl.mobility_tensors(mesh, fluid, ZERO_XI, K)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0
        assert dl.mobility_tensors(mesh, fluid, ZERO_XI, K) is first
        assert first.tobytes() == (K.tensors / fluid.mu0).tobytes()
        # another K of the same values, then another mu0: new arrays
        other_K = PermeabilityField.uniform_tensor(mesh, 2.0, 0.3, 1.0)
        again = dl.mobility_tensors(mesh, fluid, ZERO_XI, other_K)
        assert again is not first and again.tobytes() == first.tobytes()
        other_mu0 = FluidModel(mu0=0.9, beta=1.0, p0=1.0)
        scaled = dl.mobility_tensors(mesh, other_mu0, ZERO_XI, other_K)
        assert scaled is not again and not scaled.flags.writeable
        assert scaled.tobytes() == (K.tensors / 0.9).tobytes()
        # a nonzero potential: a new array of the caller's each time
        xi = BodyForcePotential(lambda x, y: 0.1 * y)
        a, b = (dl.mobility_tensors(mesh, fluid, xi, K) for _ in range(2))
        assert a is not b and a.flags.writeable

    def test_mobility_freed_with_permeability(self):
        mesh = make_rectangle_mesh(2.0, 1.0, 6, 3)
        K = PermeabilityField.isotropic(mesh, 1.0)
        dl.mobility_tensors(mesh, FluidModel(1.0, 1.0, 1.0), ZERO_XI, K)
        assert dl._mobility is not None
        del K
        gc.collect()
        assert dl._mobility is None

    def test_permeability_keeps_its_own_read_only_copy(self):
        mesh = make_rectangle_mesh(2.0, 1.0, 6, 3)
        tensors = identity_mobility(mesh) * 2.0
        K = PermeabilityField(tensors, k1=2.0, k2=2.0)
        assert tensors.flags.writeable
        assert not np.shares_memory(K.tensors, tensors)
        assert not K.tensors.flags.writeable
        tensors *= 3.0
        assert np.all(K.tensors == identity_mobility(mesh) * 2.0)

    def test_identity_hit_compares_no_mobility_bits(self, monkeypatch, kernel_calls):
        compared = self.mobility_bits_compared(monkeypatch)
        mesh = TestSystemReuse.mesh()
        K = PermeabilityField.uniform_tensor(mesh, 1.5, 0.2, 0.8)
        fluid = FluidModel(mu0=0.7, beta=1.0, p0=1.0)
        data = TestSystemReuse.data
        dl.assemble(mesh, dl.mobility_tensors(mesh, fluid, ZERO_XI, K), data())
        assert dl._entry.mobility is dl.mobility_tensors(mesh, fluid, ZERO_XI, K)
        hit = dl.assemble(mesh, dl.mobility_tensors(mesh, fluid, ZERO_XI, K), data(2.5, -1.0, 0.7))
        assert len(kernel_calls) == 1 and compared == []
        cold = dl.assemble(
            TestSystemReuse.mesh(), K.tensors / fluid.mu0, data(2.5, -1.0, 0.7)
        )
        TestSystemReuse.assert_same_system(hit, cold)

    def test_writable_mobility_copied_and_compared(self, monkeypatch, kernel_calls):
        compared = self.mobility_bits_compared(monkeypatch)
        mesh = TestSystemReuse.mesh()
        mob = TestSystemReuse.mobility(mesh)
        dl.assemble(mesh, mob, TestSystemReuse.data())
        assert dl._entry.mobility is not mob
        assert not np.shares_memory(dl._entry.mobility, mob)
        dl.assemble(mesh, mob, TestSystemReuse.data(2.5, -1.0, 0.7))
        assert len(kernel_calls) == 1 and len(compared) == 1


class TestBoundaryReads:
    """A solve reads each datum once; a velocity label whose datum is the
    constant 0 adds nothing to the load, has flux +0.0 and is not evaluated,
    while a non-finite datum is still rejected."""

    @staticmethod
    def counted(calls, f):
        def datum(x, y):
            calls.append(np.asarray(x).size)
            return f(x, y)

        return datum

    @pytest.mark.parametrize("path", ["transformed", "picard"])
    def test_callable_pressure_evaluated_once_per_warm_solve(self, path, unit_fluid, monkeypatch):
        # the solve maps the values it reads and builds no mapped BoundarySpec
        built = []
        original = BoundarySpec.__post_init__

        def post_init(spec):
            built.append(spec)
            original(spec)

        mesh = make_rectangle_mesh(10.0, 3.0, 16, 4)
        K = PermeabilityField.isotropic(mesh, 1.0)
        calls = []
        bcs = BoundarySpec(
            pressure={"right": self.counted(calls, lambda x, y: 1.0 + 0.01 * y)},
            velocity={"left": -0.05, "top": 0.0, "bottom": 0.0},
        )
        xi = BodyForcePotential(lambda x, y: 0.3 * y)
        solver = dl.solve_transformed_bvp if path == "transformed" else bd.picard_solve
        solver(mesh, unit_fluid, xi, K, bcs)  # cold
        del calls[:]
        monkeypatch.setattr(BoundarySpec, "__post_init__", post_init)
        solver(mesh, unit_fluid, xi, K, bcs)  # warm
        assert calls == [mesh.ny + 1]
        assert built == []

    @pytest.mark.parametrize("zero", [0.0, -0.0, 0], ids=["zero", "negative_zero", "int_zero"])
    def test_zero_velocity_label_adds_nothing(self, zero, monkeypatch):
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7, "crossed")
        read = []
        evaluate = geometry.eval_bc

        def spy(data, x, y):
            read.append(data)
            return evaluate(data, x, y)

        def constant_zeros_read():
            return [d for d in read if not callable(d) and float(d) == 0.0]

        monkeypatch.setattr(geometry, "eval_bc", spy)
        left = lambda x, y: -0.1 - 0.2 * y
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": left, "top": zero, "bottom": 0.3})
        load = dl._neumann_load(mesh, bcs)
        assert read == [left, left]  # a callable's reads, one per Gauss point; no constant's
        want = _oracles.neumann_load_per_label(mesh, bcs)
        assert load.tobytes() == want.tobytes()
        system = dl.assemble(mesh, identity_mobility(mesh), bcs)
        P = dl.solve(system).field
        assert constant_zeros_read() == []
        del read[:]
        assert np.float64(dl.boundary_flux(P, system, "top")).tobytes() == np.float64(0.0).tobytes()
        assert read == []
        # a callable that returns zeros is still evaluated
        callable_zero = lambda x, y: 0.0 * x
        spec = BoundarySpec(pressure={}, velocity={"top": callable_zero})
        dl._neumann_load(mesh, spec)
        assert read == [callable_zero] * 2
        assert dl.boundary_flux(P, dataclasses.replace(system, bcs=spec), "top") == 0.0
        assert read == [callable_zero] * 4
        # the reciprocity integrals skip the constant-0 label with the same bits
        other = BoundarySpec(pressure={"right": 2.0}, velocity={"left": -0.3, "top": zero, "bottom": 0.1})
        other_system = dl.assemble(mesh, identity_mobility(mesh), other)
        Q = dl.solve(other_system).field
        sols = [vf.FluxSolution(F, dl.nodal_reactions(s, F)) for F, s in ((P, system), (Q, other_system))]
        del read[:]
        got = vf.reciprocity_residual_darcy(*sols, bcs, other, mesh)
        assert read and constant_zeros_read() == []
        evaluated = [
            dataclasses.replace(b, velocity={**b.velocity, "top": lambda x, y: zero * x})
            for b in (bcs, other)
        ]
        want = vf.reciprocity_residual_darcy(*sols, *evaluated, mesh)
        assert sum(d is evaluated[0].velocity["top"] for d in read) == 2
        assert 0.0 < got < 1e-12 and np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_constant_velocity_still_rejected(self, bad):
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": 0.0, "top": bad, "bottom": 0.0})
        with pytest.raises(NonFiniteData, match=repr("top")):
            dl.assemble(mesh, identity_mobility(mesh), bcs)
        with pytest.raises(NonFiniteData, match=repr("top")):
            dl._neumann_load(mesh, bcs)
        finite = BoundarySpec(pressure={"right": 1.0}, velocity={"left": 0.0, "top": 0.0, "bottom": 0.0})
        system = dl.assemble(mesh, identity_mobility(mesh), finite)
        with pytest.raises(NonFiniteData, match=repr("top")):
            dl.boundary_flux(dl.solve(system).field, dataclasses.replace(system, bcs=bcs), "top")

    def test_free_mask_is_the_free_nodes(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 8, 8)
        for bcs in corner_layouts() + [
            BoundarySpec(pressure={}, velocity={"left": 0.4, "right": -0.4, "top": 0.0, "bottom": 0.0})
        ]:
            system = dl.assemble(mesh, identity_mobility(mesh), bcs)
            result = dl.solve(system)
            values = system.lift.copy()
            values[system.is_free] = result.reduced
            if not system.dirichlet_map:
                values -= values.max()
            assert result.field.values.tobytes() == values.tobytes()


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


class TestVelocityOnDemand:
    """A transformed solve computes no velocity: its report computes v from
    U on the first read, by the flux operator of the system solved, and
    keeps that operator alone, not the system."""

    @staticmethod
    def reservoir():
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12)
        return mesh, PermeabilityField.isotropic(mesh, 1e-12)

    @staticmethod
    def bcs(fluid, p_inj):
        return BoundarySpec(pressure={"inlet": p_inj, "well": fluid.p0}, velocity={"wall": 0.0})

    @pytest.fixture
    def velocity_calls(self, monkeypatch):
        calls = []
        kernel = dl._velocity

        def counting(P, flux_operator):
            calls.append(P)
            return kernel(P, flux_operator)

        monkeypatch.setattr(dl, "_velocity", counting)
        return calls

    @staticmethod
    def record_systems(monkeypatch, keep):
        """Each system a transformed solve superposes (see dl._superpose),
        through keep (a strong or a weak reference)."""
        systems = []
        superpose = dl._superpose

        def recording(system):
            result = superpose(system)
            assert result is not None
            systems.append(keep(system))
            return result

        monkeypatch.setattr(dl, "_superpose", recording)
        return systems

    def test_computed_on_first_read_only(self, table1_fluid, velocity_calls):
        mesh, K = self.reservoir()
        vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10.0 * table1_fluid.p0)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, self.bcs(table1_fluid, 3e6))
        assert velocity_calls == []
        v = report.v
        assert report.v is v
        assert len(velocity_calls) == 1 and velocity_calls[0] is report.U

    def test_same_bits_after_the_entry_moved(self, table1_fluid, monkeypatch):
        mesh, K = self.reservoir()
        systems = self.record_systems(monkeypatch, lambda system: system)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, self.bcs(table1_fluid, 3e6))
        other, K_other = self.reservoir()
        dl.solve_transformed_bvp(other, table1_fluid, ZERO_XI, K_other, self.bcs(table1_fluid, 5e6))
        assert dl._entry_for(mesh) is None
        (system, _) = systems
        want = dl.recover_velocity(report.U, system).values
        assert report.v.values.tobytes() == want.tobytes()

    def test_report_keeps_no_system(self, table1_fluid, monkeypatch):
        mesh, K = self.reservoir()
        refs = self.record_systems(monkeypatch, weakref.ref)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, self.bcs(table1_fluid, 3e6))
        (ref,) = refs
        assert ref() is None
        assert report._flux_operator is dl._entry.flux_operator


def strip_bcs(v0):
    """Inflow v0 on the left of the unit-fluid 10x3 strip, p0 = 1 on the
    right, top and bottom sealed."""
    return BoundarySpec(pressure={"right": 1.0}, velocity={"left": -v0, "top": 0.0, "bottom": 0.0})


class TestPressureOnDemand:
    """A transformed solve maps no node back to the physical pressure: its
    report computes p on the first read, from U, the pressure data, p_ref
    and C, with the bits of the eager back-map. The existence test stays in
    the call."""

    GRAVITY_XI = BodyForcePotential(lambda x, y: 0.3 * y)
    PURE_VELOCITY = BoundarySpec(
        pressure={}, velocity={"left": -0.05, "right": 0.05, "top": 0.0, "bottom": 0.0}
    )

    @pytest.fixture
    def inverse_calls(self, monkeypatch):
        calls = []
        inverse = tr._kirchhoff_inverse

        def counting(P_K, fluid, p_ref, ceiling):
            calls.append(np.size(P_K))
            return inverse(P_K, fluid, p_ref, ceiling)

        monkeypatch.setattr(tr, "_kirchhoff_inverse", counting)
        return calls

    def test_computed_on_first_read_only(self, table1_fluid, inverse_calls, monkeypatch):
        mesh, K = TestVelocityOnDemand.reservoir()
        at_points = []
        evaluate = BodyForcePotential.at_points
        monkeypatch.setattr(
            BodyForcePotential, "at_points", lambda xi, pts: at_points.append(xi) or evaluate(xi, pts)
        )
        vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10.0 * table1_fluid.p0)
        bcs = TestVelocityOnDemand.bcs(table1_fluid, 3e6)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        assert inverse_calls == [] and at_points == []  # the zero potential is not evaluated
        p = report.p
        assert report.p is p
        pressure_nodes = np.union1d(mesh.nodes_with_label("inlet"), mesh.nodes_with_label("well"))
        assert inverse_calls == [mesh.n_nodes - pressure_nodes.size]

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    @pytest.mark.parametrize("data", ["xi0", "xi03y", "pure_velocity"])
    def test_same_bits_as_the_eager_back_map(self, pattern, data, unit_fluid):
        mesh = make_rectangle_mesh(10.0, 3.0, 40, 12, pattern)
        K = PermeabilityField.isotropic(mesh, 1.0)
        xi = self.GRAVITY_XI if data == "xi03y" else ZERO_XI
        bcs = self.PURE_VELOCITY if data == "pure_velocity" else strip_bcs(0.063)
        report = dl.solve_transformed_bvp(mesh, unit_fluid, xi, K, bcs)
        want = _oracles.pressure_mapped_back_eagerly(report, mesh, unit_fluid, xi, bcs)
        assert report.p.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("xi", [ZERO_XI, GRAVITY_XI], ids=["xi0", "xi03y"])
    def test_non_existence_raised_by_the_call(self, xi, unit_fluid, inverse_calls):
        mesh = make_rectangle_mesh(10.0, 3.0, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1.0)
        with pytest.raises(NonExistence) as err:
            dl.solve_transformed_bvp(mesh, unit_fluid, xi, K, strip_bcs(0.12))  # v* = 0.1
        assert err.value.nodes.size > 0 and inverse_calls == []

    def test_ceiling_flux_calibration_unchanged(self, table1_fluid):
        # the C of the 400x120 reservoir since the solve superposes its one
        # held inlet response (5.580044297040453e-09, 2 ulp below, when it
        # solved its right-hand side), whether or not p is mapped back
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 400, 120)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        model = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10.0 * table1_fluid.p0)
        assert model.C == 5.580044297040455e-09


class TestOneResidual:
    """A solve forms r = b_red - A_red x once: omega comes from it, a CG
    sweep passes on the residual it stopped at, and a transformed solve
    takes the free rows of its reactions from it, forming only the rows of
    the pressure nodes."""

    @staticmethod
    def recorded_solves(monkeypatch):
        """(system, result, b_red - A_red @ result.reduced) of each dl.solve,
        each superposed solve (dl._superpose) and each sweep (dl._solve_sweep,
        with its assembled system), the residual formed while the arrays
        are current: a sweep's A_red and b_red are refilled once more."""
        solves = []

        def recording(solver):
            def solve(system):
                result = solver(system)
                if result is not None:
                    solves.append((system, result, system.b_red - system.A_red @ result.reduced))
                return result

            return solve

        for name in ("solve", "_superpose"):
            monkeypatch.setattr(dl, name, recording(getattr(dl, name)))
        solve_sweep = dl._solve_sweep

        def sweeping(base, weights, start):
            result = solve_sweep(base, weights, start)
            scaling = dl._edge_scaling(base)
            A, b_red, _ = dl._edge_scaling(base).refill(base, weights)
            solves.append((base, result, b_red - A @ result.reduced))
            return result

        monkeypatch.setattr(dl, "_solve_sweep", sweeping)
        return solves

    def test_cg_sweeps_pass_on_their_residual(self, monkeypatch):
        solves = self.recorded_solves(monkeypatch)
        mesh, fluid, K, bcs = TestFactorReuse.picard_strip()
        report = bd.picard_solve(mesh, fluid, BodyForcePotential(lambda x, y: 0.3 * y), K, bcs)
        assert report.converged and report.linear_iterations > 0
        assert len(solves) == report.iterations
        for system, result, r in solves:
            assert result._r.tobytes() == r.tobytes()

    @pytest.mark.parametrize("case", ["reservoir", "strip_gravity_crossed"])
    def test_reactions(self, case, table1_fluid, unit_fluid, monkeypatch):
        if case == "reservoir":
            mesh, K = TestVelocityOnDemand.reservoir()
            fluid, xi, bcs = table1_fluid, ZERO_XI, TestVelocityOnDemand.bcs(table1_fluid, 3e6)
        else:
            mesh = make_rectangle_mesh(10.0, 3.0, 40, 12, "crossed")
            K = PermeabilityField.isotropic(mesh, 1.0)
            fluid, xi, bcs = unit_fluid, TestPressureOnDemand.GRAVITY_XI, strip_bcs(0.063)
        solves = self.recorded_solves(monkeypatch)
        report = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        ((system, result, r),) = solves
        want = dl.nodal_reactions(system, report.U)
        pinned = ~system.is_free
        assert report.reactions[pinned].tobytes() == want[pinned].tobytes()
        assert report.reactions[system.is_free].tobytes() == r.tobytes()
        assert np.abs(report.reactions - want).max() <= 1e-13 * np.abs(report.reactions).max()


class TestNormRange:
    """Every norm of a reduced solve reports no overflow and is finite
    wherever ||v|| is representable (dl._norm). So data from about 1e154
    up, where v . v overflows, and down to about 1e-162, where it
    underflows, get an honest omega: no RuntimeWarning, and no accepted
    solve reports omega = 0 while r != 0. No errstate is entered."""

    SCALES = [1e155, 1e300, 1e-170, 1e-300]

    @staticmethod
    def results(monkeypatch):
        """The LinearSolveResult of each solve, superposed solve and sweep."""
        found = []

        def recording(solver):
            def call(*args):
                result = solver(*args)
                if result is not None:
                    found.append(result)
                return result

            return call

        for name in ("solve", "_superpose", "_solve_sweep"):
            monkeypatch.setattr(dl, name, recording(getattr(dl, name)))
        return found

    @staticmethod
    def assert_honest(results):
        assert results
        for result in results:
            assert 0.0 <= result.residual <= dl._OMEGA_MAX
            assert (result.residual > 0.0) == bool((result._r != 0.0).any())

    @staticmethod
    def strip(v):
        """The 10 x 3 strip on 20 x 6 cells, velocity v on "left"."""
        mesh = make_rectangle_mesh(10.0, 3.0, 20, 6)
        return mesh, PermeabilityField.isotropic(mesh, 1.0), strip_bcs(-v)

    @pytest.mark.parametrize("v", SCALES)
    def test_solve(self, v, monkeypatch):
        found = self.results(monkeypatch)
        mesh, _, bcs = self.strip(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dl.solve(dl.assemble(mesh, identity_mobility(mesh), bcs))
        self.assert_honest(found)

    @pytest.mark.parametrize("v", SCALES)
    def test_transformed(self, v, unit_fluid, table1_fluid, monkeypatch):
        found = self.results(monkeypatch)
        mesh, K, bcs = self.strip(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fluid in (unit_fluid, table1_fluid):
                report = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
                assert np.isfinite(report.p.values).all() and np.isfinite(report.v.values).all()
        assert len(found) == 2
        self.assert_honest(found)

    @pytest.mark.parametrize("v", SCALES)
    @pytest.mark.parametrize(
        "xi", [ZERO_XI, BodyForcePotential(lambda x, y: 0.3 * y)], ids=["0", "0.3y"]
    )
    def test_picard(self, v, xi, unit_fluid, monkeypatch):
        # huge data: the first sweep's iterate has a viscosity beyond the
        # float range, and Picard stops there; tiny data converge
        found = self.results(monkeypatch)
        mesh, K, bcs = self.strip(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if v > 1.0:
                with pytest.raises(NoConvergence, match="viscosity overflows"):
                    bd.picard_solve(mesh, unit_fluid, xi, K, bcs)
            else:
                assert bd.picard_solve(mesh, unit_fluid, xi, K, bcs).converged
        self.assert_honest(found)

    @pytest.mark.parametrize("p0", [1e-160, 1e160, 1e300])
    def test_picard_sweeps_do_not_depend_on_the_data_scale(self, p0, monkeypatch):
        # the strip problem at p0 = 1 with every pressure and velocity scaled
        # by p0 (beta = 1, so beta (p - p0) / p0 is unchanged): the update
        # norms neither underflow nor overflow, so Picard takes the sweeps
        # it takes at p0 = 1 and meets the transformed solution as closely
        def run(p0):
            fluid = FluidModel(mu0=1.0, beta=1.0, p0=p0)
            mesh = make_rectangle_mesh(10.0, 3.0, 20, 6)
            K = PermeabilityField.isotropic(mesh, 1.0)
            bcs = BoundarySpec(
                pressure={"right": p0}, velocity={"left": -0.063 * p0, "top": 0.0, "bottom": 0.0}
            )
            report = bd.picard_solve(mesh, fluid, ZERO_XI, K, bcs)
            transformed = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
            assert report.converged
            return report.iterations, np.abs(report.p.values - transformed.p.values).max() / p0

        found = self.results(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweeps, error = run(p0)
        assert sweeps == run(1.0)[0] and error < 1e-10
        self.assert_honest(found)

    @pytest.mark.parametrize(
        "v, want",
        [
            (np.full(4, 1e200), 2e200),
            (np.full(4, 1e-200), 2e-200),
            (np.array([3e300, -4e300]), 5e300),
            (np.array([3e-320, 4e-320]), 5e-320),
            (np.full(4, 1.7e308), np.inf),
            (np.array([1.0, np.inf]), np.inf),
            (np.array([np.nan, 1e200]), np.nan),
            (np.zeros(3), 0.0),
            (np.zeros(0), 0.0),
        ],
    )
    def test_norm(self, v, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dl._norm(v)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0, nan_ok=True)

    def test_norm_in_range_has_the_bits_of_linalg_norm(self):
        rng = np.random.default_rng(8)
        for n in (1, 7, 150, 2000):
            for scale in (1e-150, 1.0, 1e150):
                v = scale * rng.standard_normal(n)
                assert dl._norm(v) == float(np.linalg.norm(v))

    def test_omega_where_a_max_times_norm_x_overflows(self):
        # the same quotient divided through by ||x||: ||r|| / ||x|| / a_max
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        n = system.b_red.size
        x, r = np.full(n, 1e300), np.full(n, 1e290)
        result = dl._accept(system, x, r, 1e10, 1.0, 0, ScalarField)
        assert result.residual == pytest.approx(1e-20, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("which", ["x", "b"])
    def test_norm_beyond_the_float_range_is_not_accepted(self, which):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(0.0, 1.0))
        n = system.b_red.size
        x, bnorm = np.full(n, 1e300), 1.0
        if which == "x":
            x[:] = 1.7e308
        else:
            bnorm = np.inf
        with pytest.raises(NoConvergence):
            dl._accept(system, x, np.zeros(n), 1.0, bnorm, 0, ScalarField)

    def test_no_errstate_entered(self, table1_fluid, monkeypatch):
        # a cold and a warm transformed solve, and a solve of an assembled
        # system, enter no np.errstate
        entered = []
        errstate = np.errstate

        class Counting(errstate):
            def __enter__(self):
                entered.append(1)
                return super().__enter__()

        mesh, K = TestVelocityOnDemand.reservoir()
        bcs = [TestVelocityOnDemand.bcs(table1_fluid, p_inj) for p_inj in (3e6, 5e6)]
        monkeypatch.setattr(np, "errstate", Counting)
        for b in bcs:
            dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, b)
        dl.solve(dl.assemble(mesh, identity_mobility(mesh), bcs[0]))
        assert entered == []


class TestSuperposition:
    """A transformed solve on the held A_red whose mapped data are constant
    on every label is x = sum of c_l H_l over the held per-label responses
    H_l, and makes no triangular solve once they are held; other data, and
    an x that fails the backward-error test, take dl.solve."""

    @staticmethod
    def superposed(monkeypatch):
        """(system, result) of each solve dl._superpose returns, and None
        for each system it hands back to dl.solve."""
        calls = []
        superpose = dl._superpose

        def recording(system):
            result = superpose(system)
            calls.append(None if result is None else (system, result))
            return result

        monkeypatch.setattr(dl, "_superpose", recording)
        return calls

    @pytest.fixture
    def lu_solves(self, monkeypatch):
        """Triangular solves (factor.solve calls) of every factor made."""
        calls = []
        factor = dl._factor

        class Counting:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                calls.append(b.size)
                return self.lu.solve(b)

        monkeypatch.setattr(dl, "_factor", lambda *args: Counting(factor(*args)))
        return calls

    @staticmethod
    def reservoir(fluid, p_inj, shape=(40, 12)):
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, *shape)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        return mesh, fluid, K, TestVelocityOnDemand.bcs(fluid, p_inj)

    @staticmethod
    def two_pressure_labels(fluid):
        # "left" and "top" share the corner (0, 3), which is top's; the
        # gauge puts top at 0, and left and right carry data
        mesh = make_rectangle_mesh(10.0, 3.0, 20, 6)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(pressure={"left": 1.5, "top": 1.2}, velocity={"right": -0.02, "bottom": 0.0})
        return mesh, fluid, K, bcs

    def check_against_direct(self, monkeypatch, mesh, fluid, K, bcs, terms):
        calls = self.superposed(monkeypatch)
        report = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        ((system, result),) = calls
        held = dl._entry.responses
        assert sorted(held.H) == sorted(terms)
        for H in held.H.values():
            assert H.size == np.count_nonzero(system.is_free) and not H.flags.writeable
        direct = dl.solve(system)
        U = report.U.values
        assert report.residual == result.residual <= dl._OMEGA_MAX
        assert np.abs(U - direct.field.values).max() <= 1e-14 * np.abs(U).max()

    @pytest.mark.parametrize("p_inj", np.geomspace(1.6e5, 4e9, 6))
    def test_reservoir_agrees_with_the_direct_solve(self, p_inj, table1_fluid, monkeypatch):
        self.check_against_direct(monkeypatch, *self.reservoir(table1_fluid, p_inj), ["inlet"])

    def test_strip_with_velocity_data(self, unit_fluid, monkeypatch):
        mesh = make_rectangle_mesh(10.0, 3.0, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1.0)
        self.check_against_direct(monkeypatch, mesh, unit_fluid, K, strip_bcs(0.063), ["left"])

    def test_two_pressure_labels_and_a_velocity_label(self, unit_fluid, monkeypatch):
        case = self.two_pressure_labels(unit_fluid)
        self.check_against_direct(monkeypatch, *case, ["left", "right"])

    def test_another_partition_replaces_the_responses(self, unit_fluid, monkeypatch):
        # with the pressure labels swapped the corner (0, 3) is left's: the
        # nodes each label owns, and so its response, change
        mesh, fluid, K, bcs = self.two_pressure_labels(unit_fluid)
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        swapped = dataclasses.replace(bcs, pressure={"top": 1.2, "left": 1.5})
        self.check_against_direct(monkeypatch, mesh, fluid, K, swapped, ["left", "right"])
        assert dl._entry.responses.partition == (("top", "left"), ("right", "bottom"))

    def test_cold_and_warm_bitwise_after_a_sweep_factor(self, unit_fluid, factor_calls):
        # Picard at r = 0.99 factors a sweep into the slot; the responses are
        # solutions of A_red, not of that factor, and stay held
        mesh = make_rectangle_mesh(10.0, 3.0, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1.0)
        v_star = 0.1
        cold = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, strip_bcs(0.63 * v_star))
        assert len(factor_calls) == 1
        warm = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, strip_bcs(0.63 * v_star))
        report = bd.picard_solve(mesh, unit_fluid, ZERO_XI, K, strip_bcs(0.99 * v_star))
        assert report.converged and dl._entry.lu_diagonal is not None
        factored = len(factor_calls)
        after = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, strip_bcs(0.63 * v_star))
        assert len(factor_calls) == factored
        assert dl._entry.lu_diagonal is not None  # the sweep factor stays
        for a in (warm, after):
            for name in ("U", "P", "p"):
                assert getattr(a, name).values.tobytes() == getattr(cold, name).values.tobytes()
            assert a.reactions.tobytes() == cold.reactions.tobytes()
            assert a.residual == cold.residual

    def test_first_response_after_a_sweep_factor_refactors(self, unit_fluid, factor_calls, monkeypatch):
        # another partition clears the responses: its first solve refactors
        # A_red in the sweep factor's place, as dl.solve does
        mesh = make_rectangle_mesh(10.0, 3.0, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bd.picard_solve(mesh, unit_fluid, ZERO_XI, K, strip_bcs(0.099))
        assert dl._entry.lu_diagonal is not None
        factored = len(factor_calls)
        calls = self.superposed(monkeypatch)
        reordered = BoundarySpec(pressure={"right": 1.0}, velocity={"top": 0.0, "bottom": 0.0, "left": -0.063})
        report = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, reordered)
        assert calls[0] is not None
        assert len(factor_calls) == factored + 1 and dl._entry.lu_diagonal is None
        assert dl._entry.responses.partition == (("right",), ("top", "bottom", "left"))
        want = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, strip_bcs(0.063))
        assert np.abs(report.U.values - want.U.values).max() <= 1e-14 * np.abs(want.U.values).max()

    def test_warm_reservoir_makes_no_triangular_solve(self, table1_fluid, factor_calls, lu_solves):
        mesh, fluid, K, _ = self.reservoir(table1_fluid, 0.0)
        vf.calibrate_ceiling_flux(mesh, fluid, K, 10.0 * fluid.p0)
        assert len(factor_calls) == 1 and len(lu_solves) == 1
        for p_inj in (1.6e5, 3e6, 4e9):
            dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, TestVelocityOnDemand.bcs(fluid, p_inj))
        assert len(factor_calls) == 1 and len(lu_solves) == 1

    def test_warm_solve_scans_no_field(self, table1_fluid, monkeypatch):
        # U passed the backward-error test with a finite norm, so U and
        # P = U - C are finite and neither is scanned again
        mesh, fluid, K, bcs = self.reservoir(table1_fluid, 3e6)
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        scans = []
        check = ScalarField.__post_init__
        monkeypatch.setattr(ScalarField, "__post_init__", lambda f: scans.append(f) or check(f))
        report = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert scans == []
        monkeypatch.undo()
        for field in (report.U, report.P):
            assert field.mesh is mesh and field.values.dtype == float
            ScalarField(mesh, field.values)  # finite, of one value per node

    @pytest.mark.parametrize("case", ["varying", "gravity", "pure_velocity", "callable_velocity"])
    def test_other_data_take_the_direct_solve(self, case, unit_fluid, monkeypatch):
        mesh = make_rectangle_mesh(10.0, 3.0, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1.0)
        xi, bcs = ZERO_XI, strip_bcs(0.063)
        if case == "varying":
            bcs = dataclasses.replace(bcs, pressure={"right": lambda x, y: 1.0 + 0.01 * y})
        elif case == "gravity":
            xi = TestPressureOnDemand.GRAVITY_XI
        elif case == "pure_velocity":
            bcs = TestPressureOnDemand.PURE_VELOCITY
        else:
            bcs = dataclasses.replace(bcs, velocity={**bcs.velocity, "left": lambda x, y: -0.063 + 0.0 * x})
        dl.solve_transformed_bvp(mesh, unit_fluid, xi, K, bcs)  # cold
        calls = self.superposed(monkeypatch)
        solves = TestOneResidual.recorded_solves(monkeypatch)
        report = dl.solve_transformed_bvp(mesh, unit_fluid, xi, K, bcs)
        ((system, result, _),) = solves
        assert calls == [None]
        assert report.U is result.field
        assert result.field.values.tobytes() == dl.solve(system).field.values.tobytes()

    def test_failed_test_takes_the_direct_solve(self, table1_fluid, monkeypatch):
        mesh, fluid, K, bcs = self.reservoir(table1_fluid, 3e6)
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        calls = self.superposed(monkeypatch)
        monkeypatch.setattr(dl, "_OMEGA_MAX", 1e-30)
        with pytest.raises(NoConvergence):
            dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert calls == [None]

    def test_responses_go_with_the_entry(self, table1_fluid):
        mesh, fluid, K, bcs = self.reservoir(table1_fluid, 3e6)
        dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        responses = weakref.ref(dl._entry.responses)
        del mesh, K
        gc.collect()
        assert dl._entry is None and responses() is None


class TestOneAcceptance:
    """solve and the superposition accept a reduced solution by one test
    (dl._accept): omega <= 64 eps and a finite x. The field of solve, whose
    system belongs to the caller, is scanned; P = U - C never is."""

    @staticmethod
    def returning(monkeypatch, bad):
        """Every factor made from now on solves to bad at every node."""
        factor = dl._factor

        class Bad:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return np.full_like(self.lu.solve(b), bad)

        monkeypatch.setattr(dl, "_factor", lambda *args: Bad(factor(*args)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_solve_raises(self, bad, monkeypatch):
        mesh = make_rectangle_mesh(1.0, 1.0, 6, 6)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(1.0, 0.0))
        self.returning(monkeypatch, bad)
        with pytest.raises(NoConvergence):
            dl.solve(system)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_superposition_falls_back_and_raises(self, bad, table1_fluid, monkeypatch):
        mesh, fluid, K, bcs = TestSuperposition.reservoir(table1_fluid, 3e6)
        self.returning(monkeypatch, bad)
        calls = TestSuperposition.superposed(monkeypatch)
        with pytest.raises(NoConvergence):
            dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        assert calls == [None]

    def test_nan_in_the_callers_lift_raises(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 6, 6)
        system = dl.assemble(mesh, identity_mobility(mesh), lr_dirichlet(1.0, 0.0))
        system.lift[np.flatnonzero(~system.is_free)[0]] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dl.solve(system)

    @pytest.mark.parametrize("path", ["superposed", "solved"])
    def test_P_is_built_without_a_scan(self, path, unit_fluid, monkeypatch):
        mesh = make_rectangle_mesh(10.0, 3.0, 40, 12)
        K = PermeabilityField.isotropic(mesh, 1.0)
        xi = ZERO_XI if path == "superposed" else TestPressureOnDemand.GRAVITY_XI
        dl.solve_transformed_bvp(mesh, unit_fluid, xi, K, strip_bcs(0.063))  # cold
        calls = TestSuperposition.superposed(monkeypatch)
        scans = []
        check = ScalarField.__post_init__
        monkeypatch.setattr(ScalarField, "__post_init__", lambda f: scans.append(f) or check(f))
        report = dl.solve_transformed_bvp(mesh, unit_fluid, xi, K, strip_bcs(0.063))
        assert (calls != [None]) == (path == "superposed")
        assert all(f is not report.P for f in scans)
        # the field of solve is scanned, a superposed one is not
        assert [f is report.U for f in scans] == ([] if path == "superposed" else [True])
        monkeypatch.undo()
        ScalarField(mesh, report.P.values)  # finite, of one value per node


def reachable_arrays(root):
    """Every numpy array reachable from root through object attributes,
    tuples, lists and dicts; weak references, factors (neither kind has a
    __dict__) and functions are not followed."""
    arrays, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__") and not callable(obj):
            stack.extend(vars(obj).values())
    return arrays


def held_entry_bytes():
    """Bytes of the held entry's arrays, each memory block counted once,
    the held responses and their label nodes included; the factor and the
    edge scaling are not counted."""
    arrays = []
    for field in dataclasses.fields(dl._entry):
        value = getattr(dl._entry, field.name)
        if isinstance(value, dl._Responses):
            value = (*value.nodes.values(), *value.H.values())
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
        # the responses held, one per label with nonzero data, at most 8
        # bytes per free node each; the rest within the bound of the entry
        # without them
        responses = list(dl._entry.responses.H.values())
        n_free = dl._entry.A_red.shape[0]
        assert len(responses) == 1
        response_bytes = sum(H.nbytes for H in responses)
        assert response_bytes <= 8 * n_free * len(responses)
        rest = held_entry_bytes() - response_bytes
        assert rest <= self.GRADIENT_ENTRY_BYTES + 16 * mesh.n_triangles + 4

    def test_dirichlet_rows_held_once(self):
        # the Dirichlet columns that b_red is formed from are the transpose
        # of the Dirichlet rows, a view of the same three arrays
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7)
        system = dl.assemble(mesh, 5.5 * identity_mobility(mesh), lr_dirichlet(1.0, 2.0))
        rows, columns = dl._entry.dirichlet_rows, dl._entry.dirichlet_columns
        d = dl._entry.dirichlet
        assert rows.format == "csr" and columns.format == "csc"
        for a in ("data", "indices", "indptr"):
            x, y = getattr(rows, a), getattr(columns, a)
            assert x.__array_interface__["data"] == y.__array_interface__["data"] and x.size == y.size
        assert np.array_equal(rows.toarray(), system.raw_matrix[d].toarray())
        assert np.array_equal(columns.toarray(), system.raw_matrix[:, d].toarray())


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


# The first n labels of the rectangle, counter-clockwise around it, in each
# cyclic order, for n = 2, 3 and 4.
RECTANGLE_LABELS = ("bottom", "right", "top", "left")
PRESSURE_ORDERS = [
    RECTANGLE_LABELS[:n][k:] + RECTANGLE_LABELS[:n][:k] for n in (2, 3, 4) for k in range(n)
]


@pytest.mark.parametrize("order", PRESSURE_ORDERS, ids="-".join)
class TestOwnerRule:
    """geometry._owned gives each pressure label the nodes it owns, a node
    two labels share being the later one's: the assembly's lift and
    boundary_flux agree with it in every order of the labels."""

    @staticmethod
    def system(order):
        mesh = make_rectangle_mesh(10.0, 3.0, 20, 6)
        pressure = {label: 1.0 + 0.5 * i for i, label in enumerate(order)}
        velocity = {label: 0.01 for label in RECTANGLE_LABELS if label not in order}
        bcs = BoundarySpec(pressure=pressure, velocity=velocity)
        return mesh, bcs, dl.assemble(mesh, identity_mobility(mesh), bcs)

    def test_owned_partitions_the_pressure_nodes(self, order):
        mesh, bcs, _ = self.system(order)
        owned = geometry._owned(mesh, bcs.pressure)
        assert tuple(owned) == order
        nodes, values = geometry._pressure_data(mesh, bcs)
        # one block per label, in spec order, each with its owner's datum
        assert np.array_equal(nodes, np.concatenate(list(owned.values())))
        data = [np.full(own.size, bcs.pressure[label]) for label, own in owned.items()]
        assert values.tobytes() == np.concatenate(data).tobytes()
        assert np.unique(nodes).size == nodes.size  # no node owned twice
        for i, (label, own) in enumerate(owned.items()):
            assert np.all(np.diff(own) > 0)
            for later in order[i + 1:]:
                assert np.intersect1d(own, mesh.nodes_with_label(later)).size == 0

    def test_each_owned_node_takes_its_labels_datum(self, order):
        mesh, bcs, system = self.system(order)
        for label, own in geometry._owned(mesh, bcs.pressure).items():
            assert np.all(system.lift[own] == bcs.pressure[label])

    def test_pressure_fluxes_sum_to_the_net_dirichlet_reaction(self, order):
        mesh, bcs, system = self.system(order)
        field = dl.solve(system).field
        reactions = dl.nodal_reactions(system, field)
        fluxes = {label: dl.boundary_flux(field, system, label) for label in order}
        for label, own in geometry._owned(mesh, bcs.pressure).items():
            assert fluxes[label] == reactions[own].sum()
        net = reactions[geometry._pressure_data(mesh, bcs)[0]].sum()
        assert abs(sum(fluxes.values()) - net) <= 1e-14 * np.abs(reactions).sum()


def random_side_data(rng, delta, extent):
    """Pressure data on all four sides of the rectangle of the given extent,
    each the piecewise-linear interpolant of 7 values drawn in [1, 1 +
    delta] at equally spaced points along its side: every corner is shared
    by two labels whose data differ there."""
    pressure = {}
    for side in RECTANGLE_LABELS:
        axis = 0 if side in ("bottom", "top") else 1
        knots = np.linspace(0.0, extent[axis], 7)
        values = 1.0 + delta * rng.random(7)
        pressure[side] = lambda x, y, a=axis, k=knots, v=values: np.interp((x, y)[a], k, v)
    return BoundarySpec(pressure=pressure, velocity={})


@pytest.mark.parametrize("delta", [0.5, 5.0, 20.0])
@pytest.mark.parametrize("kxy", [0.0, 0.9], ids=["isotropic", "kxy0.9"])
def test_pure_pressure_data_keep_the_maximum_principle(kxy, delta, unit_fluid):
    # Where no off-diagonal stiffness entry is positive, the transformed p of
    # pure-pressure data lies in the range of the data, so it always exists:
    # NonExistence is never raised, whatever the data's spread.
    mesh = make_rectangle_mesh(10.0, 3.0, 80, 24)
    K = PermeabilityField.uniform_tensor(mesh, 1.0, kxy, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(40):
        bcs = random_side_data(rng, delta, mesh.extent)
        p = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, bcs).p.values
        _, data = geometry._pressure_data(mesh, bcs)
        tol = 1e-10 * np.ptp(data)
        assert data.min() - tol <= p.min() and p.max() <= data.max() + tol
    raw = dl._entry_for(mesh).raw_matrix
    assert sp.triu(raw, 1).max() <= 0.0  # no positive off-diagonal pair


class TestTransformedBVP:
    def test_fine_strip_meets_residual_bound(self, unit_fluid):
        # the relative residual of the LU solution, 1.45e-12 here, grows with
        # the condition number; its backward error stays near eps
        mesh = make_rectangle_mesh(10.0, 3.0, 320, 96)
        K = PermeabilityField.isotropic(mesh, 1.0)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -0.01, "top": 0.0, "bottom": 0.0})
        report = dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, bcs)
        assert report.residual <= 1e-12

    def test_one_ceiling_per_solve(self, table1_fluid, monkeypatch):
        # the forward map, the existence test and the back-map share C(p_ref);
        # the other call is the Hopf-Cole map of the data (at p + xi)
        calls = []
        ceiling = tr.kirchhoff_ceiling
        monkeypatch.setattr(tr, "kirchhoff_ceiling", lambda f, p: calls.append(np.ndim(p)) or ceiling(f, p))
        mesh = make_rectangle_mesh(10.0, 2.0, 10, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = lr_dirichlet(3.0 * table1_fluid.p0, table1_fluid.p0)
        dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        assert sorted(calls) == [0, 1]

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

    DISCRETE = "the discrete maximum principle fails on this mesh"

    def test_velocity_driven_nonexistence_is_not_called_discrete(self, table1_fluid):
        # the case above: a diagonal mesh with isotropic K has no positive
        # off-diagonal pair, so the message makes no discrete excuse
        problem = o1.StripProblem(L=100.0, k=1e-12, fluid=table1_fluid, v0=0.0)
        vstar = o1.existence_threshold(problem)
        mesh = make_rectangle_mesh(100.0, 10.0, 40, 4)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"right": table1_fluid.p0},
            velocity={"left": -1.1 * vstar, "top": 0.0, "bottom": 0.0},
        )
        with pytest.raises(NonExistence) as err:
            dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        assert self.DISCRETE not in str(err.value)
        assert "positive off-diagonal" not in str(err.value)

    def test_pure_pressure_overshoot_is_called_discrete(self):
        # pure-pressure data always have a continuous solution; on this
        # crossed mesh with K = (1, 0.9, 1) the stiffness has 72 positive
        # off-diagonal pairs and the discrete one can overshoot the data.
        # Data: a 7-point interpolant of values drawn in [1, 6] per side.
        fluid = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
        mesh = make_rectangle_mesh(10.0, 1.0, 8, 8, "crossed")
        K = PermeabilityField.uniform_tensor(mesh, 1.0, 0.9, 1.0)

        def interpolant(values, along, length):
            knots = np.linspace(0.0, length, values.size)
            return lambda x, y: np.interp(x if along == 0 else y, knots, values)

        messages = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            sides = (("left", 1, 1.0), ("right", 1, 1.0), ("bottom", 0, 10.0), ("top", 0, 10.0))
            pressure = {
                side: interpolant(rng.uniform(1.0, 6.0, 7), along, length)
                for side, along, length in sides
            }
            bcs = BoundarySpec(pressure=pressure, velocity={})
            try:
                dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
            except NonExistence as err:
                messages.append(str(err))
        assert messages
        for message in messages:
            assert self.DISCRETE in message
            assert "72 positive off-diagonal pair(s)" in message
            assert "discretization error" in message

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
        # returned has its largest p at p0, on x = 0, where the linear
        # Kirchhoff variable -mu0*v0*x/k is zero
        fluid = FluidModel(1.0, 1.0, 1.0)
        k, v0 = 1.0, 0.5
        mesh = make_rectangle_mesh(1.0, 0.2, 8, 2)
        K = PermeabilityField.isotropic(mesh, k)
        bcs = BoundarySpec(
            pressure={}, velocity={"left": -v0, "right": v0, "top": 0.0, "bottom": 0.0}
        )
        report = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
        # the largest p is p0, on x = 0; which node of x = 0 holds it, and
        # whether node 0 reads p0 exactly, is up to the factor's rounding,
        # which keeps the other nodes there within 16 eps of the contrast
        # (2.5 and 3 ulp of p0 below it; 4 and 5.5 with SuperLU's factor)
        p = report.p.values
        inlet = mesh.nodes[:, 0] == 0.0
        assert p.max() == fluid.p0 and p[inlet].max() == fluid.p0
        assert np.all(fluid.p0 - p[inlet] <= 16 * np.finfo(float).eps * (p.max() - p.min()))
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


class TestExactSolution2D:
    """2D exact solutions with mixed data (_oracles.harmonic_barus_solution)
    on [0, 2] x [0, 1], 2n x n cells: both paths converge at order 2 in the
    nodal max norm, with and without a body force and with an anisotropic K,
    and report non-existence where the exact Phi is not positive."""

    XI = BodyForcePotential(lambda x, y: 0.5 * y)
    # K and Phi = 4 + x^2 - 2xy - y^2 (2 to 8 on the rectangle):
    # kxx a + 2 kxy b + kyy c = 2 - 1 - 1 = 0
    TENSOR = (2.0, 0.5, 1.0)
    QUADRATIC = (1.0, -1.0, -1.0, 4.0)

    @staticmethod
    def solve(path, mesh, fluid, xi, bcs, tensor=(1.0, 0.0, 1.0)):
        K = PermeabilityField.uniform_tensor(mesh, *tensor)
        if path == "transformed":
            return dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        return bd.picard_solve(mesh, fluid, xi, K, bcs, bd.PicardConfig(tol=1e-13))

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    @pytest.mark.parametrize("path", ["transformed", "picard"])
    def test_second_order_with_body_force(self, path, pattern, unit_fluid):
        # error ratios 3.98 and 4.00 on the diagonal pattern, 3.89 and 3.93
        # on the crossed one, the same on both paths
        pressure, velocity = _oracles.harmonic_barus_solution(*_oracles.body_force_phi(0.3), 0.5)
        bcs = _oracles.rectangle_bcs(pressure, velocity, ("left", "right"))
        errors = []
        for n in (8, 16, 32):
            mesh = make_rectangle_mesh(2.0, 1.0, 2 * n, n, pattern)
            p = self.solve(path, mesh, unit_fluid, self.XI, bcs).p.values
            errors.append(np.abs(p - pressure(*mesh.nodes.T)).max())
        assert errors[0] >= 3.5 * errors[1]
        assert errors[1] >= 3.5 * errors[2]

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    @pytest.mark.parametrize("path", ["transformed", "picard"])
    def test_second_order_without_body_force(self, path, pattern, unit_fluid):
        # error ratios 3.98 and 3.99 on the diagonal pattern, 4.00 and 4.00
        # on the crossed one, the same on both paths
        pressure, velocity = _oracles.harmonic_barus_solution(*_oracles.exponential_phi(), 0.0)
        bcs = _oracles.rectangle_bcs(pressure, velocity, ("left", "right"))
        errors = []
        for n in (8, 16, 32):
            mesh = make_rectangle_mesh(2.0, 1.0, 2 * n, n, pattern)
            p = self.solve(path, mesh, unit_fluid, ZERO_XI, bcs).p.values
            errors.append(np.abs(p - pressure(*mesh.nodes.T)).max())
        assert errors[0] >= 3.5 * errors[1]
        assert errors[1] >= 3.5 * errors[2]

    def anisotropic_quadratic(self):
        phi, grad_phi = _oracles.anisotropic_quadratic_phi(self.TENSOR, *self.QUADRATIC)
        pressure, velocity = _oracles.harmonic_barus_solution(phi, grad_phi, 0.0, self.TENSOR)
        return pressure, _oracles.rectangle_bcs(pressure, velocity, ("left", "right"))

    @pytest.mark.parametrize("path", ["transformed", "picard"])
    def test_anisotropic_quadratic_nodally_exact_on_diagonal_pattern(self, path, unit_fluid):
        # P_K is an affine function of Phi, a quadratic with
        # div(K grad Phi) = 0, on which the P1 stiffness of the uniform
        # diagonal pattern is exact (errors up to 2.3e-14 of the range)
        pressure, bcs = self.anisotropic_quadratic()
        for n in (8, 16):
            mesh = make_rectangle_mesh(2.0, 1.0, 2 * n, n)
            exact = pressure(*mesh.nodes.T)
            p = self.solve(path, mesh, unit_fluid, ZERO_XI, bcs, self.TENSOR).p.values
            assert np.abs(p - exact).max() <= 1e-13 * (exact.max() - exact.min())

    @pytest.mark.parametrize("path", ["transformed", "picard"])
    def test_anisotropic_quadratic_second_order_on_crossed_pattern(self, path, unit_fluid):
        # the center nodes break the exactness: error ratios 3.79 and 3.89
        pressure, bcs = self.anisotropic_quadratic()
        errors = []
        for n in (8, 16, 32):
            mesh = make_rectangle_mesh(2.0, 1.0, 2 * n, n, "crossed")
            p = self.solve(path, mesh, unit_fluid, ZERO_XI, bcs, self.TENSOR).p.values
            errors.append(np.abs(p - pressure(*mesh.nodes.T)).max())
        assert errors[0] >= 3.5 * errors[1]
        assert errors[1] >= 3.5 * errors[2]

    @pytest.mark.parametrize("path", ["transformed", "picard"])
    def test_saddle_nodally_exact_on_diagonal_pattern(self, path, unit_fluid):
        # P_K = x^2 - y^2 up to a constant: the P1 stiffness of the diagonal
        # pattern is exact on it (errors up to 1.6e-14 of the range)
        pressure, velocity = _oracles.harmonic_barus_solution(*_oracles.saddle_phi(), 0.0)
        bcs = _oracles.rectangle_bcs(pressure, velocity, ("left", "right"))
        for n in (8, 16):
            mesh = make_rectangle_mesh(2.0, 1.0, 2 * n, n)
            exact = pressure(*mesh.nodes.T)
            p = self.solve(path, mesh, unit_fluid, ZERO_XI, bcs).p.values
            assert np.abs(p - exact).max() <= 1e-13 * (exact.max() - exact.min())

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    def test_non_existence_where_phi_is_not_positive(self, pattern, unit_fluid):
        # Phi = -0.3 + 0.15 x + 0.4 e^{-0.5 y} is negative in the upper left;
        # its P1 solution is within 0.027 h^2 of it, so the nodes without a
        # real pressure lie in {Phi <= 0} up to a band of 0.1 h^2 (they are
        # that set exactly here: 10, 28 and 100 nodes on the diagonal pattern)
        phi, grad_phi = _oracles.body_force_phi(-0.3)
        pressure, velocity = _oracles.harmonic_barus_solution(phi, grad_phi, 0.5)
        bcs = _oracles.rectangle_bcs(pressure, velocity, ("right",))
        for n in (8, 16, 32):
            mesh = make_rectangle_mesh(2.0, 1.0, 2 * n, n, pattern)
            with pytest.raises(NonExistence) as err:
                self.solve("transformed", mesh, unit_fluid, self.XI, bcs)
            band = 0.1 / n**2
            f = phi(*mesh.nodes.T)
            found = np.zeros(mesh.n_nodes, dtype=bool)
            found[err.value.nodes] = True
            assert np.any(found)
            assert np.all(found[f <= -band]) and np.all(f[found] <= band)
            # Picard has no fixed point to reach: its report holds sweep 6
            with pytest.raises(NoConvergence) as err:
                self.solve("picard", mesh, unit_fluid, self.XI, bcs)
            assert err.value.report.iterations <= 8


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
