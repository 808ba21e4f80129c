"""Executable theorem checks: compatibility, extremum principles,
comparison, reciprocity residuals, and the bounded-flux law."""

import numpy as np
import pytest

from poroflow import (
    BodyForcePotential,
    BoundarySpec,
    Degenerate,
    FluidModel,
    NotApplicable,
    PartitionMismatch,
    PermeabilityField,
    ScalarField,
    TransformOverflow,
    make_rectangle_mesh,
    make_reservoir_mesh,
)
from poroflow import barus_direct as bd
from poroflow import darcy_linear as dl
from poroflow import transform as tr
from poroflow import verification as vf

import _oracles

ZERO_XI = BodyForcePotential.zero()


def reservoir_setup(fluid, nx=30, ny=10, k=1e-12):
    mesh = make_reservoir_mesh(100.0, 30.0, 0.2, nx, ny)
    K = PermeabilityField.isotropic(mesh, k)
    return mesh, K


def reservoir_bcs(p_inj, p_atm):
    return BoundarySpec(pressure={"inlet": p_inj, "well": p_atm}, velocity={"wall": 0.0})


class TestCompatibility:
    def test_closed_box(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
        bcs = BoundarySpec(
            pressure={}, velocity={"left": 0.0, "right": 0.0, "top": 0.0, "bottom": 0.0}
        )
        rep = vf.compatibility_check(mesh, bcs)
        assert rep.compatible
        assert rep.net_flux == 0.0

    def test_balanced_through_flow(self):
        mesh = make_rectangle_mesh(2.0, 1.0, 4, 4)
        bcs = BoundarySpec(
            pressure={},
            velocity={"left": -1.0, "right": 1.0, "top": 0.0, "bottom": 0.0},
        )
        rep = vf.compatibility_check(mesh, bcs)
        assert rep.compatible
        assert abs(rep.net_flux) < 1e-12

    def test_unbalanced_inflow(self):
        mesh = make_rectangle_mesh(2.0, 1.0, 4, 4)
        bcs = BoundarySpec(
            pressure={},
            velocity={"left": -1.0, "right": 0.5, "top": 0.0, "bottom": 0.0},
        )
        rep = vf.compatibility_check(mesh, bcs)
        assert not rep.compatible
        assert rep.net_flux == pytest.approx(-0.5, rel=1e-12)

    def test_pressure_segment_anchors(self):
        mesh = make_rectangle_mesh(2.0, 1.0, 4, 4)
        bcs = BoundarySpec(
            pressure={"right": 0.0},
            velocity={"left": -1.0, "top": 0.0, "bottom": 0.0},
        )
        assert vf.compatibility_check(mesh, bcs).compatible


class TestMinMaxPrinciples:
    def test_constant_field_satisfied(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs = reservoir_bcs(table1_fluid.p0, table1_fluid.p0)
        field = ScalarField.constant(mesh, table1_fluid.p0)
        assert vf.check_min_principle(field, bcs).satisfied
        assert vf.check_max_principle(field, bcs).satisfied

    def test_pressure_only_data(self):
        # no velocity segment: both principles apply, with no sign to test
        mesh = make_rectangle_mesh(1.0, 1.0, 6, 6)
        bcs = BoundarySpec(
            pressure={"left": 2.0, "right": 1.0, "top": lambda x, y: 2.0 - x, "bottom": lambda x, y: 2.0 - x},
            velocity={},
        )
        system = dl.assemble(mesh, np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2)), bcs)
        field = dl.solve(system).field
        lo, hi = vf.check_min_principle(field, bcs), vf.check_max_principle(field, bcs)
        assert lo.satisfied and hi.satisfied
        assert (lo.bound, hi.bound) == (1.0, 2.0)

    def test_strip_inflow_minimum_at_outlet(self, table1_fluid):
        # inflow at the left (v.n = -v0 < 0): minimum principle applies and
        # the minimum sits on the pressure boundary
        mesh = make_rectangle_mesh(100.0, 10.0, 40, 4)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        bcs = BoundarySpec(
            pressure={"right": table1_fluid.p0},
            velocity={"left": -2.0, "top": 0.0, "bottom": 0.0},
        )
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        rep = vf.check_min_principle(report.p, bcs)
        assert rep.satisfied
        argmin = int(np.argmin(report.p.values))
        assert argmin in mesh.nodes_with_label("right")

    def test_reservoir_both_principles(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        p_inj = 50 * table1_fluid.p0
        bcs = reservoir_bcs(p_inj, table1_fluid.p0)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        lo = vf.check_min_principle(report.p, bcs)
        hi = vf.check_max_principle(report.p, bcs)
        assert lo.satisfied and hi.satisfied
        assert lo.bound == pytest.approx(table1_fluid.p0)
        assert hi.bound == pytest.approx(p_inj)

    def test_corrupted_field_detected(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs = reservoir_bcs(10 * table1_fluid.p0, table1_fluid.p0)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        values = report.p.values.copy()
        interior = np.setdiff1d(
            np.arange(mesh.n_nodes), np.unique(mesh.boundary_edges)
        )
        victim = int(interior[3])
        values[victim] = 0.5 * table1_fluid.p0  # below the boundary minimum
        rep = vf.check_min_principle(ScalarField(mesh, values), bcs)
        assert not rep.satisfied
        assert victim in rep.violation_nodes

    def test_not_applicable_on_outflow(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs = BoundarySpec(
            pressure={"inlet": table1_fluid.p0, "well": table1_fluid.p0},
            velocity={"wall": 0.5},
        )
        field = ScalarField.constant(mesh, table1_fluid.p0)
        with pytest.raises(NotApplicable):
            vf.check_min_principle(field, bcs)
        bcs2 = BoundarySpec(
            pressure={"inlet": table1_fluid.p0, "well": table1_fluid.p0},
            velocity={"wall": -0.5},
        )
        with pytest.raises(NotApplicable):
            vf.check_max_principle(field, bcs2)

    def test_interpolation_cross_check(self, table1_fluid):
        # independent re-check of the nodal scan: random interior points of
        # the P1 interpolant stay inside the boundary-data interval
        mesh, K = reservoir_setup(table1_fluid, nx=20, ny=8)
        p_inj = 25 * table1_fluid.p0
        bcs = reservoir_bcs(p_inj, table1_fluid.p0)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        assert vf.check_min_principle(report.p, bcs).satisfied
        assert vf.check_max_principle(report.p, bcs).satisfied
        rng = np.random.default_rng(42)
        pts = np.column_stack(
            [rng.uniform(0.5, 99.5, 50), rng.uniform(0.5, 29.5, 50)]
        )
        tol = 1e-10 * (p_inj - table1_fluid.p0)
        for pt in pts:
            val = _oracles.p1_interpolate(report.p, pt)
            assert table1_fluid.p0 - tol <= val <= p_inj + tol

    def test_bound_is_the_eliminated_value_at_a_shared_node(self):
        # "left" reaches 3.3 only at the corner (0, 1.3) it shares with
        # "top", whose 1.0 is the value the assembly eliminates there: the
        # largest datum is left's 2 + 6/7 * 1.3 one node below
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7)
        bcs = BoundarySpec(
            pressure={"left": lambda x, y: 2.0 + y, "top": lambda x, y: 1.0 - 0.1 * x},
            velocity={"bottom": 0.0, "right": 0.0},
        )
        values = np.ones(mesh.n_nodes)
        victim = 3 * (mesh.nx + 1) + 5  # an interior node
        values[victim] = 3.25
        rep = vf.check_max_principle(ScalarField(mesh, values), bcs)
        assert rep.bound == pytest.approx(2.0 + 6.0 / 7.0 * 1.3, rel=1e-15)
        assert not rep.satisfied
        assert rep.violation_nodes.tolist() == [victim]


class TestComparison:
    def test_identical_bcs_ordered(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs = reservoir_bcs(10 * table1_fluid.p0, table1_fluid.p0)
        report = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        rep = vf.check_comparison(report.p, report.p, bcs, bcs)
        assert rep.ordered

    def test_doubled_injection_dominates(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        p1 = 20 * table1_fluid.p0
        bcs1 = reservoir_bcs(p1, table1_fluid.p0)
        bcs2 = reservoir_bcs(2 * p1, table1_fluid.p0)
        r1 = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs1)
        r2 = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs2)
        rep = vf.check_comparison(r1.p, r2.p, bcs1, bcs2)
        assert rep.ordered
        assert rep.violation_nodes.size == 0

    def test_swapped_arguments_not_applicable(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        p1 = 20 * table1_fluid.p0
        bcs1 = reservoir_bcs(p1, table1_fluid.p0)
        bcs2 = reservoir_bcs(2 * p1, table1_fluid.p0)
        r1 = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs1)
        r2 = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs2)
        with pytest.raises(NotApplicable):
            vf.check_comparison(r2.p, r1.p, bcs2, bcs1)

    def test_partition_mismatch(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs1 = reservoir_bcs(2e6, table1_fluid.p0)
        bcs2 = BoundarySpec(
            pressure={"inlet": 2e6, "well": table1_fluid.p0, "wall": 1e5}, velocity={}
        )
        f = ScalarField.constant(mesh, 1e5)
        with pytest.raises(PartitionMismatch):
            vf.check_comparison(f, f, bcs1, bcs2)


def transformed_flux_solution(report):
    return vf.FluxSolution(field=report.P, reactions=report.reactions)


def modified_pressure_solution(report, mesh):
    # zero body-force potential: the modified pressure equals the pressure
    return vf.FluxSolution(field=report.p, reactions=report.reactions)


def corner_layouts():
    """Two problems on the unit square with pressure on "left" and
    "bottom", which meet at (0, 0) and disagree there, and normal velocity
    on "right" and "top"."""
    return [
        BoundarySpec(
            pressure={"left": lambda x, y: 1.5 + 0.2 * y, "bottom": lambda x, y: 1.0 + 0.3 * x},
            velocity={"right": 0.1, "top": lambda x, y: -0.2 * x},
        ),
        BoundarySpec(
            pressure={"left": 1.2, "bottom": lambda x, y: 1.4 - 0.3 * x * x},
            velocity={"right": lambda x, y: 0.05 + 0.1 * y, "top": -0.1},
        ),
    ]


@pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
@pytest.mark.parametrize("layout", [0, 1])
def test_pressure_fluxes_sum_to_net_reaction(layout, pattern):
    # "left" and "bottom" share the node (0, 0), which "bottom", the later
    # label, owns: counted in both, the sum read 0.28125 on layout 0
    mesh = make_rectangle_mesh(1.0, 1.0, 8, 8, pattern)
    mobility = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2))
    bcs = corner_layouts()[layout]
    system = dl.assemble(mesh, mobility, bcs)
    field = dl.solve(system).field
    reactions = dl.nodal_reactions(system, field)
    total = sum(dl.boundary_flux(field, system, label) for label in bcs.pressure)
    assert abs(total - reactions.sum()) <= 1e-13 * np.abs(reactions).max()


class TestReciprocityDarcy:
    def test_identical_solutions_zero(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs = reservoir_bcs(10 * table1_fluid.p0, table1_fluid.p0)
        rep = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        tbcs = dl.transform_bcs(bcs, table1_fluid, ZERO_XI)
        sol = transformed_flux_solution(rep)
        assert vf.reciprocity_residual_darcy(sol, sol, tbcs, tbcs, mesh) < 1e-15

    def test_two_triangle_brute_force(self):
        # hand-built one-cell problem; every integral re-derived with
        # composite-Simpson quadrature and per-edge constant velocities
        mesh = make_rectangle_mesh(1.0, 1.0, 1, 1)
        mob = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()

        def solve_pair(p_left, vn_right):
            bcs = BoundarySpec(
                pressure={"left": p_left},
                velocity={"right": vn_right, "top": 0.0, "bottom": 0.0},
            )
            system = dl.assemble(mesh, mob, bcs)
            result = dl.solve(system)
            v = dl.recover_velocity(result.field, system)
            return result.field, dl.nodal_reactions(system, result.field), bcs, v

        f1, r1, bcs1, v1 = solve_pair(2.0, 0.75)
        f2, r2, bcs2, v2 = solve_pair(-1.0, -0.25)

        residual = vf.reciprocity_residual_darcy(
            vf.FluxSolution(f1, r1), vf.FluxSolution(f2, r2), bcs1, bcs2, mesh
        )
        assert residual < 1e-12

        # brute force: Gamma_v term via dense Simpson on the right edge,
        # Gamma_p term via v.n integrated on the left edge (v is constant
        # per triangle, the trace is exact for this solution)
        right = mesh.edges_with_label("right")[0]
        left = mesh.edges_with_label("left")[0]

        def gamma_v(vn, field):
            a, b = field.values[right[0]], field.values[right[1]]
            return _oracles.edge_integral(a, b, 1.0, lambda s: vn * s)

        vx_left_1 = float(np.mean(v1.values[:, 0]))  # left edge: n = (-1, 0)
        vx_left_2 = float(np.mean(v2.values[:, 0]))

        # each flux is weighted by the *other* problem's Dirichlet datum
        lhs = gamma_v(-0.25, f1) - (-1.0) * (-vx_left_1) * 1.0
        rhs = gamma_v(0.75, f2) - 2.0 * (-vx_left_2) * 1.0
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
        # the consistent reactions agree with the direct integrals
        left_nodes = mesh.nodes_with_label("left")
        assert r1[left_nodes].sum() == pytest.approx(-vx_left_1, abs=1e-12)
        assert r2[left_nodes].sum() == pytest.approx(-vx_left_2, abs=1e-12)

    def test_reservoir_pair(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid, nx=40, ny=12)
        bcs1 = reservoir_bcs(10 * table1_fluid.p0, table1_fluid.p0)
        bcs2 = reservoir_bcs(100 * table1_fluid.p0, table1_fluid.p0)
        r1 = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs1)
        r2 = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs2)
        res = vf.reciprocity_residual_darcy(
            transformed_flux_solution(r1),
            transformed_flux_solution(r2),
            dl.transform_bcs(bcs1, table1_fluid, ZERO_XI),
            dl.transform_bcs(bcs2, table1_fluid, ZERO_XI),
            mesh,
        )
        assert res < 10 * 1e-12

    def test_residual_tracks_solver_tolerance(self, table1_fluid):
        # inexact solves of the transformed systems by reference CG
        mesh, K = reservoir_setup(table1_fluid, nx=25, ny=8)
        mobility = dl.mobility_tensors(mesh, table1_fluid, ZERO_XI, K)
        tbcs = [
            dl.transform_bcs(reservoir_bcs(c * table1_fluid.p0, table1_fluid.p0),
                             table1_fluid, ZERO_XI)
            for c in (10, 100)
        ]
        systems = [dl.assemble(mesh, mobility, t) for t in tbcs]

        def cg_solution(system, rtol):
            values = system.lift.copy()
            values[system.is_free] = _oracles.jacobi_cg(system.A_red, system.b_red, rtol)
            field = ScalarField(mesh, values)
            return vf.FluxSolution(field=field, reactions=dl.nodal_reactions(system, field))

        residuals = []
        for rtol in (1e-6, 1e-9, 1e-12):
            s1, s2 = (cg_solution(system, rtol) for system in systems)
            residuals.append(vf.reciprocity_residual_darcy(s1, s2, *tbcs, mesh))
        assert residuals[0] >= residuals[1] >= residuals[2]
        assert residuals[2] < residuals[0]

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    def test_pressure_segments_sharing_a_corner(self, pattern):
        # "left" and "bottom" share the node (0, 0): its reaction enters
        # each Gamma_p sum once, weighted by the value the assembly
        # eliminates there
        mesh = make_rectangle_mesh(1.0, 1.0, 8, 8, pattern)
        mobility = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2))
        specs = corner_layouts()
        sols = []
        for bcs in specs:
            system = dl.assemble(mesh, mobility, bcs)
            field = dl.solve(system).field
            sols.append(vf.FluxSolution(field, dl.nodal_reactions(system, field)))
        assert vf.reciprocity_residual_darcy(*sols, *specs, mesh) <= 1e-12

    def test_partition_mismatch(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs1 = reservoir_bcs(2e6, table1_fluid.p0)
        bcs2 = BoundarySpec(
            pressure={"inlet": 2e6, "well": 1e5, "wall": 1e5}, velocity={}
        )
        rep = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs1)
        sol = transformed_flux_solution(rep)
        with pytest.raises(PartitionMismatch):
            vf.reciprocity_residual_darcy(sol, sol, bcs1, bcs2, mesh)


class TestReciprocityBarus:
    def test_identical_solutions_zero(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs = reservoir_bcs(10 * table1_fluid.p0, table1_fluid.p0)
        rep = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        sol = modified_pressure_solution(rep, mesh)
        assert (
            vf.reciprocity_residual_barus(sol, sol, bcs, bcs, mesh, table1_fluid)
            < 1e-15
        )

    def test_strip_closed_forms_pointwise(self, table1_fluid):
        # in 1D the four boundary terms are point evaluations; the identity
        # holds exactly for the closed forms
        from poroflow import oned_analytic as o1

        vstar = 8.550632911392405
        L, k = 100.0, 1e-12
        beta, p0 = table1_fluid.beta, table1_fluid.p0

        def terms(prob_a, prob_b):
            # Gamma_v = {x=0} with v.n = -v0_b; Gamma_p = {x=L} with v.n = +v0_a
            e_a0 = np.exp(-beta * (o1.direct_pressure_1d(0.0, prob_a) / p0 - 1.0))
            e_bL = np.exp(-beta * (prob_b.p_R / p0 - 1.0))
            return (-prob_b.v0) * e_a0 - e_bL * prob_a.v0

        p1 = o1.StripProblem(L=L, k=k, fluid=table1_fluid, v0=0.3 * vstar)
        p2 = o1.StripProblem(L=L, k=k, fluid=table1_fluid, v0=0.7 * vstar)
        lhs = terms(p1, p2)
        rhs = terms(p2, p1)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_strip_fem_pair(self, table1_fluid):
        # the same two velocity-driven problems through the 2D kernel
        vstar = 8.550632911392405
        mesh = make_rectangle_mesh(100.0, 10.0, 40, 4)
        K = PermeabilityField.isotropic(mesh, 1e-12)

        def run(v0):
            bcs = BoundarySpec(
                pressure={"right": table1_fluid.p0},
                velocity={"left": -v0, "top": 0.0, "bottom": 0.0},
            )
            rep = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
            return modified_pressure_solution(rep, mesh), bcs

        sol1, bcs1 = run(0.3 * vstar)
        sol2, bcs2 = run(0.7 * vstar)
        res = vf.reciprocity_residual_barus(sol1, sol2, bcs1, bcs2, mesh, table1_fluid)
        assert res < 1e-8

    def test_reservoir_pair_hopf_cole_path(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid, nx=40, ny=12)
        bcs1 = reservoir_bcs(10 * table1_fluid.p0, table1_fluid.p0)
        bcs2 = reservoir_bcs(100 * table1_fluid.p0, table1_fluid.p0)
        r1 = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs1)
        r2 = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs2)
        res = vf.reciprocity_residual_barus(
            modified_pressure_solution(r1, mesh),
            modified_pressure_solution(r2, mesh),
            bcs1,
            bcs2,
            mesh,
            table1_fluid,
        )
        assert res < 1e-6

    def test_pressure_segments_sharing_a_corner_converge(self, unit_fluid):
        # the nonlinear identity holds up to the discretization error, which
        # falls as O(h^2) once the corner (0, 0) is read once
        specs = corner_layouts()
        residuals = []
        for n in (8, 16, 32):
            mesh = make_rectangle_mesh(1.0, 1.0, n, n)
            K = PermeabilityField.isotropic(mesh, 1.0)
            sols = [
                modified_pressure_solution(
                    dl.solve_transformed_bvp(mesh, unit_fluid, ZERO_XI, K, bcs), mesh
                )
                for bcs in specs
            ]
            residuals.append(vf.reciprocity_residual_barus(*sols, *specs, mesh, unit_fluid))
        assert residuals[0] >= 3.5 * residuals[1] >= 3.5**2 * residuals[2]

    def test_overflowing_weight_raises(self, unit_fluid):
        # the weight exp[-beta*(ptilde/p0 - 1)] of a modified pressure of
        # -800 is e^801, beyond float64: an error, not a NaN defect
        mesh = make_rectangle_mesh(1.0, 1.0, 4, 4)
        bcs = BoundarySpec(
            pressure={"right": 1.0}, velocity={"left": -0.5, "top": 0.0, "bottom": 0.0}
        )
        field = ScalarField(mesh, np.full(mesh.n_nodes, -800.0))
        sol = vf.FluxSolution(field=field, reactions=np.zeros(mesh.n_nodes))
        with pytest.raises(TransformOverflow):
            vf.reciprocity_residual_barus(sol, sol, bcs, bcs, mesh, unit_fluid)

    def test_degenerate_beta(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        bcs = reservoir_bcs(2e6, table1_fluid.p0)
        rep = dl.solve_transformed_bvp(mesh, table1_fluid, ZERO_XI, K, bcs)
        sol = modified_pressure_solution(rep, mesh)
        with pytest.raises(Degenerate):
            vf.reciprocity_residual_barus(
                sol, sol, bcs, bcs, mesh, FluidModel(1.0, 0.0, 1.0)
            )


class TestCeilingFlux:
    def test_calibration_independent_of_pressure(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid, nx=40, ny=12)
        m1 = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10 * table1_fluid.p0)
        m2 = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 1000 * table1_fluid.p0)
        assert abs(m1.C - m2.C) <= 10 * 1e-12 * abs(m1.C)

    def test_calibration_at_production_pressure_rejected(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        with pytest.raises(ValueError):
            vf.calibrate_ceiling_flux(mesh, table1_fluid, K, table1_fluid.p0)

    def test_positive_constant(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        model = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10 * table1_fluid.p0)
        assert model.C > 0.0

    def test_zero_flux_at_production_pressure(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        model = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10 * table1_fluid.p0)
        assert vf.predict_flux(model, table1_fluid.p0) == 0.0

    def test_monotone_and_bounded(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        model = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10 * table1_fluid.p0)
        mults = np.array([1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6])
        q = [vf.predict_flux(model, m * table1_fluid.p0) for m in mults]
        assert all(b > a for a, b in zip(q, q[1:]))
        assert q[-1] < model.ceiling()

    def test_asymptote(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        model = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10 * table1_fluid.p0)
        q_far = vf.predict_flux(model, 1e12 * table1_fluid.p0)
        assert abs(q_far - model.ceiling()) <= 1e-9 * model.ceiling()

    @pytest.mark.parametrize("p_prod", [0.5, 1.0, 2.0])
    def test_predictions_match_solves_at_any_production_pressure(self, p_prod):
        # the law is linear in the Kirchhoff variable measured from p_prod,
        # so off calibration it matches the solve's well reaction to rounding
        fluid = FluidModel(mu0=1.0, beta=2.0, p0=1.0)
        mesh = make_reservoir_mesh(2.0, 1.0, 0.25, 32, 16)
        K = PermeabilityField.isotropic(mesh, 1.0)
        model = vf.calibrate_ceiling_flux(mesh, fluid, K, p_prod + 1.0, p_prod=p_prod)
        for dp in (0.3, 1.0, 3.0):
            bcs = reservoir_bcs(p_prod + dp, p_prod)
            rep = dl.solve_transformed_bvp(mesh, fluid, ZERO_XI, K, bcs)
            q_solve = float(rep.reactions[mesh.nodes_with_label("well")].sum())
            q_pred = vf.predict_flux(model, p_prod + dp)
            assert abs(q_pred - q_solve) <= 1e-12 * abs(q_solve)
            assert 0.0 < q_pred < model.ceiling()

    def test_predictions_match_direct_solves(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid, nx=40, ny=12)
        model = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10 * table1_fluid.p0)
        for mult in (100.0, 1000.0, 1e4):
            bcs = reservoir_bcs(mult * table1_fluid.p0, table1_fluid.p0)
            rep = bd.picard_solve(
                mesh, table1_fluid, ZERO_XI, K, bcs, bd.PicardConfig(tol=1e-10)
            )
            q_direct = float(rep.reactions[mesh.nodes_with_label("well")].sum())
            q_pred = vf.predict_flux(model, mult * table1_fluid.p0)
            # Picard solves the system the law is calibrated on: 1.4e-13,
            # 4.6e-14 and 1.7e-13
            assert abs(q_pred - q_direct) <= 1e-11 * abs(q_direct)

    def test_calibration_beyond_float64_raises(self):
        # exp[-beta*(p_inj/p0 - 1)] = e^-710 has no normal float64: the
        # calibration raises rather than return a flux law with C = 0
        fluid = FluidModel(mu0=1.0, beta=2.0, p0=1.0)
        mesh = make_reservoir_mesh(2.0, 1.0, 0.25, 8, 4)
        K = PermeabilityField.isotropic(mesh, 1.0)
        with pytest.raises(TransformOverflow):
            vf.calibrate_ceiling_flux(mesh, fluid, K, 356.0, p_prod=355.0)

    def test_degenerate_beta(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        with pytest.raises(Degenerate):
            vf.calibrate_ceiling_flux(mesh, FluidModel(1.0, 0.0, 1.0), K, 2.0)

    def test_prediction_below_production_rejected(self, table1_fluid):
        mesh, K = reservoir_setup(table1_fluid)
        model = vf.calibrate_ceiling_flux(mesh, table1_fluid, K, 10 * table1_fluid.p0)
        with pytest.raises(ValueError):
            vf.predict_flux(model, 0.5 * table1_fluid.p0)


def _lr_problem(top=0.0):
    """The unit square with pressure data on left and right, its velocity
    data top on "top", and a field on it."""
    mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
    bcs = BoundarySpec(pressure={"left": 1.0, "right": 0.0}, velocity={"top": top, "bottom": 0.0})
    return mesh, bcs, ScalarField(mesh, 1.0 - mesh.nodes[:, 0])


def _reciprocity_reactions_not_per_node(kind, size):
    """Reciprocity of the unit-square problem with itself, its reactions
    size long instead of one per node."""
    mesh, bcs, field = _lr_problem()
    good = vf.FluxSolution(field, np.zeros(mesh.n_nodes))
    bad = vf.FluxSolution(field, np.zeros(size))
    if kind == "darcy":
        return vf.reciprocity_residual_darcy(good, bad, bcs, bcs, mesh)
    return vf.reciprocity_residual_barus(bad, good, bcs, bcs, mesh, FluidModel(1.0, 1.0, 1.0))


def _sealed_box():
    mesh = make_rectangle_mesh(1.0, 1.0, 3, 3)
    bcs = BoundarySpec(pressure={}, velocity={label: 0.0 for label in mesh.labels})
    return ScalarField.constant(mesh, 1.0), bcs


def _comparison_on_two_meshes():
    (_, bcs, sol1), (_, _, sol2) = _lr_problem(), _lr_problem()
    return vf.check_comparison(sol1, sol2, bcs, bcs)


def _comparison_velocity_not_ordered():
    _, bcs1, sol = _lr_problem(top=0.0)
    _, bcs2, _ = _lr_problem(top=1.0)
    return vf.check_comparison(sol, sol, bcs1, bcs2)


def _reciprocity_on_another_mesh():
    mesh, bcs, field = _lr_problem()
    sol = vf.FluxSolution(field, np.zeros(mesh.n_nodes))
    return vf.reciprocity_residual_darcy(sol, sol, bcs, bcs, make_rectangle_mesh(1.0, 1.0, 3, 3))


NOT_CHECKABLE = {
    "min_principle_no_pressure": (
        lambda: vf.check_min_principle(*_sealed_box()), NotApplicable, "no pressure segment"
    ),
    "max_principle_no_pressure": (
        lambda: vf.check_max_principle(*_sealed_box()), NotApplicable, "no pressure segment"
    ),
    "comparison_on_two_meshes": (_comparison_on_two_meshes, PartitionMismatch, "same mesh"),
    "comparison_velocity_not_ordered": (
        _comparison_velocity_not_ordered, NotApplicable, r"v_n\(1\) >= v_n\(2\) fails on segment 'top'"
    ),
    "reciprocity_on_another_mesh": (
        _reciprocity_on_another_mesh, PartitionMismatch, "defined on the given mesh"
    ),
    # too few reactions, which indexing fails on, and too many, which it
    # would read the wrong entries of
    **{
        f"{kind}_reciprocity_reactions_{size}": (
            lambda kind=kind, size=size: _reciprocity_reactions_not_per_node(kind, size),
            PartitionMismatch,
            "one value per node",
        )
        for kind in ("darcy", "barus")
        for size in (3, 17)
    },
}


@pytest.mark.parametrize("case", list(NOT_CHECKABLE))
def test_check_outside_its_hypotheses_raises(case):
    run, error, message = NOT_CHECKABLE[case]
    with pytest.raises(error, match=message):
        run()
