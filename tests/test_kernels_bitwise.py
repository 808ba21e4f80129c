"""The per-triangle kernels and the boundary-data loops, and the solves
built on them, give the same bits as the earlier formulations kept in
_oracles: (n_tri, 3, .) gathers and one hand-written edge loop per caller."""

import contextlib

import numpy as np
import pytest

from poroflow import (
    BodyForcePotential,
    BoundarySpec,
    FluidModel,
    Mesh,
    NoConvergence,
    PermeabilityField,
    ScalarField,
    SingularMobility,
    VectorField,
    make_rectangle_mesh,
    make_reservoir_mesh,
)
from poroflow import barus_direct as bd
from poroflow import darcy_linear as dl
from poroflow import geometry
from poroflow import transform as tr
from poroflow import verification as vf

import _oracles

TABLE1 = FluidModel(mu0=3.95e-5, beta=3e-6, p0=101325.0)
UNIT = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
ZERO_XI = BodyForcePotential.zero()
# a callable potential that happens to vanish: it takes the general path
CALLABLE_ZERO_XI = BodyForcePotential(lambda x, y: np.zeros_like(x))


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def jittered(mesh, seed=0):
    """The same topology with interior nodes moved by up to a fifth of a
    cell, so that coordinates carry full-precision bits."""
    L, H = mesh.extent
    h = min(L / mesh.nx, H / mesh.ny)
    nodes = mesh.nodes.copy()
    inner = np.ones(mesh.n_nodes, dtype=bool)
    inner[mesh.boundary_edges.ravel()] = False
    rng = np.random.default_rng(seed)
    nodes[inner] += rng.uniform(-0.2 * h, 0.2 * h, size=(int(inner.sum()), 2))
    return Mesh(
        nodes=nodes,
        triangles=mesh.triangles,
        boundary_edges=mesh.boundary_edges,
        edge_labels=mesh.edge_labels,
        nx=mesh.nx,
        ny=mesh.ny,
        extent=mesh.extent,
    ).validate()


MESHES = {
    "diagonal": lambda: make_rectangle_mesh(3.0, 1.3, 11, 7),
    "crossed": lambda: make_rectangle_mesh(3.0, 1.3, 11, 7, pattern="crossed"),
    "jittered_diagonal": lambda: jittered(make_rectangle_mesh(3.0, 1.3, 11, 7)),
    "jittered_crossed": lambda: jittered(make_rectangle_mesh(3.0, 1.3, 9, 5, "crossed"), 1),
    "reservoir": lambda: make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12),
}


@pytest.fixture(params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


@pytest.fixture
def earlier_kernels(monkeypatch):
    """Context manager that swaps the earlier formulations in."""

    @contextlib.contextmanager
    def swap():
        with monkeypatch.context() as m:
            m.setattr(geometry.Mesh, "signed_areas", _oracles.signed_areas_gathered)
            m.setattr(geometry.Mesh, "centroids", _oracles.centroids_gathered)
            m.setattr(dl, "p1_gradients", _oracles.p1_gradients_gathered)
            m.setattr(dl, "mobility_tensors", _oracles.mobility_at_centroids)
            m.setattr(geometry, "_tensor_scale", _oracles.tensor_scale_over_axes)
            m.setattr(dl, "_tensor_scale", _oracles.tensor_scale_over_axes)
            m.setattr(dl, "_neumann_load", _oracles.neumann_load_per_label)
            m.setattr(dl, "_pressure_data", _oracles.dirichlet_values_per_node)
            yield

    return swap


class TestKernels:
    def test_signed_areas(self, mesh):
        assert_bitwise(mesh.signed_areas(), _oracles.signed_areas_gathered(mesh))

    def test_centroids(self, mesh):
        assert_bitwise(mesh.centroids(), _oracles.centroids_gathered(mesh))

    def test_p1_gradients(self, mesh):
        grads, areas = dl.p1_gradients(mesh)
        ref_grads, ref_areas = _oracles.p1_gradients_gathered(mesh)
        assert_bitwise(grads, ref_grads)
        assert_bitwise(areas, ref_areas)

    @pytest.mark.parametrize("fluid", [TABLE1, UNIT], ids=["table1", "unit"])
    def test_mobility_zero_potential(self, mesh, fluid):
        rng = np.random.default_rng(7)
        K = PermeabilityField.isotropic_per_cell(mesh, rng.uniform(1e-13, 1e-11, mesh.n_triangles))
        ref = _oracles.mobility_at_centroids(mesh, fluid, ZERO_XI, K)
        assert_bitwise(dl.mobility_tensors(mesh, fluid, ZERO_XI, K), ref)
        assert_bitwise(dl.mobility_tensors(mesh, fluid, CALLABLE_ZERO_XI, K), ref)

    def test_mobility_nonzero_potential(self, mesh):
        xi = BodyForcePotential(lambda x, y: 1e3 * y - 7.0 * x)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        assert_bitwise(
            dl.mobility_tensors(mesh, TABLE1, xi, K),
            _oracles.mobility_at_centroids(mesh, TABLE1, xi, K),
        )

    def test_boundary_flux_direct(self, mesh):
        rng = np.random.default_rng(3)
        v = VectorField(mesh, rng.standard_normal((mesh.n_triangles, 2)))
        for label in mesh.labels:
            got = dl.boundary_flux_direct(v, mesh, label)
            assert got == _oracles.boundary_flux_direct_sorted(v, mesh, label)


class TestLabelGeometry:
    """The boundary geometry each mesh keeps per label is the geometry every
    read computed before, bit for bit, and it is read-only."""

    @staticmethod
    def assert_uncached(mesh):
        for label in mesh.labels:
            segment = mesh._segment(label)
            edges, nodes, node_xy, gauss, samples = _oracles.label_geometry_uncached(mesh, label)
            assert_bitwise(segment.edges, edges)
            assert_bitwise(segment.nodes, nodes)
            assert_bitwise(mesh.edges_with_label(label), edges)
            assert_bitwise(mesh.nodes_with_label(label), nodes)
            for got, want in zip(segment.node_xy + segment.samples, node_xy + samples):
                assert_bitwise(got, want)
            assert len(segment.gauss) == len(gauss) == 2
            for got, want in zip(segment.gauss, gauss):
                for a, b in zip(got, want):
                    assert_bitwise(a, b)

    def test_cached_equals_uncached(self, mesh):
        self.assert_uncached(mesh)

    def test_cached_arrays_read_only(self, mesh):
        for label in mesh.labels:
            segment = mesh._segment(label)
            assert mesh.nodes_with_label(label) is segment.nodes
            assert mesh.edges_with_label(label) is segment.edges
            arrays = [segment.edges, segment.nodes, *segment.node_xy, *segment.samples]
            arrays += [a for _, *point in segment.gauss for a in point]
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = a[0]

    def test_callable_cannot_change_the_geometry(self, mesh):
        def writes(x, y):
            x += 1.0
            return x

        label = mesh.labels[0]
        bcs = BoundarySpec(pressure={label: writes}, velocity={})
        with pytest.raises(ValueError):
            geometry._pressure_data(mesh, bcs)
        with pytest.raises(ValueError):
            list(geometry._edge_quadrature(mesh, label, writes))
        with pytest.raises(ValueError):
            geometry._edge_samples(mesh, label, writes)
        self.assert_uncached(mesh)


@pytest.mark.parametrize("data", ["all_pressure", "last_label", "pure_velocity"])
def test_dirichlet_rows_and_reactions(mesh, data):
    # the Dirichlet rows a held system carries are scipy's row indexing of
    # its raw matrix at dirichlet, bit for bit; the coupling's entries are
    # those of the rows in free columns, read one by one, with the held raw
    # matrix's values, and a Picard sweep's refilled values are those of its
    # raw matrix, built in the test; the reactions formed from the held
    # rows are nodal_reactions there
    if data == "all_pressure":
        bcs = all_pressure(mesh)
    else:
        last = mesh.labels[-1] if data == "last_label" else None
        bcs = BoundarySpec(
            pressure={} if last is None else {last: lambda x, y: 1.0 + x},
            velocity={label: 0.0 for label in mesh.labels if label != last},
        )
    held = dl.assemble(mesh, cell_mobility(mesh, True), bcs)
    coupling = dl._entry.coupling
    scaling = dl._edge_scaling(held)
    scale = np.random.default_rng(4).uniform(0.5, 2.0, scaling.edges[0].size)
    scaling.refill(held, scale)
    sweep_raw = _oracles.scaled_stiffness(held.raw_matrix, scaling.edges, scale)
    want = held.raw_matrix[held.dirichlet]
    got = held.dirichlet_rows
    assert got.shape == want.shape
    assert_bitwise(got.indptr.astype(np.int64), want.indptr.astype(np.int64))
    assert_bitwise(got.indices.astype(np.int64), want.indices.astype(np.int64))
    assert_bitwise(got.data, want.data)
    assert scaling.values is not coupling.values
    for values, raw in ((coupling.values, held.raw_matrix), (scaling.values, sweep_raw)):
        dnode, column, want_values = _oracles.coupling_entries(raw, held.dirichlet, held.is_free)
        assert_bitwise(coupling.dnode.astype(np.int64), dnode)
        assert_bitwise(coupling.nodes[coupling.slot].astype(np.int64), column)
        assert_bitwise(values, want_values)
    P = rough_field(mesh)
    reactions = dl.nodal_reactions(held, P)[held.dirichlet]
    assert_bitwise(dl._reactions(held, P.values), reactions)


def cell_mobility(mesh, anisotropic, seed=11):
    """Per-cell SPD tensors: random isotropic ones, or random full ones."""
    rng = np.random.default_rng(seed)
    n = mesh.n_triangles
    a = rng.uniform(0.5, 2.0, n)
    if not anisotropic:
        return a[:, None, None] * np.eye(2)
    d = rng.uniform(0.5, 2.0, n)
    b = rng.uniform(-0.4, 0.4, n) * np.sqrt(a * d)
    return np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2)


def all_pressure(mesh):
    """Boundary data with a pressure on every label."""
    return BoundarySpec(
        pressure={label: lambda x, y: 1.0 + x - 0.5 * y for label in mesh.labels}, velocity={}
    )


def rough_field(mesh, seed=12):
    rng = np.random.default_rng(seed)
    return ScalarField(mesh, 3.0 + rng.standard_normal(mesh.n_nodes))


@pytest.mark.parametrize("anisotropic", [False, True], ids=["isotropic", "anisotropic"])
class TestFluxOperator:
    """recover_velocity sums the corner fluxes M grad(phi_j) P_j through the
    flux operator the system carries: within rounding of the earlier
    M (sum_j grad(phi_j) P_j), and the same bits after the entry that
    built it has been replaced or freed."""

    def test_matches_tensor_times_gradient(self, mesh, anisotropic):
        mob = cell_mobility(mesh, anisotropic)
        P = rough_field(mesh)
        ref = _oracles.velocity_einsum(P, mob)
        v = dl.recover_velocity(P, dl.assemble(mesh, mob, all_pressure(mesh))).values
        assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_cold_and_warm_same_bits(self, mesh, anisotropic, monkeypatch):
        # cold: the velocity of a system whose entry was replaced (another
        # mesh assembled) or freed (a failed factorization); warm: that of a
        # fresh assembly, whose entry is held
        mob = cell_mobility(mesh, anisotropic)
        P = rough_field(mesh)
        replaced = dl.assemble(mesh, mob, all_pressure(mesh))
        other = make_rectangle_mesh(1.0, 1.0, 2, 2)
        dl.assemble(other, cell_mobility(other, anisotropic), all_pressure(other))
        v_replaced = dl.recover_velocity(P, replaced).values
        freed = dl.assemble(mesh, mob, all_pressure(mesh))

        factor = dl._factor

        def singular(A, *args):
            # the real factorization of A with every value zeroed: it fails
            return factor(0.0 * A, *args)

        monkeypatch.setattr(dl, "_factor", singular)
        with pytest.raises(NoConvergence):
            dl.solve(freed)
        assert dl._entry is None
        v_freed = dl.recover_velocity(P, freed).values
        fresh = dl.assemble(mesh, mob.copy(), all_pressure(mesh))
        assert fresh.flux_operator[0] is not freed.flux_operator[0]
        expected = dl.recover_velocity(P, fresh).values
        assert_bitwise(v_replaced, expected)
        assert_bitwise(v_freed, expected)

    def test_operator_arrays(self, mesh, anisotropic):
        mob = cell_mobility(mesh, anisotropic)
        dl.assemble(mesh, mob, all_pressure(mesh))
        vx, vy = dl._entry.flux_operator
        assert vx.shape == vy.shape == (mesh.n_triangles, mesh.n_nodes)
        assert vx.nnz == vy.nnz == 3 * mesh.n_triangles
        assert vx.indices.dtype == vx.indptr.dtype == np.int32
        assert np.shares_memory(vx.indices, vy.indices)
        assert np.shares_memory(vx.indptr, vy.indptr)
        assert_bitwise(vx.indices, mesh.triangles.astype(np.int32).ravel())
        fx, fy = dl._corner_fluxes(dl.p1_gradients(mesh)[0], mob)
        assert_bitwise(vx.data, fx.ravel())
        assert_bitwise(vy.data, fy.ravel())


def test_pressure_flux_reads_its_rows(mesh):
    # the rows of the reactions each label owns (every label is a pressure
    # label here, and a corner belongs to the later one), summed in the
    # order of the full reaction vector: the same bits on every label
    mob = cell_mobility(mesh, True)
    system = dl.assemble(mesh, mob, all_pressure(mesh))
    P = rough_field(mesh)
    for label in mesh.labels:
        got = dl.boundary_flux(P, system, label)
        assert got == _oracles.pressure_flux_full_reactions(P, system, label)


P_GRID = np.linspace(-2e5, 4e9, 97)
XI_GRID = np.linspace(-1e6, 3e6, 97)
TRANSFORM_INPUTS = {
    "scalar": (2e6, 0.0),
    "scalar_xi": (2e6, -3e5),
    "array": (P_GRID, 0.0),
    "array_xi": (P_GRID, XI_GRID),
    "scalar_p_array_xi": (2e6, XI_GRID),
}


class TestTransformKernel:
    """hopf_cole_inverse is the negated kirchhoff_ceiling at p + xi, the
    one exponential of the law; negation is exact, so it keeps the bits of
    its own earlier formulation, on scalars and arrays alike."""

    @pytest.mark.parametrize("fluid, unit", [(TABLE1, 1.0), (UNIT, 1e-9)], ids=["table1", "unit"])
    @pytest.mark.parametrize("case", list(TRANSFORM_INPUTS))
    def test_hopf_cole_inverse(self, fluid, unit, case):
        p, xi = (v * unit for v in TRANSFORM_INPUTS[case])
        got = tr.hopf_cole_inverse(p, xi, fluid)
        want = _oracles.hopf_cole_inverse_by_hand(p, xi, fluid)
        assert type(got) is type(want)
        assert_bitwise(got, want)
        assert_bitwise(tr.kirchhoff_ceiling(fluid, np.add(p, xi)), -want)


# Every mesh the makers build, with the reservoir's well at the bottom, in
# the middle and at the top of the right side, so that "wall" is one run or
# several.
MAKER_MESHES = {
    f"{maker}_{pattern}_{shape}": (maker, pattern, shape)
    for maker in ("rectangle", "reservoir_low", "reservoir_mid", "reservoir_high")
    for pattern in ("diagonal", "crossed")
    for shape in ((1, 1), (7, 3), (11, 7))
}


def maker_mesh(maker, pattern, shape):
    if maker == "rectangle":
        return make_rectangle_mesh(3.0, 1.3, *shape, pattern)
    offset = {"reservoir_low": -15.0, "reservoir_mid": 0.0, "reservoir_high": 15.0}[maker]
    return make_reservoir_mesh(100.0, 30.0, 4.0, *shape, offset, pattern)


def unit_system(mesh, bcs):
    K = PermeabilityField.isotropic(mesh, 1.0)
    return dl.assemble(mesh, dl.mobility_tensors(mesh, UNIT, ZERO_XI, K), bcs)


class TestFastPaths:
    """The preconditions the fast paths rest on, and their bits against the
    formulations they replace."""

    @pytest.mark.parametrize("name", sorted(MAKER_MESHES))
    def test_label_edge_ends_distinct_and_load_bitwise(self, name):
        # the Neumann load adds each label's terms by an indexed add, which
        # adds a term once per index: a label's edge starts are distinct,
        # and so are its edge ends
        mesh = maker_mesh(*MAKER_MESHES[name])
        for label in mesh.labels:
            edges = mesh.edges_with_label(label)
            assert np.unique(edges[:, 0]).size == len(edges)
            assert np.unique(edges[:, 1]).size == len(edges)
        labels = list(enumerate(mesh.labels))
        for velocity in (
            {label: 0.1 + k for k, label in labels},
            {label: (lambda x, y, k=k: np.sin(x + k * y) - 0.3) for k, label in labels},
        ):
            bcs = BoundarySpec(pressure={}, velocity=velocity)
            assert_bitwise(dl._neumann_load(mesh, bcs), _oracles.neumann_load_per_label(mesh, bcs))

    def test_scalar_exp_has_the_bits_of_the_array_path(self):
        rng = np.random.default_rng(5)
        args = np.concatenate(
            [np.linspace(-709.0, 709.0, 4001), rng.uniform(-50.0, 50.0, 2000), [0.0, -0.0, 1e-300]]
        )
        for exp in (np.exp, np.expm1):
            for a in args:
                want = tr._checked_exp(np.array([a]), exp)[0]
                assert_bitwise(tr._checked_exp(float(a), exp), want)
                assert_bitwise(tr._checked_exp(np.float64(a), exp), want)

    @pytest.mark.parametrize("exp", [np.exp, np.expm1])
    def test_exp_limit_and_nan(self, exp):
        for edge in (tr.EXP_ARG_LIMIT, -tr.EXP_ARG_LIMIT):
            past = np.nextafter(edge, np.copysign(np.inf, edge))
            for arg in (float(past), np.float64(past), np.array([past]), np.array([0.0, past])):
                with pytest.raises(tr.TransformOverflow):
                    tr._checked_exp(arg, exp)
            assert np.isfinite(tr._checked_exp(edge, exp))
        assert np.isnan(tr._checked_exp(np.nan, exp))
        assert np.isnan(tr._checked_exp(np.array([np.nan]), exp)).all()

    @pytest.mark.parametrize("fluid", [TABLE1, UNIT], ids=["table1", "unit"])
    def test_scalar_ceiling_has_the_bits_of_the_array_path(self, fluid):
        unit = 1.0 if fluid is TABLE1 else 1e-9
        for p in np.concatenate([P_GRID * unit, [0.0, fluid.p0, 3.3 * fluid.p0]]):
            got = tr.kirchhoff_ceiling(fluid, float(p))
            assert type(got) is float
            assert_bitwise(got, tr.kirchhoff_ceiling(fluid, np.array([p]))[0])

    def test_secant_weights(self):
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7, "crossed")
        edges = dl._edge_scaling(unit_system(mesh, all_pressure(mesh))).edges
        # contrasts from 1e-12 to 2 across an edge, and none (x = 0, mean 1)
        ptilde = 1.0 + 10.0 ** np.random.default_rng(6).uniform(-12.0, 0.3, mesh.n_nodes)
        ptilde[::3] = 1.0
        for fluid in (UNIT, FluidModel(mu0=1.0, beta=40.0, p0=1.0)):
            assert_bitwise(bd._secant_weights(ptilde, edges, fluid),
                           _oracles.secant_weights_masked(ptilde, edges, fluid))

    def test_sweep_diagonal_is_that_of_the_sweep_matrix(self):
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7)
        velocity = {"left": -0.2, "top": 0.0, "bottom": 0.0}
        system = unit_system(mesh, BoundarySpec(pressure={"right": 1.0}, velocity=velocity))
        scaling = dl._edge_scaling(system)
        scale = np.random.default_rng(7).uniform(0.5, 2.0, scaling.edges[0].size)
        A, _, diagonal = scaling.refill(system, scale)
        assert A is scaling.A_red
        assert_bitwise(diagonal, A.diagonal())

    @pytest.mark.parametrize("fluid", [TABLE1, UNIT], ids=["table1", "unit"])
    def test_transform_bcs_zero_potential(self, fluid):
        # the zero potential is not evaluated: the bits of a potential of zeros
        mesh = make_rectangle_mesh(3.0, 1.3, 11, 7)
        scale = fluid.p0
        bcs = BoundarySpec(
            pressure={"left": 2.0 * scale, "right": lambda x, y: scale * (1.0 + y), "top": -0.0},
            velocity={"bottom": 0.0},
        )
        zero, zeros = (dl.transform_bcs(bcs, fluid, xi) for xi in (ZERO_XI, CALLABLE_ZERO_XI))
        x, y = mesh.nodes.T
        for label in bcs.pressure:
            assert_bitwise(zero.pressure[label](x, y), zeros.pressure[label](x, y))
            assert_bitwise(zero.pressure[label](x[0], y[0]), zeros.pressure[label](x[0], y[0]))


class TestTensorChecks:
    """The elementwise scale makes the symmetry and SPD checks fire on
    exactly the inputs the max over the tensor axes made them fire on."""

    def test_scale_matches(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((200, 2, 2)) * 10.0 ** rng.integers(-300, 300, (200, 1, 1))
        t[0] = [[-0.0, 0.0], [0.0, -0.0]]
        t[1, 0, 1] = np.inf
        t[2, 1, 0] = -np.inf
        t[3, 1, 1] = np.nan
        t[4] = np.nan
        assert np.array_equal(
            geometry._tensor_scale(t), _oracles.tensor_scale_over_axes(t), equal_nan=True
        )

    @staticmethod
    def near_threshold(rel):
        """SPD tensors whose asymmetry lies within a few ulps of rel times
        their largest entry, which sits in either diagonal position."""
        out = []
        for base in ([[2.0, 0.25], [0.25, 0.75]], [[0.75, -0.5], [-0.5, 3.0]]):
            t = np.array(base)
            edge = t[0, 1] + rel * np.abs(t).max()
            for step in range(-3, 4):
                t = np.array(base)
                t[1, 0] = edge
                for _ in range(abs(step)):
                    t[1, 0] = np.nextafter(t[1, 0], np.inf if step > 0 else -np.inf)
                out.append(t)
        return out

    def test_permeability_symmetry_check(self):
        fired = []
        for t in self.near_threshold(1e-12):
            tensors = t[None]
            ref = _oracles.tensor_scale_over_axes(tensors)
            expected = bool(np.abs(t[0, 1] - t[1, 0]) > 1e-12 * np.maximum(ref, 1e-300)[0])
            try:
                PermeabilityField(tensors, k1=1e-3, k2=1e3)
                raised = False
            except ValueError as err:
                assert "symmetric" in str(err)
                raised = True
            assert raised == expected
            fired.append(raised)
        assert any(fired) and not all(fired)

    def test_mobility_spd_check(self):
        fired = []
        for t in self.near_threshold(1e-10):
            tensors = t[None]
            ref = _oracles.tensor_scale_over_axes(tensors)
            expected = bool(np.abs(t[0, 1] - t[1, 0]) > 1e-10 * np.maximum(ref, 1e-300)[0])
            try:
                dl._check_spd(tensors)
                raised = False
            except SingularMobility:
                raised = True
            assert raised == expected
            fired.append(raised)
        assert any(fired) and not all(fired)


def strip_problem(xi, inflow=-0.05):
    """Unit-fluid 10x3 strip driven by inflow at half the ceiling speed."""
    mesh = make_rectangle_mesh(10.0, 3.0, 16, 4)
    K = PermeabilityField.isotropic(mesh, 1.0)
    bcs = BoundarySpec(
        pressure={"right": UNIT.p0},
        velocity={"left": inflow, "top": 0.0, "bottom": 0.0},
    )
    return mesh, UNIT, xi, K, bcs


def varying_inflow(x, y):
    """Normal velocity on the inlet between 0.4 and 0.6 of the ceiling speed."""
    return -0.05 * (1.0 + 0.2 * np.sin(2.0 * y))


def strip_varying_problem(xi):
    return strip_problem(xi, varying_inflow)


def reservoir_problem(xi):
    mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12)
    K = PermeabilityField.isotropic(mesh, 1e-12)
    bcs = BoundarySpec(
        pressure={"inlet": 10.0 * TABLE1.p0, "well": TABLE1.p0}, velocity={"wall": 0.0}
    )
    return mesh, TABLE1, xi, K, bcs


GRAVITY_XI = BodyForcePotential(lambda x, y: 1e-3 * y)
# (problem, potential of the solve, potential of the earlier-kernel run)
CASES = {
    "strip": (strip_problem, ZERO_XI, CALLABLE_ZERO_XI),
    "reservoir": (reservoir_problem, ZERO_XI, CALLABLE_ZERO_XI),
    "strip_gravity": (strip_problem, GRAVITY_XI, GRAVITY_XI),
    "strip_varying_inflow": (strip_varying_problem, ZERO_XI, CALLABLE_ZERO_XI),
    "strip_varying_inflow_gravity": (strip_varying_problem, GRAVITY_XI, GRAVITY_XI),
}


def assert_same_transformed(got, ref):
    assert_bitwise(got.p.values, ref.p.values)
    assert_bitwise(got.v.values, ref.v.values)
    assert_bitwise(got.P.values, ref.P.values)
    assert_bitwise(got.reactions, ref.reactions)


def assert_same_picard(got, ref):
    assert got.converged and got.iterations == ref.iterations >= 2
    assert got.update_history == ref.update_history
    assert_bitwise(got.p.values, ref.p.values)
    assert_bitwise(got.v.values, ref.v.values)
    assert_bitwise(got.reactions, ref.reactions)


# Each side of a comparison solves on a mesh of its own: a system held for
# one side's mesh must not feed the other side.
@pytest.mark.parametrize("case", sorted(CASES))
class TestSolvesBitwise:
    def test_transformed(self, case, earlier_kernels):
        problem, xi, xi_ref = CASES[case]
        mesh, fluid, _, K, bcs = problem(xi)
        got = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        mesh, fluid, _, K, bcs = problem(xi_ref)
        with earlier_kernels():
            ref = dl.solve_transformed_bvp(mesh, fluid, xi_ref, K, bcs)
        assert_same_transformed(got, ref)

    def test_picard(self, case, earlier_kernels):
        problem, xi, xi_ref = CASES[case]
        mesh, fluid, _, K, bcs = problem(xi)
        got = bd.picard_solve(mesh, fluid, xi, K, bcs)
        mesh, fluid, _, K, bcs = problem(xi_ref)
        with earlier_kernels():
            ref = bd.picard_solve(mesh, fluid, xi_ref, K, bcs)
        assert_same_picard(got, ref)


class TestWarmEntryBitwise:
    """A solve that finds its system, factor and flux operator held gives the
    bits of one that builds them."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_transformed_cold_then_warm(self, case, factor_calls):
        problem, xi, _ = CASES[case]
        mesh, fluid, _, K, bcs = problem(xi)
        cold = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        warm = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        assert len(factor_calls) == 1
        assert_same_transformed(warm, cold)

    @pytest.mark.parametrize("mult", [300.0, 0.5])
    def test_transformed_sweep(self, mult, factor_calls):
        # warm: after another injection pressure on the same mesh; below p0
        # the Kirchhoff variable is measured from p_inj instead of p0
        def bcs(p_inj):
            return BoundarySpec(pressure={"inlet": p_inj, "well": TABLE1.p0}, velocity={"wall": 0.0})

        mesh, fluid, xi, K, _ = reservoir_problem(ZERO_XI)
        dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs(10.0 * TABLE1.p0))
        warm = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs(mult * TABLE1.p0))
        assert len(factor_calls) == 1
        mesh, fluid, xi, K, _ = reservoir_problem(ZERO_XI)
        cold = dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs(mult * TABLE1.p0))
        assert_same_transformed(warm, cold)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_picard_after_transformed(self, case, factor_calls):
        problem, xi, _ = CASES[case]
        mesh, fluid, _, K, bcs = problem(xi)
        alone = bd.picard_solve(mesh, fluid, xi, K, bcs)
        factored_alone = len(factor_calls)
        mesh, fluid, _, K, bcs = problem(xi)
        dl.solve_transformed_bvp(mesh, fluid, xi, K, bcs)
        del factor_calls[:]
        after = bd.picard_solve(mesh, fluid, xi, K, bcs)
        if xi.is_zero:
            # from p = p0 the first sweep's mobility is K/mu0: the held system
            assert len(factor_calls) == factored_alone - 1
        assert_same_picard(after, alone)


class TestPicardHistory:
    """A Picard solve passes each sweep's CG start itself, none to the
    first, and uses no sweep factor an earlier call left, so its bits do not
    depend on the calls before it: cold, after a transformed solve (the
    first sweep finds the held factor), after a Picard solve with other data
    (whose last sweep had a start) and after one whose CG stalled (a sweep
    factor is held; at xi = 0 the first sweep, the held A_red, must
    refactor)."""

    @staticmethod
    def strip(v0):
        mesh = make_rectangle_mesh(10.0, 3.0, 16, 4)
        bcs = BoundarySpec(pressure={"right": 1.0}, velocity={"left": -v0, "top": 0.0, "bottom": 0.0})
        return mesh, PermeabilityField.isotropic(mesh, 1.0), bcs

    @pytest.mark.parametrize("y_coef", [0.0, 0.3])
    def test_same_bits_whatever_came_before(self, y_coef, monkeypatch):
        xi = BodyForcePotential(lambda x, y: y_coef * y) if y_coef else ZERO_XI
        reports = []
        for before in ("nothing", "transformed", "picard", "stalled picard"):
            mesh, K, bcs = self.strip(0.063)
            if before == "transformed":
                dl.solve_transformed_bvp(mesh, UNIT, xi, K, bcs)
            elif before == "picard":
                bd.picard_solve(mesh, UNIT, xi, K, self.strip(0.09)[2])
            elif before == "stalled picard":
                with monkeypatch.context() as patch:
                    patch.setattr(dl, "_PCG_MAX", 1)
                    bd.picard_solve(mesh, UNIT, xi, K, self.strip(0.09)[2])
                assert dl._entry.lu_diagonal is not None
            reports.append(bd.picard_solve(mesh, UNIT, xi, K, bcs))
        cold = reports[0]
        assert cold.linear_iterations > 0
        for warm in reports[1:]:
            assert_same_picard(warm, cold)
            assert warm.linear_iterations == cold.linear_iterations


class TestStiffnessPattern:
    """Square cells give exact-zero couplings across the cell diagonals;
    the assembly must not store them (they would only add LU fill)."""

    NX, NY = 8, 4

    def mesh(self):
        return make_rectangle_mesh(0.5 * self.NX, 0.5 * self.NY, self.NX, self.NY)

    def five_point_nnz(self):
        nx, ny = self.NX, self.NY
        return (nx + 1) * (ny + 1) + 2 * (nx * (ny + 1) + ny * (nx + 1))

    def assemble_both(self, mesh, K, earlier_kernels):
        bcs = BoundarySpec(
            pressure={"left": 2.0, "right": 1.0}, velocity={"top": 0.0, "bottom": 0.0}
        )
        got = dl.assemble(mesh, dl.mobility_tensors(mesh, UNIT, ZERO_XI, K), bcs)
        ref_mesh = self.mesh()  # its own mesh: nothing held for got's is reused
        with earlier_kernels():
            ref = dl.assemble(
                ref_mesh, dl.mobility_tensors(ref_mesh, UNIT, CALLABLE_ZERO_XI, K), bcs
            )
        for a, b in ((got.raw_matrix, ref.raw_matrix), (got.A_red, ref.A_red)):
            assert_bitwise(a.indptr, b.indptr)
            assert_bitwise(a.indices, b.indices)
            assert_bitwise(a.data, b.data)
        return got

    def test_isotropic_five_point(self, earlier_kernels):
        mesh = self.mesh()
        system = self.assemble_both(mesh, PermeabilityField.isotropic(mesh, 1.0), earlier_kernels)
        raw, red = system.raw_matrix, system.A_red
        assert raw.nnz == self.five_point_nnz()
        assert np.count_nonzero(raw.data) == raw.nnz
        assert np.count_nonzero(red.data) == red.nnz

    def test_anisotropic_keeps_cell_diagonals(self, earlier_kernels):
        mesh = self.mesh()
        K = PermeabilityField.uniform_tensor(mesh, 2.0, 0.5, 1.0)
        system = self.assemble_both(mesh, K, earlier_kernels)
        raw = system.raw_matrix
        nx, ny = self.NX, self.NY
        a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)[None, :]).ravel()
        c = a + nx + 2  # upper-right corner of the cell
        assert np.all(np.asarray(raw[a, c]).ravel() != 0.0)
        assert raw.nnz == self.five_point_nnz() + 2 * nx * ny
        assert np.count_nonzero(raw.data) == raw.nnz


class TestBoundaryData:
    """Boundary data read through the geometry helpers load the same bits
    as the earlier per-label loops, and the theorem checks see exactly the
    points that the load uses."""

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    def test_load_and_reduction(self, pattern, monkeypatch):
        mesh = jittered(make_rectangle_mesh(3.0, 1.3, 11, 7, pattern), 2)
        K = PermeabilityField.uniform_tensor(mesh, 2.0, 0.5, 1.0)
        mobility = dl.mobility_tensors(mesh, UNIT, ZERO_XI, K)
        # "left" and "top" share the corner (0, 1.3), where they disagree:
        # the later label's value is the one eliminated
        bcs = BoundarySpec(
            pressure={"left": lambda x, y: 2.0 + y, "top": lambda x, y: 1.0 - 0.1 * x},
            velocity={"bottom": lambda x, y: np.sin(3.0 * x) - 0.2, "right": varying_inflow},
        )
        got = dl.assemble(mesh, mobility, bcs)
        ref_mesh = jittered(make_rectangle_mesh(3.0, 1.3, 11, 7, pattern), 2)
        with monkeypatch.context() as m:
            m.setattr(dl, "_neumann_load", _oracles.neumann_load_per_label)
            m.setattr(dl, "_pressure_data", _oracles.dirichlet_values_per_node)
            ref = dl.assemble(ref_mesh, mobility, bcs)
        assert list(got.dirichlet_map.items()) == list(ref.dirichlet_map.items())
        corner = mesh.ny * (mesh.nx + 1)  # grid node (0, 1.3)
        assert got.dirichlet_map[corner] == 1.0  # top's value, not left's 3.3
        assert_bitwise(got.raw_rhs, ref.raw_rhs)
        assert_bitwise(got.lift, ref.lift)
        assert_bitwise(got.is_free, ref.is_free)
        for a in ("indptr", "indices", "data"):
            assert_bitwise(getattr(got.A_red, a), getattr(ref.A_red, a))
        assert_bitwise(got.b_red, ref.b_red)

    def test_checks_integrate_at_the_load_points(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 1, 1)
        mobility = dl.mobility_tensors(mesh, UNIT, ZERO_XI, PermeabilityField.isotropic(mesh, 1.0))

        def recording(points):
            def vn(x, y):
                points.append(np.column_stack([x, y]).tobytes())
                return 1.0 + x

            return BoundarySpec(
                pressure={"top": 1.0}, velocity={"bottom": vn, "left": 0.0, "right": 0.0}
            )

        loaded, flux, checked, reciprocal = [], [], [], []
        system = dl.assemble(mesh, mobility, recording(loaded))
        flux_system = dl.assemble(mesh, mobility, recording(flux))
        dl.boundary_flux(ScalarField.constant(mesh, 1.0), flux_system, "bottom")
        vf.compatibility_check(mesh, recording(checked))
        sol = vf.FluxSolution(ScalarField.constant(mesh, 1.0), np.zeros(mesh.n_nodes))
        vf.reciprocity_residual_darcy(sol, sol, recording(reciprocal), recording(reciprocal), mesh)
        assert len(loaded) == 2 and system.raw_rhs.any()
        assert flux == loaded + loaded  # its assembly, then the flux
        assert checked == loaded
        assert reciprocal == loaded + loaded  # one integral per problem


class TestCeilingFluxCalibration:
    """calibrate_ceiling_flux through solve_transformed_bvp gives the C of
    the Kirchhoff solve superposed by hand: the same bits when the injection
    pressure lies above the production pressure (the gauge is then
    p_prod in both, and the inlet the one label with nonzero data),
    rounding apart when it lies below (the gauge moves to p_inj, the well
    takes the data, and a constant shift leaves the reactions unchanged only
    in exact arithmetic)."""

    @staticmethod
    def check(got, ref, above):
        if above:
            assert_bitwise(got.C, ref)
        else:
            assert abs(got.C - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("mult", [10.0, 0.5])
    def test_table1_reservoir(self, mult):
        mesh, ref_mesh = (make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12) for _ in range(2))
        K = PermeabilityField.isotropic(mesh, 1e-12)
        got = vf.calibrate_ceiling_flux(mesh, TABLE1, K, mult * TABLE1.p0)
        ref = _oracles.ceiling_flux_constant_by_hand(
            ref_mesh, TABLE1, K, mult * TABLE1.p0, TABLE1.p0
        )
        self.check(got, ref, mult > 1.0)

    @pytest.mark.parametrize("p_prod", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dp", [1.0, -0.25])
    def test_unit_fluid(self, p_prod, dp):
        fluid = FluidModel(mu0=1.0, beta=2.0, p0=1.0)
        mesh, ref_mesh = (make_reservoir_mesh(2.0, 1.0, 0.25, 32, 16) for _ in range(2))
        K = PermeabilityField.isotropic(mesh, 1.0)
        got = vf.calibrate_ceiling_flux(mesh, fluid, K, p_prod + dp, p_prod=p_prod)
        ref = _oracles.ceiling_flux_constant_by_hand(ref_mesh, fluid, K, p_prod + dp, p_prod)
        self.check(got, ref, dp > 0.0)

    def test_within_4_ulp_of_the_direct_solve(self):
        # the superposed solve of the 400x120 reservoir against the one
        # solve of its right-hand side: 2 ulp apart
        mesh, ref_mesh = (make_reservoir_mesh(100.0, 30.0, 0.2, 400, 120) for _ in range(2))
        K = PermeabilityField.isotropic(mesh, 1e-12)
        got = vf.calibrate_ceiling_flux(mesh, TABLE1, K, 10.0 * TABLE1.p0)
        ref = _oracles.ceiling_flux_constant_direct(ref_mesh, TABLE1, K, 10.0 * TABLE1.p0, TABLE1.p0)
        assert abs(got.C - ref) <= 4 * np.spacing(abs(ref))
