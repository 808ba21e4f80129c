"""Meshing, boundary tagging, field containers, and boundary data."""

import dataclasses

import numpy as np
import pytest

from poroflow import (
    BadDimensions,
    BoundarySpec,
    Mesh,
    NonFiniteData,
    PermeabilityField,
    ScalarField,
    UnknownLabel,
    VectorField,
    make_rectangle_mesh,
    make_reservoir_mesh,
)
from poroflow.geometry import edge_keys, eval_bc, triangle_edges

import _oracles


class TestRectangleMesh:
    def test_counts_diagonal(self):
        mesh = make_rectangle_mesh(2.0, 1.0, 4, 3)
        assert mesh.n_nodes == 5 * 4
        assert mesh.n_triangles == 2 * 4 * 3

    def test_counts_crossed(self):
        mesh = make_rectangle_mesh(2.0, 1.0, 4, 3, pattern="crossed")
        assert mesh.n_nodes == 5 * 4 + 4 * 3
        assert mesh.n_triangles == 4 * 4 * 3

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    @pytest.mark.parametrize("nx,ny", [(1, 1), (3, 5), (8, 2)])
    def test_positive_areas_and_total_area(self, pattern, nx, ny):
        L, H = 3.0, 1.7
        mesh = make_rectangle_mesh(L, H, nx, ny, pattern=pattern)
        areas = mesh.signed_areas()
        assert np.all(areas > 0.0)
        assert abs(areas.sum() - L * H) <= 1e-12 * L * H

    def test_boundary_partition_and_perimeter(self):
        L, H = 3.0, 1.7
        mesh = make_rectangle_mesh(L, H, 5, 4)
        total = sum(_oracles.segment_length(mesh, lab) for lab in mesh.labels)
        assert total == pytest.approx(2 * (L + H), rel=1e-12)

    def test_outward_normals(self):
        # boundary edges run counter-clockwise, so (d_y, -d_x) of an edge
        # d = b - a points out of the domain (boundary_flux_direct uses it)
        mesh = make_rectangle_mesh(2.0, 1.0, 2, 2)
        for a, b in mesh.boundary_edges:
            d = mesh.nodes[b] - mesh.nodes[a]
            mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
            center = np.array([1.0, 0.5])
            assert np.dot([d[1], -d[0]], mid - center) > 0.0

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    def test_matches_loop_construction(self, pattern):
        # cell-by-cell reference: lower-left a, then b, c, d counter-clockwise
        L, H, nx, ny = 3.0, 1.7, 4, 3
        mesh = make_rectangle_mesh(L, H, nx, ny, pattern=pattern)
        base = (nx + 1) * (ny + 1)
        tris, centers = [], []
        for j in range(ny):
            for i in range(nx):
                a, b = j * (nx + 1) + i, j * (nx + 1) + i + 1
                c, d = b + nx + 1, a + nx + 1
                if pattern == "diagonal":
                    tris += [(a, b, c), (a, c, d)]
                else:
                    m = base + len(centers)
                    centers.append([(i + 0.5) * L / nx, (j + 0.5) * H / ny])
                    tris += [(a, b, m), (b, c, m), (c, d, m), (d, a, m)]
        assert np.array_equal(mesh.triangles, np.array(tris))
        if centers:
            assert np.array_equal(mesh.nodes[base:], np.array(centers))

    def test_bad_inputs(self):
        for L, H in [(0.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)]:
            with pytest.raises(BadDimensions):
                make_rectangle_mesh(L, H, 2, 2)
        with pytest.raises(BadDimensions):
            make_rectangle_mesh(1.0, 1.0, 0, 2)


class TestValidate:
    def retagged(self, mesh, edges):
        return Mesh(
            nodes=mesh.nodes,
            triangles=mesh.triangles,
            boundary_edges=np.asarray(edges),
            edge_labels=("wall",) * len(edges),
            nx=mesh.nx,
            ny=mesh.ny,
            extent=mesh.extent,
        )

    def test_tagging_compared_as_a_set(self):
        # orientation and repetition of tagged edges do not matter
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 2)
        edges = mesh.boundary_edges
        self.retagged(mesh, edges[:, ::-1]).validate()
        self.retagged(mesh, np.vstack([edges, edges[:1]])).validate()

    def test_missing_or_interior_edge_rejected(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 3, 2, pattern="crossed")
        edges = mesh.boundary_edges
        with pytest.raises(ValueError, match="topological boundary"):
            self.retagged(mesh, edges[1:]).validate()
        interior = mesh.triangles[0, 1:]  # corner-to-center edge
        with pytest.raises(ValueError, match="topological boundary"):
            self.retagged(mesh, np.vstack([edges, interior])).validate()

    def test_other_defects_rejected(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        flipped = mesh.triangles.copy()
        flipped[0] = flipped[0, ::-1]
        with pytest.raises(ValueError, match="positive signed area"):
            Mesh(mesh.nodes, flipped, mesh.boundary_edges, mesh.edge_labels,
                 mesh.nx, mesh.ny, mesh.extent).validate()
        nan_node = mesh.nodes.copy()
        nan_node[4] = np.nan  # the centre node: every triangle touches it
        with pytest.raises(ValueError, match="positive signed area"):
            Mesh(nan_node, mesh.triangles, mesh.boundary_edges, mesh.edge_labels,
                 mesh.nx, mesh.ny, mesh.extent).validate()
        with pytest.raises(ValueError, match="one label per boundary edge"):
            Mesh(mesh.nodes, mesh.triangles, mesh.boundary_edges, mesh.edge_labels[1:],
                 mesh.nx, mesh.ny, mesh.extent).validate()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_edge_keys_match_row_min_max(self, dtype):
        mesh = make_rectangle_mesh(2.0, 1.0, 9, 4, pattern="crossed")
        pairs = triangle_edges(mesh.triangles).astype(dtype)
        wide = pairs.astype(np.int64)
        expected = wide.min(axis=1) * mesh.n_nodes + wide.max(axis=1)
        keys = edge_keys(pairs, mesh.n_nodes)
        assert keys.dtype == np.int64 and np.array_equal(keys, expected)


class TestReservoirMesh:
    def test_smallest_case(self):
        mesh = make_reservoir_mesh(1.0, 1.0, 0.5, 1, 2)
        assert set(mesh.labels) == {"inlet", "well", "wall"}
        assert mesh.metadata["well_edges"] == 1
        assert mesh.metadata["well_width_effective"] == pytest.approx(0.5)

    def test_snapping_reported(self):
        # hy = 0.5, so a 0.2 m well snaps outward to one 0.5 m edge
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 200, 60)
        assert mesh.metadata["well_edges"] == 1
        assert mesh.metadata["well_width_effective"] == pytest.approx(0.5)
        assert _oracles.segment_length(mesh, "well") == pytest.approx(0.5, rel=1e-12)

    def test_well_centered(self):
        mesh = make_reservoir_mesh(100.0, 30.0, 6.0, 10, 10)
        y0, y1 = mesh.metadata["well_y0"], mesh.metadata["well_y1"]
        assert y1 - y0 == pytest.approx(6.0)
        assert 0.5 * (y0 + y1) == pytest.approx(15.0)

    def test_well_offset(self):
        mesh = make_reservoir_mesh(100.0, 30.0, 3.0, 10, 10)
        shifted = make_reservoir_mesh(100.0, 30.0, 3.0, 10, 10, well_offset=6.0)
        assert shifted.metadata["well_y0"] == mesh.metadata["well_y0"] + 6.0

    def test_perimeter_conserved(self):
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 20, 12)
        total = sum(_oracles.segment_length(mesh, lab) for lab in mesh.labels)
        assert total == pytest.approx(2 * (100.0 + 30.0), rel=1e-12)
        assert _oracles.segment_length(mesh, "inlet") == pytest.approx(30.0, rel=1e-12)

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    def test_topology_validated_once(self, pattern, monkeypatch):
        # the relabelled mesh shares the rectangle's validated arrays
        calls = []
        validate = Mesh.validate

        def counting(mesh):
            calls.append(mesh)
            return validate(mesh)

        monkeypatch.setattr(Mesh, "validate", counting)
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 20, 12, pattern=pattern)
        assert len(calls) == 1 and calls[0].edge_labels != mesh.edge_labels
        assert mesh.validate() is mesh
        assert len(mesh.edge_labels) == mesh.boundary_edges.shape[0]

    def test_unresolvable_well(self):
        with pytest.raises(BadDimensions):
            make_reservoir_mesh(1.0, 1.0, 1.5, 2, 2)  # W > H
        with pytest.raises(BadDimensions):
            make_reservoir_mesh(1.0, 1.0, 0.0, 2, 2)

    def test_unknown_label(self):
        mesh = make_reservoir_mesh(1.0, 1.0, 0.5, 2, 2)
        with pytest.raises(UnknownLabel):
            mesh.edges_with_label("outlet")

    @pytest.mark.parametrize("pattern", ["diagonal", "crossed"])
    def test_label_index_matches_scan(self, pattern):
        mesh = make_reservoir_mesh(100.0, 30.0, 0.2, 40, 12, pattern=pattern)
        assert mesh.labels == _oracles.labels_scan(mesh) == ("wall", "well", "inlet")
        for label in mesh.labels:
            got = mesh.edges_with_label(label)
            want = _oracles.edges_with_label_scan(mesh, label)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestFields:
    def test_scalar_field_validation(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            ScalarField(mesh, np.zeros(3))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                ScalarField(mesh, np.full(mesh.n_nodes, bad))

    def test_vector_field_validation(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            VectorField(mesh, np.zeros((mesh.n_triangles, 3)))

    def test_eval_bc_constant_and_callable(self):
        x = np.array([0.0, 1.0])
        y = np.array([2.0, 3.0])
        assert np.array_equal(eval_bc(5.0, x, y), [5.0, 5.0])
        assert np.array_equal(eval_bc(lambda x, y: x + y, x, y), [2.0, 4.0])


class TestPermeability:
    def test_isotropic_bounds(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        K = PermeabilityField.isotropic(mesh, 1e-12)
        assert K.k1 == K.k2 == 1e-12

    def test_per_cell_bounds_checked(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
        vals = np.linspace(1e-13, 5e-12, mesh.n_triangles)
        K = PermeabilityField.isotropic_per_cell(mesh, vals)
        assert K.k1 == pytest.approx(1e-13)
        assert K.k2 == pytest.approx(5e-12)

    def test_asymmetric_rejected(self):
        t = np.array([[[1.0, 0.5], [0.1, 1.0]]])
        with pytest.raises(ValueError):
            PermeabilityField(t, k1=0.5, k2=2.0)

    def test_eigenvalues_outside_bounds_rejected(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            PermeabilityField(np.broadcast_to(np.eye(2), (2, 2, 2)).copy(), k1=2.0, k2=3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        t = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
        t[1, 0, 0] = bad
        with pytest.raises(NonFiniteData):
            PermeabilityField(t, k1=0.5, k2=2.0)

    def test_anisotropic_tensor(self):
        mesh = make_rectangle_mesh(1.0, 1.0, 1, 1)
        K = PermeabilityField.uniform_tensor(mesh, 2.0, 0.5, 1.0)
        lo = 1.5 - np.sqrt(0.5)
        hi = 1.5 + np.sqrt(0.5)
        assert K.k1 == pytest.approx(lo)
        assert K.k2 == pytest.approx(hi)


class TestBoundarySpec:
    def test_partition_enforced(self):
        mesh = make_reservoir_mesh(1.0, 1.0, 0.5, 2, 2)
        good = BoundarySpec(pressure={"inlet": 1.0, "well": 0.0}, velocity={"wall": 0.0})
        good.validate_partition(mesh)
        with pytest.raises(ValueError):
            BoundarySpec(pressure={"inlet": 1.0}, velocity={"wall": 0.0}).validate_partition(mesh)
        with pytest.raises(ValueError):
            BoundarySpec(pressure={"inlet": 1.0, "well": 0.0}, velocity={"inlet": 0.0})


def _tampered(name, index, value):
    """The 2x2 unit square (9 nodes), validated with one entry of its
    triangles or boundary_edges changed."""
    mesh = make_rectangle_mesh(1.0, 1.0, 2, 2)
    array = getattr(mesh, name).copy()
    array[index] = value
    return dataclasses.replace(mesh, **{name: array}).validate()


BAD_GEOMETRY = {
    "triangle_index_high": (
        lambda: _tampered("triangles", (0, 0), 9), ValueError, "triangle indices out of range"
    ),
    "triangle_index_negative": (
        lambda: _tampered("triangles", (2, 1), -1), ValueError, "triangle indices out of range"
    ),
    "edge_index": (
        lambda: _tampered("boundary_edges", (0, 1), 9), ValueError, "boundary edge indices out of range"
    ),
    "unknown_pattern": (
        lambda: make_rectangle_mesh(1.0, 1.0, 2, 2, pattern="hexagonal"),
        ValueError,
        "unknown pattern",
    ),
    "well_below_an_edge": (
        # 1e-12 of an edge of 10: below the 1e-9 slack, so no edge is taken
        lambda: make_reservoir_mesh(100.0, 30.0, 1e-11, 4, 3), BadDimensions, "cannot be resolved"
    ),
    "vector_field_nan": (
        lambda: VectorField(make_rectangle_mesh(1.0, 1.0, 2, 2), np.full((8, 2), np.nan)),
        ValueError,
        "non-finite",
    ),
    "permeability_shape": (
        lambda: PermeabilityField(np.ones((4, 2)), k1=1.0, k2=1.0), ValueError, r"\(n, 2, 2\)"
    ),
    "permeability_bounds_crossed": (
        lambda: PermeabilityField(np.broadcast_to(np.eye(2), (4, 2, 2)), k1=2.0, k2=1.0),
        ValueError,
        "0 < k1 <= k2",
    ),
    "isotropic_per_cell_shape": (
        lambda: PermeabilityField.isotropic_per_cell(make_rectangle_mesh(1.0, 1.0, 2, 2), np.ones(7)),
        ValueError,
        "one scalar permeability per triangle",
    ),
}


@pytest.mark.parametrize("case", list(BAD_GEOMETRY))
def test_bad_geometry_input_raises(case):
    build, error, message = BAD_GEOMETRY[case]
    with pytest.raises(error, match=message):
        build()
