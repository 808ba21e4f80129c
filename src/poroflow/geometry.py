"""Structured triangular meshes on rectangles, boundary tagging, field
containers, and the one rule by which boundary data are read: velocity data
at the Gauss points of each edge, pressure data at the nodes through
_pressure_data, each node once.

The geometry of those reads is computed once per mesh, on first use, and
kept with it (Mesh._segments, one _Segment per label): each label's edges,
its nodes with their coordinates, and per Gauss point the weight times the
edge length and the point coordinates; so are the nodes each pressure label
owns, per tuple of pressure labels (Mesh._owners, see _owned). Its arrays
are read-only and take O(boundary) memory, so a read of boundary data
evaluates the data and does nothing else.

Meshes are immutable after construction. Boundary edges are oriented
counter-clockwise around the domain so the outward normal of edge (a, b)
is (t_y, -t_x) for the unit tangent t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Union

import numpy as np

from .errors import BadDimensions, NonFiniteData, PartitionMismatch, UnknownLabel

BCData = Union[float, Callable]


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a rectangle with labeled boundary edges.

    nodes : (n_nodes, 2) coordinates [m]
    triangles : (n_tri, 3) node indices, counter-clockwise
    boundary_edges : (n_edges, 2) node index pairs, CCW around the domain
    edge_labels : segment label per boundary edge
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    edge_labels: tuple
    nx: int
    ny: int
    extent: tuple  # (L, H)
    metadata: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def _segments(self) -> dict:
        """{label: its _Segment}, in first-seen label order: the geometry
        of every labelled segment, computed on first use and kept with the
        mesh (O(boundary) memory)."""
        rows = {}
        for i, lab in enumerate(self.edge_labels):
            rows.setdefault(lab, []).append(i)
        return {lab: _Segment.of(self, np.array(r)) for lab, r in rows.items()}

    @cached_property
    def _owners(self) -> dict:
        """{pressure labels in spec order: their owned nodes}, filled by
        _owned on first use of each label tuple and kept with the mesh."""
        return {}

    def _segment(self, label: str) -> "_Segment":
        """The _Segment of label; UnknownLabel if no edge carries it."""
        segment = self._segments.get(label)
        if segment is None:
            raise UnknownLabel(f"no boundary segment labeled {label!r}")
        return segment

    @property
    def labels(self) -> tuple:
        return tuple(self._segments)

    def edges_with_label(self, label: str) -> np.ndarray:
        """(m, 2) boundary edges labelled label, in boundary order; the
        mesh's own read-only array."""
        return self._segment(label).edges

    def nodes_with_label(self, label: str) -> np.ndarray:
        """Nodes of the edges labelled label, ascending, each once; the
        mesh's own read-only array."""
        return self._segment(label).nodes

    def _corner_coordinates(self):
        """(x, y), each (3, n_tri): row i holds corner i of every triangle.
        Gathering per-corner columns is several times cheaper than an
        (n_tri, 3, 2) gather."""
        t = self.triangles.T
        return self.nodes[:, 0][t], self.nodes[:, 1][t]

    def signed_areas(self) -> np.ndarray:
        (x0, x1, x2), (y0, y1, y2) = self._corner_coordinates()
        return 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))

    def centroids(self) -> np.ndarray:
        (x0, x1, x2), (y0, y1, y2) = self._corner_coordinates()
        # summed in corner order, then divided: the bits of a mean over corners
        return np.column_stack([(x0 + x1 + x2) / 3, (y0 + y1 + y2) / 3])

    def validate(self):
        n, t = self.n_nodes, self.triangles
        if t.min() < 0 or t.max() >= n:
            raise ValueError("triangle indices out of range")
        if self.boundary_edges.min() < 0 or self.boundary_edges.max() >= n:
            raise ValueError("boundary edge indices out of range")
        areas = self.signed_areas()
        if not np.all(areas > 0.0):  # a NaN area fails too
            raise ValueError("all triangles must have positive signed area")
        # boundary edges must cover the topological boundary exactly once
        if len(self.edge_labels) != self.boundary_edges.shape[0]:
            raise ValueError("one label per boundary edge required")
        # an edge of exactly one triangle lies on the topological boundary
        keys, counts = np.unique(edge_keys(triangle_edges(t), n), return_counts=True)
        topo = keys[counts == 1]
        tagged = np.unique(edge_keys(self.boundary_edges, n))
        if not np.array_equal(topo, tagged):
            raise ValueError("tagged edges do not match the topological boundary")
        return self


def triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """(3 * n_tri, 2) node pairs: edges (0,1), (1,2), (2,0) of each triangle
    in turn, so row k belongs to triangle k // 3."""
    return triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)


def edge_keys(pairs: np.ndarray, n_nodes: int) -> np.ndarray:
    """Orientation-free int64 key min * n_nodes + max of each node pair."""
    pairs = np.asarray(pairs, dtype=np.int64)
    a, b = pairs[:, 0], pairs[:, 1]
    return np.minimum(a, b) * n_nodes + np.maximum(a, b)


def _grid(L, H, nx, ny):
    x = np.linspace(0.0, L, nx + 1)
    y = np.linspace(0.0, H, ny + 1)
    X, Y = np.meshgrid(x, y)  # row j = constant y
    return np.column_stack([X.ravel(), Y.ravel()])


def _rectangle_edges(nx, ny):
    """CCW boundary edge list with side names, grid node ids j*(nx+1)+i."""

    def nid(i, j):
        return j * (nx + 1) + i

    edges, sides = [], []
    for i in range(nx):  # bottom, left -> right
        edges.append((nid(i, 0), nid(i + 1, 0)))
        sides.append("bottom")
    for j in range(ny):  # right, bottom -> top
        edges.append((nid(nx, j), nid(nx, j + 1)))
        sides.append("right")
    for i in range(nx, 0, -1):  # top, right -> left
        edges.append((nid(i, ny), nid(i - 1, ny)))
        sides.append("top")
    for j in range(ny, 0, -1):  # left, top -> bottom
        edges.append((nid(0, j), nid(0, j - 1)))
        sides.append("left")
    return np.array(edges, dtype=int), sides


def make_rectangle_mesh(L, H, nx, ny, pattern="diagonal") -> Mesh:
    """Structured triangulation of [0,L] x [0,H]; sides labeled
    left/right/bottom/top.

    pattern="diagonal" splits each cell into 2 right triangles along the
    lower-left to upper-right diagonal (non-obtuse: the P1 stiffness matrix
    is an M-matrix for isotropic coefficients); "crossed" adds a center
    node per cell and 4 triangles.

    nx and ny must be integers (Python or numpy); a float, an integral one
    such as 2.0 too, raises BadDimensions.
    """
    if not (0.0 < L < math.inf and 0.0 < H < math.inf):
        raise BadDimensions(f"rectangle sides must be positive and finite, got L={L}, H={H}")
    if not (isinstance(nx, numbers.Integral) and isinstance(ny, numbers.Integral)):
        raise BadDimensions(f"nx and ny must be integers, got nx={nx!r}, ny={ny!r}")
    if nx < 1 or ny < 1:
        raise BadDimensions(f"need nx, ny >= 1, got nx={nx}, ny={ny}")
    if pattern not in ("diagonal", "crossed"):
        raise ValueError(f"unknown pattern {pattern!r}")

    nodes = _grid(L, H, nx, ny)

    # lower-left corner a of cell (i, j), row-major over cells; then b, c, d CCW
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)[None, :]).ravel()
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    if pattern == "diagonal":
        tris = np.stack([a, b, c, a, c, d], axis=1)
    else:
        cx = (np.arange(nx) + 0.5) * L / nx
        cy = (np.arange(ny) + 0.5) * H / ny
        m = nodes.shape[0] + np.arange(nx * ny)
        nodes = np.vstack([nodes, np.column_stack([np.tile(cx, ny), np.repeat(cy, nx)])])
        tris = np.stack([a, b, m, b, c, m, c, d, m, d, a, m], axis=1)

    edges, sides = _rectangle_edges(nx, ny)
    mesh = Mesh(
        nodes=nodes,
        triangles=tris.reshape(-1, 3),
        boundary_edges=edges,
        edge_labels=tuple(sides),
        nx=nx,
        ny=ny,
        extent=(float(L), float(H)),
        metadata={"pattern": pattern},
    )
    return mesh.validate()


def make_reservoir_mesh(L, H, W, nx, ny, well_offset=0.0, pattern="diagonal") -> Mesh:
    """Reservoir rectangle: left side "inlet", a production segment of
    width >= W on the right side "well" (snapped outward to whole edges,
    centered at H/2 + well_offset), everything else "wall".

    The effective (snapped) well extent is reported in mesh.metadata. A
    well_offset that is not finite raises BadDimensions; a finite one that
    puts the centre off the side clamps the well to its end.
    """
    if not (0.0 < W < H):
        raise BadDimensions(f"well width must satisfy 0 < W < H, got W={W}, H={H}")
    if not math.isfinite(well_offset):
        raise BadDimensions(f"well offset must be finite, got {well_offset}")
    base = make_rectangle_mesh(L, H, nx, ny, pattern=pattern)

    hy = H / ny
    m_edges = int(math.ceil(W / hy - 1e-9))
    if m_edges < 1 or m_edges > ny:
        raise BadDimensions(
            f"well of width {W} cannot be resolved by ny={ny} edges of length {hy}"
        )
    yc = H / 2.0 + well_offset
    # clamped before it is rounded, so a huge offset (yc / hy = inf) is too
    j0 = int(round(min(max(yc / hy - m_edges / 2.0, 0), ny - m_edges)))

    # right-side edge k (bottom->top) spans y in [k*hy, (k+1)*hy]
    labels = []
    right_seen = -1
    for lab in base.edge_labels:
        if lab == "right":
            right_seen += 1
            labels.append("well" if j0 <= right_seen < j0 + m_edges else "wall")
        elif lab == "left":
            labels.append("inlet")
        else:
            labels.append("wall")

    meta = dict(base.metadata)
    meta.update(
        {
            "well_width_requested": float(W),
            "well_width_effective": m_edges * hy,
            "well_y0": j0 * hy,
            "well_y1": (j0 + m_edges) * hy,
            "well_edges": m_edges,
        }
    )
    # nodes, triangles and boundary edges are base's, which
    # make_rectangle_mesh validated; only the labels are new, one per edge
    return replace(base, edge_labels=tuple(labels), metadata=meta)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class ScalarField:
    """Nodal (P1) scalar field on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"expected {self.mesh.n_nodes} nodal values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite values")

    @staticmethod
    def _of_finite(mesh: Mesh, values: np.ndarray) -> "ScalarField":
        """The field of values, a float64 array of one value per node that
        the caller knows to be finite, built without the scan of
        __post_init__."""
        field = object.__new__(ScalarField)
        object.__setattr__(field, "mesh", mesh)
        object.__setattr__(field, "values", values)
        return field

    @staticmethod
    def from_function(mesh: Mesh, f: Callable) -> "ScalarField":
        return ScalarField(mesh, np.asarray(f(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float))

    @staticmethod
    def constant(mesh: Mesh, value: float) -> "ScalarField":
        return ScalarField(mesh, np.full(mesh.n_nodes, float(value)))


@dataclass(frozen=True)
class VectorField:
    """Piecewise-constant (per-triangle) 2-vector field on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.mesh.n_triangles, 2):
            raise ValueError(
                f"expected ({self.mesh.n_triangles}, 2) cell values, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("vector field contains non-finite values")


def _tensor_scale(t: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each 2x2 tensor, as elementwise maxima
    of the four entries (a max over axes (1, 2) is several times slower)."""
    return np.maximum(
        np.maximum(np.abs(t[:, 0, 0]), np.abs(t[:, 0, 1])),
        np.maximum(np.abs(t[:, 1, 0]), np.abs(t[:, 1, 1])),
    )


def _eig_bounds_2x2(tensors: np.ndarray):
    a = tensors[:, 0, 0]
    b = 0.5 * (tensors[:, 0, 1] + tensors[:, 1, 0])
    c = tensors[:, 1, 1]
    mean = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    return mean - rad, mean + rad


@dataclass(frozen=True)
class PermeabilityField:
    """Symmetric positive-definite 2x2 permeability tensor per triangle,
    with global eigenvalue bounds 0 < k1 <= eig <= k2 checked at
    construction.

    tensors is the field's own read-only copy of the array it was built
    from: the caller's array stays writable, and a change to it does not
    reach the field. So the field's tensors never change, and
    darcy_linear.mobility_tensors keys its K/mu0 on that array."""

    tensors: np.ndarray
    k1: float
    k2: float

    def __post_init__(self):
        t = np.array(self.tensors, dtype=float, order="C")
        t.setflags(write=False)
        object.__setattr__(self, "tensors", t)
        if t.ndim != 3 or t.shape[1:] != (2, 2):
            raise ValueError(f"expected (n, 2, 2) tensors, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise NonFiniteData("permeability tensors contain non-finite values")
        if not (0.0 < self.k1 <= self.k2):
            raise ValueError(f"need 0 < k1 <= k2, got k1={self.k1}, k2={self.k2}")
        asym = np.abs(t[:, 0, 1] - t[:, 1, 0])
        if np.any(asym > 1e-12 * np.maximum(_tensor_scale(t), 1e-300)):
            raise ValueError("permeability tensors must be symmetric")
        lo, hi = _eig_bounds_2x2(t)
        slack = 1e-12 * self.k2
        if np.any(lo < self.k1 - slack) or np.any(hi > self.k2 + slack):
            raise ValueError("permeability eigenvalues outside [k1, k2]")

    @staticmethod
    def isotropic(mesh: Mesh, k: float) -> "PermeabilityField":
        t = np.broadcast_to(k * np.eye(2), (mesh.n_triangles, 2, 2))
        return PermeabilityField(t, k1=float(k), k2=float(k))

    @staticmethod
    def isotropic_per_cell(mesh: Mesh, values) -> "PermeabilityField":
        v = np.asarray(values, dtype=float)
        if v.shape != (mesh.n_triangles,):
            raise ValueError("one scalar permeability per triangle required")
        t = v[:, None, None] * np.eye(2)
        return PermeabilityField(t, k1=float(v.min()), k2=float(v.max()))

    @staticmethod
    def uniform_tensor(mesh: Mesh, kxx, kxy, kyy) -> "PermeabilityField":
        one = np.array([[kxx, kxy], [kxy, kyy]], dtype=float)
        lo, hi = _eig_bounds_2x2(one[None])
        t = np.broadcast_to(one, (mesh.n_triangles, 2, 2))
        return PermeabilityField(t, k1=float(lo[0]), k2=float(hi[0]))


@dataclass(frozen=True)
class BoundarySpec:
    """Complementary partition of the boundary labels into pressure-
    and normal-velocity-prescribed segments.

    Values may be constants or callables of (x, y).
    """

    pressure: Mapping[str, BCData]
    velocity: Mapping[str, BCData]

    def __post_init__(self):
        object.__setattr__(self, "pressure", dict(self.pressure))
        object.__setattr__(self, "velocity", dict(self.velocity))
        overlap = set(self.pressure) & set(self.velocity)
        if overlap:
            raise ValueError(f"labels in both pressure and velocity lists: {overlap}")

    def validate_partition(self, mesh: Mesh) -> "BoundarySpec":
        mesh_labels = set(mesh.labels)
        spec_labels = set(self.pressure) | set(self.velocity)
        if mesh_labels != spec_labels:
            raise PartitionMismatch(
                f"boundary labels {sorted(mesh_labels)} must be exactly "
                f"partitioned; spec covers {sorted(spec_labels)}"
            )
        return self

    def same_partition(self, other: "BoundarySpec") -> bool:
        return set(self.pressure) == set(other.pressure) and set(self.velocity) == set(
            other.velocity
        )


def eval_bc(data: BCData, x, y):
    """Evaluate prescribed boundary data (constant or callable) at points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # the boundary reads pass coordinates of one shape
    shape = x.shape if x.shape == y.shape else np.broadcast_shapes(x.shape, y.shape)
    if callable(data):
        out = np.asarray(data(x, y), dtype=float)
        return np.broadcast_to(out, shape).astype(float)
    return np.full(shape, float(data))


# The one boundary rule: 2-point Gauss on [0, 1], exact for cubics. The
# Neumann load, the velocity-segment fluxes and the theorem checks all
# integrate at these points. Every datum read through it must be finite.
_GAUSS2_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS2_W = np.array([0.5, 0.5])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _coordinates(points: np.ndarray) -> tuple:
    """(x, y) of the (m, 2) points, each contiguous and read-only."""
    return tuple(_read_only(points[:, k].copy()) for k in range(2))


@dataclass(frozen=True)
class _Segment:
    """The geometry of the edges of one label that boundary data are read
    at, computed once per mesh: the edges, their nodes (ascending, each
    once) with coordinates, and per Gauss point t of _GAUSS2_T the weight
    times the edge length and the point coordinates. Every array is
    read-only: callers and boundary-data callables share them."""

    edges: np.ndarray
    nodes: np.ndarray
    node_xy: tuple  # (x, y) of nodes
    gauss: tuple  # ((t, w * length, x, y) per Gauss point)
    samples: tuple  # (x, y): the edge starts, the edge ends, then the Gauss points

    @staticmethod
    def of(mesh: Mesh, rows: np.ndarray) -> "_Segment":
        edges = mesh.boundary_edges[rows]
        nodes = np.unique(edges)
        a, b = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
        length = np.hypot(*(b - a).T)
        x, y = _coordinates(np.concatenate([a, b] + [a + t * (b - a) for t in _GAUSS2_T]))
        m = len(edges)
        return _Segment(
            # column-major: the edge starts and the edge ends are each contiguous
            edges=_read_only(np.asfortranarray(edges)),
            nodes=_read_only(nodes),
            node_xy=_coordinates(mesh.nodes[nodes]),
            # the Gauss points are the samples after the edge ends (views)
            gauss=tuple(
                (t, _read_only(w * length), x[k * m:(k + 1) * m], y[k * m:(k + 1) * m])
                for k, t, w in zip((2, 3), _GAUSS2_T, _GAUSS2_W)
            ),
            samples=(x, y),
        )


def _finite(values: np.ndarray, label: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise NonFiniteData(f"boundary data on {label!r} evaluated to a non-finite value")
    return values


def _edge_quadrature(mesh: Mesh, label: str, data: BCData):
    """For each Gauss point t of the edges labeled ``label``, yield
    (edges, t, w * length, data at the point): the integral of f * data
    over the segment is the sum over points of (w * length * data * f).

    A datum that is the constant 0 (+0.0, -0.0 or int 0) yields nothing and
    is not evaluated: its terms are signed zeros, which leave a sum that
    starts at +0.0 as it is. Any other constant is checked once and yielded
    as a float, which scales an array with the bits of an array of it. Every
    callable is evaluated at the points, and so checked."""
    constant = not callable(data)
    if constant and float(data) == 0.0:
        return
    segment = mesh._segment(label)
    if constant:
        data = _finite(float(data), label)
    for t, wl, x, y in segment.gauss:
        yield segment.edges, t, wl, data if constant else _finite(eval_bc(data, x, y), label)


def _edge_samples(mesh: Mesh, label: str, data: BCData) -> np.ndarray:
    """Data at both ends and at the Gauss points of each edge labeled
    ``label``, as one flat array in a fixed point order."""
    return _finite(eval_bc(data, *mesh._segment(label).samples), label)


def _owned(mesh: Mesh, labels) -> Mapping:
    """{label: the nodes it owns, ascending} for the pressure labels in spec
    order: a node two labels share is the later one's, so the sets partition
    the pressure nodes. The one rule for shared nodes: _pressure_data takes
    each node's datum from its owner, and boundary_flux sums its reaction
    there. Computed once per mesh and label tuple and kept with the mesh
    (Mesh._owners): a repeat call returns the same read-only mapping of the
    same read-only arrays."""
    key = tuple(labels)
    owned = mesh._owners.get(key)
    if owned is None:
        found, taken = {}, np.zeros(mesh.n_nodes, dtype=bool)
        for label in reversed(key):
            nodes = mesh._segment(label).nodes
            found[label] = _read_only(nodes[~taken[nodes]])
            taken[nodes] = True
        owned = mesh._owners[key] = MappingProxyType(dict(reversed(found.items())))
    return owned


def _pressure_data(mesh: Mesh, bcs: BoundarySpec):
    """(nodes, values): the pressure data at each node of the pressure
    segments, each node once, with its owner's datum (_owned): the values
    the assembly eliminates and the theorem checks read. One block per
    label in spec order, the nodes it owns ascending. A constant datum is
    checked once and filled in over the nodes its label owns; a callable is
    evaluated at every node of its label, shared ones too, and checked
    there. The nodes of one label are the mesh's own read-only array."""
    if len(bcs.pressure) == 1:  # one label owns all its nodes (_owned)
        (label,) = bcs.pressure
        owned = {label: mesh._segment(label).nodes}
    else:
        owned = _owned(mesh, bcs.pressure)
    nodes, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for (label, own), data in zip(owned.items(), bcs.pressure.values()):
        if callable(data):
            segment = mesh._segment(label)
            read = _finite(eval_bc(data, *segment.node_xy), label)
            data = read if own is segment.nodes else read[np.searchsorted(segment.nodes, own)]
        else:
            data = np.full(own.size, _finite(float(data), label))
        nodes.append(own)
        values.append(data)
    if len(owned) == 1:
        return nodes[1], values[1]
    return np.concatenate(nodes), np.concatenate(values)
