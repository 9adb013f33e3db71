"""Polygonal test domains, triangulations, and uniform red refinement.

Two study domains are provided, both with the distinguished corner at the
origin and one incident edge along the positive x-axis:

* ``convex``: an isosceles triangle with interior angle 2*pi/3 at the origin,
* ``nonconvex``: an L-shaped hexagon with reentrant angle 3*pi/2 at the origin.

Every mesh declares that corner instead of leaving it to be searched for:
vertex 0 is exactly the origin, boundary edge 0 starts there and the last
boundary edge ends there (:class:`Mesh` checks it, refinement keeps it).
The corner angle is read off the polygon's vertices.

Meshes are immutable after construction and may be shared freely between
threads.  Refinement always produces a new mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Polygon",
    "Mesh",
    "build_domain",
    "unit_square",
    "refine_uniform",
]


@dataclass(frozen=True)
class Polygon:
    """Simple closed polygon traversed counter-clockwise.

    Vertex 0 is exactly the origin and edge 0 runs from it along the
    positive x-axis, so the interior angle at the origin opens the sector
    ``theta in [0, corner_angle]`` and ends at the last vertex.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)  # a private, frozen copy
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs an (n, 2) vertex array with n >= 3")
        if np.any(v[0] != 0):
            raise ValueError("polygon vertex 0 must be the origin")
        if v[1, 1] != 0 or v[1, 0] <= 0:
            raise ValueError("polygon edge 0 must run along the positive "
                             "x-axis")
        if self.area <= 0:
            raise ValueError("polygon vertices must be ordered counter-clockwise")

    @property
    def corner_angle(self) -> float:
        """Interior angle at the origin: the polar angle of the last vertex."""
        x, y = self.vertices[-1]
        return float(np.arctan2(y, x) % (2 * np.pi))

    @property
    def n_edges(self) -> int:
        return self.vertices.shape[0]

    @property
    def edge_vectors(self) -> np.ndarray:
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    @property
    def edge_lengths(self) -> np.ndarray:
        return np.hypot(*self.edge_vectors.T)

    @property
    def edge_normals(self) -> np.ndarray:
        """Outward unit normals, one per edge (CCW traversal => rotate -90deg)."""
        t = self.edge_vectors / self.edge_lengths[:, None]
        return np.column_stack([t[:, 1], -t[:, 0]])

    @property
    def area(self) -> float:
        x, y = self.vertices.T
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    @property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        return (v + w).T @ cross / (6.0 * self.area)

    def point_on_edge(self, edge: int, s) -> np.ndarray:
        """Point at arclength ``s`` from the start of polygon edge ``edge``."""
        t = self.edge_vectors[edge] / self.edge_lengths[edge]
        return self.vertices[edge] + np.multiply.outer(np.asarray(s), t)


class Mesh:
    """Conforming triangulation of a :class:`Polygon`.

    Vertex 0 is exactly the origin, the polygon's corner, and boundary edge
    0 starts there, so the last boundary edge ends there; the constructor
    rejects a mesh that breaks this.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex index triples, all positively oriented.
    boundary_edges : (nbe, 2) int array
        Vertex pairs, chained so edge k ends where edge k+1 starts and the
        chain traverses the boundary exactly once, counter-clockwise.
    boundary_normals : (nbe, 2) float array
        Outward unit normal of each boundary edge.
    boundary_parent : (nbe,) int array
        Index of the polygon edge each boundary edge lies on.
    edges : (ne, 2) int array
        Every edge once as a vertex pair (low, high), in lexicographic order.
    triangle_edges : (nt, 3) int array
        Edge id of each triangle's local edge k, which joins local vertices
        k and k+1 (mod 3).
    boundary_edge_ids : (nbe,) int array
        Edge id of each boundary edge.
    h : float
        Maximum triangle diameter.
    """

    def __init__(self, polygon, vertices, triangles, boundary_edges,
                 boundary_parent):
        self.polygon = polygon
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_parent = np.ascontiguousarray(boundary_parent, dtype=np.int64)
        self.boundary_normals = polygon.edge_normals[self.boundary_parent]
        nv = self.n_vertices
        keys, self.triangle_edges = _number_edges(self.triangles, nv)
        self.edges = np.column_stack(np.divmod(keys, nv))
        self.boundary_edge_ids = np.searchsorted(
            keys, _edge_key(*self.boundary_edges.T, nv))
        # after the edge numbering, whose sort sets the construction's peak
        # memory, so that the stored areas do not add to it
        self._areas = _triangle_areas(self.vertices, self.triangles)
        self._validate()
        p = self.vertices[self.boundary_edges]
        self._lengths = np.hypot(*(p[:, 1] - p[:, 0]).T)
        self._offsets = np.hypot(
            *(p[:, 0] - polygon.vertices[self.boundary_parent]).T)
        for array in (self.vertices, self.triangles, self.boundary_edges,
                      self.boundary_parent, self.boundary_normals, self.edges,
                      self.triangle_edges, self.boundary_edge_ids,
                      self._areas, self._lengths, self._offsets):
            array.setflags(write=False)

    def _validate(self):
        if np.any(self._areas <= 0):
            raise ValueError("mesh contains a non-positively oriented triangle")
        start = self.boundary_edges[:, 0]
        end = self.boundary_edges[:, 1]
        if not np.array_equal(np.roll(start, -1), end):
            raise ValueError("boundary edges are not chained")
        if np.any(self.vertices[0] != 0) or start[0] != 0:
            raise ValueError("vertex 0 must be the origin and boundary edge "
                             "0 must start there")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]

    @property
    def h(self) -> float:
        p = self.vertices[self.triangles]
        d = [np.hypot(*(p[:, i] - p[:, j]).T) for i, j in ((0, 1), (1, 2), (2, 0))]
        return float(np.max(d))

    def triangle_areas(self) -> np.ndarray:
        """Signed area of each triangle (read-only, computed once)."""
        return self._areas

    def boundary_edge_lengths(self) -> np.ndarray:
        """Length of each boundary edge (read-only, computed once)."""
        return self._lengths

    def boundary_edge_offsets(self) -> np.ndarray:
        """Arclength of each boundary edge's start within its parent polygon
        edge (read-only, computed once)."""
        return self._offsets


def _triangle_areas(vertices, triangles):
    """Signed triangle areas, gathered one coordinate at a time: a
    (nt, 3, 2) gather of the corners costs twice the time."""
    x, y = vertices.T
    a, b, c = triangles.T
    ux, uy = x[b] - x[a], y[b] - y[a]
    vx, vy = x[c] - x[a], y[c] - y[a]
    return 0.5 * (ux * vy - uy * vx)


def _edge_key(a, b, n_vertices):
    """Integer key of the undirected edge {a, b}.

    Keys order edges like the vertex pairs (low, high) in lexicographic order.
    """
    return np.minimum(a, b) * n_vertices + np.maximum(a, b)


def _number_edges(triangles, n_vertices):
    """Sorted unique edge keys and the (nt, 3) edge id of each local edge."""
    keys = _edge_key(triangles, np.roll(triangles, -1, axis=1), n_vertices)
    unique, inverse = np.unique(keys.ravel(), return_inverse=True)
    return unique, inverse.reshape(triangles.shape)


def _coarse_mesh(vertices, corners, triangles):
    """Coarse Mesh whose vertices all lie on the boundary and run once round
    it, counter-clockwise from the origin; ``corners`` indexes the polygon's
    vertices among them."""
    vertices = np.asarray(vertices, dtype=float)
    k = np.arange(len(vertices))
    return Mesh(Polygon(vertices[corners]), vertices, triangles,
                np.column_stack([k, np.roll(k, -1)]),
                np.searchsorted(corners, k, side="right") - 1)


def build_domain(domain_id: str) -> Mesh:
    """Build the coarse mesh of one of the two study domains.

    ``convex`` is the triangle (0,0), (1,0), (cos 2pi/3, sin 2pi/3) with
    interior angle 2pi/3 at the origin; ``nonconvex`` is the L-shaped hexagon
    (0,0), (1,0), (1,1), (-1,1), (-1,-1), (0,-1) with interior angle 3pi/2 at
    the origin.  The origin is mesh vertex 0 in both cases.
    """
    if domain_id == "convex":
        return _coarse_mesh([[0.0, 0.0], [1.0, 0.0],
                             [np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)]],
                            [0, 1, 2], [[0, 1, 2]])
    if domain_id == "nonconvex":
        # three unit squares, each split along the diagonal through the origin
        return _coarse_mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                             [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0],
                             [0.0, -1.0]],
                            [0, 1, 2, 4, 6, 7],
                            [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5],
                             [0, 5, 6], [0, 6, 7]])
    raise ValueError(f"unknown domain_id {domain_id!r}; "
                     "expected 'convex' or 'nonconvex'")


def unit_square() -> Mesh:
    """Two-triangle mesh of (0,1)^2 with one boundary edge per side.

    This is the setup of the boundary-flux counterexample; the corner angle
    pi/2 at the origin is regular, so it is not used for singular studies.
    """
    return _coarse_mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                        [0, 1, 2, 3], [[0, 1, 2], [0, 2, 3]])


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: split every triangle into 4 congruent children.

    New vertices are the edge midpoints; ``h`` halves exactly and every
    boundary edge splits into two children that inherit the parent polygon
    edge (and hence its normal).  Old vertices keep their numbers, so vertex
    0 stays the origin and the boundary chain still starts there.
    """
    nv = mesh.n_vertices
    edges = mesh.edges
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    v0, v1, v2 = mesh.triangles.T
    m01, m12, m20 = (nv + mesh.triangle_edges).T
    children = np.concatenate([
        np.column_stack([v0, m01, m20]),
        np.column_stack([m01, v1, m12]),
        np.column_stack([m20, m12, v2]),
        np.column_stack([m01, m12, m20]),
    ])

    # split boundary edges in traversal order so the chain stays closed
    a, b = mesh.boundary_edges.T
    m = nv + mesh.boundary_edge_ids
    bnd = np.column_stack([a, m, m, b]).reshape(-1, 2)
    return Mesh(mesh.polygon, vertices, children, bnd,
                np.repeat(mesh.boundary_parent, 2))
