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
threads.  Refinement always produces a new mesh, which builds its
triangulation on first read (see :class:`Mesh`): a study that works on the
boundary alone never builds one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Polygon",
    "Mesh",
    "build_domain",
    "unit_square",
    "refine_uniform",
]


# how far a boundary vertex may lie off its polygon edge, across or beyond
# its ends, relative to the edge's length
ON_EDGE_RTOL = 1e-12


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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

    # the geometry is computed once, on first read; the arrays are read-only
    @cached_property
    def edge_vectors(self) -> np.ndarray:
        return _frozen(np.roll(self.vertices, -1, axis=0) - self.vertices)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        return _frozen(np.hypot(*self.edge_vectors.T))

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """Outward unit normals, one per edge (CCW traversal => rotate -90deg)."""
        t = self.edge_vectors / self.edge_lengths[:, None]
        return _frozen(np.column_stack([t[:, 1], -t[:, 0]]))

    @cached_property
    def area(self) -> float:
        x, y = self.vertices.T
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    @cached_property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        return _frozen((v + w).T @ cross / (6.0 * self.area))

    def point_on_edge(self, edge: int, s) -> np.ndarray:
        """Point at arclength ``s`` from the start of polygon edge ``edge``."""
        t = self.edge_vectors[edge] / self.edge_lengths[edge]
        return self.vertices[edge] + np.multiply.outer(np.asarray(s), t)


class _VolumeTable:
    """A :class:`Mesh` volume table, kept in the instance like a
    ``cached_property``; the first read builds them all.  Before Python
    3.12 ``cached_property`` locks all instances at once, and a build reads
    its parent's tables, so two threads could wait on each other."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, mesh, owner=None):
        if mesh is None:
            return self
        mesh._build_volume()
        return vars(mesh)[self.name]


class Mesh:
    """Conforming triangulation of a :class:`Polygon`.

    Vertex 0 is exactly the origin, the polygon's corner, and boundary edge
    0 starts there, so the last boundary edge ends there; the constructor
    rejects a mesh that breaks this, or whose boundary vertices lie off
    their polygon edges.

    The boundary chain and the counts are set at construction.  So are the
    volume tables ``vertices``, ``triangles``, ``boundary_edges``,
    ``edges``, ``triangle_edges``, ``boundary_edge_ids`` and ``areas`` of a
    mesh built from arrays; one made by :func:`refine_uniform` builds them
    on first read, once, under a lock, and then lets its parent go.  Either
    way the edges are numbered by one sort.  ``h`` and
    ``inverse_jacobians`` read the volume.  Every array is read-only.

    Attributes
    ----------
    n_vertices, n_triangles, n_edges, n_boundary_edges : int
    boundary_points : (nbe, 2) float array
        Start point of each boundary edge, along the boundary chain.
    boundary_parent : (nbe,) int array
        Index of the polygon edge each boundary edge lies on.
    boundary_normals : (nbe, 2) float array
        Outward unit normal of each boundary edge.
    boundary_lengths, boundary_offsets : (nbe,) float arrays
        Length of each boundary edge, and arclength of its start within its
        parent polygon edge.
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex index triples, all positively oriented.
    boundary_edges : (nbe, 2) int array
        Vertex pairs, chained so edge k ends where edge k+1 starts and the
        chain traverses the boundary exactly once, counter-clockwise; edge
        k starts at ``boundary_points[k]``.
    edges : (ne, 2) int array
        Every edge once as a vertex pair (low, high), in lexicographic order.
    triangle_edges : (nt, 3) int array
        Edge id of each triangle's local edge k, which joins local vertices
        k and k+1 (mod 3).
    boundary_edge_ids : (nbe,) int array
        Edge id of each boundary edge.
    areas : (nt,) float array
        Triangle areas, half the determinants of the affine element maps.
    inverse_jacobians : (nt, 2, 2) float array
        Inverse transposes of the element maps (computed on first read).
    h : float
        Maximum triangle diameter, the longest edge (computed on first read).
    """

    vertices = _VolumeTable()
    triangles = _VolumeTable()
    boundary_edges = _VolumeTable()
    edges = _VolumeTable()
    triangle_edges = _VolumeTable()
    boundary_edge_ids = _VolumeTable()
    areas = _VolumeTable()

    def __init__(self, polygon, vertices, triangles, boundary_edges,
                 boundary_parent):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self._set_chain(polygon, vertices[boundary_edges[:, 0]],
                        boundary_parent)
        self.n_vertices, self.n_triangles = len(vertices), len(triangles)
        self._set_volume(vertices, triangles, boundary_edges)

    def _set_chain(self, polygon, points, parent):
        parent = np.ascontiguousarray(parent, dtype=np.int64)
        self.polygon = polygon
        self.boundary_points = _frozen(points)
        self.boundary_parent = _frozen(parent)
        self.boundary_normals = _frozen(polygon.edge_normals[parent])
        self.boundary_lengths = _frozen(
            np.hypot(*(np.roll(points, -1, axis=0) - points).T))
        rel = points - polygon.vertices[parent]
        self.boundary_offsets = _frozen(np.hypot(*rel.T))
        if np.any(points[0] != 0):
            raise ValueError("boundary edge 0 must start at the origin")
        # each point's offset along its polygon edge and distance from the
        # edge's line, as fractions of the edge's length
        vec = polygon.edge_vectors[parent]
        length2 = polygon.edge_lengths[parent] ** 2
        along = np.einsum("ec,ec->e", rel, vec) / length2
        across = (rel[:, 1] * vec[:, 0] - rel[:, 0] * vec[:, 1]) / length2
        if not np.all((np.abs(across) <= ON_EDGE_RTOL)
                      & (along >= -ON_EDGE_RTOL)
                      & (along <= 1 + ON_EDGE_RTOL)):
            raise ValueError("boundary vertices must lie on their polygon "
                             "edges")

    def _set_volume(self, vertices, triangles, boundary_edges):
        """Number the edges, check the volume tables against the chain and
        the edge count, if one was announced, and store them."""
        edges, triangle_edges, boundary_edge_ids = _number_edges(
            triangles, boundary_edges, len(vertices))
        # a mesh built from arrays takes its count from here; a refined one
        # announced it before the build, and a DofMap may be sized by it
        if vars(self).setdefault("n_edges", len(edges)) != len(edges):
            raise ValueError(f"mesh has {len(edges)} edges, not the "
                             f"{self.n_edges} announced")
        # after the edge numbering, whose sort sets the construction's peak
        # memory, so that the stored areas do not add to it
        ux, uy, vx, vy = _spans(vertices, triangles)
        areas = 0.5 * (ux * vy - uy * vx)
        if np.any(areas <= 0):
            raise ValueError("mesh contains a non-positively oriented triangle")
        start, end = boundary_edges.T
        if not np.array_equal(np.roll(start, -1), end):
            raise ValueError("boundary edges are not chained")
        if start[0] != 0:
            raise ValueError("vertex 0 must be the origin and boundary edge "
                             "0 must start there")
        if not np.array_equal(vertices.take(start, axis=0),
                              self.boundary_points):
            raise ValueError("boundary vertices differ from the boundary "
                             "chain's points")
        tables = {"vertices": vertices, "triangles": triangles,
                  "boundary_edges": boundary_edges, "edges": edges,
                  "triangle_edges": triangle_edges,
                  "boundary_edge_ids": boundary_edge_ids, "areas": areas}
        for array in tables.values():
            array.setflags(write=False)
        vars(self).update(tables)

    def _build_volume(self):
        with self._lock:
            if self._parent is None:  # another thread built them
                return
            self._set_volume(*_red_refinement(self._parent))
            self._parent = None  # so that a study holds one level at a time

    @property
    def n_boundary_edges(self) -> int:
        return len(self.boundary_points)

    @cached_property
    def h(self) -> float:
        p = self.vertices.take(self.edges, axis=0)
        return float(np.hypot(*(p[:, 1] - p[:, 0]).T).max())

    @cached_property
    def inverse_jacobians(self) -> np.ndarray:
        # the map's Jacobian has columns (ux, uy) and (vx, vy) and
        # determinant 2 * area
        ux, uy, vx, vy = _spans(self.vertices, self.triangles)
        invjt = np.stack([vy, -uy, -vx, ux], axis=1).reshape(-1, 2, 2)
        invjt /= 2 * self.areas[:, None, None]
        invjt.setflags(write=False)
        return invjt


def _spans(vertices, triangles):
    """``(ux, uy, vx, vy)``: each triangle's vectors from its corner 0 to
    corners 1 and 2, gathered one coordinate at a time; a (nt, 3, 2) gather
    of the corners costs twice the time."""
    x, y = vertices.T
    a, b, c = triangles.T
    xa, ya = x[a], y[a]
    return x[b] - xa, y[b] - ya, x[c] - xa, y[c] - ya


def _edge_key(a, b, n_vertices):
    """Integer key of the undirected edge {a, b}.

    Keys order edges like the vertex pairs (low, high) in lexicographic order.
    """
    return np.minimum(a, b) * n_vertices + np.maximum(a, b)


def _number_edges(triangles, boundary_edges, n_vertices):
    """Edges, triangle edges and boundary edge ids by one sort of all edges."""
    keys = _edge_key(triangles, np.roll(triangles, -1, axis=1), n_vertices)
    unique, inverse = np.unique(keys.ravel(), return_inverse=True)
    return (np.column_stack(np.divmod(unique, n_vertices)),
            inverse.reshape(triangles.shape),
            np.searchsorted(unique, _edge_key(*boundary_edges.T, n_vertices)))


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
    0 stays the origin and the boundary chain still starts there.  The
    refined chain and counts are set at once, the volume tables from the
    parent's on first read, where the edges are numbered by the same sort as
    a mesh built from arrays and must come to the announced ``n_edges``.
    """
    fine = Mesh.__new__(Mesh)
    fine._set_chain(mesh.polygon, _bisected(mesh.boundary_points),
                    np.repeat(mesh.boundary_parent, 2))
    fine.n_vertices = mesh.n_vertices + mesh.n_edges
    fine.n_triangles = 4 * mesh.n_triangles
    fine.n_edges = 2 * mesh.n_edges + 3 * mesh.n_triangles
    fine._parent, fine._lock = mesh, threading.Lock()
    return fine


def _bisected(points):
    """The closed chain ``points`` with the midpoint of each edge after its
    start point."""
    return np.stack([points, 0.5 * (points + np.roll(points, -1, axis=0))],
                    axis=1).reshape(-1, 2)


def _red_refinement(mesh):
    """``(vertices, triangles, boundary_edges)`` of the red refinement of
    ``mesh``."""
    nv = mesh.n_vertices
    v, edges = mesh.vertices, mesh.edges
    midpoints = 0.5 * (v.take(edges[:, 0], axis=0)
                       + v.take(edges[:, 1], axis=0))
    vertices = np.vstack([v, midpoints])
    children = _red_children(mesh.triangles, nv + mesh.triangle_edges)

    # split boundary edges in traversal order so the chain stays closed
    a, b = mesh.boundary_edges.T
    m = nv + mesh.boundary_edge_ids
    bnd = np.column_stack([a, m, m, b]).reshape(-1, 2)
    return vertices, children, bnd


def _red_children(triangles, mid):
    """(4 nt, 3) array of the four children of each of nt triangles whose
    local edge k has its midpoint ``mid[:, k]``: child i < 3 holds corner i
    at local position i, between the midpoints of its edges there; child 3
    holds the midpoints."""
    out = np.empty((4,) + mid.shape, dtype=np.int64)
    for i in range(3):
        out[i, :, i] = triangles[:, i]
        out[i, :, (i + 1) % 3] = mid[:, i]
        out[i, :, i - 1] = mid[:, i - 1]
    out[3] = mid
    return out.reshape(-1, 3)
