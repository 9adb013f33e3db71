"""Reference elements, triangle quadrature, and degree-of-freedom maps.

Two inf-sup stable velocity/pressure pairings are supported:

* Taylor-Hood: continuous piecewise quadratics (P2) for each velocity
  component, continuous piecewise linears (P1) for the pressure,
* MINI: P1 enriched with the cubic cell bubble for the velocity, P1 for
  the pressure.

The pressure space is always the full nodal P1 space (mean-zero is enforced
later through a multiplier row, not by constraining the basis).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .mesh import Mesh, _bisected, _frozen

__all__ = [
    "ElementPairing",
    "TAYLOR_HOOD",
    "MINI",
    "QuadratureRule",
    "quadrature",
    "DofMap",
    "build_dofmap",
]

MAX_QUAD_DEGREE = 20
_VELOCITY_ORDER = {"taylor_hood": 2, "mini": 1}


@dataclass(frozen=True)
class ElementPairing:
    """Velocity/pressure element pairing of the given ``kind``."""

    kind: str

    def __post_init__(self):
        if self.kind not in _VELOCITY_ORDER:
            raise ValueError(f"unknown pairing {self.kind!r}")

    @property
    def velocity_order(self) -> int:
        """Velocity approximation order k: 2 (Taylor-Hood) or 1 (MINI)."""
        return _VELOCITY_ORDER[self.kind]


TAYLOR_HOOD = ElementPairing("taylor_hood")
MINI = ElementPairing("mini")


def pairing_from_name(name: str) -> ElementPairing:
    return ElementPairing(name)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle {x, y >= 0, x + y <= 1}.

    ``points`` are barycentric coordinates (n, 3); ``weights`` sum to the
    reference area 1/2; the rule is exact for bivariate polynomials of total
    degree up to ``degree``.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=MAX_QUAD_DEGREE)
def quadrature(degree: int) -> QuadratureRule:
    """Positive-weight rule exact to the requested total degree (1..20).

    Every degree uses the collapsed Gauss-Legendre x Gauss-Jacobi product
    with ``(degree + 2) // 2`` points per direction, whose weights are
    positive; at degree 1 it is the centroid rule.  Rules are cached per
    degree; their arrays are read-only, so callers can share them.
    """
    if not 1 <= degree <= MAX_QUAD_DEGREE:
        raise ValueError(f"quadrature degree {degree} not in [1, {MAX_QUAD_DEGREE}]")
    n = (degree + 2) // 2
    # x-direction absorbs the Jacobian factor (1 - x) of the collapsed map
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xg, wg = np.polynomial.legendre.leggauss(n)
    # mapping [-1,1] -> [0,1] turns the Jacobi weight (1-t) into 2(1-x)
    # and contributes dt = 2dx, so the pair picks up a net factor 1/8
    xj = 0.5 * (xj + 1.0)
    wj = wj / 4.0
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    x = np.repeat(xj, n)
    eta = np.tile(xg, n)
    y = eta * (1.0 - x)
    pts = np.column_stack([1.0 - x - y, x, y])
    wts = np.repeat(wj, n) * np.tile(wg, n)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(pts, wts, degree)


# local basis layout per pairing: vertices first, then edge midpoints
# (Taylor-Hood, edge k joins local vertices k and k+1) or the cell bubble
# (MINI).  Pressure is always the P1 vertex basis.
def _tabulate(pairing: ElementPairing, bary: np.ndarray):
    """Velocity basis values and reference gradients at barycentric points.

    Returns ``(values, grads)`` with shapes (npts, nloc) and (npts, nloc, 2).
    Gradients are with respect to the reference coordinates (x, y) with
    barycentric coordinates (1 - x - y, x, y).  The P1 pressure basis values
    are the barycentric coordinates themselves.
    """
    lam = np.atleast_2d(np.asarray(bary, dtype=float))
    # gradients of the barycentric coordinates
    glam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if pairing.kind == "taylor_hood":
        vals = np.empty((len(lam), 6))
        grads = np.empty((len(lam), 6, 2))
        for i in range(3):
            vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
            grads[:, i] = (4.0 * lam[:, i, None] - 1.0) * glam[i]
        for k in range(3):
            i, j = k, (k + 1) % 3
            vals[:, 3 + k] = 4.0 * lam[:, i] * lam[:, j]
            grads[:, 3 + k] = 4.0 * (lam[:, i, None] * glam[j]
                                     + lam[:, j, None] * glam[i])
        return vals, grads
    # MINI: P1 plus the normalized cubic bubble 27*l0*l1*l2
    vals = np.empty((len(lam), 4))
    grads = np.empty((len(lam), 4, 2))
    vals[:, :3] = lam
    grads[:, :3] = np.broadcast_to(glam, (len(lam), 3, 2))
    vals[:, 3] = 27.0 * lam[:, 0] * lam[:, 1] * lam[:, 2]
    grads[:, 3] = 27.0 * (lam[:, 1] * lam[:, 2])[:, None] * glam[0] \
        + 27.0 * (lam[:, 0] * lam[:, 2])[:, None] * glam[1] \
        + 27.0 * (lam[:, 0] * lam[:, 1])[:, None] * glam[2]
    return vals, grads


def edge_trace_values(pairing: ElementPairing, t: np.ndarray) -> np.ndarray:
    """1D trace basis on a boundary edge at parameters ``t`` in [0, 1].

    Taylor-Hood traces are the quadratic (end, mid, end) Lagrange basis; MINI
    traces are linear since the bubble vanishes on the boundary.
    """
    t = np.asarray(t, dtype=float)
    if pairing.kind == "taylor_hood":
        return np.stack([(1 - t) * (1 - 2 * t), 4 * t * (1 - t),
                         t * (2 * t - 1)], axis=-1)
    return np.stack([1 - t, t], axis=-1)


def edge_trace_nodes(pairing: ElementPairing) -> np.ndarray:
    """Nodes of the 1D trace basis on [0, 1], in trace order."""
    return np.linspace(0.0, 1.0, pairing.velocity_order + 1)


# Gram matrix int_0^1 phi_i phi_j dt of the trace basis per pairing; its row
# sums are the basis integrals <1, phi_i>.  Exact rationals: a Gauss rule
# misses them by rounding.
EDGE_TRACE_GRAM = {"taylor_hood": np.array([[4.0, 2.0, -1.0],
                                            [2.0, 16.0, 2.0],
                                            [-1.0, 2.0, 4.0]]) / 30.0,
                   "mini": np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0}
for _gram in EDGE_TRACE_GRAM.values():
    _gram.setflags(write=False)


class DofMap:
    """Scalar velocity and pressure dof layout for one mesh/pairing pair.

    Velocity dofs are numbered per scalar component: vertex dofs first
    (vertex index), then edge-midpoint dofs (Taylor-Hood) or cell-bubble dofs
    (MINI).  Vector dofs use the component-major layout
    ``component * n_scalar_velocity + scalar_dof``.

    The arrays are read-only.  The constructor reads only the mesh's counts
    and builds ``boundary_edge_positions``.  The tables ``cell_pressure``,
    ``boundary_dofs``, ``cell_velocity``, ``boundary_mask`` and
    ``interior_dofs`` are built on first read, from the mesh's volume
    tables, so a map used on the boundary only costs boundary work and
    builds no triangulation.

    Attributes
    ----------
    n_edges, n_pressure, n_scalar_velocity, n_boundary_dofs : int
        Counts; ``n_boundary_dofs`` is ``k`` per boundary edge.
    boundary_edge_positions : (nbe, k + 1) int array
        Per boundary edge the positions of its trace dofs in
        ``boundary_dofs``, in 1D trace order (start, [mid,] end).
    cell_pressure : (nt, 3) int array
        Pressure dofs of each cell (the triangle's vertices).
    boundary_dofs : (nbd,) int array
        Scalar velocity dofs on the boundary, ordered along the boundary
        traversal: for each chained boundary edge its start vertex, then (for
        Taylor-Hood) its midpoint dof.
    cell_velocity : (nt, nloc) int array
        Scalar velocity dofs of each cell, matching the local basis order.
    boundary_mask : (n_scalar_velocity,) bool array
        True on the boundary dofs.
    interior_dofs : (n_interior,) int array
        The other scalar velocity dofs, ascending.
    """

    def __init__(self, mesh: Mesh, pairing: ElementPairing):
        self.mesh = mesh
        self.pairing = pairing
        nv = mesh.n_vertices
        self.n_edges = mesh.n_edges
        self.n_pressure = nv
        if pairing.kind == "taylor_hood":
            self.n_scalar_velocity = nv + self.n_edges
        else:
            self.n_scalar_velocity = nv + mesh.n_triangles
        # the boundary chain's edge e ends where edge e + 1 starts
        k = pairing.velocity_order
        self.n_boundary_dofs = k * mesh.n_boundary_edges
        self.boundary_edge_positions = _frozen(
            (k * np.arange(mesh.n_boundary_edges)[:, None]
             + np.arange(k + 1)) % self.n_boundary_dofs)

    @cached_property
    def cell_pressure(self) -> np.ndarray:
        return self.mesh.triangles  # the mesh keeps it read-only

    @cached_property
    def boundary_dofs(self) -> np.ndarray:
        mesh = self.mesh
        a = mesh.boundary_edges[:, 0]
        if self.pairing.kind == "taylor_hood":
            m = mesh.n_vertices + mesh.boundary_edge_ids
            return _frozen(np.column_stack([a, m]).ravel())
        return _frozen(a.copy())

    @cached_property
    def cell_velocity(self) -> np.ndarray:
        mesh, nv = self.mesh, self.mesh.n_vertices
        if self.pairing.kind == "taylor_hood":
            extra = nv + mesh.triangle_edges
        else:
            extra = np.arange(nv, nv + mesh.n_triangles)[:, None]
        return _frozen(np.hstack([mesh.triangles, extra]))

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_scalar_velocity, dtype=bool)
        mask[self.boundary_dofs] = True
        return _frozen(mask)

    @cached_property
    def interior_dofs(self) -> np.ndarray:
        return _frozen(np.flatnonzero(~self.boundary_mask))

    @property
    def n_velocity_dofs(self) -> int:
        """Vector velocity dofs (both components)."""
        return 2 * self.n_scalar_velocity

    def dof_points(self) -> np.ndarray:
        """Nodal point of every scalar velocity dof (bubbles: barycenter)."""
        mesh = self.mesh
        pts = np.empty((self.n_scalar_velocity, 2))
        pts[:mesh.n_vertices] = mesh.vertices
        if self.pairing.kind == "taylor_hood":
            edges = mesh.edges
            pts[mesh.n_vertices:] = 0.5 * (mesh.vertices[edges[:, 0]]
                                           + mesh.vertices[edges[:, 1]])
        else:  # the bubbles follow the vertices in cell order
            pts[mesh.n_vertices:] = mesh.vertices[mesh.triangles].mean(axis=1)
        return pts

    def boundary_dof_points(self) -> np.ndarray:
        """``dof_points()[boundary_dofs]``, built from the boundary chain only."""
        if self.pairing.kind == "taylor_hood":
            return _bisected(self.mesh.boundary_points)
        return self.mesh.boundary_points.copy()


def build_dofmap(mesh: Mesh, pairing: ElementPairing) -> DofMap:
    """Construct the dof map for ``mesh`` with the given element pairing."""
    return DofMap(mesh, pairing)
