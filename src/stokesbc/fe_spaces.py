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
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .mesh import Mesh

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


@lru_cache(maxsize=8)
def gauss_legendre_unit(n: int):
    """n-point Gauss-Legendre nodes/weights on [0, 1].

    Cached per ``n``; the arrays are read-only, so callers can share them.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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

    Attributes
    ----------
    cell_velocity : (nt, nloc) int array
        Scalar velocity dofs of each cell, matching the local basis order.
    cell_pressure : (nt, 3) int array
        Pressure dofs of each cell (the triangle's vertices).
    boundary_dofs : (nbd,) int array
        Scalar velocity dofs on the boundary, ordered along the boundary
        traversal: for each chained boundary edge its start vertex, then (for
        Taylor-Hood) its midpoint dof.
    boundary_edge_positions : (nbe, k + 1) int array
        Per boundary edge the positions of its trace dofs in
        ``boundary_dofs``, in 1D trace order (start, [mid,] end).
    """

    def __init__(self, mesh: Mesh, pairing: ElementPairing):
        self.mesh = mesh
        self.pairing = pairing
        nv = mesh.n_vertices
        tris = mesh.triangles

        self.n_edges = len(mesh.edges)
        a = mesh.boundary_edges[:, 0]

        if pairing.kind == "taylor_hood":
            self.n_scalar_velocity = nv + self.n_edges
            self.cell_velocity = np.hstack([tris, nv + mesh.triangle_edges])
            m = nv + mesh.boundary_edge_ids
            self.boundary_dofs = np.column_stack([a, m]).ravel()
        else:
            self.n_scalar_velocity = nv + mesh.n_triangles
            bubble = nv + np.arange(mesh.n_triangles)[:, None]
            self.cell_velocity = np.hstack([tris, bubble])
            self.boundary_dofs = a.copy()
        # the boundary chain's edge e ends where edge e + 1 starts
        k = pairing.velocity_order
        self.boundary_edge_positions = (
            k * np.arange(mesh.n_boundary_edges)[:, None]
            + np.arange(k + 1)) % len(self.boundary_dofs)
        self.cell_pressure = tris  # the mesh keeps it read-only
        self.n_pressure = nv

        mask = np.zeros(self.n_scalar_velocity, dtype=bool)
        mask[self.boundary_dofs] = True
        self.boundary_mask = mask
        self.interior_dofs = np.where(~mask)[0]

    @property
    def n_boundary_dofs(self) -> int:
        return len(self.boundary_dofs)

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
        else:
            dof = self.cell_velocity[:, 3]
            pts[dof] = mesh.vertices[mesh.triangles].mean(axis=1)
        return pts

    def boundary_dof_points(self) -> np.ndarray:
        """``dof_points()[boundary_dofs]``, built from the boundary edges only."""
        v = self.mesh.vertices
        a, b = self.mesh.boundary_edges.T
        if self.pairing.kind == "taylor_hood":
            return np.stack([v[a], 0.5 * (v[a] + v[b])], axis=1).reshape(-1, 2)
        return v[a]


def build_dofmap(mesh: Mesh, pairing: ElementPairing) -> DofMap:
    """Construct the dof map for ``mesh`` with the given element pairing."""
    return DofMap(mesh, pairing)
