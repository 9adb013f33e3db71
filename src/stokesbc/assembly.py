"""Assembly of the discrete Stokes blocks and the bordered system.

The discrete problem couples three unknowns: the divergence defect scalar
``delta``, the interior velocity ``y0`` (boundary dofs are eliminated by
restriction to interior rows), and the full nodal pressure ``p``.  With
``A = diag(K, K)`` the interior stiffness block, ``K`` the scalar one, ``B``
the (negated) divergence block and ``s`` the vector of pressure-basis
integrals, the assembled matrix is

    [ alpha  0^T  s^T ]
    [   0     A   B^T ]
    [   s     B    0  ]

which is symmetric, and nonsingular for alpha >= 0.  The first row carries
the pressure normalization s^T p = 0 and, for alpha > 0, pins delta to its
independently computed value; the rows tested against the pressure basis
recover delta algebraically as e^T (g - B y0) / e^T s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .fe_spaces import EDGE_TRACE_GRAM, DofMap, _tabulate, quadrature
from .mesh import Mesh

__all__ = [
    "BorderedSystem",
    "DiscreteSolution",
    "assemble_divergence",
    "assemble_boundary_mass",
    "edge_integrals",
    "boundary_flux",
    "compute_delta_h",
    "assemble_bordered_system",
]

# exact for every bilinear-form integrand of both pairings; the MINI
# bubble-bubble stiffness term has total degree 4
ASSEMBLY_QUAD_DEGREE = 4


def _local_blocks(mesh: Mesh, dofmap: DofMap):
    rule = quadrature(ASSEMBLY_QUAD_DEGREE)
    _, grads_v = _tabulate(dofmap.pairing, rule.points)
    # the P1 pressure basis values are the barycentric points
    return _kernels.local_matrices(2 * mesh.areas, mesh.inverse_jacobians,
                                   grads_v, rule.points, rule.weights)


def assemble_divergence(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Divergence matrix with entries (div phi_j, q_i).

    Rows range over the full nodal pressure basis, columns over vector
    velocity dofs in component-major layout.
    """
    return _divergence_matrix(_local_blocks(mesh, dofmap)[1], dofmap)


def _scatter(local, rows, cols, shape, keep=slice(None)) -> sp.csr_matrix:
    """Sum per-cell blocks ``local`` (m, nr, nc) into a sparse matrix.

    Block ``e`` lands on rows ``rows[e]`` (nr,) and columns ``cols[e]``
    (nc,); ``keep`` selects entries of the flattened ``nr * nc`` block.
    """
    nr, nc = local.shape[1:]
    # the index arrays are temporaries (the COO keeps its own copies); tocsr
    # sums the duplicates and sorts the indices
    return sp.coo_matrix((local.reshape(len(local), -1)[:, keep].ravel(),
                          (np.repeat(rows, nc, axis=1)[:, keep].ravel(),
                           np.tile(cols, (1, nr))[:, keep].ravel())),
                         shape=shape).tocsr()


def _stiffness_matrix(kloc, dofmap: DofMap) -> sp.csr_matrix:
    """Scalar stiffness matrix over all scalar velocity dofs."""
    keep = slice(None)
    if dofmap.pairing.kind == "mini":
        # the MINI bubble b and a vertex function lambda_i do not couple:
        # int grad b . grad lambda_i = grad lambda_i . int_dT b n = 0
        keep = np.ones(kloc.shape[1:], dtype=bool)
        keep[3, :3] = keep[:3, 3] = False
        keep = keep.ravel()
    dofs = dofmap.cell_velocity
    ns = dofmap.n_scalar_velocity
    return _scatter(kloc, dofs, dofs, (ns, ns), keep)


def _divergence_matrix(dloc, dofmap: DofMap) -> sp.csr_matrix:
    # one block per cell and component, the second component's blocks after
    # the first's: that order fixes the order in which duplicates are summed
    ns = dofmap.n_scalar_velocity
    cells = dofmap.cell_velocity
    return _scatter(np.swapaxes(dloc, 0, 1).reshape(-1, *dloc.shape[2:]),
                    np.tile(dofmap.cell_pressure, (2, 1)),
                    np.concatenate([cells, cells + ns]),
                    (dofmap.n_pressure, 2 * ns))


def assemble_boundary_mass(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Gram matrix of the scalar boundary trace basis in L2 of the boundary.

    Rows/columns follow the ``dofmap.boundary_dofs`` ordering.  Entries are
    the edge lengths times the unit-edge Gram matrix ``EDGE_TRACE_GRAM``.
    """
    local = EDGE_TRACE_GRAM[dofmap.pairing.kind]
    pos = dofmap.boundary_edge_positions
    nbd = dofmap.n_boundary_dofs
    return _scatter(mesh.boundary_lengths[:, None, None] * local,
                    pos, pos, (nbd, nbd))


def edge_integrals(f: np.ndarray, mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Exact moments <f, phi_i> (nbd, c) of ``f`` (nbe, c), constant per edge."""
    weights = np.outer(mesh.boundary_lengths,
                       EDGE_TRACE_GRAM[dofmap.pairing.kind].sum(axis=1))
    pos = dofmap.boundary_edge_positions.ravel()
    return np.column_stack([np.bincount(pos, (weights * fc[:, None]).ravel(),
                                        minlength=dofmap.n_boundary_dofs)
                            for fc in f.T])


def _trace_coefficients(u_h, dofmap: DofMap) -> np.ndarray:
    """Coefficients of the trace ``u_h``, a ``BoundaryTrace`` or an array,
    checked to be (n_boundary_dofs, 2) in ``boundary_dofs`` order."""
    trace = np.asarray(getattr(u_h, "coefficients", u_h))
    if trace.shape != (dofmap.n_boundary_dofs, 2):
        raise ValueError(
            f"trace shape {trace.shape} does not match the boundary space "
            f"({dofmap.n_boundary_dofs}, 2)")
    return trace


def boundary_flux(u_h, mesh: Mesh, dofmap: DofMap) -> float:
    """Exact boundary integral <u_h, n> of a trace or its coefficients.

    The normal is constant per edge, so the flux pairs the coefficients with
    the moments <n, phi_i> of :func:`edge_integrals`.
    """
    trace = _trace_coefficients(u_h, dofmap)
    moments = edge_integrals(mesh.boundary_normals, mesh, dofmap)
    return float((trace * moments).sum())


def compute_delta_h(u_h, mesh: Mesh, dofmap: DofMap) -> float:
    """Divergence defect delta_h = <u_h, n> / |Omega| by exact edge integration."""
    return boundary_flux(u_h, mesh, dofmap) / mesh.polygon.area


@dataclass
class BorderedSystem:
    """Blocks and right-hand side of the bordered saddle-point system.

    ``K`` is the interior scalar stiffness.  The interior velocity unknowns
    are component-major (see ``unpack``) and the components do not couple,
    so the velocity block is ``A = diag(K, K)``.
    """

    K: sp.csc_matrix
    B: sp.csr_matrix
    s: np.ndarray
    alpha_reg: float
    rhs_f: np.ndarray
    rhs_g: np.ndarray
    delta_target: float
    dofmap: DofMap
    mesh: Mesh
    boundary_values: np.ndarray  # (n_boundary_dofs, 2) prescribed trace

    @property
    def A(self) -> sp.coo_matrix:
        """Velocity block ``diag(K, K)``, built on each access.

        COO, the format ``sp.bmat`` in ``matrix`` works in.
        """
        return sp.block_diag([self.K, self.K])

    @property
    def pressure_mass(self) -> sp.csc_matrix:
        """Consistent mass matrix of the nodal P1 pressure basis.

        Its local matrix is ``area / 12 (1 + delta_ij)``, so its row sums are
        the basis integrals ``s``.
        """
        cells = self.dofmap.cell_pressure
        local = (np.ones((3, 3)) + np.eye(3)) / 12.0
        n = self.dofmap.n_pressure
        return _scatter(self.mesh.areas[:, None, None] * local,
                        cells, cells, (n, n)).tocsc()

    def matrix(self) -> sp.csr_matrix:
        top = sp.coo_matrix(([self.alpha_reg], ([0], [0])), shape=(1, 1))
        srow = sp.csr_matrix(self.s[None, :])
        m = sp.bmat([[top, None, srow],
                     [None, self.A, self.B.T],
                     [srow.T, self.B, None]], format="csr")
        m.sort_indices()
        return m

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Product ``matrix() @ x``, block by block, without the matrix."""
        half = self.K.shape[0]
        delta, y, p = x[0], x[1:1 + 2 * half], x[1 + 2 * half:]
        velocity = (self.K @ y.reshape(2, half).T).T.ravel() + self.B.T @ p
        return np.concatenate([[self.alpha_reg * delta + self.s @ p],
                               velocity, self.s * delta + self.B @ y])

    def rhs(self) -> np.ndarray:
        return np.concatenate([[self.alpha_reg * self.delta_target],
                               self.rhs_f, self.rhs_g])

    def recovered_delta(self, y0: np.ndarray) -> float:
        """delta from the algebraic identity e^T (g - B y0) / e^T s."""
        return float((self.rhs_g - self.B @ y0).sum() / self.s.sum())

    def unpack(self, x: np.ndarray) -> "DiscreteSolution":
        dm = self.dofmap
        y0, p = np.split(x[1:], [2 * len(dm.interior_dofs)])
        velocity = np.zeros((dm.n_scalar_velocity, 2))
        velocity[dm.interior_dofs] = y0.reshape(2, -1).T
        velocity[dm.boundary_dofs] = self.boundary_values
        return DiscreteSolution(velocity=velocity, pressure=p,
                                delta_h=float(x[0]))


@dataclass
class DiscreteSolution:
    """Velocity coefficients (n_scalar, 2), nodal pressure, and delta_h."""

    velocity: np.ndarray
    pressure: np.ndarray
    delta_h: float


def assemble_bordered_system(mesh: Mesh, dofmap: DofMap, u_h,
                             alpha_reg: float = 1.0) -> BorderedSystem:
    """Assemble the bordered system for prescribed boundary trace ``u_h``.

    The discrete extension of ``u_h`` has zero interior dofs, so the load
    vectors are ``f = -(K E u_h)`` on interior rows and ``g = D (E u_h)``
    with D the divergence matrix.  ``alpha_reg = 0`` yields the pure saddle
    system with singular upper-left block; both variants have the same
    solution.
    """
    trace = _trace_coefficients(u_h, dofmap)
    if alpha_reg < 0:
        raise ValueError("alpha_reg must be >= 0")

    kloc, dloc = _local_blocks(mesh, dofmap)
    divergence = _divergence_matrix(dloc, dofmap)
    ns = dofmap.n_scalar_velocity
    inner = dofmap.interior_dofs
    stiffness = _stiffness_matrix(kloc, dofmap)[inner]  # interior rows

    extension = np.zeros((ns, 2))
    extension[dofmap.boundary_dofs] = trace

    K = stiffness[:, inner].tocsc()
    B = (-divergence[:, np.concatenate([inner, ns + inner])]).tocsr()
    rhs_f = -(stiffness @ extension).T.ravel()
    rhs_g = divergence @ extension.T.ravel()
    s = _pressure_integrals(mesh, dofmap)
    delta = compute_delta_h(trace, mesh, dofmap)
    return BorderedSystem(K=K, B=B, s=s, alpha_reg=float(alpha_reg),
                          rhs_f=rhs_f, rhs_g=rhs_g, delta_target=delta,
                          dofmap=dofmap, mesh=mesh,
                          boundary_values=trace.copy())


def _pressure_integrals(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Vector s with s_i = int q_i; for nodal P1, area/3 per incident cell."""
    return np.bincount(dofmap.cell_pressure.ravel(),
                       np.repeat(mesh.areas / 3.0, 3),
                       minlength=dofmap.n_pressure)
