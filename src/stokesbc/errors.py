"""Discretization error norms and experimental convergence orders.

All error integrals on one mesh share one ``ErrorQuadrature``: a
fixed-degree triangle rule on every cell, where the cells touching the
singular corner are split into dyadically shrinking layers toward the origin
so that integrands like |y|^2 ~ r^(2a) with a near -1/2 are resolved.  Each
layer is one more sub-cell of the point set, with no branch for the corner.
The quadrature evaluates the exact velocity, gradient and pressure at its
points once per solution, in one pass, and the three norms share them.  The
pass and each norm's reduction run over chunks of at most ``CHUNK`` points,
so their temporaries do not grow with the mesh.
The layering depth is configurable; the test
``test_corner_subdivision_robustness`` checks that deepening the layers does
not move the value.  Studies do not run that check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .assembly import DiscreteSolution
from .fe_spaces import DofMap, _tabulate, quadrature
from .manufactured import SingularSolution, exact_fields, solve_xi
from .mesh import Mesh

__all__ = [
    "ConvergenceRecord",
    "ErrorQuadrature",
    "l2_velocity_error",
    "h1_seminorm_velocity_error",
    "l2_pressure_error",
    "eoc",
    "expected_order",
]

DEFAULT_QUAD_DEGREE = 10
DEFAULT_CORNER_LEVELS = 6
# points per exact-field evaluation and per norm reduction
CHUNK = 2 ** 12


@dataclass
class ConvergenceRecord:
    """One refinement level of a convergence study."""

    level: int
    h: float
    n_dofs: int
    err_l2_velocity: float
    err_h1_velocity: float | None = None
    err_l2_pressure: float | None = None
    eoc_l2_velocity: float | None = None
    eoc_h1_velocity: float | None = None
    eoc_l2_pressure: float | None = None
    delta_h: float | None = None
    # from the level's LinearSolveReport; the residual is the absolute 2-norm
    solver_iterations: int | None = None
    solver_residual: float | None = None
    solver_factor_nnz: int | None = None


@dataclass(frozen=True)
class _Batch:
    """Quadrature points of n (sub-)cells, each inside one mesh cell.

    Basis tables are either shared by all cells, shaped (nq, ...), or held per
    sub-cell, shaped (n, nq, ...); the kernels broadcast over both.
    """

    points: np.ndarray         # (n, nq, 2) physical points
    weights: np.ndarray        # (n, nq) physical weights
    invjt: np.ndarray          # (n, 2, 2) inverse-transpose parent Jacobian
    cell_velocity: np.ndarray  # (n, nl) parent scalar velocity dofs
    cell_pressure: np.ndarray  # (n, 3) parent pressure dofs
    vals_v: np.ndarray         # (..., nq, nl) velocity basis values
    grads_v: np.ndarray        # (..., nq, nl, 2) reference gradients
    vals_p: np.ndarray         # (..., nq, 3) pressure basis values

    def cells(self, s: slice) -> _Batch:
        """The cells ``s``; tables shared by all cells stay whole."""
        shared = self.vals_v.ndim == 2
        tables = [t if shared else t[s]
                  for t in (self.vals_v, self.grads_v, self.vals_p)]
        return _Batch(self.points[s], self.weights[s], self.invjt[s],
                      self.cell_velocity[s], self.cell_pressure[s], *tables)


def _dyadic_layers(levels: int):
    """Layers of the reference triangle shrinking toward its vertex 0.

    Layer vertices lie on the two edges at vertex 0, a fraction t of the way
    to vertex 1 or 2: the innermost triangle reaches t = 2^-levels, and each
    ring 2^-k <= t <= 2^(1-k) is cut into two triangles.  Returns the
    barycentric vertices (2 * levels + 1, 3, 3), innermost first, and the
    area ratio of each layer to the reference triangle.
    """
    a = 0.5 ** np.arange(levels, 0, -1)[:, None]  # inner edge of each ring
    t = np.vstack([[[0.0, 0.5 ** levels, 0.5 ** levels]],
                   np.hstack([a, 2 * a, 2 * a, a, 2 * a, a]).reshape(-1, 3)])
    toward = np.vstack([[1, 1, 2],
                        np.tile([[1, 1, 2], [1, 2, 2]], (levels, 1))])
    eye = np.eye(3)
    layers = (1.0 - t)[..., None] * eye[0] + t[..., None] * eye[toward]
    return layers, np.linalg.det(layers)


class ErrorQuadrature:
    """Quadrature points of the error integrals on one mesh, built once.

    Two batches of the same layout: the regular cells, sharing one
    tabulation of the reference rule, and every dyadic layer of every cell
    with a vertex at the origin, each layer a sub-cell with its own
    tabulation at its points mapped back into the parent cell.
    """

    def __init__(self, mesh: Mesh, dofmap: DofMap,
                 quad_degree: int = DEFAULT_QUAD_DEGREE,
                 corner_levels: int = DEFAULT_CORNER_LEVELS):
        self.mesh = mesh
        rule = quadrature(quad_degree)
        tri_xy = mesh.vertices[mesh.triangles]
        detj, invjt = _kernels.affine_jacobians(tri_xy)

        def batch(cells, bary, weights):
            vals_v, grads_v = _tabulate(dofmap.pairing, bary.reshape(-1, 3))
            shape = bary.shape[:-1]
            return _Batch(
                points=bary @ tri_xy[cells],
                weights=weights, invjt=invjt[cells],
                cell_velocity=dofmap.cell_velocity[cells],
                cell_pressure=dofmap.cell_pressure[cells],
                vals_v=vals_v.reshape(shape + (-1,)),
                grads_v=grads_v.reshape(shape + (-1, 2)),
                vals_p=bary)  # the P1 pressure basis values

        at_origin = mesh.triangles == 0  # vertex 0 is the origin
        is_corner = at_origin.any(axis=1)
        regular = np.flatnonzero(~is_corner)
        corner = np.flatnonzero(is_corner)
        layers, ratio = _dyadic_layers(corner_levels)
        sub = np.einsum("qv,mvk->mqk", rule.points, layers)
        # barycentric column i of a layer is parent vertex (i + origin) % 3
        origin = np.argmax(at_origin[corner], axis=1)
        cols = (np.arange(3) - origin[:, None]) % 3
        bary = sub[:, :, cols].transpose(2, 0, 1, 3).reshape(
            -1, *sub.shape[1:])
        parent = np.repeat(corner, len(ratio))
        scale = detj[parent] * np.tile(ratio, len(corner))
        self.batches = (
            batch(regular, rule.points,
                  np.multiply.outer(detj[regular], rule.weights)),
            batch(parent, bary, np.multiply.outer(scale, rule.weights)))
        self._exact = (None, None)

    def parts(self, sol: SingularSolution):
        """(cells, exact fields) pairs of at most CHUNK points each.

        The fields are the exact ``velocity`` (n, nq, 2) and, for alpha > 0,
        ``gradient`` (n, nq, 2, 2) [d y_c / d x_d] and ``pressure`` (n, nq),
        evaluated once and kept for the last solution asked about.
        """
        if self._exact[0] != sol:
            self._exact = (sol, [_exact_at(sol, b.points)
                                 for b in self.batches])
        for b, exact in zip(self.batches, self._exact[1]):
            step = max(1, CHUNK // b.weights.shape[1])
            for i in range(0, len(b.weights), step):
                s = slice(i, i + step)
                yield b.cells(s), {k: v[s] for k, v in exact.items()}


def _exact_at(sol: SingularSolution, points: np.ndarray) -> dict:
    """The exact fields of ``ErrorQuadrature.parts`` at the points of one
    batch, evaluated in chunks of CHUNK points."""
    flat = points.reshape(-1, 2)
    n = len(flat)
    out = {"velocity": np.empty(n, dtype=complex)}
    if sol.alpha > 0:
        out.update(gradient=np.empty((n, 2), dtype=complex),
                   pressure=np.empty(n))
    for i in range(0, n, CHUNK):
        exact_fields(sol, flat[i:i + CHUNK],
                     **{k: v[i:i + CHUNK] for k, v in out.items()})
    shape = points.shape[:-1]
    out["velocity"] = out["velocity"].view(float).reshape(shape + (2,))
    if "gradient" in out:
        out["gradient"] = out["gradient"].view(float).reshape(
            shape + (2, 2)).swapaxes(-1, -2)
        out["pressure"] = out["pressure"].reshape(shape)
    return out


def l2_velocity_error(y_h: DiscreteSolution, sol: SingularSolution,
                      quad: ErrorQuadrature) -> float:
    """L2 norm of the velocity error against the exact singular solution."""
    total = 0.0
    for b, exact in quad.parts(sol):
        total += _kernels.l2_accumulate(y_h.velocity[b.cell_velocity],
                                        b.vals_v, b.weights,
                                        exact["velocity"])
    return float(np.sqrt(total))


def h1_seminorm_velocity_error(y_h: DiscreteSolution, sol: SingularSolution,
                               quad: ErrorQuadrature) -> float:
    """H1 seminorm of the velocity error; requires a positive exponent."""
    if sol.alpha <= 0:
        raise ValueError("exact velocity is not in H1 for alpha <= 0")
    total = 0.0
    for b, exact in quad.parts(sol):
        total += _kernels.h1_accumulate(y_h.velocity[b.cell_velocity],
                                        b.grads_v, b.invjt, b.weights,
                                        exact["gradient"])
    return float(np.sqrt(total))


def l2_pressure_error(y_h: DiscreteSolution, sol: SingularSolution,
                      quad: ErrorQuadrature) -> float:
    """L2 norm of the pressure error after matching both means to zero.

    The discrete pressure is normalized to zero mean by the multiplier row;
    the exact pressure is shifted accordingly, so errors are compared in the
    quotient space modulo constants.
    """
    if sol.alpha <= 0:
        raise ValueError("exact pressure is not in L2 for alpha <= 0")
    # per chunk its weight sum, weighted sum and square sum about its own
    # mean; about the global mean m they combine as in a parallel variance:
    # sum w (d - m)^2 = sum over chunks of q + w_c (mean_c - m)^2
    sums = []
    for b, exact in quad.parts(sol):
        approx = np.einsum("...qi,...i->...q", b.vals_p,
                           y_h.pressure[b.cell_pressure])
        w, diff = b.weights.ravel(), (exact["pressure"] - approx).ravel()
        w_sum, wd_sum = w.sum(), w @ diff
        sums.append((w_sum, wd_sum, w @ (diff - wd_sum / w_sum) ** 2))
    w_sum, wd_sum, q = np.array(sums).T
    mean_diff = float(wd_sum.sum()) / quad.mesh.polygon.area
    return float(np.sqrt(q.sum() + w_sum @ (wd_sum / w_sum - mean_diff) ** 2))


def eoc(e_coarse: float, e_fine: float) -> float:
    """Experimental order of convergence between two h-halved levels."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("eoc needs positive error values")
    return float(np.log2(e_coarse / e_fine))


def expected_order(alpha_sing: float, omega: float, k: int) -> float:
    """Supremum L2 velocity order s + min(t - 1/2, k) with t = 1/2 + alpha.

    The shift exponent is s = 1 on convex corners and the reentrant-corner
    exponent xi(omega) otherwise; measured orders approach the value from
    below as t -> 1/2 + alpha.
    """
    s = 1.0 if omega <= np.pi else solve_xi(omega)
    return s + min(alpha_sing, float(k))
