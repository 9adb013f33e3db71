"""Discretization error norms and experimental convergence orders.

All error integrals use fixed-degree triangle quadrature; elements touching
the singular corner are additionally split into dyadically shrinking layers
toward the origin so that integrands like |y|^2 ~ r^(2a) with a near -1/2
are resolved.  The corner layering depth is configurable; the test
``test_corner_subdivision_robustness`` checks that deepening the layers does
not move the value.  Studies do not run that check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .assembly import DiscreteSolution
from .fe_spaces import DofMap, _tabulate, quadrature
from .manufactured import (SingularSolution, eval_pressure, eval_velocity,
                           eval_velocity_gradient, solve_xi)
from .mesh import Mesh

__all__ = [
    "ConvergenceRecord",
    "l2_velocity_error",
    "h1_seminorm_velocity_error",
    "l2_pressure_error",
    "eoc",
    "expected_order",
]

DEFAULT_QUAD_DEGREE = 10
DEFAULT_CORNER_LEVELS = 6


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


def _corner_cells(mesh: Mesh):
    """Indices of triangles with a vertex at the origin, origin vertex first."""
    at_origin = np.hypot(*mesh.vertices.T) < 1e-14
    touching = at_origin[mesh.triangles]
    cells = np.where(touching.any(axis=1))[0]
    rolled = []
    for t in cells:
        tri = mesh.triangles[t]
        k = int(np.argmax(at_origin[tri]))
        rolled.append(np.roll(tri, -k))
    return cells, np.array(rolled, dtype=np.int64).reshape(-1, 3)


def _dyadic_cells(p0, p1, p2, levels: int):
    """Split triangle (origin p0, p1, p2) into layers shrinking toward p0."""
    cells = [(p0, p1 * 0.5 ** levels + p0 * (1 - 0.5 ** levels),
              p2 * 0.5 ** levels + p0 * (1 - 0.5 ** levels))]
    for k in range(levels, 0, -1):
        a, b = 0.5 ** k, 0.5 ** (k - 1)
        pa1 = p0 + a * (p1 - p0)
        pb1 = p0 + b * (p1 - p0)
        pa2 = p0 + a * (p2 - p0)
        pb2 = p0 + b * (p2 - p0)
        cells.append((pa1, pb1, pb2))
        cells.append((pa1, pb2, pa2))
    return cells


class _Integrator:
    """Shared machinery: physical quadrature points plus FE evaluation data.

    Regular cells are processed in one batch through the hot kernels; corner
    cells are handled separately with dyadic layering, mapping each layer's
    quadrature points back to barycentric coordinates of the parent cell.
    """

    def __init__(self, mesh: Mesh, dofmap: DofMap, quad_degree: int,
                 corner_levels: int):
        self.mesh = mesh
        self.dofmap = dofmap
        self.rule = quadrature(quad_degree)
        self.corner_levels = corner_levels
        corner, corner_rolled = _corner_cells(mesh)
        self.corner = corner
        self.corner_rolled = corner_rolled
        mask = np.ones(mesh.n_triangles, dtype=bool)
        mask[corner] = False
        self.regular = np.where(mask)[0]
        self.vals_v, self.grads_v = _tabulate(dofmap.pairing, "velocity",
                                              self.rule.points)
        self.vals_p, _ = _tabulate(dofmap.pairing, "pressure",
                                   self.rule.points)

    def regular_geometry(self):
        mesh = self.mesh
        tri_xy = mesh.vertices[mesh.triangles[self.regular]]
        j = np.stack([tri_xy[:, 1] - tri_xy[:, 0],
                      tri_xy[:, 2] - tri_xy[:, 0]], axis=2)
        detj = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
        invjt = np.empty_like(j)
        invjt[:, 0, 0] = j[:, 1, 1]
        invjt[:, 0, 1] = -j[:, 1, 0]
        invjt[:, 1, 0] = -j[:, 0, 1]
        invjt[:, 1, 1] = j[:, 0, 0]
        invjt /= detj[:, None, None]
        ref = self.rule.points[:, 1:]  # (nq, 2) reference coordinates
        phys = tri_xy[:, None, 0, :] + np.einsum("qk,tek->tqe", ref, j)
        wdet = np.multiply.outer(detj, self.rule.weights)
        return tri_xy, j, invjt, detj, phys, wdet

    def corner_layers(self, cell_row: int):
        """Per-layer (bary, phys, wdet) data for one corner cell."""
        mesh = self.mesh
        tri = self.corner_rolled[cell_row]
        p0, p1, p2 = mesh.vertices[tri]
        parent = mesh.triangles[self.corner[cell_row]]
        pv = mesh.vertices[parent]
        jp = np.stack([pv[1] - pv[0], pv[2] - pv[0]], axis=1)
        jp_inv = np.linalg.inv(jp)
        out = []
        for (a, b, c) in _dyadic_cells(p0, p1, p2, self.corner_levels):
            js = np.stack([b - a, c - a], axis=1)
            dets = js[0, 0] * js[1, 1] - js[0, 1] * js[1, 0]
            ref = self.rule.points[:, 1:]
            phys = a + ref @ js.T
            loc = (phys - pv[0]) @ jp_inv.T
            bary = np.column_stack([1 - loc.sum(axis=1), loc])
            out.append((bary, phys, dets * self.rule.weights))
        return out


def _velocity_coef(dofmap: DofMap, y_h: DiscreteSolution, cells):
    return np.ascontiguousarray(y_h.velocity[dofmap.cell_velocity[cells]])


def l2_velocity_error(y_h: DiscreteSolution, sol: SingularSolution,
                      mesh: Mesh, dofmap: DofMap,
                      quad_degree: int = DEFAULT_QUAD_DEGREE,
                      corner_levels: int = DEFAULT_CORNER_LEVELS) -> float:
    """L2 norm of the velocity error against the exact singular solution."""
    it = _Integrator(mesh, dofmap, quad_degree, corner_levels)
    _, _, _, _, phys, wdet = it.regular_geometry()
    exact = eval_velocity(sol, phys.reshape(-1, 2)).reshape(phys.shape)
    coef = _velocity_coef(dofmap, y_h, it.regular)
    total = _kernels.l2_accumulate(coef, it.vals_v,
                                   np.ascontiguousarray(wdet),
                                   np.ascontiguousarray(exact))
    for row in range(len(it.corner)):
        coef_c = _velocity_coef(dofmap, y_h, it.corner[row:row + 1])
        for bary, phys_c, w in it.corner_layers(row):
            vals, _ = _tabulate(dofmap.pairing, "velocity", bary)
            approx = np.einsum("qi,ic->qc", vals, coef_c[0])
            diff = approx - eval_velocity(sol, phys_c)
            total += float(w @ (diff * diff).sum(axis=1))
    return float(np.sqrt(total))


def h1_seminorm_velocity_error(y_h: DiscreteSolution, sol: SingularSolution,
                               mesh: Mesh, dofmap: DofMap,
                               quad_degree: int = DEFAULT_QUAD_DEGREE,
                               corner_levels: int = DEFAULT_CORNER_LEVELS
                               ) -> float:
    """H1 seminorm of the velocity error; requires a positive exponent."""
    if sol.alpha <= 0:
        raise ValueError("exact velocity is not in H1 for alpha <= 0")
    it = _Integrator(mesh, dofmap, quad_degree, corner_levels)
    tri_xy, j, invjt, detj, phys, wdet = it.regular_geometry()
    exact = eval_velocity_gradient(sol, phys.reshape(-1, 2)).reshape(
        phys.shape[0], phys.shape[1], 2, 2)
    coef = _velocity_coef(dofmap, y_h, it.regular)
    total = _kernels.h1_accumulate(coef, np.ascontiguousarray(it.grads_v),
                                   np.ascontiguousarray(invjt),
                                   np.ascontiguousarray(wdet),
                                   np.ascontiguousarray(exact))
    for row in range(len(it.corner)):
        cell = it.corner[row]
        pv = mesh.vertices[mesh.triangles[cell]]
        jp = np.stack([pv[1] - pv[0], pv[2] - pv[0]], axis=1)
        inv_t = np.linalg.inv(jp).T
        coef_c = _velocity_coef(dofmap, y_h, np.array([cell]))[0]
        for bary, phys_c, w in it.corner_layers(row):
            _, grads = _tabulate(dofmap.pairing, "velocity", bary)
            g = grads @ inv_t.T  # (nq, nl, 2) physical gradients
            gh = np.einsum("qid,ic->qcd", g, coef_c)
            diff = gh - eval_velocity_gradient(sol, phys_c)
            total += float(w @ (diff * diff).sum(axis=(1, 2)))
    return float(np.sqrt(total))


def l2_pressure_error(y_h: DiscreteSolution, sol: SingularSolution,
                      mesh: Mesh, dofmap: DofMap,
                      quad_degree: int = DEFAULT_QUAD_DEGREE,
                      corner_levels: int = DEFAULT_CORNER_LEVELS) -> float:
    """L2 norm of the pressure error after matching both means to zero.

    The discrete pressure is normalized to zero mean by the multiplier row;
    the exact pressure is shifted accordingly, so errors are compared in the
    quotient space modulo constants.
    """
    if sol.alpha <= 0:
        raise ValueError("exact pressure is not in L2 for alpha <= 0")
    it = _Integrator(mesh, dofmap, quad_degree, corner_levels)
    _, _, _, _, phys, wdet = it.regular_geometry()

    pieces = []  # (weights, exact values, discrete values) per batch
    exact = eval_pressure(sol, phys.reshape(-1, 2)).reshape(phys.shape[:2])
    coefs = y_h.pressure[dofmap.cell_pressure[it.regular]]
    approx = np.einsum("qi,ni->nq", it.vals_p, coefs)
    pieces.append((wdet.ravel(), exact.ravel(), approx.ravel()))
    for row in range(len(it.corner)):
        cell = it.corner[row]
        coef_c = y_h.pressure[dofmap.cell_pressure[cell]]
        for bary, phys_c, w in it.corner_layers(row):
            vals, _ = _tabulate(dofmap.pairing, "pressure", bary)
            pieces.append((w, eval_pressure(sol, phys_c), vals @ coef_c))
    area = mesh.polygon.area
    mean_diff = sum(float(w @ (ex - ap)) for w, ex, ap in pieces) / area
    total = sum(float(w @ (ex - ap - mean_diff) ** 2) for w, ex, ap in pieces)
    return float(np.sqrt(total))


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
