"""Discretization error norms and experimental convergence orders.

All error integrals of one solution on one mesh share one
``ErrorQuadrature``: a fixed-degree triangle rule on every cell, and on the
cells touching the singular corner the layered rule, the same rule mapped
into dyadically shrinking layers toward the origin, so that integrands like
|y|^2 ~ r^(2a) with a near -1/2 are resolved.  The cells of a batch share
one reference point set, so the norms have no branch for the corner.
The quadrature evaluates the exact velocity, gradient and pressure at its
points once, when it is built, and the three norms share them.  That pass
and each norm's reduction run over chunks of at most ``CHUNK`` points, so
their temporaries do not grow with the mesh.
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
    solver_factor_nnz: int | None = None  # LU entries of K alone


@dataclass(frozen=True)
class _Batch:
    """Quadrature points of n mesh cells that share one reference point set
    of nq points, with the exact fields of the solution at them."""

    weights: np.ndarray        # (n, nq) physical weights
    invjt: np.ndarray          # (n, 2, 2) inverse-transpose Jacobian
    cell_velocity: np.ndarray  # (n, nl) scalar velocity dofs
    cell_pressure: np.ndarray  # (n, 3) pressure dofs
    vals_v: np.ndarray         # (nq, nl) velocity basis values
    grads_v: np.ndarray        # (nq, nl, 2) reference gradients
    vals_p: np.ndarray         # (nq, 3) pressure basis values
    exact: dict                # exact fields, each (n, nq, ...)

    def part(self, s: slice, p: slice) -> _Batch:
        """The cells ``s`` at their reference points ``p``."""
        return _Batch(self.weights[s, p], self.invjt[s],
                      self.cell_velocity[s], self.cell_pressure[s],
                      self.vals_v[p], self.grads_v[p], self.vals_p[p],
                      {k: v[s, p] for k, v in self.exact.items()})


def _chunks(n: int, nq: int):
    """(cells, points) slices of an (n, nq) batch in cell-major order, of at
    most CHUNK points each: whole cells, or runs of one cell's points."""
    step, run = max(1, CHUNK // nq), min(nq, CHUNK)
    for i in range(0, n, step):
        for j in range(0, nq, run):
            yield slice(i, i + step), slice(j, j + run)


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
    """Quadrature points of the error integrals of one solution on one mesh
    and the exact fields at them, built once.

    Each batch is a set of cells that share one reference point set and its
    basis tables: the regular cells use the reference rule; the cells at the
    origin use the layered rule, one batch per local position of the origin.
    """

    def __init__(self, mesh: Mesh, dofmap: DofMap, sol: SingularSolution,
                 quad_degree: int = DEFAULT_QUAD_DEGREE,
                 corner_levels: int = DEFAULT_CORNER_LEVELS):
        self.mesh, self.sol = mesh, sol
        rule = quadrature(quad_degree)
        detj, invjt = 2 * mesh.areas, mesh.inverse_jacobians

        def batch(cells, bary, ratio):
            # points layer-major; weight (detj * layer area ratio) * rule weight
            weights = np.multiply.outer(np.multiply.outer(detj[cells], ratio),
                                        rule.weights)
            vals_v, grads_v = _tabulate(dofmap.pairing, bary)
            return _Batch(weights.reshape(len(cells), -1),
                          invjt.take(cells, axis=0),
                          dofmap.cell_velocity.take(cells, axis=0),
                          dofmap.cell_pressure.take(cells, axis=0),
                          vals_v, grads_v,
                          vals_p=bary,  # the P1 pressure basis values
                          exact=_exact_at(sol, mesh, cells, bary))

        at_origin = mesh.triangles == 0  # vertex 0 is the origin
        layers, ratio = _dyadic_layers(corner_levels)
        layered = np.einsum("qv,mvk->mqk", rule.points, layers).reshape(-1, 3)
        # the regular rule is one layer of area ratio 1; barycentric column
        # o of the layered rule is the origin's vertex
        groups = [(np.flatnonzero(~at_origin.any(axis=1)), rule.points,
                   np.ones(1))]
        groups += [(np.flatnonzero(at_origin[:, o]),
                    np.roll(layered, o, axis=1), ratio) for o in range(3)]
        self.batches = tuple(batch(*g) for g in groups if len(g[0]))

    def parts(self):
        """The batches in parts of at most CHUNK points each."""
        for b in self.batches:
            for s, p in _chunks(*b.weights.shape):
                yield b.part(s, p)


def _exact_at(sol: SingularSolution, mesh: Mesh, cells: np.ndarray,
              bary: np.ndarray) -> dict:
    """Exact fields at the points ``bary`` of the cells ``cells``: the
    ``velocity`` (n, nq, 2) and, for alpha > 0, ``gradient`` (n, nq, 2, 2)
    [d y_c / d x_d] and ``pressure`` (n, nq), evaluated by chunks."""
    shape = (len(cells), len(bary))
    out = {"velocity": np.empty(shape, dtype=complex)}
    if sol.alpha > 0:
        out.update(gradient=np.empty(shape + (2,), dtype=complex),
                   pressure=np.empty(shape))
    for s, p in _chunks(*shape):
        corners = mesh.triangles.take(cells[s], axis=0)
        points = bary[p] @ mesh.vertices.take(corners, axis=0)
        # each chunk is contiguous, so the reshapes are views
        exact_fields(sol, points.reshape(-1, 2),
                     **{k: v[s, p].reshape(-1, *v.shape[2:])
                        for k, v in out.items()})
    out["velocity"] = out["velocity"].view(float).reshape(shape + (2,))
    if "gradient" in out:
        out["gradient"] = out["gradient"].view(float).reshape(
            shape + (2, 2)).swapaxes(-1, -2)
    return out


def l2_velocity_error(y_h: DiscreteSolution, quad: ErrorQuadrature) -> float:
    """L2 norm of the velocity error against the exact singular solution."""
    total = 0.0
    for b in quad.parts():
        coef = y_h.velocity.take(b.cell_velocity, axis=0)
        total += _kernels.l2_accumulate(coef, b.vals_v, b.weights,
                                        b.exact["velocity"])
    return float(np.sqrt(total))


def h1_seminorm_velocity_error(y_h: DiscreteSolution,
                               quad: ErrorQuadrature) -> float:
    """H1 seminorm of the velocity error; requires a positive exponent."""
    if quad.sol.alpha <= 0:
        raise ValueError("exact velocity is not in H1 for alpha <= 0")
    total = 0.0
    for b in quad.parts():
        coef = y_h.velocity.take(b.cell_velocity, axis=0)
        total += _kernels.h1_accumulate(coef, b.grads_v, b.invjt, b.weights,
                                        b.exact["gradient"])
    return float(np.sqrt(total))


def l2_pressure_error(y_h: DiscreteSolution, quad: ErrorQuadrature) -> float:
    """L2 norm of the pressure error after matching both means to zero.

    The discrete pressure is normalized to zero mean by the multiplier row;
    the exact pressure is shifted accordingly, so errors are compared in the
    quotient space modulo constants.
    """
    if quad.sol.alpha <= 0:
        raise ValueError("exact pressure is not in L2 for alpha <= 0")
    # per chunk its weight sum, weighted sum and square sum about its own
    # mean; about the global mean m they combine as in a parallel variance:
    # sum w (d - m)^2 = sum over chunks of q + w_c (mean_c - m)^2
    sums = []
    for b in quad.parts():
        approx = np.einsum("...qi,...i->...q", b.vals_p,
                           y_h.pressure[b.cell_pressure])
        w, diff = b.weights.ravel(), (b.exact["pressure"] - approx).ravel()
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
    below as t -> 1/2 + alpha.  For alpha <= -1/2 the datum is not in
    L2(Gamma), and the value is the same formula applied outside that range.
    """
    s = 1.0 if omega <= np.pi else solve_xi(omega)
    return s + min(alpha_sing, float(k))
