"""Solution of the bordered system.

``solve`` eliminates the velocity and runs preconditioned conjugate
gradients on the pressure Schur complement ``S = B A^{-1} B^T`` (Uzawa's
method with CG acceleration; Elman, Silvester & Wathen, *Finite Elements and
Fast Iterative Solvers*, ch. 4).  ``A^{-1}`` is applied exactly, through one
sparse factorisation of the SPD velocity block, so ``S`` is symmetric
positive semidefinite and spectrally equivalent to the consistent P1
pressure mass ``M_p``, with the inf-sup constants as bounds; ``M_p`` is
factorised once and preconditions CG.  The iteration count does not grow
with refinement, and CG needs about half the iterations block-diagonal
MINRES needs with the same two factorisations.

CG stops on its Euclidean residual, which is the whole system's: the
velocity rows hold up to roundoff in the factorisation, the pressure rows'
residual is the CG residual, and the border row is made exact by the final
shift of ``p`` along the constants, which ``B^T`` maps to zero.  The
residual of the result is then recomputed and checked against the fixed
relative tolerance ``RESIDUAL_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import BorderedSystem, DiscreteSolution

__all__ = ["LinearSolveReport", "SolveError", "solve"]

RESIDUAL_TOL = 1e-10
CG_MAXITER = 1000
# SuperLU reports running out of memory as SystemError ("gstrf was called
# with invalid arguments") or MemoryError
_FACTOR_ERRORS = (RuntimeError, ValueError, SystemError, MemoryError)


@dataclass(frozen=True)
class LinearSolveReport:
    """Solve outcome; the residual is recomputed from the assembled system."""

    residual_norm: float
    iterations: int
    # entries SuperLU stores for the L and U of K and M_p (``SuperLU.nnz``;
    # reading ``L`` and ``U`` would copy both factors)
    factor_nnz: int


class SolveError(RuntimeError):
    """Structural singularity or non-convergence of the linear solve."""


def solve(system: BorderedSystem):
    """Solve a bordered system by Schur-complement CG on the pressure.

    Returns (DiscreteSolution, LinearSolveReport).  Raises SolveError
    unless the residual is at most ``RESIDUAL_TOL`` times the right-hand
    side's norm.
    """
    lu = _factorize(system.K, "velocity block")
    mass = _factorize(system.pressure_mass, "pressure mass")

    def velocity_solve(v):
        """``A^{-1} v`` for ``A = diag(K, K)``: one two-column solve."""
        return lu.solve(v.reshape(2, -1).T).T.ravel()

    rhs = system.rhs()
    B, Bt, s = system.B, system.B.T, system.s
    y = velocity_solve(system.rhs_f)
    # summing the pressure rows gives delta from y0 alone, as 1^T B = 0
    delta = system.recovered_delta(y)
    p = np.zeros(len(s))
    # S p = B y0 + s delta - g; r is minus the pressure rows' residual
    r = B @ y + s * delta - system.rhs_g
    # the margin covers the drift of the updated r and the LU roundoff
    target = 1e-3 * RESIDUAL_TOL * np.linalg.norm(rhs)
    z = mass.solve(r)
    d, rz = z, r @ z
    iterations = 0
    while np.linalg.norm(r) > target:
        if iterations == CG_MAXITER:
            raise SolveError(f"Schur-complement CG did not converge in "
                             f"{CG_MAXITER} iterations")
        w = velocity_solve(Bt @ d)
        sd = B @ w
        step = rz / (d @ sd)
        p += step * d
        y -= step * w
        r -= step * sd
        z = mass.solve(r)
        rz, rz_old = r @ z, rz
        d = z + (rz / rz_old) * d
        iterations += 1
    # B^T 1 = 0: a constant shift of p meets the border row, moving no other
    p += (system.alpha_reg * (system.delta_target - delta) - s @ p) / s.sum()
    x = np.concatenate([[delta], y, p])
    report = _report(x, system.apply(x), rhs, iterations, lu.nnz + mass.nnz)
    return system.unpack(x), report


def _report(x, product, rhs, iterations, factor_nnz):
    """Reject a non-finite or inaccurate ``x`` (``product`` is its image)."""
    if not np.all(np.isfinite(x)):
        raise SolveError("solver produced non-finite values "
                         "(structurally singular system?)")
    residual = float(np.linalg.norm(rhs - product))
    scale = float(np.linalg.norm(rhs))
    # relative to the right-hand side; absolute when that is zero
    if residual > RESIDUAL_TOL * (scale or 1.0):
        raise SolveError(f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} "
                         f"times the right-hand side's norm {scale:.3e}")
    return LinearSolveReport(residual_norm=residual, iterations=iterations,
                             factor_nnz=factor_nnz)


def _factorize(matrix, what: str):
    """Sparse LU of an SPD matrix, pivoting on the diagonal only."""
    try:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0, options={"SymmetricMode": True})
    except _FACTOR_ERRORS as exc:
        raise SolveError(f"{what} factorization failed: {exc}") from exc
