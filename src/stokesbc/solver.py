"""Solution of the bordered system.

``solve`` eliminates the velocity and runs preconditioned conjugate
gradients on the pressure Schur complement ``S = B A^{-1} B^T`` (Uzawa's
method with CG acceleration; Elman, Silvester & Wathen, *Finite Elements and
Fast Iterative Solvers*, ch. 4).  ``A^{-1}`` is applied exactly, through one
sparse factorisation of the SPD velocity block, so ``S`` is symmetric
positive semidefinite and spectrally equivalent to the consistent P1
pressure mass ``M_p``, with the inf-sup constants as bounds.  CG is
preconditioned by ``MASS_STEPS`` Chebyshev steps on ``M_p``, within 1 % of
``M_p^{-1}`` on every mesh, so the iteration count does not grow with
refinement and ``K`` is the only matrix factorised.

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
MASS_STEPS = 5
# SuperLU reports running out of memory as SystemError ("gstrf was called
# with invalid arguments") or MemoryError
_FACTOR_ERRORS = (RuntimeError, ValueError, SystemError, MemoryError)


@dataclass(frozen=True)
class LinearSolveReport:
    """Solve outcome; the residual is recomputed from the assembled system."""

    residual_norm: float
    iterations: int
    # entries SuperLU stores for the L and U of K alone (``SuperLU.nnz``;
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
    try:  # an LU of the SPD K, pivoting on the diagonal only
        lu = spla.splu(system.K, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0, options={"SymmetricMode": True})
    except _FACTOR_ERRORS as exc:
        raise SolveError(f"factorization of K failed: {exc}") from exc

    def velocity_solve(v):  # A^{-1} v for A = diag(K, K): one 2-column solve
        return lu.solve(v.reshape(2, -1).T).T.ravel()

    rhs = system.rhs()
    B, Bt, s, n = system.B, system.B.T, system.s, len(system.s)
    y0 = velocity_solve(system.rhs_f)
    # summing the pressure rows gives delta from y0 alone, as 1^T B = 0
    delta = system.recovered_delta(y0)
    b = B @ y0 + s * delta - system.rhs_g  # S p = b
    p, steps, mass = np.zeros(n), [], system.pressure_mass
    if np.all(np.isfinite(b)):  # else CG runs to its cap; _report rejects x
        schur = spla.LinearOperator(
            (n, n), lambda d: B @ velocity_solve(Bt @ d), dtype=float)
        d_inv = 2.0 / s  # diag(M_p)^{-1}, once per solve
        chebyshev = spla.LinearOperator(
            (n, n), lambda r: _mass_chebyshev(mass, d_inv, r), dtype=float)
        # the margin covers CG's residual drift and the LU roundoff
        p, info = spla.cg(schur, b, rtol=0, maxiter=CG_MAXITER, M=chebyshev,
                          atol=1e-3 * RESIDUAL_TOL * np.linalg.norm(rhs),
                          callback=steps.append)
        if info > 0:
            raise SolveError(f"Schur-complement CG did not converge in "
                             f"{CG_MAXITER} iterations")
    y = y0 - velocity_solve(Bt @ p)
    # B^T 1 = 0: a constant shift of p meets the border row, moving no other
    p += (system.alpha_reg * (system.delta_target - delta) - s @ p) / s.sum()
    x = np.concatenate([[delta], y, p])
    report = _report(x, system.apply(x), rhs, len(steps), lu.nnz)
    return system.unpack(x), report


def _mass_chebyshev(mass, d_inv, r):
    """``z = P r`` by ``MASS_STEPS`` Chebyshev steps on ``M_p z = r`` from 0,
    where ``d_inv = 2 / s`` inverts ``D = diag(M_p) = s / 2``.  ``D^{-1} M_p``
    lies in [1/2, 2] (Wathen 1987), so ``P`` is symmetric and ``P M_p``
    within ``1 +- 1/T_5(5/3)`` of ``I``."""
    theta, delta = 5 / 4, 3 / 4  # centre and half-width of [1/2, 2]
    rho = delta / theta
    z = d = d_inv * r / theta
    for _ in range(MASS_STEPS - 1):
        rho, rho_old = 1.0 / (2 * theta / delta - rho), rho
        d = rho * rho_old * d + (2 * rho / delta) * d_inv * (r - mass @ z)
        z = z + d
    return z


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
