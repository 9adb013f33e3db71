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
shift of ``p`` along the constants, which ``B^T`` maps to zero.
``solve_linear`` is a sparse LU of a whole indefinite matrix, kept as the
small-system reference.  Both check the residual of their result against
``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BorderedSystem, DiscreteSolution

__all__ = ["LinearSolveReport", "SolveError", "solve", "solve_linear"]

DEFAULT_TOL = 1e-10
CG_MAXITER = 1000
# SuperLU reports running out of memory as SystemError ("gstrf was called
# with invalid arguments") or MemoryError
_FACTOR_ERRORS = (RuntimeError, ValueError, SystemError, MemoryError)
# sparse LU of an SPD matrix, pivoting on the diagonal only
_SPD = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
            options={"SymmetricMode": True})


@dataclass(frozen=True)
class LinearSolveReport:
    """Solve outcome; the residual is recomputed from the assembled system."""

    residual_norm: float
    method: str
    iterations: int
    # entries SuperLU stores for L and U (``SuperLU.nnz``; reading ``L`` and
    # ``U`` would copy both factors): of the whole matrix for
    # direct_factorization, of K and M_p for schur_cg
    factor_nnz: int


class SolveError(RuntimeError):
    """Structural singularity or non-convergence of the linear solve."""


def solve_linear(matrix, rhs: np.ndarray, tol: float = DEFAULT_TOL):
    """Solve a sparse indefinite system by LU to relative residual ``tol``.

    Partial pivoting and a fill-reducing column ordering; the report's
    method is ``direct_factorization``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    matrix = sp.csc_matrix(matrix)
    rhs = np.asarray(rhs, dtype=float)
    lu = _factorize(matrix, "direct")
    x = lu.solve(rhs)
    return x, _report(x, matrix @ x, rhs, tol, "direct_factorization", 0,
                      lu.nnz)


def solve(system: BorderedSystem, tol: float = DEFAULT_TOL):
    """Solve a bordered system by Schur-complement CG on the pressure.

    Returns (DiscreteSolution, LinearSolveReport); the report's method is
    ``schur_cg``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lu = _factorize(system.K, "velocity block", **_SPD)
    mass = _factorize(system.pressure_mass, "pressure mass", **_SPD)

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
    target = 1e-3 * tol * np.linalg.norm(rhs)
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
    report = _report(x, system.apply(x), rhs, tol, "schur_cg", iterations,
                     lu.nnz + mass.nnz)
    return system.unpack(x), report


def _report(x, product, rhs, tol, method, iterations, factor_nnz):
    """Reject a non-finite or inaccurate ``x`` (``product`` is its image)."""
    if not np.all(np.isfinite(x)):
        raise SolveError("solver produced non-finite values "
                         "(structurally singular system?)")
    residual = float(np.linalg.norm(rhs - product))
    scale = float(np.linalg.norm(rhs))
    if residual > tol * max(scale, 1e-300) and scale > 0:
        raise SolveError(
            f"relative residual {residual / scale:.3e} exceeds tol {tol:.1e}")
    if scale == 0 and residual > tol:
        raise SolveError(f"residual {residual:.3e} exceeds tol {tol:.1e}")
    return LinearSolveReport(residual_norm=residual, method=method,
                             iterations=iterations, factor_nnz=factor_nnz)


def _factorize(matrix, what: str, **options):
    try:
        return spla.splu(matrix, **options)
    except _FACTOR_ERRORS as exc:
        raise SolveError(f"{what} factorization failed: {exc}") from exc
