"""Solution of the bordered system.

``solve`` runs MINRES with the block-diagonal Stokes preconditioner
``diag(max(alpha, 1), A^{-1}, M_p^{-1})`` (Silvester & Wathen 1994; Elman,
Silvester & Wathen, *Finite Elements and Fast Iterative Solvers*, ch. 4):
``A^{-1}`` is applied through one sparse factorisation of the SPD velocity
block and ``M_p`` is the consistent P1 pressure mass, also factorised once.
The Schur complement ``B A^{-1} B^T`` is spectrally equivalent to ``M_p``
with the inf-sup constants as bounds; the lumped mass ``diag(s)`` would add
the spread of ``M_p`` against its diagonal (Wathen 1987).  The iteration
count does not grow with refinement.  ``solve_linear`` is a sparse LU of a
whole indefinite matrix, kept as the small-system reference.  Both check
the residual of their result against ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BorderedSystem, DiscreteSolution

__all__ = ["LinearSolveReport", "SolveError", "solve", "solve_linear"]

DEFAULT_TOL = 1e-10
MINRES_MAXITER = 1000
MINRES_RESTARTS = 3
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
    # direct_factorization, of K and M_p for block_minres
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
    return x, _report(matrix, rhs, x, tol, "direct_factorization", 0, lu.nnz)


def solve(system: BorderedSystem, tol: float = DEFAULT_TOL):
    """Solve a bordered system by block-preconditioned MINRES.

    Returns (DiscreteSolution, LinearSolveReport); the report's method is
    ``block_minres``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    precond, fill = _block_preconditioner(system)
    matrix, rhs = system.matrix(), system.rhs()
    x, iterations = _restarted_minres(matrix, rhs, tol, precond)
    report = _report(matrix, rhs, x, tol, "block_minres", iterations, fill)
    return system.unpack(x), report


def _report(matrix, rhs, x, tol, method, iterations, factor_nnz):
    """Reject a non-finite or inaccurate ``x``; report its residual."""
    if not np.all(np.isfinite(x)):
        raise SolveError("solver produced non-finite values "
                         "(structurally singular system?)")
    residual = float(np.linalg.norm(rhs - matrix @ x))
    scale = float(np.linalg.norm(rhs))
    if residual > tol * max(scale, 1e-300) and scale > 0:
        raise SolveError(
            f"relative residual {residual / scale:.3e} exceeds tol {tol:.1e}")
    if scale == 0 and residual > tol:
        raise SolveError(f"residual {residual:.3e} exceeds tol {tol:.1e}")
    return LinearSolveReport(residual_norm=residual, method=method,
                             iterations=iterations, factor_nnz=factor_nnz)


def _restarted_minres(matrix, rhs, tol, preconditioner):
    """MINRES, restarted on the residual equation until ``tol`` is met.

    MINRES stops on the preconditioned residual relative to ``||A|| ||x||``.
    On rough data (large pressures near the corner) that lets the Euclidean
    relative residual end above ``tol``; each restart solves ``A d = r`` for
    the current residual ``r`` and adds the correction.  Every pass aims at
    the first pass's absolute accuracy, so a restart from a residual just
    above the target takes a few iterations, not a full solve.
    """
    counter = _IterationCounter()
    x = np.zeros_like(rhs)
    residual = rhs
    target = tol * np.linalg.norm(rhs)
    for _ in range(MINRES_RESTARTS):
        norm = np.linalg.norm(residual)
        if norm <= target:
            break
        correction, info = spla.minres(matrix, residual,
                                       rtol=1e-3 * target / norm,
                                       maxiter=MINRES_MAXITER,
                                       M=preconditioner, callback=counter)
        if info != 0:
            raise SolveError(f"MINRES did not converge (info={info})")
        x += correction
        residual = rhs - matrix @ x
    return x, counter.count


class _IterationCounter:
    def __init__(self):
        self.count = 0

    def __call__(self, _xk):
        self.count += 1


def _factorize(matrix, what: str, **options):
    try:
        return spla.splu(matrix, **options)
    except _FACTOR_ERRORS as exc:
        raise SolveError(f"{what} factorization failed: {exc}") from exc


def _block_preconditioner(system: BorderedSystem):
    """SPD operator ``diag(max(alpha, 1), A^{-1}, M_p^{-1})`` and its fill.

    ``A`` is ``block_diag(K, K)`` for the interior scalar stiffness ``K``
    (``BorderedSystem.scalar_stiffness``), so only ``K`` is factorised and
    both velocity components are solved as one two-column system.  ``M_p``
    is ``BorderedSystem.pressure_mass``.  Returns the operator and the
    entries stored by both factorisations.
    """
    lu = _factorize(system.scalar_stiffness, "velocity block", **_SPD)
    mass = _factorize(system.pressure_mass, "pressure mass", **_SPD)
    half = lu.shape[0]
    alpha = max(system.alpha_reg, 1.0)

    def apply(v):
        v = np.ravel(v)
        velocity = lu.solve(v[1:1 + 2 * half].reshape(2, half).T)
        return np.concatenate([v[:1] / alpha, velocity.T.ravel(),
                               mass.solve(v[1 + 2 * half:])])

    n = 1 + 2 * half + mass.shape[0]
    operator = spla.LinearOperator((n, n), matvec=apply, dtype=float)
    return operator, lu.nnz + mass.nnz
