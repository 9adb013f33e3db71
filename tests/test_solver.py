import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stokesbc import solver
from stokesbc.assembly import (BorderedSystem, _local_blocks,
                               _stiffness_matrix, assemble_bordered_system)
from stokesbc.cli import StudyConfig, main, run_convergence
from stokesbc.fe_spaces import MINI, TAYLOR_HOOD, build_dofmap
from stokesbc.mesh import build_domain, refine_uniform, unit_square
from stokesbc.solver import SolveError, solve


def stokes_system(pairing=TAYLOR_HOOD, refinements=1, alpha_reg=1.0, seed=37):
    mesh = unit_square()
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(seed)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    return assemble_bordered_system(mesh, dm, trace, alpha_reg=alpha_reg)


def test_homogeneous_rhs():
    mesh = refine_uniform(unit_square())
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    sol, report = solve(assemble_bordered_system(
        mesh, dm, np.zeros((dm.n_boundary_dofs, 2))))
    assert np.all(sol.velocity == 0) and np.all(sol.pressure == 0)
    assert sol.delta_h == 0
    assert report.residual_norm == 0.0


def test_residual_contract():
    system = stokes_system()
    sol, report = solve(system)
    x = np.concatenate([[sol.delta_h],
                        sol.velocity[system.dofmap.interior_dofs].T.ravel(),
                        sol.pressure])
    rhs = system.rhs()
    assert report.residual_norm <= solver.RESIDUAL_TOL * np.linalg.norm(rhs)
    assert report.residual_norm == pytest.approx(
        np.linalg.norm(rhs - system.matrix() @ x), rel=1e-12)


def test_residual_check_is_relative_or_absolute_at_zero_rhs():
    x = np.zeros(3)
    rhs = np.array([3.0, 4.0, 0.0])  # norm 5
    off = np.array([0.0, 0.0, 1.0])
    # relative to the right-hand side's norm
    solver._report(x, rhs + 4.9e-10 * off, rhs, 1, 1)
    with pytest.raises(SolveError, match="exceeds"):
        solver._report(x, rhs + 5.1e-10 * off, rhs, 1, 1)
    # absolute when the right-hand side is zero
    zero = np.zeros(3)
    solver._report(x, 0.9e-10 * off, zero, 1, 1)
    with pytest.raises(SolveError, match="exceeds"):
        solver._report(x, 1.1e-10 * off, zero, 1, 1)


def test_non_finite_solution_reported():
    system = stokes_system()
    system.rhs_g[0] = np.nan
    with pytest.raises(SolveError, match="non-finite"):
        solve(system)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
@pytest.mark.parametrize("domain_id", ["convex", "nonconvex"])
def test_bordered_system_nonsingular(pairing, domain_id):
    # numerical witness of the discrete inf-sup condition: the solve succeeds
    # on every tested mesh/pairing as long as alpha_reg > 0
    mesh = refine_uniform(build_domain(domain_id))
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(43)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace, alpha_reg=1.0)
    sol, report = solve(system)
    assert np.all(np.isfinite(sol.velocity))
    assert report.residual_norm <= 1e-10 * np.linalg.norm(system.rhs())


@pytest.mark.parametrize("alpha_reg", [0.0, 1.0])
@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
@pytest.mark.parametrize("domain_id", ["convex", "nonconvex"])
def test_schur_cg_agrees_with_direct(pairing, domain_id, alpha_reg):
    mesh = refine_uniform(refine_uniform(build_domain(domain_id)))
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(47)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace, alpha_reg=alpha_reg)
    sol_direct = system.unpack(
        spla.spsolve(system.matrix().tocsc(), system.rhs()))
    sol_cg, report = solve(system)
    assert report.iterations > 0
    assert report.residual_norm <= 1e-10 * np.linalg.norm(system.rhs())
    scale = max(np.abs(sol_direct.velocity).max(),
                np.abs(sol_direct.pressure).max())
    assert np.abs(sol_direct.velocity - sol_cg.velocity).max() \
        < 1e-9 * scale
    assert np.abs(sol_direct.pressure - sol_cg.pressure).max() \
        < 1e-9 * scale
    assert sol_direct.delta_h == pytest.approx(sol_cg.delta_h, abs=1e-10)


def test_schur_cg_iterations_mesh_independent():
    records = run_convergence(StudyConfig(domain="nonconvex", alpha_sing=0.5,
                                          levels=4))
    iterations = [r.solver_iterations for r in records]
    assert max(iterations) <= 30
    assert iterations[3] <= 1.1 * iterations[2]


@pytest.mark.parametrize("error", [SystemError, MemoryError])
def test_factorization_out_of_memory_is_solve_error(monkeypatch, error):
    # SuperLU reports exhausted memory as SystemError from gstrf
    system = stokes_system()

    def out_of_memory(*args, **kwargs):
        raise error("gstrf was called with invalid arguments")

    monkeypatch.setattr(spla, "splu", out_of_memory)
    with pytest.raises(SolveError):
        solve(system)


def test_factorization_out_of_memory_exit_code(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr(spla, "splu", out_of_memory)
    # the weighted-average projector needs no factorisation of its own
    assert main(["convergence", "--levels", "2",
                 "--projector", "carstensen"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_velocity_block_is_diag_of_the_interior_stiffness():
    # the solver factorises K alone; A must be exactly diag(K, K)
    # and the interior block of the vector Laplacian, component-major
    for pairing in (TAYLOR_HOOD, MINI):
        mesh = refine_uniform(build_domain("nonconvex"))
        dm = build_dofmap(mesh, pairing)
        system = assemble_bordered_system(
            mesh, dm, np.zeros((dm.n_boundary_dofs, 2)))
        k = system.K
        assert k.format == "csc"
        assert k.shape == (len(dm.interior_dofs),) * 2
        assert abs(system.A - sp.block_diag([k, k])).max() == 0.0
        ns = dm.n_scalar_velocity
        interior = np.concatenate([dm.interior_dofs, ns + dm.interior_dofs])
        scalar = _stiffness_matrix(_local_blocks(mesh, dm)[0], dm)
        vector = sp.block_diag([scalar, scalar], format="csr")
        vector = vector[interior][:, interior]
        assert abs(system.A - vector).max() == 0.0


def test_report_counts_factor_fill():
    system = stokes_system()
    # SuperLU drops no entry, so the factors hold at least the matrix's
    _, schur = solve(system)
    assert schur.factor_nnz >= system.K.nnz


def test_solve_factorises_k_once(monkeypatch):
    factors = []
    splu = spla.splu

    def counted(matrix, *args, **kwargs):
        factors.append((matrix, splu(matrix, *args, **kwargs)))
        return factors[-1][1]

    monkeypatch.setattr(spla, "splu", counted)
    for calls, pairing in enumerate((TAYLOR_HOOD, MINI), start=1):
        system = stokes_system(pairing)
        _, report = solve(system)
        assert len(factors) == calls
        matrix, lu = factors[-1]
        assert matrix is system.K
        assert report.factor_nnz == lu.nnz


def test_non_finite_rhs_skips_cg(monkeypatch):
    # CG would spend its whole iteration cap, a K solve each, on a NaN
    system = stokes_system()
    system.rhs_g[0] = np.nan

    def no_cg(*args, **kwargs):
        pytest.fail("solve ran CG on a non-finite right-hand side")

    monkeypatch.setattr(spla, "cg", no_cg)
    with pytest.raises(SolveError, match="non-finite"):
        solve(system)


def test_solve_builds_no_bordered_matrix(monkeypatch):
    system = stokes_system()

    def no_matrix(self):
        pytest.fail("solve assembled the bordered matrix")

    monkeypatch.setattr(BorderedSystem, "matrix", no_matrix)
    _, report = solve(system)
    assert report.iterations > 0


def test_iteration_cap_is_solve_error(monkeypatch, capsys):
    monkeypatch.setattr(solver, "CG_MAXITER", 2)
    with pytest.raises(SolveError, match="did not converge"):
        solve(stokes_system())
    assert main(["convergence", "--levels", "2"]) == 2
    assert "did not converge" in capsys.readouterr().err
