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
from stokesbc.solver import SolveError, solve, solve_linear


def test_two_by_two():
    m = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, report = solve_linear(m, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)
    assert report.method == "direct_factorization"
    assert report.iterations == 0


def test_homogeneous_rhs():
    m = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, report = solve_linear(m, np.zeros(2))
    assert np.all(x == 0)
    assert report.residual_norm == 0.0


def test_residual_contract():
    rng = np.random.default_rng(31)
    n = 60
    a = sp.random(n, n, density=0.1, random_state=rng.integers(1 << 31))
    m = (a + a.T + 10 * sp.eye(n)).tocsr()
    rhs = rng.standard_normal(n)
    tol = 1e-10
    x, report = solve_linear(m, rhs, tol=tol)
    assert report.residual_norm <= tol * np.linalg.norm(rhs)
    assert report.residual_norm == pytest.approx(
        np.linalg.norm(rhs - m @ x), rel=1e-12)


def test_invalid_tol():
    with pytest.raises(ValueError):
        solve_linear(sp.eye(2).tocsr(), np.ones(2), tol=0.0)
    with pytest.raises(ValueError):
        solve(stokes_system(), tol=0.0)


def test_singular_system_reported():
    m = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolveError):
        solve_linear(m, np.array([1.0, 0.0]))


def stokes_system(pairing=TAYLOR_HOOD, refinements=1, alpha_reg=1.0, seed=37):
    mesh = unit_square()
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(seed)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    return assemble_bordered_system(mesh, dm, trace, alpha_reg=alpha_reg)


def test_permutation_invariance():
    system = stokes_system()
    m = system.matrix().tocsr()
    rhs = system.rhs()
    x_ref, _ = solve_linear(m, rhs)
    rng = np.random.default_rng(41)
    perm = rng.permutation(m.shape[0])
    p = sp.coo_matrix((np.ones(len(perm)), (np.arange(len(perm)), perm)),
                      shape=m.shape).tocsr()
    x_perm, _ = solve_linear(p @ m @ p.T, p @ rhs)
    back = p.T @ x_perm
    scale = np.abs(x_ref).max()
    assert np.abs(back - x_ref).max() < 1e-9 * scale


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
    x, _ = solve_linear(system.matrix(), system.rhs())
    sol_direct = system.unpack(x)
    sol_cg, report = solve(system)
    assert report.method == "schur_cg"
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


SOLVES = {"schur_cg": solve,
          "direct_factorization": lambda system: solve_linear(
              system.matrix(), system.rhs())}


@pytest.mark.parametrize("error", [SystemError, MemoryError])
@pytest.mark.parametrize("method", sorted(SOLVES))
def test_factorization_out_of_memory_is_solve_error(monkeypatch, method,
                                                    error):
    # SuperLU reports exhausted memory as SystemError from gstrf
    system = stokes_system()

    def out_of_memory(*args, **kwargs):
        raise error("gstrf was called with invalid arguments")

    monkeypatch.setattr(spla, "splu", out_of_memory)
    with pytest.raises(SolveError):
        SOLVES[method](system)


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
    _, direct = solve_linear(system.matrix(), system.rhs())
    assert direct.factor_nnz == spla.splu(sp.csc_matrix(system.matrix())).nnz
    # SuperLU drops no entry, so the factors hold at least the matrix's
    _, schur = solve(system)
    blocks = (system.K, system.pressure_mass)
    assert schur.factor_nnz >= sum(b.nnz for b in blocks)


def test_solve_builds_no_bordered_matrix(monkeypatch):
    system = stokes_system()

    def no_matrix(self):
        pytest.fail("solve assembled the bordered matrix")

    monkeypatch.setattr(BorderedSystem, "matrix", no_matrix)
    _, report = solve(system)
    assert report.method == "schur_cg"


def test_iteration_cap_is_solve_error(monkeypatch, capsys):
    monkeypatch.setattr(solver, "CG_MAXITER", 2)
    with pytest.raises(SolveError, match="did not converge"):
        solve(stokes_system())
    assert main(["convergence", "--levels", "2"]) == 2
    assert "did not converge" in capsys.readouterr().err
