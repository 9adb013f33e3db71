import numpy as np
import pytest

from stokesbc._kernels import local_matrices
from stokesbc.assembly import (_local_blocks, _stiffness_matrix,
                               assemble_bordered_system,
                               assemble_boundary_mass, assemble_divergence,
                               boundary_flux, compute_delta_h,
                               galerkin_residual)
from stokesbc.boundary_data import BoundaryTrace
from stokesbc.fe_spaces import (MINI, TAYLOR_HOOD, _tabulate, build_dofmap,
                                quadrature)
from stokesbc.mesh import build_domain, refine_uniform, unit_square
from stokesbc.solver import solve


@pytest.fixture
def square_th():
    mesh = unit_square()
    return mesh, build_dofmap(mesh, TAYLOR_HOOD)


@pytest.fixture
def lshape_th():
    mesh = refine_uniform(build_domain("nonconvex"))
    return mesh, build_dofmap(mesh, TAYLOR_HOOD)


def interpolate_velocity(dofmap, func):
    pts = dofmap.dof_points()
    vals = np.array([func(p) for p in pts])
    if dofmap.pairing.kind == "mini":
        # bubble coefficients represent deviations from the P1 part; a nodal
        # interpolant of a linear field needs zero bubbles
        nb = dofmap.mesh.n_triangles
        vals[-nb:] = 0.0
    return vals


def test_p1_reference_local_stiffness():
    # MINI's vertex block on the reference triangle is the P1 stiffness
    tri = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    rule = quadrature(4)
    _, grads = _tabulate(MINI, rule.points)
    kloc, _, detj = local_matrices(tri, np.ascontiguousarray(grads),
                                   rule.points, rule.weights)
    expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
    assert np.allclose(kloc[0, :3, :3], expected, atol=1e-14)
    assert detj[0] == pytest.approx(1.0)


def scalar_stiffness(mesh, dm):
    """The scalar stiffness over all scalar velocity dofs."""
    return _stiffness_matrix(_local_blocks(mesh, dm)[0], dm)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_stiffness_symmetric_and_kills_constants(pairing, lshape_th):
    mesh, _ = lshape_th
    dm = build_dofmap(mesh, pairing)
    K = scalar_stiffness(mesh, dm)
    assert abs(K - K.T).max() < 1e-14
    ones = np.ones(dm.n_scalar_velocity)
    if pairing.kind == "mini":
        # constants live in the P1 part only
        ones[mesh.n_vertices:] = 0.0
    resid = K @ ones
    assert np.abs(resid).max() < 1e-12


def test_mini_stiffness_has_no_bubble_vertex_entries():
    mesh = refine_uniform(refine_uniform(build_domain("convex")))
    dm = build_dofmap(mesh, MINI)
    K = scalar_stiffness(mesh, dm).tocoo()
    nv = mesh.n_vertices
    bubble_row = K.row >= nv
    bubble_col = K.col >= nv
    assert not np.any(bubble_row != bubble_col)
    assert np.count_nonzero(bubble_row) == mesh.n_triangles


def test_divergence_of_identity_field(lshape_th):
    mesh, dm = lshape_th
    D = assemble_divergence(mesh, dm)
    coef = interpolate_velocity(dm, lambda p: p)
    v = np.concatenate([coef[:, 0], coef[:, 1]])
    total = (D @ v).sum()  # tested against q == 1 (partition of unity)
    assert total == pytest.approx(2 * mesh.polygon.area, rel=1e-12)


def test_divergence_of_rigid_rotation(lshape_th):
    mesh, dm = lshape_th
    D = assemble_divergence(mesh, dm)
    coef = interpolate_velocity(dm, lambda p: np.array([-p[1], p[0]]))
    v = np.concatenate([coef[:, 0], coef[:, 1]])
    assert np.abs(D @ v).max() < 1e-13


def test_divergence_of_constant_field(lshape_th):
    mesh, dm = lshape_th
    D = assemble_divergence(mesh, dm)
    coef = interpolate_velocity(dm, lambda p: np.array([0.7, -0.3]))
    v = np.concatenate([coef[:, 0], coef[:, 1]])
    assert np.abs((D @ v).sum()) < 1e-13


def test_boundary_mass_square_matches_reference():
    mesh = unit_square()
    dm = build_dofmap(mesh, MINI)  # P1 trace space
    M = assemble_boundary_mass(mesh, dm).toarray()
    expected = np.array([[4, 1, 0, 1],
                         [1, 4, 1, 0],
                         [0, 1, 4, 1],
                         [1, 0, 1, 4]]) / 6.0
    assert np.allclose(M, expected, atol=1e-15)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_boundary_mass_spd_row_sums(pairing, lshape_th):
    mesh, _ = lshape_th
    dm = build_dofmap(mesh, pairing)
    M = assemble_boundary_mass(mesh, dm).toarray()
    assert np.allclose(M, M.T, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(M) > 0)
    # partition of unity: total mass equals the perimeter
    assert M.sum() == pytest.approx(
        mesh.boundary_edge_lengths().sum(), rel=1e-13)


def test_delta_h_constant_field(lshape_th):
    mesh, dm = lshape_th
    trace = np.tile([1.0, 0.0], (dm.n_boundary_dofs, 1))
    assert compute_delta_h(trace, mesh, dm) == pytest.approx(0.0, abs=1e-14)


def test_delta_h_identity_field(square_th):
    mesh, dm = square_th
    pts = dm.dof_points()[dm.boundary_dofs]
    assert compute_delta_h(BoundaryTrace(pts), mesh, dm) == pytest.approx(
        2.0, rel=1e-14)


def test_zero_datum_gives_zero_solution(lshape_th):
    mesh, dm = lshape_th
    trace = np.zeros((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace, alpha_reg=1.0)
    assert np.abs(system.rhs_f).max() == 0.0
    assert np.abs(system.rhs_g).max() == 0.0
    sol, _ = solve(system)
    assert np.abs(sol.velocity).max() < 1e-12
    assert np.abs(sol.pressure).max() < 1e-12
    assert abs(sol.delta_h) < 1e-14


def test_system_matrix_symmetric(square_th):
    mesh, dm = square_th
    rng = np.random.default_rng(5)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace, alpha_reg=1.0)
    M = system.matrix()
    assert abs(M - M.T).max() < 1e-14


def test_trace_shape_mismatch_rejected(square_th):
    mesh, dm = square_th
    with pytest.raises(ValueError):
        assemble_bordered_system(mesh, dm, np.zeros((3, 2)))


def test_pressure_integrals_sum_to_area(lshape_th):
    mesh, dm = lshape_th
    rng = np.random.default_rng(11)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace)
    assert system.s.sum() == pytest.approx(mesh.polygon.area, rel=1e-13)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_recovered_delta_matches_direct(pairing):
    mesh = refine_uniform(unit_square())
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(2)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace, alpha_reg=1.0)
    sol, _ = solve(system)
    y0 = np.concatenate([sol.velocity[dm.interior_dofs, 0],
                         sol.velocity[dm.interior_dofs, 1]])
    direct = compute_delta_h(trace, mesh, dm)
    assert system.recovered_delta(y0) == pytest.approx(direct, abs=1e-10)
    assert sol.delta_h == pytest.approx(direct, abs=1e-10)


def test_alpha_reg_equivalence():
    mesh = refine_uniform(unit_square())
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    rng = np.random.default_rng(9)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    solutions = []
    for alpha in (0.0, 1.0):
        system = assemble_bordered_system(mesh, dm, trace, alpha_reg=alpha)
        sol, _ = solve(system)
        solutions.append(sol)
    scale = np.abs(solutions[0].velocity).max()
    assert np.abs(solutions[0].velocity - solutions[1].velocity).max() \
        < 1e-9 * scale
    assert np.abs(solutions[0].pressure - solutions[1].pressure).max() \
        < 1e-9 * max(np.abs(solutions[0].pressure).max(), 1.0)
    assert solutions[0].delta_h == pytest.approx(solutions[1].delta_h,
                                                 abs=1e-10)


def test_discrete_divergence_identity_and_mean_zero_pressure(lshape_th):
    mesh, dm = lshape_th
    rng = np.random.default_rng(13)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace)
    sol, _ = solve(system)
    # (div y_h, 1) = <u_h, n>: tested through the full divergence matrix
    D = assemble_divergence(mesh, dm)
    v = np.concatenate([sol.velocity[:, 0], sol.velocity[:, 1]])
    div_total = (D @ v).sum()
    flux = boundary_flux(trace, mesh, dm)
    assert div_total == pytest.approx(flux, abs=1e-10)
    assert abs(system.s @ sol.pressure) < 1e-10


def test_galerkin_residual_small(lshape_th):
    mesh, dm = lshape_th
    rng = np.random.default_rng(17)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace)
    sol, _ = solve(system)
    assert galerkin_residual(system, sol) < 1e-10


def test_boundary_values_imposed_exactly(lshape_th):
    mesh, dm = lshape_th
    rng = np.random.default_rng(19)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace)
    sol, _ = solve(system)
    assert np.array_equal(sol.velocity[dm.boundary_dofs], trace)
