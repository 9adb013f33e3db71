import numpy as np
import pytest
import scipy.sparse as sp

from stokesbc._kernels import local_matrices
from stokesbc.assembly import (_divergence_matrix, _local_blocks,
                               _stiffness_matrix, assemble_bordered_system,
                               assemble_boundary_mass, assemble_divergence,
                               boundary_flux, compute_delta_h,
                               edge_integrals)
from stokesbc.boundary_data import BoundaryDatum, BoundaryTrace, _edge_moments
from stokesbc.fe_spaces import (EDGE_TRACE_GRAM, MINI, TAYLOR_HOOD, _tabulate,
                                build_dofmap, quadrature)
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


def coo_reference_matrices(mesh, dm):
    """Stiffness, divergence, boundary mass and pressure mass, each built by
    its own explicit COO index arithmetic."""
    kloc, dloc = _local_blocks(mesh, dm)
    nl = kloc.shape[1]
    keep = np.ones((nl, nl), dtype=bool)
    if dm.pairing.kind == "mini":
        keep[3, :3] = keep[:3, 3] = False
    keep = keep.ravel()
    dofs = dm.cell_velocity
    ns = dm.n_scalar_velocity
    stiffness = sp.coo_matrix(
        (kloc.reshape(len(kloc), -1)[:, keep].ravel(),
         (np.repeat(dofs, nl, axis=1)[:, keep].ravel(),
          np.tile(dofs, (1, nl))[:, keep].ravel())), shape=(ns, ns)).tocsr()
    stiffness.sum_duplicates()

    rows = np.repeat(dm.cell_pressure, nl, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    divergence = sp.coo_matrix(
        (np.swapaxes(dloc, 0, 1).ravel(),
         (np.tile(rows, 2), np.concatenate([cols, cols + ns]))),
        shape=(dm.n_pressure, 2 * ns)).tocsr()
    divergence.sum_duplicates()
    divergence.sort_indices()

    local = EDGE_TRACE_GRAM[dm.pairing.kind]
    n1d = local.shape[0]
    pos = dm.boundary_edge_positions
    nbd = dm.n_boundary_dofs
    boundary = sp.coo_matrix(
        ((mesh.boundary_edge_lengths()[:, None, None] * local).ravel(),
         (np.repeat(pos, n1d, axis=1).ravel(),
          np.tile(pos, (1, n1d)).ravel())), shape=(nbd, nbd)).tocsr()
    boundary.sum_duplicates()
    boundary.sort_indices()

    cells = dm.cell_pressure
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = mesh.triangle_areas()[:, None, None] * local
    n = dm.n_pressure
    pressure = sp.csc_matrix((vals.ravel(),
                              (np.repeat(cells, 3, axis=1).ravel(),
                               np.tile(cells, (1, 3)).ravel())), shape=(n, n))
    return stiffness, divergence, boundary, pressure


def same_bits(a, b):
    return (a.format == b.format and a.shape == b.shape
            and a.data.tobytes() == b.data.tobytes()
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.indptr, b.indptr))


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
@pytest.mark.parametrize("name", ["convex", "nonconvex", "unit_square"])
def test_scatter_matches_explicit_coo_assembly(name, pairing, level):
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    dm = build_dofmap(mesh, pairing)
    kloc, dloc = _local_blocks(mesh, dm)
    system = assemble_bordered_system(mesh, dm,
                                      np.zeros((dm.n_boundary_dofs, 2)))
    got = (_stiffness_matrix(kloc, dm), _divergence_matrix(dloc, dm),
           assemble_boundary_mass(mesh, dm), system.pressure_mass)
    for built, reference in zip(got, coo_reference_matrices(mesh, dm)):
        assert same_bits(built, reference)


def edgewise_constant_datum(mesh, f):
    """Datum equal to ``f[e]`` on boundary edge ``e``."""
    def evaluate(edge, s):
        on = np.flatnonzero(mesh.boundary_parent == edge)
        at = np.searchsorted(mesh.boundary_edge_offsets()[on], s,
                             side="right") - 1
        return f[on[at]]

    return BoundaryDatum(evaluate)


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
@pytest.mark.parametrize("name", ["convex", "nonconvex", "unit_square"])
def test_edge_integrals_are_exact_moments(name, pairing, level):
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    dm = build_dofmap(mesh, pairing)
    ones = edge_integrals(np.ones((mesh.n_boundary_edges, 1)), mesh, dm)
    row_sums = assemble_boundary_mass(mesh, dm).sum(axis=1)
    assert np.abs(ones - row_sums).max() <= 1e-15 * np.abs(row_sums).max()
    f = np.random.default_rng(level).uniform(-1, 1,
                                             (mesh.n_boundary_edges, 2))
    got = edge_integrals(f, mesh, dm)
    want = _edge_moments(mesh, dm, edgewise_constant_datum(mesh, f))
    assert got.shape == (dm.n_boundary_dofs, 2)
    assert np.abs(got - want).max() <= 1e-13


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
    x = np.concatenate([[sol.delta_h],
                        sol.velocity[dm.interior_dofs].T.ravel(), sol.pressure])
    assert np.abs(system.apply(x) - system.rhs()).max() < 1e-10


def test_boundary_values_imposed_exactly(lshape_th):
    mesh, dm = lshape_th
    rng = np.random.default_rng(19)
    trace = rng.standard_normal((dm.n_boundary_dofs, 2))
    system = assemble_bordered_system(mesh, dm, trace)
    sol, _ = solve(system)
    assert np.array_equal(sol.velocity[dm.boundary_dofs], trace)
