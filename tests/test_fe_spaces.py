import numpy as np
import pytest

from stokesbc.fe_spaces import (MINI, TAYLOR_HOOD, _tabulate, build_dofmap,
                                edge_trace_values, gauss_legendre_unit,
                                pairing_from_name, quadrature)
from stokesbc.mesh import build_domain, refine_uniform, unit_square


def ref_monomial_integral(a, b):
    """Exact int_T x^a y^b over the reference triangle (beta function)."""
    from math import factorial
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_degree_one_rule():
    rule = quadrature(1)
    assert rule.points.shape == (1, 3)
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3, 1 / 3])
    assert rule.weights[0] == pytest.approx(0.5)


@pytest.mark.parametrize("degree", range(1, 21))
def test_monomial_exactness(degree):
    rule = quadrature(degree)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = ref_monomial_integral(a, b)
            approx = float(rule.weights @ (x ** a * y ** b))
            assert approx == pytest.approx(exact, rel=1e-14, abs=1e-16)


def test_x2y_value():
    rule = quadrature(3)
    approx = float(rule.weights @ (rule.points[:, 1] ** 2 * rule.points[:, 2]))
    assert approx == pytest.approx(1 / 60, rel=1e-14)


@pytest.mark.parametrize("degree", range(1, 21))
def test_weights_positive_sum_half(degree):
    rule = quadrature(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        quadrature(0)
    with pytest.raises(ValueError):
        quadrature(21)


def test_p1_kronecker():
    # MINI's vertex functions are the P1 basis, the barycentric coordinates
    # that also serve as the pressure basis values; the bubble vanishes there
    vals, _ = _tabulate(MINI, np.eye(3))
    assert np.array_equal(vals[:, :3], np.eye(3))
    assert np.array_equal(vals[:, 3], np.zeros(3))


def test_p2_partition_of_unity():
    lam = np.random.default_rng(7).dirichlet([1, 1, 1], size=10)
    vals, grads = _tabulate(TAYLOR_HOOD, lam)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


def test_bubble_normalization():
    vals, _ = _tabulate(MINI, [1 / 3, 1 / 3, 1 / 3])
    assert vals[0, 3] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_gradient_matches_finite_differences(pairing):
    rng = np.random.default_rng(3)
    h = 1e-6
    lam = 0.1 + 0.8 * rng.dirichlet([2, 2, 2], size=10)
    lam /= lam.sum(axis=1, keepdims=True)
    _, grads = _tabulate(pairing, lam)
    x, y = lam[:, 1], lam[:, 2]

    def at(xx, yy):
        return _tabulate(pairing, np.column_stack([1 - xx - yy, xx, yy]))[0]

    fd_x = (at(x + h, y) - at(x - h, y)) / (2 * h)
    fd_y = (at(x, y + h) - at(x, y - h)) / (2 * h)
    assert np.allclose(grads[..., 0], fd_x, atol=1e-6)
    assert np.allclose(grads[..., 1], fd_y, atol=1e-6)


def test_dof_counts_unit_square():
    mesh = unit_square()
    th = build_dofmap(mesh, TAYLOR_HOOD)
    assert th.n_scalar_velocity == 4 + 5 == 9
    assert th.n_pressure == 4
    mini = build_dofmap(mesh, MINI)
    assert mini.n_scalar_velocity == 4 + 2 == 6
    assert mini.n_pressure == 4


def test_boundary_dof_flags_unit_square():
    mesh = unit_square()
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    assert dm.n_boundary_dofs == 8  # 4 vertices + 4 side midpoints
    pts = dm.dof_points()
    on_boundary = np.zeros(dm.n_scalar_velocity, dtype=bool)
    for i, (x, y) in enumerate(pts):
        on_boundary[i] = min(x, y, 1 - x, 1 - y) < 1e-14
    assert np.array_equal(dm.boundary_mask, on_boundary)
    # the diagonal midpoint is interior
    diag_mid = np.where((np.abs(pts[:, 0] - 0.5) < 1e-14)
                        & (np.abs(pts[:, 1] - 0.5) < 1e-14))[0]
    assert len(diag_mid) == 1 and not dm.boundary_mask[diag_mid[0]]


def test_boundary_order_follows_traversal():
    mesh = unit_square()
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    pts = dm.dof_points()[dm.boundary_dofs]
    # consecutive boundary dofs are a half edge apart along the traversal
    steps = np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T)
    assert np.allclose(steps, 0.5)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("name", ["convex", "nonconvex", "unit_square"])
def test_boundary_dof_points_are_the_boundary_rows_of_dof_points(
        name, level, pairing):
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    dm = build_dofmap(mesh, pairing)
    got = dm.boundary_dof_points()
    want = dm.dof_points()[dm.boundary_dofs]
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_pressure_dofs_share_the_read_only_mesh_triangles(pairing):
    mesh = refine_uniform(build_domain("nonconvex"))
    dm = build_dofmap(mesh, pairing)
    assert dm.cell_pressure is mesh.triangles
    assert not dm.cell_pressure.flags.writeable


def test_bubble_not_on_boundary():
    mesh = unit_square()
    dm = build_dofmap(mesh, MINI)
    bubbles = np.arange(4, 6)
    assert not np.any(dm.boundary_mask[bubbles])


@pytest.mark.parametrize("pairing,max_exact", [(TAYLOR_HOOD, 2), (MINI, 1)])
def test_edge_trace_span(pairing, max_exact):
    # interpolating t -> t^k through the nodal trace basis is exact up to the
    # trace-space degree and fails beyond it
    t = np.linspace(0, 1, 17)
    nodes = np.array([0.0, 0.5, 1.0]) if max_exact == 2 else np.array([0., 1.])
    for k in range(max_exact + 1):
        interp = edge_trace_values(pairing, t) @ nodes ** k
        assert np.allclose(interp, t ** k, atol=1e-14)
    beyond = edge_trace_values(pairing, t) @ nodes ** (max_exact + 1)
    assert np.abs(beyond - t ** (max_exact + 1)).max() > 1e-3


def test_pairing_orders():
    assert TAYLOR_HOOD.velocity_order == 2
    assert MINI.velocity_order == 1


def test_unknown_pairing_name_raises():
    assert pairing_from_name("mini") == MINI
    with pytest.raises(ValueError, match="unknown pairing 'p3'"):
        pairing_from_name("p3")


def test_quadrature_cached_and_read_only():
    rule = quadrature(7)
    assert quadrature(7) is rule
    assert not rule.points.flags.writeable
    assert not rule.weights.flags.writeable


def test_gauss_legendre_unit_cached_and_read_only():
    x, w = gauss_legendre_unit(16)
    again = gauss_legendre_unit(16)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable
    assert not w.flags.writeable
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(x, 0.5 * (ref_x + 1.0))
    assert np.array_equal(w, 0.5 * ref_w)
