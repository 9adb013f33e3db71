import numpy as np
import pytest

from stokesbc import _kernels, cli, errors
from stokesbc.assembly import DiscreteSolution
from stokesbc.errors import (ErrorQuadrature, eoc, expected_order,
                             h1_seminorm_velocity_error, l2_pressure_error,
                             l2_velocity_error)
from stokesbc.fe_spaces import MINI, TAYLOR_HOOD, build_dofmap
from stokesbc.manufactured import (SingularSolution, eval_pressure,
                                   eval_velocity, exact_fields)
from stokesbc.mesh import build_domain, refine_uniform

XI = 0.544483736782464


def interpolant_of(sol, mesh, dofmap):
    """Nodal interpolant of the exact solution as a DiscreteSolution.

    For the alpha = 2 member the exact velocity is a quadratic polynomial and
    the pressure is linear, so Taylor-Hood interpolation is exact.
    """
    pts = dofmap.dof_points()
    velocity = eval_velocity(sol, pts)
    pressure = np.array([eval_pressure(sol, p) for p in mesh.vertices])
    # shift to zero mean like the discrete normalization
    from stokesbc.fe_spaces import quadrature
    rule = quadrature(4)
    areas = mesh.areas
    coefs = pressure[dofmap.cell_pressure]
    # the P1 pressure basis values are the barycentric points
    total = float(np.einsum("q,qi,ni,n->", rule.weights, rule.points, coefs,
                            2 * areas))
    pressure = pressure - total / mesh.polygon.area
    return DiscreteSolution(velocity=velocity, pressure=pressure, delta_h=0.0)


@pytest.fixture
def quadratic_setup():
    sol = SingularSolution(alpha=2.0, omega=3 * np.pi / 2)
    mesh = refine_uniform(refine_uniform(build_domain("nonconvex")))
    dofmap = build_dofmap(mesh, TAYLOR_HOOD)
    return sol, mesh, dofmap


def test_quadratic_field_reproduced_l2(quadratic_setup):
    sol, mesh, dofmap = quadratic_setup
    y_h = interpolant_of(sol, mesh, dofmap)
    quad = ErrorQuadrature(mesh, dofmap, sol)
    assert l2_velocity_error(y_h, quad) < 1e-12


def test_quadratic_field_reproduced_h1(quadratic_setup):
    sol, mesh, dofmap = quadratic_setup
    y_h = interpolant_of(sol, mesh, dofmap)
    quad = ErrorQuadrature(mesh, dofmap, sol)
    assert h1_seminorm_velocity_error(y_h, quad) < 1e-12


def test_linear_pressure_reproduced(quadratic_setup):
    sol, mesh, dofmap = quadratic_setup
    y_h = interpolant_of(sol, mesh, dofmap)
    quad = ErrorQuadrature(mesh, dofmap, sol)
    assert l2_pressure_error(y_h, quad) < 1e-12


def test_pressure_error_constant_shift_invariant(quadratic_setup):
    sol, mesh, dofmap = quadratic_setup
    y_h = interpolant_of(sol, mesh, dofmap)
    shifted = DiscreteSolution(velocity=y_h.velocity,
                               pressure=y_h.pressure + 17.3,
                               delta_h=0.0)
    quad = ErrorQuadrature(mesh, dofmap, sol)
    a = l2_pressure_error(y_h, quad)
    b = l2_pressure_error(shifted, quad)
    assert a == pytest.approx(b, abs=1e-11)


def test_h1_and_pressure_reject_nonpositive_alpha(quadratic_setup):
    _, mesh, dofmap = quadratic_setup
    rough = SingularSolution(alpha=-0.1, omega=3 * np.pi / 2)
    y_h = DiscreteSolution(
        velocity=np.zeros((dofmap.n_scalar_velocity, 2)),
        pressure=np.zeros(dofmap.n_pressure), delta_h=0.0)
    quad = ErrorQuadrature(mesh, dofmap, rough)
    with pytest.raises(ValueError):
        h1_seminorm_velocity_error(y_h, quad)
    with pytest.raises(ValueError):
        l2_pressure_error(y_h, quad)


def zero_solution(dofmap):
    return DiscreteSolution(
        velocity=np.zeros((dofmap.n_scalar_velocity, 2)),
        pressure=np.zeros(dofmap.n_pressure), delta_h=0.0)


@pytest.mark.parametrize("alpha", [0.5, -0.499])
def test_quadrature_degree_robustness(alpha):
    # the reported norm is a property of the solution, not of the rule
    mesh = build_domain("nonconvex")
    for _ in range(3):
        mesh = refine_uniform(mesh)
    dofmap = build_dofmap(mesh, TAYLOR_HOOD)
    sol = SingularSolution(alpha=alpha, omega=3 * np.pi / 2)
    y_h = zero_solution(dofmap)  # exact norm of y itself
    base = l2_velocity_error(
        y_h, ErrorQuadrature(mesh, dofmap, sol, quad_degree=10))
    finer = l2_velocity_error(
        y_h, ErrorQuadrature(mesh, dofmap, sol, quad_degree=14))
    assert abs(finer - base) / base < 1e-3


@pytest.mark.parametrize("alpha,omega,domain_id", [
    (0.5, 2 * np.pi / 3, "convex"),
    (-0.499, 2 * np.pi / 3, "convex"),
    (0.5, 3 * np.pi / 2, "nonconvex"),
    (-0.499, 3 * np.pi / 2, "nonconvex"),
])
def test_corner_subdivision_robustness(alpha, omega, domain_id):
    mesh = build_domain(domain_id)
    for _ in range(3):
        mesh = refine_uniform(mesh)
    dofmap = build_dofmap(mesh, TAYLOR_HOOD)
    sol = SingularSolution(alpha=alpha, omega=omega)
    y_h = zero_solution(dofmap)
    base = l2_velocity_error(
        y_h, ErrorQuadrature(mesh, dofmap, sol, corner_levels=6))
    deeper = l2_velocity_error(
        y_h, ErrorQuadrature(mesh, dofmap, sol, corner_levels=8))
    assert abs(deeper - base) / base < 5e-3


def test_triangle_inequality():
    sol = SingularSolution(alpha=0.5, omega=3 * np.pi / 2)
    mesh = refine_uniform(refine_uniform(build_domain("nonconvex")))
    dofmap = build_dofmap(mesh, TAYLOR_HOOD)
    rng = np.random.default_rng(47)
    y_h = DiscreteSolution(
        velocity=rng.standard_normal((dofmap.n_scalar_velocity, 2)) * 0.01,
        pressure=np.zeros(dofmap.n_pressure), delta_h=0.0)
    interp = DiscreteSolution(
        velocity=eval_velocity(sol, dofmap.dof_points()),
        pressure=np.zeros(dofmap.n_pressure), delta_h=0.0)
    quad = ErrorQuadrature(mesh, dofmap, sol)
    lhs = l2_velocity_error(y_h, quad)
    e_interp = l2_velocity_error(interp, quad)
    gap = DiscreteSolution(velocity=interp.velocity - y_h.velocity,
                           pressure=np.zeros(dofmap.n_pressure), delta_h=0.0)
    zero = SingularSolution(alpha=0.0, omega=3 * np.pi / 2)
    e_gap = l2_velocity_error(gap, ErrorQuadrature(mesh, dofmap, zero))
    assert lhs <= e_interp + e_gap + 1e-12


def test_each_error_point_is_evaluated_once_per_level(monkeypatch):
    quads, evaluated = [], []

    class Recorded(ErrorQuadrature):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            quads.append(self)

    def counted(sol, points, **fields):
        evaluated.append(len(points))
        return exact_fields(sol, points, **fields)

    reduced = []
    for name in ("l2_accumulate", "h1_accumulate"):
        def kernel(*args, _kernel=getattr(_kernels, name)):
            reduced.append(args[-2].size)  # the weights
            return _kernel(*args)
        monkeypatch.setattr(_kernels, name, kernel)
    monkeypatch.setattr(cli, "ErrorQuadrature", Recorded)
    monkeypatch.setattr(errors, "exact_fields", counted)
    monkeypatch.setattr(errors, "CHUNK", 2 ** 8)  # below a level-2 batch
    records = cli.run_convergence(cli.StudyConfig(domain="nonconvex",
                                                  levels=2))
    assert all(r.err_l2_pressure is not None for r in records)
    assert len(quads) == 2
    points = sum(b.weights.size for q in quads for b in q.batches)
    assert sum(evaluated) == points
    # both velocity norms reduce every point once, in bounded chunks
    assert sum(reduced) == 2 * points
    assert max(evaluated + reduced) <= errors.CHUNK


@pytest.mark.parametrize("domain_id", ["convex", "nonconvex"])
def test_pressure_error_independent_of_chunk_size(monkeypatch, domain_id):
    # the chunks combine about the global mean; their size must not show
    mesh = refine_uniform(refine_uniform(build_domain(domain_id)))
    dofmap = build_dofmap(mesh, TAYLOR_HOOD)
    sol = SingularSolution(alpha=0.5, omega=mesh.polygon.corner_angle)
    y_h = zero_solution(dofmap)
    y_h.pressure = np.random.default_rng(5).standard_normal(dofmap.n_pressure)
    whole = l2_pressure_error(y_h, ErrorQuadrature(mesh, dofmap, sol))
    monkeypatch.setattr(errors, "CHUNK", 64)
    chunked = l2_pressure_error(y_h, ErrorQuadrature(mesh, dofmap, sol))
    assert chunked == pytest.approx(whole, rel=1e-13, abs=0)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_every_batch_shares_its_basis_tables(pairing):
    # one table layout: the cells of a batch share its reference points
    mesh = refine_uniform(refine_uniform(build_domain("nonconvex")))
    dofmap = build_dofmap(mesh, pairing)
    sol = SingularSolution(alpha=0.5, omega=mesh.polygon.corner_angle)
    quad = ErrorQuadrature(mesh, dofmap, sol)
    nl = dofmap.cell_velocity.shape[1]
    assert len(quad.batches) == 2  # the origin is local vertex 0
    for b in quad.batches:
        n, nq = b.weights.shape
        assert b.vals_v.shape == (nq, nl)
        assert b.grads_v.shape == (nq, nl, 2)
        assert b.vals_p.shape == (nq, 3)
        assert b.exact["velocity"].shape == (n, nq, 2)
        assert b.exact["gradient"].shape == (n, nq, 2, 2)
        assert b.exact["pressure"].shape == (n, nq)


def test_eoc_values():
    assert eoc(0.04, 0.01) == pytest.approx(2.0, abs=1e-14)
    assert eoc(1.0, 1.0) == 0.0
    # reference row rounded to 4 decimals; its eoc 0.4818 came from unrounded
    # errors, so agreement holds to table precision only
    assert eoc(0.5429, 0.3887) == pytest.approx(0.4818, abs=1e-3)


def test_eoc_scale_invariance():
    assert eoc(3.0 * 0.02, 3.0 * 0.005) == pytest.approx(eoc(0.02, 0.005),
                                                         rel=1e-14)


def test_eoc_rejects_nonpositive():
    with pytest.raises(ValueError):
        eoc(0.0, 1.0)
    with pytest.raises(ValueError):
        eoc(1.0, -1.0)


def test_expected_order_convex():
    assert expected_order(0.5, 2 * np.pi / 3, 2) == pytest.approx(1.5)
    assert expected_order(0.1, 2 * np.pi / 3, 2) == pytest.approx(1.1)
    assert expected_order(-0.1, 2 * np.pi / 3, 2) == pytest.approx(0.9)
    assert expected_order(-0.499, 2 * np.pi / 3, 2) == pytest.approx(0.501)


def test_expected_order_nonconvex():
    w = 3 * np.pi / 2
    assert expected_order(0.5, w, 2) == pytest.approx(XI + 0.5, abs=1e-10)
    assert expected_order(0.1, w, 2) == pytest.approx(XI + 0.1, abs=1e-10)
    # the reference value 0.0445 differs from xi + alpha = 0.0455 in its
    # last digit; the formula value is asserted, reference agreement is coarse
    val = expected_order(-0.499, w, 2)
    assert val == pytest.approx(XI - 0.499, abs=1e-10)
    assert val == pytest.approx(0.0445, abs=1.5e-3)


def test_expected_order_caps_at_k():
    assert expected_order(3.0, 2 * np.pi / 3, 2) == pytest.approx(3.0)
    assert expected_order(3.0, 2 * np.pi / 3, 1) == pytest.approx(2.0)
