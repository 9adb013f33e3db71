import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from stokesbc import boundary_data
from stokesbc.assembly import boundary_flux, compute_delta_h
from stokesbc.boundary_data import (GAUSS_NODES,
                                    GAUSS_POINTS, GAUSS_WEIGHTS,
                                    BoundaryDatum, BoundaryTrace,
                                    _boundary_rule, _corner_rule,
                                    _datum_values, _segments,
                                    build_corrector,
                                    datum_flux,
                                    enforce_compatibility,
                                    interpolate_carstensen,
                                    interpolate_lagrange, project_l2,
                                    trace_l2_distance, trace_of_solution)
from stokesbc.cli import counterexample_datum
from stokesbc.errors import eoc
from stokesbc.fe_spaces import (EDGE_TRACE_GRAM, MINI, TAYLOR_HOOD, DofMap,
                                build_dofmap, edge_trace_nodes,
                                edge_trace_values)
from stokesbc.manufactured import SingularSolution, velocity_from_polar
from stokesbc.mesh import build_domain, refine_uniform, unit_square


@pytest.fixture
def square_p1():
    mesh = unit_square()
    return mesh, build_dofmap(mesh, MINI)


def polynomial_datum(polygon, fx, fy):
    def evaluate(edge, s):
        p = polygon.point_on_edge(edge, s)
        return np.column_stack([fx(p[:, 0], p[:, 1]), fy(p[:, 0], p[:, 1])])

    return BoundaryDatum(evaluate)


def solenoidal_datum(polygon):
    """Asymmetric divergence-free field (curl of x^3 y + exp(x) sin y)."""
    return polynomial_datum(
        polygon,
        lambda x, y: x ** 3 + np.exp(x) * np.cos(y),
        lambda x, y: -3 * x ** 2 * y - np.exp(x) * np.sin(y))


# --- boundary quadrature ----------------------------------------------------


def test_gauss_rule_is_read_only_unit_leggauss():
    assert not GAUSS_NODES.flags.writeable
    assert not GAUSS_WEIGHTS.flags.writeable
    assert GAUSS_POINTS == 16
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(GAUSS_NODES, 0.5 * (ref_x + 1.0))
    assert np.array_equal(GAUSS_WEIGHTS, 0.5 * ref_w)


@pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf, -1.0, -1.5])
def test_corner_exponent_must_be_finite_and_exceed_minus_one(exponent):
    # at -1 and below the corner integrals diverge, and so does the rule
    with pytest.raises(ValueError, match="corner exponent"):
        BoundaryDatum(lambda edge, s: np.zeros((len(s), 2)),
                      corner_exponent=exponent)


@pytest.mark.parametrize("jumps", [False, True])
@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("name", ["convex", "nonconvex", "unit_square"])
def test_corner_rule_sits_on_the_two_corner_segments(name, level, jumps):
    """With a corner exponent the first segment of boundary edge 0 and the
    last of the last boundary edge integrate ``r^a`` times a polynomial
    exactly, ``r`` the distance from the origin; every other segment keeps
    the Gauss rule.  A declared jump inside either corner boundary edge
    shortens its corner segment."""
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    a, n = 0.37, GAUSS_POINTS
    first, last = mesh.boundary_lengths[[0, -1]]
    cut = ((0, 0.37 * first),
           (mesh.polygon.n_edges - 1, mesh.boundary_offsets[-1] + 0.61 * last))
    datum = BoundaryDatum(lambda edge, s: np.zeros((len(s), 2)),
                          jumps=cut if jumps else (), corner_exponent=a)
    assert not any(part.flags.writeable for part in _corner_rule(a))
    segments = _segments(mesh, datum.jumps)
    edge, t, w = _boundary_rule(mesh, segments, a)
    for got, plain in zip((edge, t, w), _boundary_rule(mesh, segments, None)):
        assert np.array_equal(got[n:-n], plain[n:-n])
    assert np.all(edge[:n] == 0)
    assert np.all(edge[-n:] == mesh.n_boundary_edges - 1)
    width = (0.37 * first, 0.39 * last) if jumps else (first, last)
    for r, weights, h in ((t[:n] * first, w[:n], width[0]),
                          ((1.0 - t[-n:]) * last, w[-n:], width[1])):
        assert np.all((r > 0) & (r < h))
        for k in range(4):
            assert weights @ r ** (a + k) == pytest.approx(
                h ** (a + k + 1) / (a + k + 1), rel=1e-13)


def basis_moments(pairing, a):
    """int_0^1 t^a phi_i(t) dt of the trace basis, in trace order."""
    if pairing.kind == "mini":
        return [1 / (a + 1) - 1 / (a + 2),               # 1 - t
                1 / (a + 2)]                             # t
    return [1 / (a + 1) - 3 / (a + 2) + 2 / (a + 3),     # (1 - t)(1 - 2t)
            4 / (a + 2) - 4 / (a + 3),                   # 4 t (1 - t)
            2 / (a + 3) - 1 / (a + 2)]                   # t (2t - 1)


def corner_power_datum(polygon, a, c_first, c_last):
    """``r^a c_first`` on polygon edge 0 and ``r^a c_last`` on the last
    edge, ``r`` the distance from the origin; zero on the other edges."""
    last = polygon.n_edges - 1

    def evaluate(edge, s):
        s = np.asarray(s, dtype=float)
        if edge == 0:
            return np.outer(s ** a, c_first)
        if edge == last:
            return np.outer((polygon.edge_lengths[last] - s) ** a, c_last)
        return np.zeros((len(s), 2))

    return BoundaryDatum(evaluate, corner_exponent=a)


@pytest.mark.parametrize("alpha", [-0.9, -0.7, -0.499, -0.25, 0.5, 1.3])
@pytest.mark.parametrize("name", ["convex", "nonconvex"])
def test_corner_moments_and_flux_match_their_closed_forms(name, alpha):
    """The study datum is ``r^alpha c`` on each corner edge, ``r`` the
    distance from the origin, so the moments of the dofs no other edge
    touches are ``c W^(alpha+1) int_0^1 t^alpha phi(t) dt`` (the basis is
    symmetric, so the last edge's mirrored basis has the same moments).
    The study datum is tangential there, so the flux is checked on
    ``r^alpha c`` with ``c.n != 0`` on both corner polygon edges:
    ``c.n P^(alpha+1) / (alpha+1)`` on each."""
    mesh = build_domain(name)
    polygon = mesh.polygon
    sol = SingularSolution(alpha, polygon.corner_angle)
    datum = trace_of_solution(polygon, sol)
    c = [velocity_from_polar(sol, 1.0, theta)[0]
         for theta in (0.0, sol.omega)]
    crossing = np.array([[0.8, -1.3], [-0.4, 0.9]])
    flux = sum(ci @ n * p ** (alpha + 1) / (alpha + 1) for ci, n, p in
               zip(crossing, mesh.boundary_normals[[0, -1]],
                   polygon.edge_lengths[[0, -1]]))
    crossing_datum = corner_power_datum(polygon, alpha, *crossing)
    for _ in range(7):
        got = datum_flux(crossing_datum, mesh)
        assert abs(got - flux) <= 1e-11 * abs(flux)
        w0, w1 = mesh.boundary_lengths[[0, -1]] ** (alpha + 1)
        for pairing in (TAYLOR_HOOD, MINI):
            dm = build_dofmap(mesh, pairing)
            moments = boundary_data._edge_moments(mesh, dm, datum)
            origin, mid = basis_moments(pairing, alpha)[:2]
            positions = dm.boundary_edge_positions
            want = [(positions[0, 0], (w0 * c[0] + w1 * c[1]) * origin)]
            if pairing.kind == "taylor_hood":
                want += [(positions[0, 1], w0 * c[0] * mid),
                         (positions[-1, 1], w1 * c[1] * mid)]
            for dof, value in want:
                assert np.abs(moments[dof] - value).max() <= \
                    1e-11 * np.abs(value).max()
        mesh = refine_uniform(mesh)


def masked_datum_values(datum, mesh, edge, t):
    """The datum at rule points with one boolean mask per polygon edge."""
    parent = mesh.boundary_parent[edge]
    s = (mesh.boundary_offsets[edge]
         + t * mesh.boundary_lengths[edge])
    vals = np.empty((len(t), 2))
    for p in np.unique(parent):
        on = parent == p
        vals[on] = datum.evaluate(int(p), s[on])
    return vals


def point_sets(mesh, datum):
    """The rule points and the Lagrange nodes of both pairings, as
    (edge, t) pairs."""
    yield _boundary_rule(mesh, _segments(mesh, datum.jumps),
                         datum.corner_exponent)[:2]
    for pairing in (TAYLOR_HOOD, MINI):
        starts = edge_trace_nodes(pairing)[:-1]
        yield (np.repeat(np.arange(mesh.n_boundary_edges), len(starts)),
               np.tile(starts, mesh.n_boundary_edges))


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("name", ["convex", "nonconvex", "unit_square"])
def test_datum_values_match_the_masked_evaluation(name, level):
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    # on the unit square the counterexample's jump cuts a segment of edge 2
    datum = (counterexample_datum() if name == "unit_square" else
             trace_of_solution(mesh.polygon, SingularSolution(
                 0.37, mesh.polygon.corner_angle)))
    for edge, t in point_sets(mesh, datum):
        got = _datum_values(datum, mesh, edge, t)
        want = masked_datum_values(datum, mesh, edge, t)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["convex", "nonconvex", "unit_square"])
def test_a_rule_pass_evaluates_each_polygon_edge_once(name):
    mesh = refine_uniform(refine_uniform(
        unit_square() if name == "unit_square" else build_domain(name)))
    calls = []

    def evaluate(edge, s):
        calls.append(edge)
        return np.zeros((len(s), 2))

    datum_flux(BoundaryDatum(evaluate, jumps=((1, 0.3),)), mesh)
    assert calls == list(range(mesh.polygon.n_edges))


# --- counterexample values ------------------------------------------------

def test_l2_projection_counterexample_coefficients(square_p1):
    mesh, dm = square_p1
    u_h = project_l2(counterexample_datum(), mesh, dm)
    # boundary dofs follow the traversal a1, a2, a3, a4
    pts = dm.dof_points()[dm.boundary_dofs]
    order = [int(np.where((pts == v).all(axis=1))[0][0])
             for v in ([0, 0], [1, 0], [1, 1], [0, 1])]
    expected = np.array([1.0, -5.0, 19.0, 1.0]) / 32.0
    assert np.allclose(u_h.coefficients[order, 0], expected, atol=1e-14)
    assert np.allclose(u_h.coefficients[:, 1], 0.0, atol=1e-15)
    assert boundary_flux(u_h.coefficients, mesh, dm) == pytest.approx(
        3 / 16, abs=1e-14)


def test_carstensen_counterexample_coefficients(square_p1):
    mesh, dm = square_p1
    u_h = interpolate_carstensen(counterexample_datum(), mesh, dm)
    pts = dm.dof_points()[dm.boundary_dofs]
    order = [int(np.where((pts == v).all(axis=1))[0][0])
             for v in ([0, 0], [1, 0], [1, 1], [0, 1])]
    expected = np.array([0.0, 0.0, 3.0, 1.0]) / 8.0
    assert np.allclose(u_h.coefficients[order, 0], expected, atol=1e-14)
    assert boundary_flux(u_h.coefficients, mesh, dm) == pytest.approx(
        1 / 8, abs=1e-14)


def test_counterexample_datum_is_compatible(square_p1):
    mesh, _ = square_p1
    assert abs(datum_flux(counterexample_datum(), mesh)) < 1e-14


# --- projection properties --------------------------------------------------

@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_projection_reproduces_trace_space(pairing):
    mesh = refine_uniform(build_domain("nonconvex"))
    dm = build_dofmap(mesh, pairing)
    if pairing.kind == "taylor_hood":
        datum = polynomial_datum(mesh.polygon,
                                 lambda x, y: x * x - 2 * x * y + 0.25,
                                 lambda x, y: y * y + x)
    else:
        datum = polynomial_datum(mesh.polygon,
                                 lambda x, y: 2 * x - y + 0.25,
                                 lambda x, y: y + 0.5 * x)
    for op in (project_l2, interpolate_lagrange):
        u_h = op(datum, mesh, dm)
        assert trace_l2_distance(datum, u_h, mesh, dm) < 1e-12


@pytest.mark.parametrize("op", [project_l2, interpolate_carstensen,
                                interpolate_lagrange])
def test_constants_reproduced(op, square_p1):
    mesh, dm = square_p1
    datum = polynomial_datum(mesh.polygon,
                             lambda x, y: np.full_like(x, 0.8),
                             lambda x, y: np.full_like(x, -0.3))
    u_h = op(datum, mesh, dm)
    assert np.allclose(u_h.coefficients, [0.8, -0.3], atol=1e-13)


def test_carstensen_nonnegative(square_p1):
    mesh, dm = square_p1
    datum = polynomial_datum(mesh.polygon,
                             lambda x, y: 1.0 + np.sin(3 * x + y) ** 2,
                             lambda x, y: np.abs(y - 0.3))
    u_h = interpolate_carstensen(datum, mesh, dm)
    assert np.all(u_h.coefficients >= 0)


def test_projection_orthogonality():
    mesh = refine_uniform(build_domain("convex"))
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    datum = solenoidal_datum(mesh.polygon)
    u_h = project_l2(datum, mesh, dm)
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = BoundaryTrace(rng.standard_normal((dm.n_boundary_dofs, 2)))
        # <u - u_h, v> = <u, v> - v^T M u_h, with <u, v> by quadrature
        moments_u = _pairing_with_datum(datum, v, mesh, dm)
        mass_term = _pairing_between(u_h, v, mesh, dm)
        assert moments_u - mass_term == pytest.approx(0.0, abs=1e-10)


def _pairing_with_datum(datum, v, mesh, dm):
    from stokesbc.boundary_data import _edge_moments
    moments = _edge_moments(mesh, dm, datum)
    return float(np.sum(moments * v.coefficients))


def _pairing_between(a, b, mesh, dm):
    from stokesbc.assembly import assemble_boundary_mass
    M = assemble_boundary_mass(mesh, dm)
    return float(np.sum((M @ a.coefficients) * b.coefficients))


def test_projection_is_best_approximation():
    mesh = refine_uniform(unit_square())
    dm = build_dofmap(mesh, MINI)
    datum = solenoidal_datum(mesh.polygon)
    u_h = project_l2(datum, mesh, dm)
    base = trace_l2_distance(datum, u_h, mesh, dm)
    rng = np.random.default_rng(29)
    for _ in range(8):
        i = rng.integers(dm.n_boundary_dofs)
        c = rng.integers(2)
        for sign in (+1.0, -1.0):
            perturbed = u_h.coefficients.copy()
            perturbed[i, c] += sign * 1e-3
            worse = trace_l2_distance(datum, BoundaryTrace(perturbed),
                                      mesh, dm)
            assert worse > base


# --- Lagrange interpolation -------------------------------------------------

def test_lagrange_singular_trace_node_value():
    mesh = build_domain("convex")
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    sol = SingularSolution(alpha=0.5, omega=2 * np.pi / 3)
    u_h = interpolate_lagrange(trace_of_solution(mesh.polygon, sol), mesh, dm)
    pts = dm.dof_points()[dm.boundary_dofs]
    at_10 = int(np.where(np.hypot(pts[:, 0] - 1, pts[:, 1]) < 1e-14)[0][0])
    # r^a (Phi1(0), Phi2(0)) at r=1, theta=0: Phi1(0) = a sin w + sin(a w)
    assert u_h.coefficients[at_10, 0] == pytest.approx(0.75 * np.sqrt(3),
                                                       rel=1e-14)
    assert u_h.coefficients[at_10, 1] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("level", [3, 5])
@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_lagrange_study_trace_is_flux_free_at_the_corner(pairing, level):
    # the origin node ends the last boundary edge and starts edge 0; read
    # from the last edge it sat at the rounded r = |last_len - s| = 1e-16
    # and took r^0.05 Phi(omega), a flux of 1e-3 where the datum is zero
    mesh = build_domain("convex")
    for _ in range(level):
        mesh = refine_uniform(mesh)
    dm = build_dofmap(mesh, pairing)
    sol = SingularSolution(alpha=0.05, omega=2 * np.pi / 3)
    u_h = interpolate_lagrange(trace_of_solution(mesh.polygon, sol), mesh, dm)
    assert abs(boundary_flux(u_h.coefficients, mesh, dm)) <= 1e-14


def test_lagrange_zero_datum(square_p1):
    mesh, dm = square_p1
    datum = polynomial_datum(mesh.polygon, lambda x, y: 0 * x,
                             lambda x, y: 0 * x)
    u_h = interpolate_lagrange(datum, mesh, dm)
    assert np.all(u_h.coefficients == 0)


def test_lagrange_rejects_jump_at_node():
    mesh = refine_uniform(unit_square())
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    with pytest.raises(ValueError):
        interpolate_lagrange(counterexample_datum(), mesh, dm)


def test_lagrange_rejects_jump_at_a_polygon_vertex():
    # the vertex (0, 1) ends polygon edge 2; its node is read from edge 3
    mesh = refine_uniform(unit_square())
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    datum = BoundaryDatum(counterexample_datum().evaluate, jumps=((2, 1.0),))
    with pytest.raises(ValueError):
        interpolate_lagrange(datum, mesh, dm)


def test_lagrange_rejects_unbounded_datum():
    # negative exponent blows up at the corner node
    mesh = build_domain("nonconvex")
    dm = build_dofmap(mesh, TAYLOR_HOOD)
    sol = SingularSolution(alpha=-0.499, omega=3 * np.pi / 2)
    with pytest.raises(ValueError):
        interpolate_lagrange(trace_of_solution(mesh.polygon, sol), mesh, dm)


# --- compatibility correction ----------------------------------------------

def test_corrector_affine_flux_is_area(square_p1):
    mesh, dm = square_p1
    corr = build_corrector("affine_field", mesh, dm)
    assert corr.flux == pytest.approx(mesh.polygon.area, rel=1e-13)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_affine_corrector_builds_no_volume_dof_points(pairing, monkeypatch):
    mesh = refine_uniform(build_domain("nonconvex"))
    dm = build_dofmap(mesh, pairing)
    want = 0.5 * (dm.dof_points()[dm.boundary_dofs] - mesh.polygon.centroid)

    def every_dof_point(self):
        raise AssertionError("dof_points called")

    monkeypatch.setattr(DofMap, "dof_points", every_dof_point)
    corrector = build_corrector("affine_field", mesh, dm)
    assert np.array_equal(corrector.w_h.coefficients, want)


def test_corrector_affine_flux_shift_invariant(square_p1):
    # <y0|_G, n> does not depend on the centroid shift: <c, n> = 0
    mesh, dm = square_p1
    pts = dm.dof_points()[dm.boundary_dofs]
    for shift in ([0.0, 0.0], [0.5, 0.5], [-2.0, 3.0]):
        trace = 0.5 * (pts - np.asarray(shift))
        assert boundary_flux(trace, mesh, dm) == pytest.approx(
            mesh.polygon.area, rel=1e-12)


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_projected_normal_corrector_runs_no_boundary_rule(pairing,
                                                          monkeypatch):
    mesh = refine_uniform(build_domain("nonconvex"))
    dm = build_dofmap(mesh, pairing)

    def no_rule(mesh, datum):
        raise AssertionError("_boundary_rule called")

    monkeypatch.setattr(boundary_data, "_boundary_rule", no_rule)
    assert build_corrector("projected_normal", mesh, dm).flux > 0


def quadrature_normal_datum(mesh):
    """The outward normal as a datum, integrated by the boundary rule."""
    def evaluate(edge, s):
        n = mesh.polygon.edge_normals[edge]
        return np.broadcast_to(n, (np.size(s), 2)).copy()

    return BoundaryDatum(evaluate)


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
@pytest.mark.parametrize("name", ["convex", "nonconvex", "unit_square"])
def test_projected_normal_matches_its_quadrature_projection(name, pairing,
                                                            level):
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    dm = build_dofmap(mesh, pairing)
    want = project_l2(quadrature_normal_datum(mesh), mesh, dm).coefficients
    got = build_corrector("projected_normal", mesh, dm).w_h.coefficients
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("pairing", [TAYLOR_HOOD, MINI])
def test_corrector_projected_normal_flux(pairing):
    mesh = refine_uniform(build_domain("nonconvex"))
    dm = build_dofmap(mesh, pairing)
    corr = build_corrector("projected_normal", mesh, dm)
    norm_sq = _pairing_between(corr.w_h, corr.w_h, mesh, dm)
    assert corr.flux == pytest.approx(norm_sq, rel=1e-10)
    assert corr.flux > 0


def test_enforce_compatibility_counterexample_datum(square_p1):
    mesh, dm = square_p1
    u_h = project_l2(counterexample_datum(), mesh, dm)
    corr = build_corrector("affine_field", mesh, dm)
    fixed = enforce_compatibility(u_h, corr, mesh, dm)
    # lambda = (3/16) / |Omega| = 3/16 on the unit square
    lam = 3.0 / 16.0
    assert np.allclose(fixed.coefficients,
                       u_h.coefficients - lam * corr.w_h.coefficients,
                       atol=1e-14)
    assert abs(boundary_flux(fixed.coefficients, mesh, dm)) < 1e-12


def test_enforce_compatibility_identity_when_compatible(square_p1):
    mesh, dm = square_p1
    pts = dm.dof_points()[dm.boundary_dofs]
    u_h = BoundaryTrace(np.column_stack([pts[:, 1], pts[:, 0]]) * 0.0 + 1.0)
    corr = build_corrector("affine_field", mesh, dm)
    fixed = enforce_compatibility(u_h, corr, mesh, dm)
    assert np.allclose(fixed.coefficients, u_h.coefficients, atol=1e-15)


def test_enforce_compatibility_linear(square_p1):
    mesh, dm = square_p1
    u_h = project_l2(counterexample_datum(), mesh, dm)
    corr = build_corrector("affine_field", mesh, dm)
    one = enforce_compatibility(u_h, corr, mesh, dm)
    three = enforce_compatibility(BoundaryTrace(3.0 * u_h.coefficients),
                                  corr, mesh, dm)
    assert np.allclose(three.coefficients, 3.0 * one.coefficients, atol=1e-13)


def test_enforce_compatibility_rejects_fluxless_corrector(square_p1):
    mesh, dm = square_p1
    from stokesbc.boundary_data import CompatibilityCorrector
    zero = CompatibilityCorrector(
        w_h=BoundaryTrace(np.zeros((dm.n_boundary_dofs, 2))), flux=0.0)
    u_h = project_l2(counterexample_datum(), mesh, dm)
    with pytest.raises(ValueError):
        enforce_compatibility(u_h, zero, mesh, dm)


# --- defect decay and approximation orders ----------------------------------

def test_defect_decay_asymmetric_datum():
    mesh = build_domain("nonconvex")
    datum = solenoidal_datum(mesh.polygon)
    previous = None
    for _ in range(5):
        mesh = refine_uniform(mesh)
        dm = build_dofmap(mesh, TAYLOR_HOOD)
        delta = abs(compute_delta_h(project_l2(datum, mesh, dm), mesh, dm))
        if previous is not None:
            assert delta < previous
        previous = delta
    assert previous < 1e-8


def test_defect_stays_negligible_symmetric_study_data():
    # the study domains are symmetric under swapping the corner rays, which
    # cancels the defect of the singular-trace datum to round-off
    mesh = build_domain("nonconvex")
    sol = SingularSolution(alpha=0.5, omega=3 * np.pi / 2)
    datum = trace_of_solution(mesh.polygon, sol)
    for _ in range(3):
        mesh = refine_uniform(mesh)
        dm = build_dofmap(mesh, TAYLOR_HOOD)
        delta = compute_delta_h(project_l2(datum, mesh, dm), mesh, dm)
        assert abs(delta) < 1e-12


@pytest.mark.parametrize("pairing,alpha,expected", [
    (TAYLOR_HOOD, 0.5, 1.0),   # order min(t, k+1), t -> 1/2 + alpha
    (MINI, 0.5, 1.0),
    (TAYLOR_HOOD, 3.5, 3.0),   # smooth datum saturates the space order
    (MINI, 2.5, 2.0),
])
def test_l2_projection_order(pairing, alpha, expected):
    mesh = build_domain("convex")
    sol = SingularSolution(alpha=alpha, omega=2 * np.pi / 3)
    datum = trace_of_solution(mesh.polygon, sol)
    errors = []
    for _ in range(6):
        mesh = refine_uniform(mesh)
        dm = build_dofmap(mesh, pairing)
        u_h = project_l2(datum, mesh, dm)
        errors.append(trace_l2_distance(datum, u_h, mesh, dm))
    rate = eoc(errors[-2], errors[-1])
    assert rate == pytest.approx(expected, abs=0.1)


def test_modified_vs_plain_error_ratio_bounded():
    # corrected projection loses at most a constant against the plain one
    mesh0 = build_domain("nonconvex")
    singular = trace_of_solution(mesh0.polygon,
                                 SingularSolution(0.5, 3 * np.pi / 2))
    for datum in (solenoidal_datum(mesh0.polygon), singular):
        assert abs(datum_flux(datum, mesh0)) < 1e-8
        mesh = mesh0
        for _ in range(4):
            mesh = refine_uniform(mesh)
            dm = build_dofmap(mesh, TAYLOR_HOOD)
            u_h = project_l2(datum, mesh, dm)
            corr = build_corrector("affine_field", mesh, dm)
            fixed = enforce_compatibility(u_h, corr, mesh, dm)
            plain = trace_l2_distance(datum, u_h, mesh, dm)
            modified = trace_l2_distance(datum, fixed, mesh, dm)
            assert modified / plain <= 3.0


# --- trace distance ---------------------------------------------------------

@pytest.mark.parametrize("alpha", [-0.7, -0.5])
def test_distance_is_infinite_where_the_datum_leaves_l2(alpha):
    mesh = refine_uniform(build_domain("nonconvex"))
    datum = trace_of_solution(mesh.polygon,
                              SingularSolution(alpha, 3 * np.pi / 2))
    for pairing in (TAYLOR_HOOD, MINI):
        dm = build_dofmap(mesh, pairing)
        u_h = project_l2(datum, mesh, dm)
        assert trace_l2_distance(datum, u_h, mesh, dm) == np.inf


@pytest.mark.parametrize("a", [-0.45, -0.25, 0.5, 0.95, 1.3])
@pytest.mark.parametrize("name", ["convex", "nonconvex"])
def test_distance_matches_its_closed_form(name, a):
    """``||s^a c - u_h||^2`` for random traces ``u_h``, edge by edge.
    ``|u_h|^2`` integrates by the Gram matrix of the trace basis.  On the
    corner edge of width ``W`` the rest is ``|c|^2 W^(2a+1) / (2a+1) -
    2 W^(a+1) sum_i (c.c_i) int_0^1 t^a phi_i``; on the other edges of
    polygon edge 0, ``|u|^2`` is a difference of powers and ``u.u_h`` is
    integrated by ``quad``."""
    rng = np.random.default_rng(7)
    c = np.array([0.8, -1.3])
    mesh = build_domain(name)
    datum = corner_power_datum(mesh.polygon, a, c, np.zeros(2))
    for level in range(3):
        for pairing in (TAYLOR_HOOD, MINI):
            dm = build_dofmap(mesh, pairing)
            coef = rng.standard_normal((dm.n_boundary_dofs, 2))
            gram = EDGE_TRACE_GRAM[pairing.kind]
            want = 0.0
            for e, rows in enumerate(dm.boundary_edge_positions):
                local, width = coef[rows] @ c, mesh.boundary_lengths[e]
                want += width * np.einsum("ic,ij,jc->", coef[rows], gram,
                                          coef[rows])
                start = mesh.boundary_offsets[e]
                if mesh.boundary_parent[e] != 0:
                    continue
                if e == 0:
                    want += (c @ c * width ** (2 * a + 1) / (2 * a + 1)
                             - 2 * width ** (a + 1)
                             * local @ basis_moments(pairing, a))
                    continue
                want += c @ c * ((start + width) ** (2 * a + 1)
                                 - start ** (2 * a + 1)) / (2 * a + 1)
                cross = quad(lambda s: s ** a * edge_trace_values(
                    pairing, (s - start) / width) @ local,
                    start, start + width, epsabs=0.0, epsrel=1e-12)[0]
                want -= 2.0 * cross
            got = trace_l2_distance(datum, BoundaryTrace(coef), mesh, dm)
            assert got == pytest.approx(np.sqrt(want), rel=1e-12)
        mesh = refine_uniform(mesh)


@pytest.mark.parametrize("name", ["convex", "nonconvex"])
def test_distance_of_a_reproduced_datum_is_zero_to_roundoff(name):
    """At ``alpha = 1`` the study datum is linear, so both trace spaces
    reproduce it; the corner terms then cancel to a roundoff of either
    sign, and a negative one must not turn the distance into NaN."""
    mesh = refine_uniform(build_domain(name))
    datum = trace_of_solution(mesh.polygon, SingularSolution(
        1.0, mesh.polygon.corner_angle))
    for pairing in (TAYLOR_HOOD, MINI):
        dm = build_dofmap(mesh, pairing)
        for project in (project_l2, interpolate_lagrange):
            distance = trace_l2_distance(datum, project(datum, mesh, dm),
                                         mesh, dm)
            assert 0.0 <= distance < 1e-7


@pytest.mark.parametrize("name", ["convex", "nonconvex"])
def test_a_distance_evaluates_the_datum_at_its_rule_and_the_corners(name):
    """One distance evaluates the datum at the rule's points and at the
    ``2 GAUSS_POINTS`` points of the ``s^(2a)`` rule on the two corner
    segments, and nowhere else."""
    mesh = refine_uniform(refine_uniform(build_domain(name)))
    datum = trace_of_solution(mesh.polygon, SingularSolution(
        0.3, mesh.polygon.corner_angle))
    points = []

    def evaluate(edge, s):
        points.append(len(s))
        return datum.evaluate(edge, s)

    counted = dataclasses.replace(datum, evaluate=evaluate)
    rule = len(_boundary_rule(mesh, _segments(mesh, ()), 0.3)[1])
    for pairing in (TAYLOR_HOOD, MINI):
        dm = build_dofmap(mesh, pairing)
        u_h = project_l2(datum, mesh, dm)
        points.clear()
        trace_l2_distance(counted, u_h, mesh, dm)
        assert sum(points) <= rule + 2 * GAUSS_POINTS


TRACE_STUDY = Path(__file__).parent / "data" / "trace_study_lshape.txt"


def trace_study_text(alpha=0.545950, levels=4):
    """The trace-space study on the L-shape, one ``repr`` float a line.

    Per level the datum flux; then per pairing and projector the distance
    of the raw trace, and the distance and flux of each corrected trace.
    """
    mesh = build_domain("nonconvex")
    datum = trace_of_solution(mesh.polygon,
                              SingularSolution(alpha, 3 * np.pi / 2))
    lines = []
    for level in range(1, levels + 1):
        mesh = refine_uniform(mesh)
        lines.append(f"level {level} datum flux "
                     f"{float(datum_flux(datum, mesh))!r}")
        for pairing in (TAYLOR_HOOD, MINI):
            dm = build_dofmap(mesh, pairing)
            correctors = {kind: build_corrector(kind, mesh, dm)
                          for kind in ("affine_field", "projected_normal")}
            for name, project in (("l2", project_l2),
                                  ("carstensen", interpolate_carstensen),
                                  ("lagrange", interpolate_lagrange)):
                tag = f"level {level} {pairing.kind} {name}"
                u_h = project(datum, mesh, dm)
                distance = trace_l2_distance(datum, u_h, mesh, dm)
                lines.append(f"{tag} distance {float(distance)!r}")
                for kind, corrector in correctors.items():
                    fixed = enforce_compatibility(u_h, corrector, mesh, dm)
                    distance = trace_l2_distance(datum, fixed, mesh, dm)
                    flux = boundary_flux(fixed, mesh, dm)
                    lines.append(f"{tag}+{kind} distance {float(distance)!r} "
                                 f"flux {float(flux)!r}")
    return "\n".join(lines) + "\n"


def test_trace_study_is_reproduced_byte_for_byte():
    """Levels 1-4 at seed 310's exponent, 0.545950 to six digits, against
    the committed file.  A change that moves a number on purpose
    regenerates it with

        PYTHONPATH=src python tests/test_boundary_data.py \\
            > tests/data/trace_study_lshape.txt
    """
    assert trace_study_text() == TRACE_STUDY.read_text()


if __name__ == "__main__":
    sys.stdout.write(trace_study_text())
