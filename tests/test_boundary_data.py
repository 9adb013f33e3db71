import numpy as np
import pytest

from stokesbc import boundary_data
from stokesbc.assembly import boundary_flux, compute_delta_h
from stokesbc.boundary_data import (CORNER_LEVELS, GAUSS_POINTS,
                                    BoundaryDatum, BoundaryTrace,
                                    _boundary_rule, _datum_values,
                                    build_corrector,
                                    datum_flux,
                                    enforce_compatibility,
                                    interpolate_carstensen,
                                    interpolate_lagrange, project_l2,
                                    trace_l2_distance, trace_of_solution)
from stokesbc.cli import counterexample_datum
from stokesbc.errors import eoc
from stokesbc.fe_spaces import (MINI, TAYLOR_HOOD, DofMap, build_dofmap,
                                edge_trace_nodes, gauss_legendre_unit)
from stokesbc.manufactured import SingularSolution
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


def geometric_boundary_rule(mesh, datum):
    """The composite boundary rule with its corner edges found by geometry:
    the boundary edges whose arclength offsets put them at the origin."""
    lengths = mesh.boundary_edge_lengths()
    offsets = mesh.boundary_edge_offsets()
    parents = mesh.boundary_parent
    every = np.arange(mesh.n_boundary_edges)
    cut_edge, cut_at = [every, every], [np.zeros(len(every)), lengths]
    for je, js in datum.jumps:
        local = js - offsets
        on = ((parents == je) & (local > 1e-14 * lengths)
              & (local < lengths * (1 - 1e-14)))
        cut_edge.append(every[on])
        cut_at.append(local[on])
    last = mesh.polygon.n_edges - 1
    ends_at_origin = np.abs(offsets + lengths
                            - mesh.polygon.edge_lengths[last]) < 1e-12
    dyadic = 0.5 ** np.arange(1, CORNER_LEVELS + 1)
    for on, layers in (((parents == 0) & (offsets < 1e-14), dyadic),
                       ((parents == last) & ends_at_origin, 1.0 - dyadic)):
        cut_edge.append(np.repeat(every[on], CORNER_LEVELS))
        cut_at.append(np.outer(lengths[on], layers).ravel())
    cut_edge, cut_at = np.concatenate(cut_edge), np.concatenate(cut_at)
    order = np.lexsort((cut_at, cut_edge))
    cut_edge, cut_at = cut_edge[order], cut_at[order]
    seg = (cut_edge[1:] == cut_edge[:-1]) & (cut_at[1:] > cut_at[:-1])
    start, width = cut_at[:-1][seg], np.diff(cut_at)[seg]
    edge = np.repeat(cut_edge[:-1][seg], GAUSS_POINTS)
    xg, wg = gauss_legendre_unit(GAUSS_POINTS)
    s = (start[:, None] + width[:, None] * xg).ravel()
    return edge, s / lengths[edge], (width[:, None] * wg).ravel()


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("name", ["convex", "nonconvex", "unit_square"])
def test_boundary_rule_matches_the_geometric_corner_search(name, level):
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    datum = (counterexample_datum() if name == "unit_square" else
             trace_of_solution(mesh.polygon, SingularSolution(
                 0.37, mesh.polygon.corner_angle)))
    for got, want in zip(_boundary_rule(mesh, datum),
                         geometric_boundary_rule(mesh, datum)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def masked_datum_values(datum, mesh, edge, t):
    """The datum at rule points with one boolean mask per polygon edge."""
    parent = mesh.boundary_parent[edge]
    s = (mesh.boundary_edge_offsets()[edge]
         + t * mesh.boundary_edge_lengths()[edge])
    vals = np.empty((len(t), 2))
    for p in np.unique(parent):
        on = parent == p
        vals[on] = datum.evaluate(int(p), s[on])
    return vals


def point_sets(mesh, datum):
    """The rule points and the Lagrange nodes of both pairings, as
    (edge, t) pairs."""
    yield _boundary_rule(mesh, datum)[:2]
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
