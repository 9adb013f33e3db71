"""Property tests of the trace-space approximation, the boundary rule, the
error quadrature, the solver, the kernels and the singular profiles."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stokesbc import _kernels, solver
from stokesbc.assembly import (ASSEMBLY_QUAD_DEGREE, DiscreteSolution,
                               _local_blocks, assemble_bordered_system,
                               assemble_divergence, boundary_flux)
from stokesbc.boundary_data import (BoundaryDatum, BoundaryTrace,
                                    build_corrector, datum_flux,
                                    enforce_compatibility,
                                    interpolate_carstensen,
                                    interpolate_lagrange, project_l2,
                                    trace_l2_distance, trace_of_solution)
from stokesbc.cli import (DOMAINS, PROJECTORS, StudyConfig,
                          approximate_datum)
from stokesbc.errors import (ErrorQuadrature, h1_seminorm_velocity_error,
                             l2_pressure_error, l2_velocity_error)
from stokesbc.fe_spaces import (_tabulate, build_dofmap, edge_trace_nodes,
                                edge_trace_values, pairing_from_name,
                                quadrature)
from stokesbc.manufactured import (SingularSolution, eval_pressure,
                                   eval_velocity, eval_velocity_gradient,
                                   exact_fields, velocity_from_polar)
from stokesbc.mesh import (Mesh, Polygon, _spans, build_domain,
                           refine_uniform, unit_square)
from stokesbc.solver import solve

PROPERTY = settings(max_examples=25, deadline=None)

levels = st.integers(1, 4)
domains = st.sampled_from(["convex", "nonconvex"])
pairings = st.sampled_from(["taylor_hood", "mini"]).map(pairing_from_name)


@lru_cache(maxsize=None)
def refined(domain, level):
    mesh = build_domain(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       projector=st.sampled_from(sorted(PROJECTORS)),
       corrector=st.sampled_from(["affine_field", "projected_normal"]),
       alpha=st.floats(0.05, 0.95))
def test_corrected_trace_has_zero_flux(domain, level, pairing, projector,
                                       corrector, alpha):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    datum = trace_of_solution(mesh.polygon, SingularSolution(
        alpha, mesh.polygon.corner_angle))
    u_h = PROJECTORS[projector](datum, mesh, dm)
    fixed = enforce_compatibility(u_h, build_corrector(corrector, mesh, dm),
                                  mesh, dm)
    assert abs(boundary_flux(fixed.coefficients, mesh, dm)) <= 1e-12


def discrete_trace_datum(u_h, mesh, dm, jumps):
    """Datum that evaluates the discrete trace ``u_h`` on the polygon."""
    pos = dm.boundary_edge_positions
    offsets = mesh.boundary_offsets
    lengths = mesh.boundary_lengths

    def evaluate(edge, s):
        on = np.flatnonzero(mesh.boundary_parent == edge)
        on = on[np.argsort(offsets[on])]
        e = on[np.searchsorted(offsets[on], s, side="right") - 1]
        basis = edge_trace_values(dm.pairing, (s - offsets[e]) / lengths[e])
        return np.einsum("gi,gic->gc", basis, u_h.coefficients[pos[e]])

    return BoundaryDatum(evaluate, jumps)


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       seed=st.integers(0, 2**32 - 1), jump_edge=st.integers(0, 5),
       jump_at=st.floats(0.01, 0.99))
def test_boundary_rule_is_exact_on_discrete_traces(domain, level, pairing,
                                                   seed, jump_edge, jump_at):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(seed)
    u_h = BoundaryTrace(rng.standard_normal((dm.n_boundary_dofs, 2)))
    edge = jump_edge % mesh.polygon.n_edges
    jumps = ((edge, jump_at * mesh.polygon.edge_lengths[edge]),)
    datum = discrete_trace_datum(u_h, mesh, dm, jumps)
    assert abs(datum_flux(datum, mesh)
               - boundary_flux(u_h.coefficients, mesh, dm)) <= 1e-12
    assert trace_l2_distance(datum, u_h, mesh, dm) <= 1e-12


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       seed=st.integers(0, 2**32 - 1), jump_edge=st.integers(0, 5),
       jump_at=st.floats(0.01, 0.99))
def test_projectors_reproduce_discrete_traces(domain, level, pairing, seed,
                                              jump_edge, jump_at):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(seed)
    u_h = BoundaryTrace(rng.standard_normal((dm.n_boundary_dofs, 2)))
    edge = jump_edge % mesh.polygon.n_edges
    jump = jump_at * mesh.polygon.edge_lengths[edge]
    datum = discrete_trace_datum(u_h, mesh, dm, ((edge, jump),))
    nodes = (mesh.boundary_offsets[:, None]
             + np.outer(mesh.boundary_lengths,
                        edge_trace_nodes(pairing)))
    on_jump = np.abs(nodes[mesh.boundary_parent == edge] - jump) < 1e-12
    projectors = [project_l2]
    if not on_jump.any():  # Lagrange interpolation rejects a node on a jump
        projectors.append(interpolate_lagrange)
    scale = np.abs(u_h.coefficients).max()
    for project in projectors:
        coef = project(datum, mesh, dm).coefficients
        assert np.abs(coef - u_h.coefficients).max() <= 1e-12 * scale


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       value=st.tuples(*[st.floats(-10, 10, allow_subnormal=False)] * 2))
def test_weighted_average_reproduces_constants(domain, level, pairing, value):
    # a subnormal value times a quadrature weight keeps too few bits for
    # any relative tolerance
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    datum = BoundaryDatum(lambda edge, s: np.tile(value, (np.size(s), 1)))
    coef = interpolate_carstensen(datum, mesh, dm).coefficients
    np.testing.assert_allclose(coef, np.tile(value, (dm.n_boundary_dofs, 1)),
                               rtol=1e-12, atol=1e-12 * max(map(abs, value)))


@PROPERTY
@given(domain=domains, level=st.integers(0, 4), pairing=pairings)
def test_edge_positions_follow_the_boundary_chain(domain, level, pairing):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    edge_dofs = dm.boundary_dofs[dm.boundary_edge_positions]
    assert np.array_equal(edge_dofs[:, [0, -1]], mesh.boundary_edges)


@PROPERTY
@given(domain=domains, level=st.integers(0, 4))
def test_boundary_midpoints_are_edge_midpoints(domain, level):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing_from_name("taylor_hood"))
    a, m, b = dm.boundary_dofs[dm.boundary_edge_positions].T
    midpoints = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    assert np.array_equal(dm.dof_points()[m], midpoints)
    fine = refine_uniform(mesh)
    assert np.array_equal(fine.boundary_edges[0::2, 1], m)
    assert np.array_equal(fine.vertices[m], midpoints)



quad_degrees = st.integers(4, 14)
corner_levels = st.integers(0, 8)
seeds = st.integers(0, 2**32 - 1)


def relabelled(mesh, seed):
    """The same mesh with each triangle's vertices shifted cyclically at
    random, so that the origin sits at every local vertex position."""
    shift = np.random.default_rng(seed).integers(0, 3, mesh.n_triangles)
    local = (np.arange(3) + shift[:, None]) % 3
    return Mesh(mesh.polygon, mesh.vertices,
                np.take_along_axis(mesh.triangles, local, axis=1),
                mesh.boundary_edges, mesh.boundary_parent)


@PROPERTY
@given(name=st.sampled_from(["convex", "nonconvex", "unit_square"]),
       level=st.integers(0, 4), seed=seeds)
def test_refinement_numbers_edges_lexicographically(name, level, seed):
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    fine = refine_uniform(relabelled(mesh, seed))
    # the numbering from its definition: every edge once as (low, high),
    # in lexicographic order
    local = [tuple(sorted((t[k], t[(k + 1) % 3])))
             for t in fine.triangles.tolist() for k in range(3)]
    edges = sorted(set(local))
    ids = {e: i for i, e in enumerate(edges)}
    for attr, want in (
            ("edges", edges),
            ("triangle_edges", np.reshape([ids[e] for e in local], (-1, 3))),
            ("boundary_edge_ids", [ids[tuple(sorted(e))]
                                   for e in fine.boundary_edges.tolist()])):
        got = getattr(fine, attr)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), attr


@PROPERTY
@given(name=st.sampled_from(["convex", "nonconvex", "unit_square"]),
       level=st.integers(0, 6))
def test_boundary_chain_matches_its_volume_mesh(name, level):
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    # read before any volume table is built, then against a mesh built
    # directly from the tables
    attrs = ("boundary_points", "boundary_lengths", "boundary_offsets",
             "boundary_normals")
    chain = [getattr(mesh, attr) for attr in attrs]
    names = ("taylor_hood", "mini")
    nodes = [build_dofmap(mesh, pairing_from_name(p)).boundary_dof_points()
             for p in names]
    assert level == 0 or "vertices" not in vars(mesh)
    eager = Mesh(mesh.polygon, mesh.vertices, mesh.triangles,
                 mesh.boundary_edges, mesh.boundary_parent)
    want = [getattr(eager, attr) for attr in attrs]
    want += [build_dofmap(eager, pairing_from_name(p)).boundary_dof_points()
             for p in names]
    for got, ref in zip(chain + nodes, want):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       quad_degree=quad_degrees, corner_levels=corner_levels, seed=seeds)
def test_error_quadrature_weights_sum_to_area(domain, level, pairing,
                                              quad_degree, corner_levels,
                                              seed):
    mesh = relabelled(refined(domain, level), seed)
    sol = SingularSolution(0.5, mesh.polygon.corner_angle)
    quad = ErrorQuadrature(mesh, build_dofmap(mesh, pairing), sol,
                           quad_degree, corner_levels)
    total = sum(float(b.weights.sum()) for b in quad.batches)
    assert abs(total - mesh.polygon.area) <= 1e-13 * mesh.polygon.area


@PROPERTY
@given(domain=domains, level=levels, quad_degree=quad_degrees,
       corner_levels=corner_levels, seed=seeds)
def test_corner_layers_do_not_depend_on_vertex_labels(domain, level,
                                                      quad_degree,
                                                      corner_levels, seed):
    # the layers shrink toward the origin whichever local vertex it is
    mesh = refined(domain, level)
    sol = SingularSolution(0.5, mesh.polygon.corner_angle)

    def corner_cells(m):
        # weights and exact velocity of each cell at the origin (vertex 0),
        # keyed by its vertices
        quad = ErrorQuadrature(m, build_dofmap(m, pairing_from_name("mini")),
                               sol, quad_degree, corner_levels)
        return {tuple(sorted(v)): (w, y) for b in quad.batches
                for v, w, y in zip(b.cell_pressure, b.weights,
                                   b.exact["velocity"]) if 0 in v}

    cells = [corner_cells(m) for m in (mesh, relabelled(mesh, seed))]
    assert cells[1].keys() == cells[0].keys()
    for key, (weights, velocity) in cells[0].items():
        np.testing.assert_allclose(cells[1][key][0], weights, rtol=1e-13)
        np.testing.assert_allclose(cells[1][key][1], velocity, rtol=1e-13)


def nodal_interpolant(sol, mesh, dm):
    """Nodal interpolant of the exact solution (MINI bubbles left at zero,
    exact only for a linear velocity)."""
    velocity = eval_velocity(sol, dm.dof_points())
    if dm.pairing.kind == "mini":
        velocity[mesh.n_vertices:] = 0.0
    return DiscreteSolution(velocity=velocity,
                            pressure=eval_pressure(sol, mesh.vertices),
                            delta_h=0.0)


@PROPERTY
@given(domain=domains, level=levels,
       member=st.sampled_from([(1.0, "taylor_hood"), (1.0, "mini"),
                               (2.0, "taylor_hood")]),
       quad_degree=quad_degrees, corner_levels=corner_levels, seed=seeds)
def test_error_norms_vanish_on_reproduced_members(domain, level, member,
                                                  quad_degree, corner_levels,
                                                  seed):
    # alpha = 1: linear velocity, zero pressure; alpha = 2: quadratic
    # velocity, linear pressure
    alpha, pairing = member
    mesh = relabelled(refined(domain, level), seed)
    dm = build_dofmap(mesh, pairing_from_name(pairing))
    sol = SingularSolution(alpha, mesh.polygon.corner_angle)
    y_h = nodal_interpolant(sol, mesh, dm)
    quad = ErrorQuadrature(mesh, dm, sol, quad_degree, corner_levels)
    for norm in (l2_velocity_error, h1_seminorm_velocity_error,
                 l2_pressure_error):
        assert norm(y_h, quad) <= 1e-12


def with_vertices(mesh, vertices, polygon):
    """``mesh``'s triangulation on new vertex positions."""
    return Mesh(polygon, vertices, mesh.triangles, mesh.boundary_edges,
                mesh.boundary_parent)


def radial_datum(polygon, alpha):
    """Trace of r^alpha x / r, homogeneous of degree alpha like the singular
    solution, with a positive flux through the edges off the corner."""

    def evaluate(edge, s):
        x = polygon.point_on_edge(edge, s)
        r = np.hypot(*x.T)[:, None]
        return np.divide(x, r, out=np.zeros_like(x), where=r > 0) * r ** alpha

    return BoundaryDatum(evaluate)


# the norms of one study level at scale c agree with c to the power of their
# degree to about 1e-11 relative: the Schur CG's stopping test mixes blocks
# of different scales, so it stops at slightly different iterates
SCALING_RTOL = 1e-9


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       projector=st.sampled_from(sorted(PROJECTORS)),
       compat=st.sampled_from(["off", "affine_field", "projected_normal"]),
       alpha=st.floats(0.05, 0.95), scale=st.sampled_from([0.3, 3.0]))
def test_study_level_scales_with_the_domain(domain, level, pairing,
                                            projector, compat, alpha, scale):
    # every field is homogeneous of degree alpha, so on the domain scaled by
    # c the velocity error scales by c^(alpha+1), its gradient and the
    # pressure error by c^alpha, and delta_h = <u_h, n> / |Omega| by
    # c^(alpha-1); the radial part of the datum gives it a nonzero flux
    mesh = refined(domain, level)
    sol = SingularSolution(alpha, mesh.polygon.corner_angle)
    config = StudyConfig(projector=projector, compat=compat)

    def study_level(m):
        dm = build_dofmap(m, pairing)
        exact = trace_of_solution(m.polygon, sol).evaluate
        radial = radial_datum(m.polygon, alpha).evaluate
        datum = BoundaryDatum(lambda edge, s: exact(edge, s)
                              + radial(edge, s))
        system = assemble_bordered_system(
            m, dm, approximate_datum(config, datum, m, dm))
        y_h, _ = solve(system)
        quad = ErrorQuadrature(m, dm, sol)
        return np.array([norm(y_h, quad) for norm in (
            l2_velocity_error, h1_seminorm_velocity_error,
            l2_pressure_error)] + [y_h.delta_h])

    base = study_level(mesh)
    scaled = study_level(with_vertices(mesh, scale * mesh.vertices,
                                       Polygon(scale * mesh.polygon.vertices)))
    want = base * scale ** np.array([alpha + 1, alpha, alpha, alpha - 1])
    checked = slice(None) if compat == "off" else slice(3)  # delta_h ~ 0
    np.testing.assert_allclose(scaled[checked], want[checked],
                               rtol=SCALING_RTOL, atol=0)


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       angle=st.floats(0.0, 2 * np.pi))
def test_element_maps_rotate_with_the_mesh(domain, level, pairing, angle):
    # Polygon fixes edge 0 along +x, so no Mesh holds the turned vertices:
    # the turned geometry and local blocks are built from them directly
    mesh = refined(domain, level)
    cos, sin = np.cos(angle), np.sin(angle)
    rot = np.array([[cos, -sin], [sin, cos]])
    ux, uy, vx, vy = _spans(mesh.vertices @ rot.T, mesh.triangles)
    areas = 0.5 * (ux * vy - uy * vx)
    invjt = (np.stack([vy, -uy, -vx, ux], axis=1).reshape(-1, 2, 2)
             / (2 * areas[:, None, None]))
    np.testing.assert_allclose(areas, mesh.areas, rtol=1e-13)
    np.testing.assert_allclose(invjt, rot @ mesh.inverse_jacobians, rtol=0,
                               atol=1e-12 * np.abs(mesh.inverse_jacobians).max())
    rule = quadrature(ASSEMBLY_QUAD_DEGREE)
    _, grads_v = _tabulate(pairing, rule.points)
    kloc, dloc = _local_blocks(mesh, build_dofmap(mesh, pairing))
    kturn, dturn = _kernels.local_matrices(2 * areas, invjt, grads_v,
                                           rule.points, rule.weights)
    np.testing.assert_allclose(kturn, kloc, rtol=0,
                               atol=1e-12 * np.abs(kloc).max())
    # the divergence blocks hold int q_i d_c phi_j: c runs over components
    np.testing.assert_allclose(dturn, np.einsum("cd,tdij->tcij", rot, dloc),
                               rtol=0, atol=1e-12 * np.abs(dloc).max())


# the turned sums differ from the unturned ones by rounding only, which
# the cancellation in y_h - y magnifies to at most about 1e-13 relative
ROTATION_RTOL = 1e-12


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       alpha=st.floats(0.05, 0.95), angle=st.floats(0.0, 2 * np.pi))
def test_error_norms_rotate_with_the_fields(domain, level, pairing, alpha,
                                            angle):
    # Polygon fixes edge 0 along +x, so the fields turn with the points,
    # not the mesh: on the domain turned by R the velocity coefficients and
    # the exact velocity are R y, the element maps R J, and the exact
    # gradient R G R^T, and the error sums stay the same
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    sol = SingularSolution(alpha, mesh.polygon.corner_angle)
    u_h = project_l2(trace_of_solution(mesh.polygon, sol), mesh, dm)
    y_h, _ = solve(assemble_bordered_system(mesh, dm, u_h))
    cos, sin = np.cos(angle), np.sin(angle)
    rot = np.array([[cos, -sin], [sin, cos]])
    for b in ErrorQuadrature(mesh, dm, sol).batches:
        coef = y_h.velocity.take(b.cell_velocity, axis=0)
        velocity, gradient = b.exact["velocity"], b.exact["gradient"]
        l2 = _kernels.l2_accumulate(coef, b.vals_v, b.weights, velocity)
        h1 = _kernels.h1_accumulate(coef, b.grads_v, b.invjt, b.weights,
                                    gradient)
        l2_turned = _kernels.l2_accumulate(coef @ rot.T, b.vals_v, b.weights,
                                           velocity @ rot.T)
        h1_turned = _kernels.h1_accumulate(coef @ rot.T, b.grads_v,
                                           rot @ b.invjt, b.weights,
                                           rot @ gradient @ rot.T)
        assert abs(l2_turned - l2) <= ROTATION_RTOL * l2
        assert abs(h1_turned - h1) <= ROTATION_RTOL * h1


@PROPERTY
@given(domain=domains, level=st.integers(0, 3),
       angle=st.floats(0.01, 2 * np.pi - 0.01))
def test_mesh_rejects_vertices_off_its_polygon(domain, level, angle):
    # a turned mesh keeps its triangles but leaves the unturned polygon
    mesh = refined(domain, level)
    cos, sin = np.cos(angle), np.sin(angle)
    rot = np.array([[cos, -sin], [sin, cos]])
    with pytest.raises(ValueError, match="lie on their polygon edges"):
        with_vertices(mesh, mesh.vertices @ rot.T, mesh.polygon)


def random_system(domain, level, pairing, seed, alpha_reg=1.0):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    trace = np.random.default_rng(seed).standard_normal(
        (dm.n_boundary_dofs, 2))
    return assemble_bordered_system(mesh, dm, trace, alpha_reg=alpha_reg)


@PROPERTY
@given(domain=domains, level=st.integers(1, 3), pairing=pairings, seed=seeds)
def test_schur_cg_matches_direct_and_alpha_reg(domain, level, pairing, seed):
    system = random_system(domain, level, pairing, seed)
    direct = system.unpack(
        spla.spsolve(system.matrix().tocsc(), system.rhs()))
    scale = max(np.abs(direct.velocity).max(), np.abs(direct.pressure).max(),
                abs(direct.delta_h))
    for alpha_reg in (1.0, 0.0):
        cg, _ = solve(random_system(domain, level, pairing, seed,
                                    alpha_reg))
        assert np.abs(cg.velocity - direct.velocity).max() <= 1e-9 * scale
        assert np.abs(cg.pressure - direct.pressure).max() <= 1e-9 * scale
        assert abs(cg.delta_h - direct.delta_h) <= 1e-9 * scale


@PROPERTY
@given(domain=domains, level=st.integers(1, 3), pairing=pairings, seed=seeds,
       alpha_reg=st.sampled_from([0.0, 1.0]))
def test_apply_matches_the_assembled_matrix(domain, level, pairing, seed,
                                            alpha_reg):
    system = random_system(domain, level, pairing, seed, alpha_reg)
    matrix = system.matrix()
    x = np.random.default_rng(seed + 1).standard_normal(matrix.shape[0])
    expected = matrix @ x
    assert np.linalg.norm(system.apply(x) - expected) \
        <= 1e-14 * np.linalg.norm(expected)


@PROPERTY
@given(domain=domains, level=st.integers(0, 4), pairing=pairings)
def test_pressure_mass_is_symmetric_with_rows_summing_to_s(domain, level,
                                                           pairing):
    system = random_system(domain, level, pairing, seed=0)
    mass = system.pressure_mass
    assert abs(mass - mass.T).max() == 0.0
    rows = np.asarray(mass.sum(axis=1)).ravel()
    assert np.abs(rows - system.s).max() <= 1e-15 * np.abs(system.s).max()


@PROPERTY
@given(name=st.sampled_from(["convex", "nonconvex", "unit_square"]),
       level=st.integers(1, 3))
def test_mass_chebyshev_is_a_symmetric_near_inverse(name, level):
    # D^{-1} M_p spans [1/2, 2] and reaches 2 on the constants, so the
    # Chebyshev bound 1/T_5(5/3) on |P M_p - I| is attained
    mesh = unit_square() if name == "unit_square" else build_domain(name)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    # the P1 pressure and its mass are the same for both pairings
    dm = build_dofmap(mesh, pairing_from_name("mini"))
    system = assemble_bordered_system(mesh, dm,
                                      np.zeros((dm.n_boundary_dofs, 2)))
    mass, s = system.pressure_mass, system.s
    P = np.column_stack([solver._mass_chebyshev(mass, 2.0 / s, e)
                         for e in np.eye(len(s))])
    assert np.abs(P - P.T).max() <= 1e-12 * np.abs(P).max()
    # the eigenvalues of P M_p are those of L^T P L, M_p = L L^T
    lower = np.linalg.cholesky(mass.toarray())
    spread = np.abs(np.linalg.eigvalsh(lower.T @ P @ lower) - 1.0)
    bound = 1.0 / np.cosh(solver.MASS_STEPS * np.arccosh(5 / 3))
    assert spread.max() <= bound + 1e-12
    assert spread.max() >= bound - 1e-12


@PROPERTY
@given(domain=domains, level=st.integers(1, 3), pairing=pairings,
       projector=st.sampled_from(sorted(PROJECTORS)),
       compat=st.sampled_from(["off", "affine_field", "projected_normal"]),
       alpha=st.floats(-0.45, 0.95), alpha_reg=st.sampled_from([0.0, 1.0]),
       kick=st.floats(0.1, 1.0))
def test_divergence_identity_and_defect_for_every_datum(domain, level,
                                                        pairing, projector,
                                                        compat, alpha,
                                                        alpha_reg, kick):
    # criterion 11 and the defect delta_h = <u_h, n> / |Omega| for every
    # drawn study datum; Lagrange interpolation needs a continuous datum.
    # Study traces have |<u_h, n>| < 1e-13, which a load g that misses the
    # boundary columns would pass: the datum gets kick times the
    # affine_field corrector's (x - centroid) / 2, whose flux is |Omega|.
    assume(projector != "lagrange" or alpha > 0)
    mesh = refined(domain, level)
    config = StudyConfig(domain=domain, alpha_sing=alpha,
                         pairing=pairing.kind, projector=projector,
                         compat=compat)
    dm = build_dofmap(mesh, pairing)
    exact = trace_of_solution(mesh.polygon, SingularSolution(
        alpha, mesh.polygon.corner_angle))
    centroid = mesh.polygon.centroid

    def evaluate(edge, s):
        affine = mesh.polygon.point_on_edge(edge, s) - centroid
        return exact.evaluate(edge, s) + 0.5 * kick * affine

    u_h = approximate_datum(config, BoundaryDatum(evaluate), mesh, dm)
    y_h, report = solve(assemble_bordered_system(mesh, dm, u_h,
                                                 alpha_reg=alpha_reg))
    flux = boundary_flux(u_h.coefficients, mesh, dm)
    div = assemble_divergence(mesh, dm) @ np.concatenate(
        [y_h.velocity[:, 0], y_h.velocity[:, 1]])
    assert abs(div.sum() - flux) <= 1e-10
    # summed, the pressure rows give |Omega| delta_h = <u_h, n> - e^T r for
    # their residual r, so delta_h is exactly as accurate as the solve
    assert abs(mesh.polygon.area * y_h.delta_h - flux) \
        <= np.sqrt(dm.n_pressure) * report.residual_norm + 1e-14
    if compat != "off":
        assert abs(flux) <= 1e-12


def reference_local_matrices(detj, invjt, grad_v, vals_p, qw):
    g = np.einsum("tde,qie->tqid", invjt, grad_v)
    kloc = np.einsum("q,tqid,tqjd,t->tij", qw, g, g, detj)
    dloc = np.einsum("q,qi,tqjc,t->tcij", qw, vals_p, g, detj)
    return kloc, dloc


def reference_l2(coef, vals_v, wdet, exact):
    diff = np.einsum("qi,nic->nqc", vals_v, coef) - exact
    return np.einsum("nq,nqc->", wdet, diff ** 2)


def reference_h1(coef, grad_v, invjt, wdet, exact_grad):
    gref = np.einsum("qie,nic->nqce", grad_v, coef)
    diff = np.einsum("nde,nqce->nqcd", invjt, gref) - exact_grad
    return np.einsum("nq,nqcd->", wdet, diff ** 2)


@PROPERTY
@given(n=st.integers(1, 40), nq=st.integers(1, 16),
       nl=st.sampled_from([3, 4, 6]), seed=seeds)
def test_kernels_match_einsum_references(n, nq, nl, seed):
    rng = np.random.default_rng(seed)
    detj = rng.random(n)
    grad_v = rng.standard_normal((nq, nl, 2))
    vals_v = rng.standard_normal((nq, nl))
    vals_p = rng.standard_normal((nq, 3))
    qw = rng.random(nq)
    coef = rng.standard_normal((n, nl, 2))
    wdet = rng.random((n, nq))
    invjt = rng.standard_normal((n, 2, 2))

    got = _kernels.local_matrices(detj, invjt, grad_v, vals_p, qw)
    for value, ref in zip(got, reference_local_matrices(detj, invjt, grad_v,
                                                        vals_p, qw)):
        assert value.shape == ref.shape
        assert np.abs(value - ref).max() <= 1e-13 * np.abs(ref).max()
    exact = rng.standard_normal((n, nq, 2))
    ref = reference_l2(coef, vals_v, wdet, exact)
    assert abs(_kernels.l2_accumulate(coef, vals_v, wdet, exact) - ref) \
        <= 1e-13 * ref
    exact_grad = rng.standard_normal((n, nq, 2, 2))
    ref = reference_h1(coef, grad_v, invjt, wdet, exact_grad)
    assert abs(_kernels.h1_accumulate(coef, grad_v, invjt, wdet, exact_grad)
               - ref) <= 1e-13 * ref


def docstring_profiles(a, w, t):
    """Phi1, Phi2 and Phip as written in the manufactured module docstring;
    ``t`` may be complex."""
    phi1 = (-np.sin(a * t) * np.cos(w)
            - a * np.sin(t) * np.cos(a * (w - t) + t)
            + a * np.sin(w - t) * np.cos(a * t - t)
            + np.sin(a * (w - t)))
    phi2 = (-np.sin(a * t) * np.sin(w)
            - a * np.sin(t) * np.sin(a * (w - t) + t)
            - a * np.sin(w - t) * np.sin(a * t - t))
    phip = 2 * a * (np.sin((a - 1) * t + w) + np.sin((a - 1) * t - a * w))
    return np.array([phi1, phi2]), phip


@PROPERTY
@given(a=st.floats(-1.0, 3.0, exclude_min=True, exclude_max=True).filter(
           lambda a: a == 0.0 or abs(a) >= 1e-6),  # no underflowing steps
       omega=st.sampled_from(sorted(build_domain(d).polygon.corner_angle
                                   for d in DOMAINS)), seed=seeds)
def test_exact_fields_match_the_docstring_formulas(a, omega, seed):
    rng = np.random.default_rng(seed)
    # both rays, a rounding step off them (snapped onto them) and 1e-7 off
    # them, and interior angles, at radii 1e-3 to 3; then radii 1e-10 to
    # 1e-8, where the ray snapping of the polar split widens to 1e-2 rad
    theta = np.concatenate([[0.0, omega, 1e-15, omega - 1e-15, 1e-7,
                             omega - 1e-7], rng.uniform(0.0, omega, 42),
                            rng.uniform(0.1 * omega, 0.9 * omega, 16)])
    r = 10.0 ** np.concatenate([rng.uniform(-3.0, 0.5, 48),
                                rng.uniform(-10.0, -8.0, 16)])
    r[:2] = 10.0 ** rng.uniform(-12.0, 0.5, 2)  # exactly on the rays
    points = r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    sol = SingularSolution(a, omega)
    phi, phip = docstring_profiles(a, omega, theta)
    # complex-step derivative: exact up to rounding, no cancellation
    step = 1e-30
    dphi = docstring_profiles(a, omega, theta + 1j * step)[0].imag / step
    # chain rule through polar coordinates, without the factor r^(a - 1)
    c, s = np.cos(theta), np.sin(theta)
    grad = np.stack([a * c * phi - s * dphi, a * s * phi + c * dphi], axis=-1)

    velocity = np.empty(len(r), dtype=complex)
    pressure = np.empty(len(r))
    fields = {"velocity": velocity, "pressure": pressure}
    if a > 0:
        fields["gradient"] = np.empty((len(r), 2), dtype=complex)
    exact_fields(sol, points, **fields)

    def close(value, ref):
        # |a| scales a field that vanishes identically: p at a = 1
        return (np.abs(value - ref).max()
                <= 1e-12 * max(np.abs(ref).max(), abs(a)))

    assert close(np.array([velocity.real, velocity.imag]) / r ** a, phi)
    assert close(velocity_from_polar(sol, r, theta).T / r ** a, phi)
    assert close(pressure / r ** (a - 1), phip)
    assert np.array_equal(eval_velocity(sol, points),
                          np.column_stack([velocity.real, velocity.imag]))
    assert np.array_equal(eval_pressure(sol, points), pressure)
    if a > 0:
        gradient = eval_velocity_gradient(sol, points)  # [n, i, j]
        assert close(gradient.transpose(1, 0, 2) / r[:, None] ** (a - 1),
                     grad)
        g = fields["gradient"]
        assert np.array_equal(gradient, np.stack([g.real, g.imag], axis=1))
