"""Property tests of the trace-space approximation, the boundary rule and the
error quadrature."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesbc.assembly import DiscreteSolution, boundary_flux
from stokesbc.boundary_data import (BoundaryDatum, BoundaryTrace,
                                    build_corrector, datum_flux,
                                    enforce_compatibility,
                                    interpolate_carstensen,
                                    interpolate_lagrange, project_l2,
                                    trace_l2_distance, trace_of_solution)
from stokesbc.cli import PROJECTORS
from stokesbc.errors import (ErrorQuadrature, h1_seminorm_velocity_error,
                             l2_pressure_error, l2_velocity_error)
from stokesbc.fe_spaces import (build_dofmap, edge_trace_nodes,
                                edge_trace_values, pairing_from_name)
from stokesbc.manufactured import (SingularSolution, eval_pressure,
                                   eval_velocity)
from stokesbc.mesh import Mesh, build_domain, refine_uniform

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


def discrete_trace_datum(u_h, mesh, dm, jumps, singular):
    """Datum that evaluates the discrete trace ``u_h`` on the polygon."""
    pos = dm.boundary_edge_positions
    offsets = mesh.boundary_edge_offsets()
    lengths = mesh.boundary_edge_lengths()

    def evaluate(edge, s):
        on = np.flatnonzero(mesh.boundary_parent == edge)
        on = on[np.argsort(offsets[on])]
        e = on[np.searchsorted(offsets[on], s, side="right") - 1]
        basis = edge_trace_values(dm.pairing, (s - offsets[e]) / lengths[e])
        return np.einsum("gi,gic->gc", basis, u_h.coefficients[pos[e]])

    return BoundaryDatum(evaluate=evaluate, smoothness=0.49, jumps=jumps,
                         singular_at_corner=singular)


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       seed=st.integers(0, 2**32 - 1), singular=st.booleans(),
       jump_edge=st.integers(0, 5), jump_at=st.floats(0.01, 0.99))
def test_boundary_rule_is_exact_on_discrete_traces(domain, level, pairing,
                                                   seed, singular, jump_edge,
                                                   jump_at):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(seed)
    u_h = BoundaryTrace(rng.standard_normal((dm.n_boundary_dofs, 2)))
    edge = jump_edge % mesh.polygon.n_edges
    jumps = ((edge, jump_at * mesh.polygon.edge_lengths[edge]),)
    datum = discrete_trace_datum(u_h, mesh, dm, jumps, singular)
    assert abs(datum_flux(datum, mesh)
               - boundary_flux(u_h.coefficients, mesh, dm)) <= 1e-12
    assert trace_l2_distance(datum, u_h, mesh, dm) <= 1e-12


@PROPERTY
@given(domain=domains, level=levels, pairing=pairings,
       seed=st.integers(0, 2**32 - 1), singular=st.booleans(),
       jump_edge=st.integers(0, 5), jump_at=st.floats(0.01, 0.99))
def test_projectors_reproduce_discrete_traces(domain, level, pairing, seed,
                                              singular, jump_edge, jump_at):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    rng = np.random.default_rng(seed)
    u_h = BoundaryTrace(rng.standard_normal((dm.n_boundary_dofs, 2)))
    edge = jump_edge % mesh.polygon.n_edges
    jump = jump_at * mesh.polygon.edge_lengths[edge]
    datum = discrete_trace_datum(u_h, mesh, dm, ((edge, jump),), singular)
    nodes = (mesh.boundary_edge_offsets()[:, None]
             + np.outer(mesh.boundary_edge_lengths(),
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
       value=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
       singular=st.booleans())
def test_weighted_average_reproduces_constants(domain, level, pairing, value,
                                               singular):
    mesh = refined(domain, level)
    dm = build_dofmap(mesh, pairing)
    datum = BoundaryDatum(
        evaluate=lambda edge, s: np.tile(value, (np.size(s), 1)),
        smoothness=0.49, singular_at_corner=singular)
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
    a, m, b = dm.boundary_edge_dofs.T
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
@given(domain=domains, level=levels, pairing=pairings,
       quad_degree=quad_degrees, corner_levels=corner_levels, seed=seeds)
def test_error_quadrature_weights_sum_to_area(domain, level, pairing,
                                              quad_degree, corner_levels,
                                              seed):
    mesh = relabelled(refined(domain, level), seed)
    quad = ErrorQuadrature(mesh, build_dofmap(mesh, pairing), quad_degree,
                           corner_levels)
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
    corner = [ErrorQuadrature(m, build_dofmap(m, pairing_from_name("mini")),
                              quad_degree, corner_levels).batches[1]
              for m in (mesh, relabelled(mesh, seed))]
    for name in ("points", "weights"):
        np.testing.assert_allclose(getattr(corner[1], name),
                                   getattr(corner[0], name), rtol=1e-13)


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
    quad = ErrorQuadrature(mesh, dm, quad_degree, corner_levels)
    for norm in (l2_velocity_error, h1_seminorm_velocity_error,
                 l2_pressure_error):
        assert norm(y_h, sol, quad) <= 1e-12
