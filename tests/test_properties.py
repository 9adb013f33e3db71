"""Property tests of the trace-space approximation and the boundary rule."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesbc.assembly import boundary_flux
from stokesbc.boundary_data import (BoundaryDatum, BoundaryTrace,
                                    build_corrector, datum_flux,
                                    enforce_compatibility, trace_l2_distance,
                                    trace_of_solution)
from stokesbc.cli import PROJECTORS
from stokesbc.fe_spaces import (build_dofmap, edge_trace_values,
                                pairing_from_name)
from stokesbc.manufactured import SingularSolution
from stokesbc.mesh import build_domain, refine_uniform

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
    pos = dm.boundary_position[dm.boundary_edge_dofs]
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
