"""Property tests of the trace-space approximation, the boundary rule, the
error quadrature, the solver, the kernels and the singular profiles."""

from functools import lru_cache

import numpy as np
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stokesbc import _kernels
from stokesbc.assembly import (DiscreteSolution, assemble_bordered_system,
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
from stokesbc.fe_spaces import (build_dofmap, edge_trace_nodes,
                                edge_trace_values, pairing_from_name)
from stokesbc.manufactured import (SingularSolution, eval_pressure,
                                   eval_velocity, eval_velocity_gradient,
                                   exact_fields, velocity_from_polar)
from stokesbc.mesh import Mesh, build_domain, refine_uniform
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
    offsets = mesh.boundary_edge_offsets()
    lengths = mesh.boundary_edge_lengths()

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


def reference_local_matrices(tri_xy, grad_v, vals_p, qw):
    nt = len(tri_xy)
    grad_v = np.broadcast_to(grad_v, (nt,) + grad_v.shape[-3:])
    vals_p = np.broadcast_to(vals_p, (nt,) + vals_p.shape[-2:])
    detj, invjt = _kernels.affine_jacobians(tri_xy)
    g = np.einsum("tde,tqie->tqid", invjt, grad_v)
    kloc = np.einsum("q,tqid,tqjd,t->tij", qw, g, g, detj)
    dloc = np.einsum("q,tqi,tqjc,t->tcij", qw, vals_p, g, detj)
    return kloc, dloc, detj


def reference_l2(coef, vals_v, wdet, exact):
    vals_v = np.broadcast_to(vals_v, (len(coef),) + vals_v.shape[-2:])
    diff = np.einsum("nqi,nic->nqc", vals_v, coef) - exact
    return np.einsum("nq,nqc->", wdet, diff ** 2)


def reference_h1(coef, grad_v, invjt, wdet, exact_grad):
    grad_v = np.broadcast_to(grad_v, (len(coef),) + grad_v.shape[-3:])
    gref = np.einsum("nqie,nic->nqce", grad_v, coef)
    diff = np.einsum("nde,nqce->nqcd", invjt, gref) - exact_grad
    return np.einsum("nq,nqcd->", wdet, diff ** 2)


@PROPERTY
@given(n=st.integers(1, 40), nq=st.integers(1, 16),
       nl=st.sampled_from([3, 4, 6]), shared=st.booleans(), seed=seeds)
def test_kernels_match_einsum_references(n, nq, nl, shared, seed):
    rng = np.random.default_rng(seed)
    table = () if shared else (n,)
    tri_xy = rng.standard_normal((n, 3, 2))
    grad_v = rng.standard_normal(table + (nq, nl, 2))
    vals_v = rng.standard_normal(table + (nq, nl))
    vals_p = rng.standard_normal(table + (nq, 3))
    qw = rng.random(nq)
    coef = rng.standard_normal((n, nl, 2))
    wdet = rng.random((n, nq))
    invjt = rng.standard_normal((n, 2, 2))

    got = _kernels.local_matrices(tri_xy, grad_v, vals_p, qw)
    for value, ref in zip(got, reference_local_matrices(tri_xy, grad_v,
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
