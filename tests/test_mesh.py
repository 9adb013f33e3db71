import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stokesbc import boundary_data as bd
from stokesbc import mesh as mesh_module
from stokesbc.assembly import boundary_flux
from stokesbc.fe_spaces import build_dofmap, pairing_from_name
from stokesbc.manufactured import SingularSolution
from stokesbc.mesh import (Mesh, Polygon, build_domain, refine_uniform,
                           unit_square)


@pytest.fixture(params=["convex", "nonconvex"])
def domain(request):
    return build_domain(request.param)


def test_nonconvex_shape():
    mesh = build_domain("nonconvex")
    assert mesh.polygon.n_edges == 6
    assert mesh.polygon.corner_angle == 3 * np.pi / 2
    assert np.allclose(mesh.vertices[0], [0.0, 0.0])
    # interior angle at the origin: first edge along +x, last edge along -y
    assert np.allclose(mesh.polygon.edge_vectors[0], [1.0, 0.0])
    assert np.allclose(mesh.polygon.edge_vectors[-1], [0.0, 1.0])


def test_convex_shape():
    mesh = build_domain("convex")
    assert mesh.polygon.n_edges == 3
    assert np.allclose(mesh.polygon.vertices[2],
                       [np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)])
    assert mesh.polygon.corner_angle == 2 * np.pi / 3


def test_nonconvex_edge_normal():
    mesh = build_domain("nonconvex")
    # polygon edge from (1,0) to (1,1) has outward normal (1,0)
    assert np.allclose(mesh.polygon.edge_normals[1], [1.0, 0.0])


@pytest.mark.parametrize("mesh", [build_domain("convex"),
                                  build_domain("nonconvex"), unit_square()],
                         ids=["convex", "nonconvex", "unit_square"])
def test_polygon_vertices_are_read_only(mesh):
    with pytest.raises(ValueError):
        mesh.polygon.vertices[1, 0] = 2.0


def test_polygon_keeps_its_own_vertices():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    polygon = Polygon(vertices)
    vertices[1, 0] = 2.0
    assert polygon.area == 0.5


def test_polygon_first_edge_must_run_along_positive_x():
    with pytest.raises(ValueError, match="x-axis"):
        Polygon(np.array([[0.0, 0.0], [1.0, 1e-300], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="x-axis"):
        Polygon(np.array([[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]))


def test_polygon_vertex_0_must_be_exactly_the_origin():
    with pytest.raises(ValueError, match="origin"):
        Polygon(np.array([[1e-300, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_unit_square_corner_angle():
    assert unit_square().polygon.corner_angle == np.pi / 2


def refined(mesh, level):
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


COARSE = {"convex": lambda: build_domain("convex"),
          "nonconvex": lambda: build_domain("nonconvex"),
          "unit_square": unit_square}


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("name", sorted(COARSE))
def test_declared_boundary_is_the_true_boundary(name, level):
    mesh = refined(COARSE[name](), level)
    # the edges of exactly one triangle, each in that triangle's orientation
    directed = [(int(t[k]), int(t[(k + 1) % 3]))
                for t in mesh.triangles for k in range(3)]
    count = Counter(frozenset(e) for e in directed)
    assert sorted(e for e in directed if count[frozenset(e)] == 1) == \
        sorted(map(tuple, mesh.boundary_edges.tolist()))
    # both ends of each boundary edge lie on its parent polygon edge
    poly = mesh.polygon
    start = poly.vertices[mesh.boundary_parent]
    tangent = (poly.edge_vectors / poly.edge_lengths[:, None])[
        mesh.boundary_parent]
    for end in mesh.boundary_edges.T:
        rel = mesh.vertices[end] - start
        along = np.einsum("ec,ec->e", rel, tangent)
        across = rel[:, 0] * tangent[:, 1] - rel[:, 1] * tangent[:, 0]
        assert np.all(np.abs(across) <= 1e-12)
        assert np.all(along >= -1e-12)
        assert np.all(along <= poly.edge_lengths[mesh.boundary_parent]
                      + 1e-12)


def test_mesh_rejects_a_rolled_boundary(domain):
    mesh = refine_uniform(domain)
    with pytest.raises(ValueError, match="boundary edge 0"):
        Mesh(mesh.polygon, mesh.vertices, mesh.triangles,
             np.roll(mesh.boundary_edges, 1, axis=0),
             np.roll(mesh.boundary_parent, 1))


def test_mesh_rejects_vertex_0_off_the_origin(domain):
    mesh = refine_uniform(domain)
    vertices = mesh.vertices.copy()
    vertices[0] = [1e-15, 0.0]
    with pytest.raises(ValueError, match="origin"):
        Mesh(mesh.polygon, vertices, mesh.triangles, mesh.boundary_edges,
             mesh.boundary_parent)


@pytest.mark.parametrize("level", range(6))
def test_cells_at_vertex_0_are_the_cells_at_the_origin(domain, level):
    mesh = refined(domain, level)
    at_origin = (np.hypot(*mesh.vertices.T) < 1e-14)[mesh.triangles]
    assert np.array_equal(mesh.triangles == 0, at_origin)


@pytest.mark.parametrize("fault", ["clockwise", "zero-area"])
@pytest.mark.parametrize("name", sorted(COARSE))
def test_mesh_rejects_a_clockwise_triangle(name, fault):
    mesh = COARSE[name]()
    triangles = mesh.triangles.copy()
    if fault == "clockwise":
        triangles[-1, [1, 2]] = triangles[-1, [2, 1]]
    else:
        triangles[-1, 2] = triangles[-1, 0]
    with pytest.raises(ValueError, match="oriented"):
        Mesh(mesh.polygon, mesh.vertices, triangles, mesh.boundary_edges,
             mesh.boundary_parent)


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("name", sorted(COARSE))
def test_geometry_is_computed_once_and_read_only(name, level):
    mesh = refined(COARSE[name](), level)
    # the formulas evaluated directly, as the reference
    p = mesh.vertices[mesh.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    b = mesh.vertices[mesh.boundary_edges]
    lengths = np.hypot(*(b[:, 1] - b[:, 0]).T)
    starts = mesh.vertices[mesh.boundary_edges[:, 0]]
    offsets = np.hypot(
        *(starts - mesh.polygon.vertices[mesh.boundary_parent]).T)
    for attr, want in (("areas", areas), ("boundary_lengths", lengths),
                       ("boundary_offsets", offsets)):
        got = getattr(mesh, attr)
        assert not got.flags.writeable
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # the polygon's geometry, cached on the polygon and read-only
    poly = mesh.polygon
    x, y = poly.vertices.T
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    vectors = np.column_stack([xn - x, yn - y])
    poly_lengths = np.hypot(xn - x, yn - y)
    normals = np.column_stack([(yn - y) / poly_lengths,
                               -((xn - x) / poly_lengths)])
    cross = x * yn - xn * y
    poly_area = 0.5 * float(np.sum(cross))
    centroid = np.array([(x + xn) @ cross, (y + yn) @ cross]) / (6 * poly_area)
    for attr, want in (("edge_vectors", vectors),
                       ("edge_lengths", poly_lengths),
                       ("edge_normals", normals), ("area", poly_area),
                       ("centroid", centroid)):
        got = getattr(poly, attr)
        assert vars(poly)[attr] is got
        assert getattr(poly, attr) is got
        if attr != "area":
            assert not got.flags.writeable
            assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # h, the largest triangle edge, is computed on the first read only
    x, y = mesh.vertices.T
    a, b, c = mesh.triangles.T
    h = max(np.max(np.hypot(x[i] - x[j], y[i] - y[j]))
            for i, j in ((a, b), (b, c), (c, a)))
    assert "h" not in vars(mesh)
    assert mesh.h is mesh.h
    assert mesh.h == h
    # the edge numbering from its definition: every edge once as (low,
    # high), in lexicographic order
    tris = mesh.triangles.tolist()
    local = [tuple(sorted((t[k], t[(k + 1) % 3]))) for t in tris
             for k in range(3)]
    edges = sorted(set(local))
    ids = {e: i for i, e in enumerate(edges)}
    bnd = [ids[tuple(sorted(e))] for e in mesh.boundary_edges.tolist()]
    for got, want in ((mesh.edges, edges),
                      (mesh.triangle_edges,
                       np.reshape([ids[e] for e in local], (-1, 3))),
                      (mesh.boundary_edge_ids, bnd)):
        assert not got.flags.writeable
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def trace_study_level(mesh):
    """Every boundary operation one level of a trace-space study runs;
    returns the dof maps it ran them on."""
    sol = SingularSolution(0.5, mesh.polygon.corner_angle)
    datum = bd.trace_of_solution(mesh.polygon, sol)
    bd.datum_flux(datum, mesh)
    dofmaps = []
    for name in ("taylor_hood", "mini"):
        dofmap = build_dofmap(mesh, pairing_from_name(name))
        dofmaps.append(dofmap)
        correctors = [bd.build_corrector(kind, mesh, dofmap)
                      for kind in ("affine_field", "projected_normal")]
        for project in (bd.project_l2, bd.interpolate_carstensen,
                        bd.interpolate_lagrange):
            u_h = project(datum, mesh, dofmap)
            bd.trace_l2_distance(datum, u_h, mesh, dofmap)
            for corrector in correctors:
                fixed = bd.enforce_compatibility(u_h, corrector, mesh, dofmap)
                bd.trace_l2_distance(datum, fixed, mesh, dofmap)
                boundary_flux(fixed, mesh, dofmap)
    return dofmaps


@pytest.mark.parametrize("level", range(7))
@pytest.mark.parametrize("name", sorted(COARSE))
def test_inverse_jacobians_are_computed_on_first_read(name, level):
    mesh = refined(COARSE[name](), level)
    # a trace-space study reads no volume geometry, so it computes none
    trace_study_level(mesh)
    assert "inverse_jacobians" not in vars(mesh)
    # the inverse transpose of J = [p1 - p0, p2 - p0] as its adjugate
    # over its determinant, twice the area: the orientation check on the
    # areas in Mesh is the only one the element maps need
    p = mesh.vertices[mesh.triangles]
    j = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    detj = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
    assert np.array_equal(detj, 2 * mesh.areas)
    adjugate_t = np.stack([j[:, 1, 1], -j[:, 1, 0],
                           -j[:, 0, 1], j[:, 0, 0]], axis=1)
    want = adjugate_t.reshape(-1, 2, 2) / detj[:, None, None]
    got = mesh.inverse_jacobians
    assert mesh.inverse_jacobians is got
    assert not got.flags.writeable
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.allclose(np.swapaxes(j, 1, 2) @ got, np.eye(2), rtol=0,
                       atol=1e-12)


@pytest.mark.parametrize("level", range(1, 5))
@pytest.mark.parametrize("name", ["convex", "nonconvex"])
def test_dofmap_volume_tables_are_built_on_first_read(name, level):
    mesh = refined(build_domain(name), level)
    tables = ("cell_pressure", "boundary_dofs", "cell_velocity",
              "boundary_mask", "interior_dofs")
    # a trace-space study works on the boundary, so it builds none of them
    for dofmap in trace_study_level(mesh):
        assert not set(tables) & set(vars(dofmap))
        # the tables from their definitions: vertex dofs first, then one
        # dof per edge (Taylor-Hood) or per cell (MINI)
        nv, nt = mesh.n_vertices, mesh.n_triangles
        boundary = [mesh.boundary_edges.ravel()]
        starts = mesh.boundary_edges[:, :1]
        if dofmap.pairing.kind == "taylor_hood":
            extra = nv + mesh.triangle_edges
            boundary.append(nv + mesh.boundary_edge_ids)
            starts = np.column_stack([starts, boundary[-1]])
        else:
            extra = nv + np.arange(nt)[:, None]
        cells = np.hstack([mesh.triangles, extra])
        mask = np.zeros(extra.max() + 1, dtype=bool)
        mask[np.concatenate(boundary)] = True
        interior = np.array([i for i, on in enumerate(mask) if not on],
                            dtype=np.intp)
        assert dofmap.n_boundary_dofs == starts.size
        for attr, want in zip(tables, (mesh.triangles, starts.ravel(), cells,
                                       mask, interior)):
            got = getattr(dofmap, attr)
            assert getattr(dofmap, attr) is got
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


VOLUME = ("vertices", "triangles", "boundary_edges", "edges",
          "triangle_edges", "boundary_edge_ids", "areas")


def assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("level", range(1, 5))
@pytest.mark.parametrize("name", ["convex", "nonconvex"])
def test_refined_mesh_builds_its_volume_on_first_read(name, level):
    parent = refined(build_domain(name), level - 1)
    counts = (parent.n_vertices + parent.n_edges, 4 * parent.n_triangles,
              2 * parent.n_edges + 3 * parent.n_triangles)
    mesh = refine_uniform(parent)
    # a trace-space study works on the boundary, so it builds no volume
    trace_study_level(mesh)
    assert not set(VOLUME) & set(vars(mesh))
    assert (mesh.n_vertices, mesh.n_triangles, mesh.n_edges) == counts
    # the first read builds every table, then lets the parent go
    released = weakref.ref(parent)
    del parent
    assert released() is not None
    eager = Mesh(mesh.polygon, mesh.vertices, mesh.triangles,
                 mesh.boundary_edges, mesh.boundary_parent)
    assert released() is None
    for attr in VOLUME:
        got = getattr(mesh, attr)
        assert vars(mesh)[attr] is got
        assert not got.flags.writeable
        assert_bit_equal(got, getattr(eager, attr))
    assert (eager.n_vertices, eager.n_triangles, eager.n_edges) == counts


def test_first_read_builds_the_volume_once_across_threads(monkeypatch):
    coarse = refined(build_domain("nonconvex"), 3)
    coarse.triangles  # built, so that only the mesh under test builds
    calls = []
    red_refinement = mesh_module._red_refinement

    def counted(mesh):
        calls.append(mesh)
        return red_refinement(mesh)

    monkeypatch.setattr(mesh_module, "_red_refinement", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the build
    try:
        for _ in range(5):
            mesh = refine_uniform(coarse)
            start = threading.Barrier(4, timeout=30)

            def read(_):
                start.wait()
                return mesh.triangles

            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(read, range(4), timeout=60))
            assert all(triangles is got[0] for triangles in got)
            assert got[0] is mesh.triangles
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 5


# tracemalloc peak of refining the L-shape to level 7 and running one
# trace-study level there: about 2.5 MB when no triangulation is built, and
# 15 MB when refinement builds every level's volume tables
TRACE_STUDY_PEAK_BYTES = 6 * 2**20


def test_a_trace_study_builds_no_volume_mesh():
    tracemalloc.start()
    try:
        trace_study_level(refined(build_domain("nonconvex"), 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TRACE_STUDY_PEAK_BYTES


def test_unknown_domain_rejected():
    with pytest.raises(ValueError):
        build_domain("pentagon")


def test_refine_counts(domain):
    fine = refine_uniform(domain)
    assert fine.n_triangles == 4 * domain.n_triangles
    assert fine.n_boundary_edges == 2 * domain.n_boundary_edges
    assert fine.h == pytest.approx(domain.h / 2, rel=1e-15)


@pytest.mark.parametrize("error", [-1, 1])
def test_first_read_checks_the_announced_edge_count(domain, error):
    # a DofMap is sized by n_edges before the volume exists, so the build
    # must not disagree with it
    fine = refine_uniform(refine_uniform(domain))
    fine.n_edges += error
    with pytest.raises(ValueError, match="announced"):
        fine.edges


def test_refine_twice_topology(domain):
    twice = refine_uniform(refine_uniform(domain))
    assert twice.n_triangles == 16 * domain.n_triangles
    assert twice.n_boundary_edges == 4 * domain.n_boundary_edges


def test_area_preserved(domain):
    area = domain.polygon.area
    mesh = domain
    for _ in range(3):
        mesh = refine_uniform(mesh)
        assert mesh.areas.sum() == pytest.approx(area, rel=1e-12)


def test_boundary_arclength_values():
    assert unit_square().boundary_lengths.sum() == pytest.approx(4.0)
    assert build_domain("nonconvex").boundary_lengths.sum() == \
        pytest.approx(8.0)


def test_boundary_arclength_refinement_invariant(domain):
    length = domain.boundary_lengths.sum()
    assert refine_uniform(domain).boundary_lengths.sum() == \
        pytest.approx(length, rel=1e-14)


def test_divergence_theorem(domain):
    # for v(x) = x: sum_e int_e x.n ds = 2|Omega|, exact with midpoint rule
    mesh = refine_uniform(domain)
    p = mesh.vertices[mesh.boundary_edges]
    mids = 0.5 * (p[:, 0] + p[:, 1])
    lengths = mesh.boundary_lengths
    total = np.sum(lengths * np.einsum("ec,ec->e", mids,
                                       mesh.boundary_normals))
    assert total == pytest.approx(2 * mesh.polygon.area, rel=1e-12)


def test_normals_inherited(domain):
    fine = refine_uniform(domain)
    expected = fine.polygon.edge_normals[fine.boundary_parent]
    assert np.allclose(fine.boundary_normals, expected)
    assert np.allclose(np.hypot(*fine.boundary_normals.T), 1.0)
    # orthogonal to the carrying edge
    p = fine.vertices[fine.boundary_edges]
    tangents = p[:, 1] - p[:, 0]
    assert np.allclose(np.einsum("ec,ec->e", tangents,
                                 fine.boundary_normals), 0.0, atol=1e-14)


def test_boundary_chain_closed(domain):
    mesh = refine_uniform(refine_uniform(domain))
    start = mesh.boundary_edges[:, 0]
    end = mesh.boundary_edges[:, 1]
    assert np.array_equal(np.roll(start, -1), end)
    # traverses the boundary exactly once
    assert len(np.unique(start)) == mesh.n_boundary_edges


def test_positive_orientation(domain):
    mesh = refine_uniform(domain)
    assert np.all(mesh.areas > 0)


def test_conformity(domain):
    # any two triangles share nothing, one vertex, or a full edge
    mesh = refine_uniform(domain)
    tris = [set(t) for t in mesh.triangles]
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            assert len(tris[i] & tris[j]) in (0, 1, 2)
    # shared pairs must be actual edges of both: count edge multiplicity
    edges = np.concatenate([mesh.triangles[:, [0, 1]],
                            mesh.triangles[:, [1, 2]],
                            mesh.triangles[:, [2, 0]]])
    key = np.sort(edges, axis=1)
    _, counts = np.unique(key, axis=0, return_counts=True)
    assert np.all(counts <= 2)
