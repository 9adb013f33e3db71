from collections import Counter

import numpy as np
import pytest

from stokesbc._kernels import affine_jacobians
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
    # the formulas the methods evaluated on every call, as the reference
    p = mesh.vertices[mesh.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    b = mesh.vertices[mesh.boundary_edges]
    lengths = np.hypot(*(b[:, 1] - b[:, 0]).T)
    starts = mesh.vertices[mesh.boundary_edges[:, 0]]
    offsets = np.hypot(
        *(starts - mesh.polygon.vertices[mesh.boundary_parent]).T)
    for method, want in ((mesh.triangle_areas, areas),
                         (mesh.boundary_edge_lengths, lengths),
                         (mesh.boundary_edge_offsets, offsets)):
        got = method()
        assert method() is got
        assert not got.flags.writeable
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("level", range(7))
@pytest.mark.parametrize("name", sorted(COARSE))
def test_jacobian_determinants_are_twice_the_areas(name, level):
    # so the area check in Mesh is the only orientation check assembly needs
    mesh = refined(COARSE[name](), level)
    detj, _ = affine_jacobians(mesh.vertices[mesh.triangles])
    assert np.array_equal(detj, 2 * mesh.triangle_areas())


def test_unknown_domain_rejected():
    with pytest.raises(ValueError):
        build_domain("pentagon")


def test_refine_counts(domain):
    fine = refine_uniform(domain)
    assert fine.n_triangles == 4 * domain.n_triangles
    assert fine.n_boundary_edges == 2 * domain.n_boundary_edges
    assert fine.h == pytest.approx(domain.h / 2, rel=1e-15)


def test_refine_twice_topology(domain):
    twice = refine_uniform(refine_uniform(domain))
    assert twice.n_triangles == 16 * domain.n_triangles
    assert twice.n_boundary_edges == 4 * domain.n_boundary_edges


def test_area_preserved(domain):
    area = domain.polygon.area
    mesh = domain
    for _ in range(3):
        mesh = refine_uniform(mesh)
        assert mesh.triangle_areas().sum() == pytest.approx(area, rel=1e-12)


def test_boundary_arclength_values():
    assert unit_square().boundary_edge_lengths().sum() == pytest.approx(4.0)
    assert build_domain("nonconvex").boundary_edge_lengths().sum() == \
        pytest.approx(8.0)


def test_boundary_arclength_refinement_invariant(domain):
    length = domain.boundary_edge_lengths().sum()
    assert refine_uniform(domain).boundary_edge_lengths().sum() == \
        pytest.approx(length, rel=1e-14)


def test_divergence_theorem(domain):
    # for v(x) = x: sum_e int_e x.n ds = 2|Omega|, exact with midpoint rule
    mesh = refine_uniform(domain)
    p = mesh.vertices[mesh.boundary_edges]
    mids = 0.5 * (p[:, 0] + p[:, 1])
    lengths = mesh.boundary_edge_lengths()
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
    assert np.all(mesh.triangle_areas() > 0)


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
