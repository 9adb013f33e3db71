"""Approximation of a Dirichlet boundary datum in the discrete trace space.

Three approximation operators are provided:

* the L2 boundary projection (solves the boundary mass system),
* the weighted-average quasi-interpolant with coefficients
  <u, phi_j> / <1, phi_j>  (defined for rough, merely integrable data),
* Lagrange interpolation (requires point values at the boundary nodes).

None of them preserves the zero-net-flux property <u, n> = 0 of the exact
datum, so an optional correction subtracts a multiple of a fixed corrector
field w_h with nonzero flux:

    u_h  ->  u_h - lambda * w_h,   lambda = <u_h, n> / <w_h, n>,

which restores <u_h, n> = 0 without degrading the approximation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import assemble_boundary_mass, boundary_flux, edge_integrals
from .fe_spaces import (DofMap, edge_trace_nodes, edge_trace_values,
                        gauss_legendre_unit)
from .manufactured import SingularSolution, eval_velocity, velocity_from_polar
from .mesh import Mesh

__all__ = [
    "BoundaryDatum",
    "BoundaryTrace",
    "CompatibilityCorrector",
    "project_l2",
    "interpolate_carstensen",
    "interpolate_lagrange",
    "enforce_compatibility",
    "build_corrector",
    "trace_of_solution",
    "trace_l2_distance",
]

# data-side quadrature: Gauss points per (sub)segment and the number of
# dyadic subdivision levels toward the singular corner; generous defaults
# keep the data-approximation quadrature error far below discretization error
GAUSS_POINTS = 16
CORNER_LEVELS = 12


@dataclass(frozen=True)
class BoundaryDatum:
    """Boundary datum given edgewise on the polygon.

    ``evaluate(edge, s)`` returns the 2-vector value at arclength ``s``
    (vectorized over ``s``) measured from the start vertex of polygon edge
    ``edge``.  ``jumps`` lists known interior discontinuities as (edge,
    arclength) pairs so integration can split there.  Every datum is
    integrated with the rule graded into the origin corner, where the study
    data are singular.
    """

    evaluate: Callable[[int, np.ndarray], np.ndarray]
    jumps: Sequence = field(default_factory=tuple)


@dataclass
class BoundaryTrace:
    """Coefficients of a discrete vector field on the boundary trace space.

    ``coefficients`` has shape (n_boundary_dofs, 2), rows following the
    dofmap's boundary traversal order.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.ndim != 2 or self.coefficients.shape[1] != 2:
            raise ValueError("trace coefficients must have shape (nbd, 2)")


@dataclass(frozen=True)
class CompatibilityCorrector:
    """Corrector field w_h together with its exact boundary flux <w_h, n>."""

    w_h: BoundaryTrace
    flux: float


def trace_of_solution(polygon, sol: SingularSolution) -> BoundaryDatum:
    """Boundary datum = analytic trace of a singular solution.

    On the two edges meeting the corner the trace is evaluated in exact polar
    coordinates (arclength is the radius there); reconstructing the angle
    from Cartesian points would lose every digit as r -> 0.
    """
    last = polygon.n_edges - 1
    last_len = polygon.edge_lengths[last]

    def evaluate(edge, s):
        s = np.asarray(s, dtype=float)
        if edge == 0:
            return velocity_from_polar(sol, s, 0.0)
        if edge == last:
            return velocity_from_polar(sol, np.abs(last_len - s), sol.omega)
        return eval_velocity(sol, polygon.point_on_edge(edge, s))

    return BoundaryDatum(evaluate=evaluate)


def _boundary_rule(mesh: Mesh, datum: BoundaryDatum):
    """Composite Gauss rule on the whole boundary, as flat arrays.

    Returns ``(edge, t, w)``: the boundary edge of each point, its parameter
    ``t`` in [0, 1] along that edge and its arclength weight.  Boundary
    edges are cut at the declared jump points and into ``CORNER_LEVELS``
    dyadic layers on the two edges at the origin, the first and the last
    (see :class:`~stokesbc.mesh.Mesh`), for every datum: the layers resolve
    the corner singularity of the study data and cost a smooth datum only
    extra points.  Every segment gets ``GAUSS_POINTS`` points.
    """
    lengths = mesh.boundary_edge_lengths()
    offsets = mesh.boundary_edge_offsets()
    parents = mesh.boundary_parent
    every = np.arange(mesh.n_boundary_edges)
    # cuts as (boundary edge, arclength from the edge start)
    cut_edge, cut_at = [every, every], [np.zeros(len(every)), lengths]
    for je, js in datum.jumps:
        local = js - offsets
        on = ((parents == je) & (local > 1e-14 * lengths)
              & (local < lengths * (1 - 1e-14)))
        cut_edge.append(every[on])
        cut_at.append(local[on])
    # boundary edge 0 starts at the origin and the last one ends there
    dyadic = 0.5 ** np.arange(1, CORNER_LEVELS + 1)
    cut_edge.append(np.repeat(every[[0, -1]], CORNER_LEVELS))
    cut_at.append(np.concatenate([lengths[0] * dyadic,
                                  lengths[-1] * (1.0 - dyadic)]))
    cut_edge, cut_at = np.concatenate(cut_edge), np.concatenate(cut_at)
    order = np.lexsort((cut_at, cut_edge))
    cut_edge, cut_at = cut_edge[order], cut_at[order]
    # consecutive distinct cuts on one edge bound a segment
    seg = (cut_edge[1:] == cut_edge[:-1]) & (cut_at[1:] > cut_at[:-1])
    start, width = cut_at[:-1][seg], np.diff(cut_at)[seg]
    edge = np.repeat(cut_edge[:-1][seg], GAUSS_POINTS)
    xg, wg = gauss_legendre_unit(GAUSS_POINTS)
    s = (start[:, None] + width[:, None] * xg).ravel()
    return edge, s / lengths[edge], (width[:, None] * wg).ravel()


def _datum_values(datum: BoundaryDatum, mesh: Mesh, edge, t):
    """Datum at parameter ``t`` of boundary edges ``edge``.

    Calls ``datum.evaluate`` once per run of points on one polygon edge:
    ``edge`` is ordered along the boundary chain, which visits the polygon
    edges in order, so that is once per polygon edge.
    """
    parent = mesh.boundary_parent[edge]
    s = (mesh.boundary_edge_offsets()[edge]
         + t * mesh.boundary_edge_lengths()[edge])
    vals = np.empty((len(t), 2))
    cuts = [0, *(np.flatnonzero(np.diff(parent)) + 1), len(t)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        vals[lo:hi] = datum.evaluate(int(parent[lo]), s[lo:hi])
    return vals


def _edge_moments(mesh: Mesh, dofmap: DofMap, datum: BoundaryDatum):
    """Moments <u, phi_i> for every boundary trace basis function.

    Returns an (nbd, 2) array, integrated by :func:`_boundary_rule`.
    """
    edge, t, w = _boundary_rule(mesh, datum)
    vals = _datum_values(datum, mesh, edge, t)
    weighted = w[:, None] * edge_trace_values(dofmap.pairing, t)
    rows = dofmap.boundary_edge_positions[edge].ravel()
    return np.column_stack([
        np.bincount(rows, (weighted * vals[:, None, c]).ravel(),
                    minlength=dofmap.n_boundary_dofs) for c in range(2)])


def _solve_boundary_mass(rhs, mesh: Mesh, dofmap: DofMap) -> BoundaryTrace:
    """Trace whose moments <u_h, phi_i> are ``rhs`` (nbd, 2)."""
    mass = assemble_boundary_mass(mesh, dofmap).tocsc()
    try:
        lu = spla.splu(mass)
    except RuntimeError as exc:  # pragma: no cover - only on broken dofmaps
        raise ValueError("singular boundary mass matrix") from exc
    coef = lu.solve(rhs)
    resid = np.abs(mass @ coef - rhs).max()
    scale = max(np.abs(rhs).max(), 1.0)
    if resid > 1e-12 * scale:
        raise ValueError(f"boundary projection residual {resid:.3e} too large")
    return BoundaryTrace(coef)


def project_l2(u: BoundaryDatum, mesh: Mesh, dofmap: DofMap) -> BoundaryTrace:
    """Componentwise L2 boundary projection of the datum onto the trace space."""
    return _solve_boundary_mass(_edge_moments(mesh, dofmap, u), mesh, dofmap)


def interpolate_carstensen(u: BoundaryDatum, mesh: Mesh,
                           dofmap: DofMap) -> BoundaryTrace:
    """Weighted-average quasi-interpolant <u, phi_j> / <1, phi_j>.

    Well defined for merely integrable data; on the quadratic trace space the
    same formula is applied to the quadratic nodal basis, whose means
    <1, phi_j> stay positive on 1D edges.  The means are exact
    (:func:`edge_integrals`); only the moments use the boundary rule.
    """
    means = edge_integrals(np.ones((mesh.n_boundary_edges, 1)), mesh, dofmap)
    return BoundaryTrace(_edge_moments(mesh, dofmap, u) / means)


def interpolate_lagrange(u: BoundaryDatum, mesh: Mesh,
                         dofmap: DofMap) -> BoundaryTrace:
    """Pointwise interpolation at the boundary nodal points.

    Requires the datum to be continuous at every node; evaluation at a
    declared jump location is rejected.  Each node is evaluated once, on
    the boundary edge it starts.
    """
    params = edge_trace_nodes(dofmap.pairing)
    edge = np.repeat(np.arange(mesh.n_boundary_edges), len(params))
    t = np.tile(params, mesh.n_boundary_edges)
    s = (mesh.boundary_edge_offsets()[edge]
         + t * mesh.boundary_edge_lengths()[edge])
    for je, js in u.jumps:
        if np.any((mesh.boundary_parent[edge] == je)
                  & (np.abs(s - js) < 1e-12)):
            raise ValueError("datum has a jump at a boundary node; "
                             "Lagrange interpolation is not defined")
    starts = t < 1.0
    coef = np.zeros((dofmap.n_boundary_dofs, 2))
    coef[dofmap.boundary_edge_positions[:, :-1].ravel()] = _datum_values(
        u, mesh, edge[starts], t[starts])
    return BoundaryTrace(coef)


def enforce_compatibility(u_h: BoundaryTrace,
                          corrector: CompatibilityCorrector, mesh: Mesh,
                          dofmap: DofMap) -> BoundaryTrace:
    """Remove the net boundary flux of ``u_h`` with the corrector field.

    Returns u_h - lambda * w_h with lambda = <u_h, n> / <w_h, n>, so the
    result has exactly vanishing discrete flux.
    """
    if abs(corrector.flux) < 1e-14:
        raise ValueError("corrector flux too small; correction is ill-posed")
    lam = boundary_flux(u_h.coefficients, mesh, dofmap) / corrector.flux
    return BoundaryTrace(u_h.coefficients - lam * corrector.w_h.coefficients)


def build_corrector(kind: str, mesh: Mesh,
                    dofmap: DofMap) -> CompatibilityCorrector:
    """Construct a corrector field with nonzero boundary flux.

    ``affine_field`` takes the trace of y0 = (x - centroid) / 2, whose flux
    equals the domain area by the divergence theorem; ``projected_normal``
    takes the componentwise L2 boundary projection of the outward normal,
    whose flux equals its squared boundary norm, from the exact moments of
    the edgewise-constant normal (:func:`edge_integrals`), not the rule.
    """
    if kind == "affine_field":
        trace = BoundaryTrace(
            0.5 * (dofmap.boundary_dof_points() - mesh.polygon.centroid))
    elif kind == "projected_normal":
        trace = _solve_boundary_mass(
            edge_integrals(mesh.boundary_normals, mesh, dofmap), mesh, dofmap)
    else:
        raise ValueError(f"unknown corrector kind {kind!r}")
    flux = boundary_flux(trace.coefficients, mesh, dofmap)
    if flux == 0.0:
        raise ValueError("corrector has zero flux")
    return CompatibilityCorrector(w_h=trace, flux=flux)


def datum_flux(u: BoundaryDatum, mesh: Mesh) -> float:
    """Boundary flux <u, n> of the datum itself, by composite quadrature."""
    edge, t, w = _boundary_rule(mesh, u)
    vals = _datum_values(u, mesh, edge, t)
    return float(w @ np.einsum("gc,gc->g", vals, mesh.boundary_normals[edge]))


def trace_l2_distance(u: BoundaryDatum, u_h: BoundaryTrace, mesh: Mesh,
                      dofmap: DofMap) -> float:
    """L2(boundary) distance between a datum and a discrete trace."""
    edge, t, w = _boundary_rule(mesh, u)
    approx = np.einsum("gi,gic->gc", edge_trace_values(dofmap.pairing, t),
                       u_h.coefficients[dofmap.boundary_edge_positions[edge]])
    diff = _datum_values(u, mesh, edge, t) - approx
    return float(np.sqrt(w @ (diff * diff).sum(axis=1)))
