"""Closed-form singular Stokes solutions on a corner sector.

In polar coordinates (r, theta) with theta measured counter-clockwise from
the positive x-axis into the sector [0, omega], the velocity/pressure pair

    y = (r^a Phi1(theta), r^a Phi2(theta)),   p = r^(a-1) Phip(theta)

solves the homogeneous Stokes system for every real exponent ``a``.  The
angular profiles are

    Phi1 = -sin(a t) cos w - a sin t cos(a (w - t) + t)
           + a sin(w - t) cos(a t - t) + sin(a (w - t))
    Phi2 = -sin(a t) sin w - a sin t sin(a (w - t) + t)
           - a sin(w - t) sin(a t - t)
    Phip = 2 a [sin((a - 1) t + w) + sin((a - 1) t - a w)]

The pair lies in H^(t+1/2) x H^(t-1/2) exactly for t < 1/2 + a, which makes
``a`` the regularity dial of the convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularSolution",
    "eval_velocity",
    "eval_pressure",
    "eval_velocity_gradient",
    "solve_xi",
]


@dataclass(frozen=True)
class SingularSolution:
    """Singular solution parameters: exponent and corner opening angle."""

    alpha: float
    omega: float

    def __post_init__(self):
        if not self.alpha > -1.0:
            raise ValueError("alpha must exceed -1 (velocity must be in L2)")
        if not 0.0 < self.omega < 2.0 * np.pi:
            raise ValueError("omega must lie in (0, 2*pi)")


def _polar(sol: SingularSolution, points: np.ndarray):
    """Split points into (r, theta) with theta folded into [0, omega].

    Raises for points outside the sector and, for non-positive exponents,
    for the origin itself.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(r == 0.0) and sol.alpha <= 0.0:
        raise ValueError("singular solution with alpha <= 0 evaluated at the "
                         "corner")
    # arctan2(0, 0) = 0: at the origin every defined field is angle-free
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    np.add(theta, 2.0 * np.pi, out=theta, where=theta < 0.0)
    # fold round-off exterior angles back onto the bounding rays; the angular
    # slack matches an absolute distance tolerance, so it widens like 1/r
    with np.errstate(divide="ignore"):
        tol = np.maximum(1e-12, 1e-12 / np.where(r > 0.0, r, 1.0))
    theta = np.where((theta > sol.omega) & (theta > 2.0 * np.pi - tol),
                     0.0, theta)
    theta = np.where(np.abs(theta - sol.omega) < tol, sol.omega, theta)
    if np.any(theta > sol.omega):
        raise ValueError("point outside the sector [0, omega]")
    return pts, r, theta


def _angles(sol: SingularSolution, t: np.ndarray):
    """(cos, sin) pairs of t, a t, a (w - t), w - t, a (w - t) + t, (a - 1) t.

    Six transcendental calls; the last three pairs follow by angle addition.
    """
    a, w = sol.alpha, sol.omega
    ct, st = np.cos(t), np.sin(t)
    cat, sat = np.cos(a * t), np.sin(a * t)
    u = a * (w - t)
    cu, su = np.cos(u), np.sin(u)
    cw, sw = np.cos(w), np.sin(w)
    return ((ct, st), (cat, sat), (cu, su),
            (cw * ct + sw * st, sw * ct - cw * st),
            (cu * ct - su * st, su * ct + cu * st),
            (cat * ct + sat * st, sat * ct - cat * st))


def _profiles(sol: SingularSolution, theta: np.ndarray):
    """Angular profiles Phi1, Phi2 of the module docstring."""
    return _profiles_from(sol, _angles(sol, theta))


def _profiles_from(sol: SingularSolution, angles):
    """Phi1, Phi2 from the (cos, sin) pairs of ``_angles``."""
    a, w = sol.alpha, sol.omega
    (_, st), (_, sat), (_, su), (_, s_wt), (c_in, s_in), (c_out, s_out) = \
        angles
    phi1 = -sat * np.cos(w) - a * st * c_in + a * s_wt * c_out + su
    phi2 = -sat * np.sin(w) - a * st * s_in - a * s_wt * s_out
    return phi1, phi2


def _profiles_and_derivatives(sol: SingularSolution, theta: np.ndarray):
    """Phi1, Phi2, dPhi1/dtheta, dPhi2/dtheta, cos theta and sin theta.

    The angles a (w - t) + t and (a - 1) t have derivatives 1 - a and a - 1.
    """
    a, w = sol.alpha, sol.omega
    angles = _angles(sol, theta)
    (ct, st), (cat, _), (cu, _), (c_wt, s_wt), (c_in, s_in), (c_out, s_out) \
        = angles
    phi1, phi2 = _profiles_from(sol, angles)
    dphi1 = (-a * cat * np.cos(w)
             - a * ct * c_in
             + a * (1.0 - a) * st * s_in
             - a * c_wt * c_out
             - a * (a - 1.0) * s_wt * s_out
             - a * cu)
    dphi2 = (-a * cat * np.sin(w)
             - a * ct * s_in
             - a * (1.0 - a) * st * c_in
             + a * c_wt * s_out
             - a * (a - 1.0) * s_wt * c_out)
    return phi1, phi2, dphi1, dphi2, ct, st


def velocity_from_polar(sol: SingularSolution, r, theta) -> np.ndarray:
    """Velocity from exact polar coordinates (no Cartesian round trip).

    Useful on the sector rays, where reconstructing the angle from Cartesian
    coordinates loses all accuracy as r -> 0.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), r.shape)
    if np.any(r == 0.0) and sol.alpha <= 0.0:
        raise ValueError("singular solution with alpha <= 0 evaluated at the "
                         "corner")
    if np.any((theta < 0.0) | (theta > sol.omega)):
        raise ValueError("angle outside the sector [0, omega]")
    phi1, phi2 = _profiles(sol, theta)
    ra = r ** sol.alpha
    return np.column_stack([ra * phi1, ra * phi2])


def eval_velocity(sol: SingularSolution, points) -> np.ndarray:
    """Cartesian velocity at one point (shape (2,)) or many (shape (n, 2))."""
    single = np.asarray(points, dtype=float).ndim == 1
    pts, r, theta = _polar(sol, points)
    out = velocity_from_polar(sol, r, theta)
    return out[0] if single else out


def eval_pressure(sol: SingularSolution, points):
    """Pressure at one point (scalar) or many (shape (n,))."""
    single = np.asarray(points, dtype=float).ndim == 1
    pts, r, theta = _polar(sol, points)
    a, w = sol.alpha, sol.omega
    if np.any(r == 0.0) and a < 1.0:
        raise ValueError("pressure is singular at the corner")
    phip = 2.0 * a * (np.sin((a - 1.0) * theta + w)
                      + np.sin((a - 1.0) * theta - a * w))
    out = r ** (a - 1.0) * phip
    return float(out[0]) if single else out


def eval_velocity_gradient(sol: SingularSolution, points) -> np.ndarray:
    """Jacobian d y_i / d x_j at one point ((2, 2)) or many ((n, 2, 2)).

    Chain rule through polar coordinates:
    d/dx = cos t d/dr - sin t / r d/dt,  d/dy = sin t d/dr + cos t / r d/dt.
    """
    single = np.asarray(points, dtype=float).ndim == 1
    pts, r, theta = _polar(sol, points)
    if np.any(r == 0.0) and sol.alpha < 1.0:
        raise ValueError("velocity gradient is singular at the corner")
    a = sol.alpha
    phi1, phi2, dphi1, dphi2, c, s = _profiles_and_derivatives(sol, theta)
    ra1 = r ** (a - 1.0)
    out = np.empty((len(pts), 2, 2))
    for i, (phi, dphi) in enumerate(((phi1, dphi1), (phi2, dphi2))):
        out[:, i, 0] = ra1 * (a * c * phi - s * dphi)
        out[:, i, 1] = ra1 * (a * s * phi + c * dphi)
    return out[0] if single else out


# largest omega wins; for the two study domains the corner at the origin is
# the one with the maximal interior angle, so xi is determined there
def solve_xi(omega: float) -> float:
    """Smallest root in (1/2, 1) of sin^2(lambda*omega) = lambda^2 sin^2(omega).

    Characterizes the corner regularity of the homogeneous-Dirichlet Stokes
    problem at a reentrant corner of opening ``omega``.  For a convex opening
    (omega <= pi) the exponent exceeds 1 and the value 2.0 is returned as a
    convexity flag.
    """
    if not 0.0 < omega < 2.0 * np.pi:
        raise ValueError("omega must lie in (0, 2*pi)")
    if omega <= np.pi:
        return 2.0

    def f(lam):
        return np.sin(lam * omega) ** 2 - lam ** 2 * np.sin(omega) ** 2

    # imported here: scipy.optimize adds about 0.2 s to the package import
    from scipy.optimize import brentq
    # the first sign change on a 4096-interval scan brackets the smallest root
    grid = 0.5 + 0.5 * np.arange(4097) / 4096
    values = f(grid)
    change = np.flatnonzero(values[:-1] * values[1:] <= 0.0)
    if not len(change):
        raise ValueError("no sign change of the exponent equation in (1/2, 1)")
    i = change[0]
    return float(brentq(f, grid[i], grid[i + 1], xtol=1e-15))
