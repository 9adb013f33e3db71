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

The code evaluates the same fields in complex form.  With z = r e^(i t),
e(x) = e^(i x), g = e(w) + e(a w), h = e(a w) + e(-w), k = e(w) + e(-a w):

    y1 + i y2 = r^a [sin(a (w - t)) - e(w) sin(a t)
                     + (i a / 2) e(-a t) (h e(2 t) - g)]
    d/dz (y1 + i y2)    = (i a / 2) r^(a-1) [k e((a-1) t) + h e(-(a-1) t)]
    d/dzbar (y1 + i y2) = (i a / 2) r^(a-1) e(-(a-1) t) [(a-1) h e(2 t)
                                                        - (1 + a) g]
    p = 2 a r^(a-1) Im[k e((a-1) t)]

with d/dx = d/dz + d/dzbar and d/dy = i (d/dz - d/dzbar); product-to-sum
on the profiles gives the first line, the Wirtinger derivatives of
y1 + i y2 = (k z^a - (1 + a) g zbar^a + a h z zbar^(a-1)) i / 2 the next
two.  So a point costs two trig calls, cos(a t) and sin(a t); e(t) is
(x + i y) / r, and every other angle comes by complex multiplication, that
is by angle addition.  Each term keeps its factor a, so the fields stay
accurate relative to their size as a -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularSolution",
    "eval_velocity",
    "eval_pressure",
    "eval_velocity_gradient",
    "exact_fields",
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


def _fields(sol: SingularSolution, r, eit, at, velocity=None,
            gradient=None, pressure=None):
    """``exact_fields`` from radii ``r``, ``eit`` = e^(i t) and ``at`` = a t,
    by the complex form of the module docstring."""
    a, w = sol.alpha, sol.omega
    ew, eaw = np.exp(1j * w), np.exp(1j * a * w)
    g, h, k = ew + eaw, eaw + ew.conjugate(), ew + eaw.conjugate()
    e = np.empty(len(r), dtype=complex)  # e^(i a t): the two trig calls
    np.cos(at, out=e.real)
    np.sin(at, out=e.imag)
    ce = e.conj()
    e2 = eit * eit
    if velocity is not None:
        np.multiply(h, e2, out=velocity)
        velocity -= g
        velocity *= ce
        velocity *= 0.5j * a
        velocity += (eaw * ce).imag
        velocity -= ew * e.imag
        velocity *= r ** a
    if gradient is None and pressure is None:
        return
    e1 = e * eit.conj()  # e^(i (a - 1) t)
    ra1 = r ** (a - 1.0)
    if pressure is not None:
        np.multiply((k * e1).imag, 2.0 * a * ra1, out=pressure)
    if gradient is not None:
        ce1 = e1.conj()
        dz = k * e1  # d/dz and d/dzbar, each over (i a / 2) r^(a - 1)
        dz += h * ce1
        dzb = (a - 1.0) * h * e2
        dzb -= (1.0 + a) * g
        dzb *= ce1
        scale = 0.5j * a * ra1
        dz *= scale
        dzb *= scale
        np.add(dz, dzb, out=gradient[:, 0])
        np.subtract(dz, dzb, out=gradient[:, 1])
        gradient[:, 1] *= 1j


def exact_fields(sol: SingularSolution, points, velocity=None, gradient=None,
                 pressure=None):
    """Exact fields at Cartesian points (n, 2), written into the arrays.

    One pass for all of them: ``velocity`` (n,) complex takes y1 + i y2,
    ``gradient`` (n, 2) complex the x and y derivatives of y1 + i y2, and
    ``pressure`` (n,) real the pressure; arrays passed as None are skipped.
    """
    pts, r, theta = _polar(sol, points)
    if sol.alpha < 1.0 and np.any(r == 0.0):
        if gradient is not None:
            raise ValueError("velocity gradient is singular at the corner")
        if pressure is not None:
            raise ValueError("pressure is singular at the corner")
    # e^(i t) from the coordinates; the origin takes t = 0 like _polar
    z = np.ascontiguousarray(pts).view(complex)[:, 0]
    eit = np.divide(z, r, out=np.ones(len(r), dtype=complex), where=r > 0.0)
    _fields(sol, r, eit, sol.alpha * theta, velocity, gradient, pressure)


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
    out = np.empty(len(r), dtype=complex)
    _fields(sol, r, np.cos(theta) + 1j * np.sin(theta), sol.alpha * theta,
            velocity=out)
    return out.view(float).reshape(-1, 2)


def eval_velocity(sol: SingularSolution, points) -> np.ndarray:
    """Cartesian velocity at one point (shape (2,)) or many (shape (n, 2))."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts), dtype=complex)
    exact_fields(sol, pts, velocity=out)
    out = out.view(float).reshape(-1, 2)
    return out[0] if np.ndim(points) == 1 else out


def eval_pressure(sol: SingularSolution, points):
    """Pressure at one point (scalar) or many (shape (n,))."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts))
    exact_fields(sol, pts, pressure=out)
    return float(out[0]) if np.ndim(points) == 1 else out


def eval_velocity_gradient(sol: SingularSolution, points) -> np.ndarray:
    """Jacobian d y_i / d x_j at one point ((2, 2)) or many ((n, 2, 2))."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((len(pts), 2), dtype=complex)
    exact_fields(sol, pts, gradient=out)
    out = out.view(float).reshape(-1, 2, 2).swapaxes(1, 2)
    return out[0] if np.ndim(points) == 1 else out


# largest omega wins; for the two study domains the corner at the origin is
# the one with the maximal interior angle, so xi is determined there
def solve_xi(omega: float) -> float:
    """Root in (1/2, 1) of sin(lambda*omega) + lambda*sin(omega) = 0.

    It is the smallest root there of sin^2(lambda*omega) =
    lambda^2 sin^2(omega), which characterizes the corner regularity of the
    homogeneous-Dirichlet Stokes problem at a reentrant corner of opening
    ``omega``.  For a convex opening (omega <= pi) the exponent exceeds 1
    and the value 2.0 is returned as a convexity flag.
    """
    if not 0.0 < omega < 2.0 * np.pi:
        raise ValueError("omega must lie in (0, 2*pi)")
    if omega <= np.pi:
        return 2.0
    # imported here: scipy.optimize adds about 0.2 s to the package import
    from scipy.optimize import brentq
    # for omega in (pi, 2 pi) the ends bracket a sign change: the value is
    # sin(omega/2) (1 + cos(omega/2)) > 0 at 1/2 and 2 sin(omega) < 0 at 1
    return float(brentq(lambda lam: np.sin(lam * omega) + lam * np.sin(omega),
                        0.5, 1.0, xtol=1e-15))
