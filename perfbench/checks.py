"""Correctness checks of a round.

Every check is a property the method must have or a value computed apart
from the program; none compares against stored output.  The tolerances are
listed in README.md and hold on every seed.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_TOL = 1e-10        # the solver's own documented tolerance
DIVERGENCE_TOL = 1e-10      # (div y_h, 1) = <u_h, n>
FLUX_TOL = 1e-12            # corrected traces, delta_h, exact datum flux
COUNTEREXAMPLE_TOL = 1e-14  # 3/16 and 1/8, a few units in the last place
BEST_APPROX_RTOL = 1e-10    # L2 projection distance <= any other trace
L2_ORDER_TOL = 0.25         # final L2 eoc - (xi + min(alpha, k))
H1_ORDER_TOL = 0.06         # min(alpha, xi) - final H1 eoc
TRACE_ORDER_TOL = 0.05      # |final trace eoc - min(alpha + 1/2, k + 1)|
TRACE_ORDER_LEVEL = 6       # from here the trace eoc is bounded from above

OMEGA = {"convex": 2 * math.pi / 3, "nonconvex": 3 * math.pi / 2}


def xi_root(omega: float) -> float:
    """First root in (1/2, 1) of sin(xi omega) + xi sin(omega) = 0."""
    from scipy.optimize import brentq

    return brentq(lambda x: math.sin(x * omega) + x * math.sin(omega),
                  0.5, 1.0, xtol=1e-15)


class Checks:
    """Collects check outcomes; a round is correct when none failed."""

    def __init__(self):
        self.count = 0
        self.failures = []

    def expect(self, ok: bool, what: str):
        self.count += 1
        if not ok:
            self.failures.append(what)


def check_solve(checks: Checks, config, system, y_h):
    """Residual, divergence identity and fluxes of one solved level."""
    from stokesbc.assembly import assemble_divergence, boundary_flux
    from stokesbc.boundary_data import datum_flux, trace_of_solution
    from stokesbc.manufactured import SingularSolution

    dm, mesh = system.dofmap, system.mesh
    tag = f"{config} level h={mesh.h:.4g}"
    x = np.concatenate([[y_h.delta_h], y_h.velocity[dm.interior_dofs, 0],
                        y_h.velocity[dm.interior_dofs, 1], y_h.pressure])
    rhs = system.rhs()
    rel = np.linalg.norm(rhs - system.matrix() @ x) / np.linalg.norm(rhs)
    checks.expect(rel <= RESIDUAL_TOL, f"{tag}: relative residual {rel:.2e}")

    v = np.concatenate([y_h.velocity[:, 0], y_h.velocity[:, 1]])
    div = float((assemble_divergence(mesh, dm) @ v).sum())
    flux = boundary_flux(system.boundary_values, mesh, dm)
    checks.expect(abs(div - flux) <= DIVERGENCE_TOL,
                  f"{tag}: (div y_h, 1) - <u_h, n> = {div - flux:.2e}")
    if config.compat != "off":
        checks.expect(abs(flux) <= FLUX_TOL,
                      f"{tag}: corrected trace flux {flux:.2e}")
    datum = trace_of_solution(mesh.polygon, SingularSolution(
        config.alpha_sing, OMEGA[config.domain]))
    exact = datum_flux(datum, mesh)
    checks.expect(abs(exact) <= FLUX_TOL,
                  f"{tag}: exact datum flux {exact:.2e}")


def check_records(checks: Checks, config, records, orders: bool):
    """delta_h of corrected data and, for the canonical study, the orders."""
    if config.compat != "off":
        for r in records:
            checks.expect(abs(r.delta_h) <= FLUX_TOL,
                          f"{config} level {r.level}: delta_h {r.delta_h:.2e}")
    if not orders:
        return
    k = 2 if config.pairing == "taylor_hood" else 1
    xi = xi_root(OMEGA[config.domain])
    l2_target = xi + min(config.alpha_sing, k)
    l2 = [r.eoc_l2_velocity for r in records[1:]]
    # the pre-asymptotic level-2 value sits below level 3; descent starts there
    descending = all(a > b for a, b in zip(l2[1:], l2[2:]))
    checks.expect(descending and min(l2) > l2_target
                  and l2[-1] - l2_target <= L2_ORDER_TOL,
                  f"{config}: L2 eoc {l2} must descend to {l2_target:.4f} "
                  f"from above, within {L2_ORDER_TOL}")
    h1_target = min(config.alpha_sing, xi)
    h1 = [r.eoc_h1_velocity for r in records[1:]]
    ascending = all(a < b for a, b in zip(h1, h1[1:]))
    checks.expect(ascending and max(h1) < h1_target
                  and h1_target - h1[-1] <= H1_ORDER_TOL,
                  f"{config}: H1 eoc {h1} must rise to {h1_target:.4f} "
                  f"from below, within {H1_ORDER_TOL}")


def check_trace_level(checks: Checks, tag: str, exact_flux: float,
                      corrected_fluxes, distances: dict):
    """Fluxes and best approximation on one level of the trace study."""
    checks.expect(abs(exact_flux) <= FLUX_TOL,
                  f"{tag}: exact datum flux {exact_flux:.2e}")
    for name, flux in corrected_fluxes.items():
        checks.expect(abs(flux) <= FLUX_TOL,
                      f"{tag}: {name} corrected flux {flux:.2e}")
    best = distances["l2"]
    for name, d in distances.items():
        checks.expect(best <= d * (1 + BEST_APPROX_RTOL),
                      f"{tag}: L2 projection distance {best:.6e} exceeds "
                      f"{name} distance {d:.6e}")


def check_trace_orders(checks: Checks, tag: str, alpha: float, k: int,
                       coarse: dict, fine: dict, level: int):
    """Final trace-distance eoc of every variant against min(a + 1/2, k + 1).

    No variant may converge slower than predicted.  From level
    TRACE_ORDER_LEVEL on, the L2 projection and the Lagrange interpolant,
    raw and corrected, must also be within the tolerance above it; the
    weighted average approaches from above too slowly on the P1 trace
    (eoc still 0.1 high at level 7 for alpha = 0.7) to bound that side.
    """
    target = min(alpha + 0.5, k + 1)
    for name in fine:
        rate = math.log2(coarse[name] / fine[name])
        upper = (level >= TRACE_ORDER_LEVEL
                 and not name.startswith("carstensen"))
        ok = rate >= target - TRACE_ORDER_TOL and (
            not upper or rate <= target + TRACE_ORDER_TOL)
        checks.expect(ok, f"{tag}: {name} trace eoc {rate:.4f}, expected "
                          f"{target:.4f} {'+-' if upper else '-'} "
                          f"{TRACE_ORDER_TOL}")


def check_counterexample(checks: Checks):
    from stokesbc.cli import run_counterexample

    r = run_counterexample()
    for name, value, exact in (("exact", r.flux_exact, 0.0),
                               ("L2", r.flux_l2, 3 / 16),
                               ("weighted average", r.flux_carstensen, 1 / 8)):
        checks.expect(abs(value - exact) <= COUNTEREXAMPLE_TOL,
                      f"counterexample {name} flux {value!r} != {exact}")
