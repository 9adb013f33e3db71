"""Acceptance suite: one test per criterion, one printed verdict line each.

The convergence studies are cached at module scope so criteria that share a
configuration reuse the same run.  Expected orders and reference values are
asserted at the tolerances fixed below; nothing is calibrated at run time.
"""

import functools

import numpy as np
import pytest

from stokesbc.assembly import (assemble_bordered_system,
                               assemble_boundary_mass, assemble_divergence,
                               boundary_flux, compute_delta_h)
from stokesbc.boundary_data import (BoundaryDatum, project_l2,
                                    trace_of_solution)
from stokesbc.cli import StudyConfig, run_convergence, run_counterexample
from stokesbc.fe_spaces import MINI, TAYLOR_HOOD, build_dofmap
from stokesbc.manufactured import (SingularSolution, eval_pressure,
                                   eval_velocity, solve_xi)
from stokesbc.mesh import build_domain, refine_uniform, unit_square
from stokesbc.solver import solve


@functools.lru_cache(maxsize=None)
def study(domain, alpha, pairing="taylor_hood", compat="off", levels=6):
    config = StudyConfig(domain=domain, alpha_sing=alpha, pairing=pairing,
                         compat=compat, levels=levels)
    return run_convergence(config)


def verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_counterexample_exactness():
    report = run_counterexample()
    err_l2 = abs(report.flux_l2 - 3 / 16)
    err_ca = abs(report.flux_carstensen - 1 / 8)
    err_ex = abs(report.flux_exact)
    ok = err_l2 <= 1e-12 and err_ca <= 1e-12 and err_ex <= 1e-12
    assert verdict("01 counterexample-exactness", ok,
                   f"|flux_l2-3/16|={err_l2:.1e}, "
                   f"|flux_carstensen-1/8|={err_ca:.1e}, "
                   f"|flux_exact|={err_ex:.1e}")


def test_criterion_02_boundary_mass_matrix():
    mesh = unit_square()
    dofmap = build_dofmap(mesh, MINI)
    matrix = assemble_boundary_mass(mesh, dofmap).toarray()
    expected = np.array([[4, 1, 0, 1],
                         [1, 4, 1, 0],
                         [0, 1, 4, 1],
                         [1, 0, 1, 4]]) / 6.0
    dev = np.abs(matrix - expected).max()
    ok = dev == 0.0
    assert verdict("02 boundary-mass-matrix", ok, f"max deviation={dev:.1e}")


def test_criterion_03_manufactured_oracle():
    worst = 0.0
    h = 1e-5
    for omega in (2 * np.pi / 3, 3 * np.pi / 2):
        for alpha in (0.5, 0.1, -0.1, -0.499):
            sol = SingularSolution(alpha, omega)
            rng = np.random.default_rng(0)
            for _ in range(20):
                r = rng.uniform(0.3, 0.9)
                t = rng.uniform(0.05, omega - 0.05)
                x, y = r * np.cos(t), r * np.sin(t)
                lap = np.zeros(2)
                scale = 0.0
                for dx, dy in ((h, 0.0), (0.0, h)):
                    second = (eval_velocity(sol, [x + dx, y + dy])
                              + eval_velocity(sol, [x - dx, y - dy])
                              - 2 * eval_velocity(sol, [x, y])) / h ** 2
                    lap += second
                    scale += np.abs(second).sum()
                grad_p = np.array([
                    eval_pressure(sol, [x + h, y])
                    - eval_pressure(sol, [x - h, y]),
                    eval_pressure(sol, [x, y + h])
                    - eval_pressure(sol, [x, y - h])]) / (2 * h)
                scale += np.abs(grad_p).sum()
                worst = max(worst, np.abs(-lap + grad_p).max() / scale)
                dudx = (eval_velocity(sol, [x + h, y])
                        - eval_velocity(sol, [x - h, y])) / (2 * h)
                dudy = (eval_velocity(sol, [x, y + h])
                        - eval_velocity(sol, [x, y - h])) / (2 * h)
                div = abs(dudx[0] + dudy[1])
                gscale = np.abs(dudx).sum() + np.abs(dudy).sum()
                worst = max(worst, div / gscale)
    ok = worst <= 1e-4
    assert verdict("03 manufactured-oracle", ok,
                   f"worst relative residual={worst:.2e} <= 1e-4")


def test_criterion_04_singularity_exponent():
    xi = solve_xi(3 * np.pi / 2)
    ok = 0.5435 <= xi <= 0.5455
    assert verdict("04 singularity-exponent", ok,
                   f"xi(3pi/2)={xi:.6f} in [0.5435, 0.5455]")


@pytest.mark.parametrize("alpha,target", [
    (0.5, 1.5), (0.1, 1.1), (-0.1, 0.9), (-0.499, 0.501)])
def test_criterion_05_convex_orders(alpha, target):
    records = study("convex", alpha)
    final = records[-1].eoc_l2_velocity
    ok = abs(final - target) <= 0.05
    assert verdict(f"05 convex-order alpha={alpha}", ok,
                   f"final eoc={final:.4f}, expected {target}+-0.05")


def test_criterion_06_nonconvex_orders():
    records = study("nonconvex", 0.5)
    eocs = [r.eoc_l2_velocity for r in records if r.eoc_l2_velocity]
    final = eocs[-1]
    descending = eocs[-3] > eocs[-2] > eocs[-1] > 1.0445
    ok_05 = abs(final - 1.0445) <= 0.15 and descending
    records = study("nonconvex", -0.499)
    final_vw = records[-1].eoc_l2_velocity
    ok_vw = abs(final_vw - 0.0445) <= 0.05
    assert verdict(
        "06 nonconvex-orders", ok_05 and ok_vw,
        f"alpha=0.5: final eoc={final:.4f} (1.0445+-0.15), last three "
        f"{[f'{e:.4f}' for e in eocs[-3:]]} descending={descending}; "
        f"alpha=-0.499: final eoc={final_vw:.4f} (0.0445+-0.05)")


def test_criterion_07_energy_norm_order():
    records = study("convex", 0.5)
    final = records[-1].eoc_h1_velocity
    ok = abs(final - 0.5) <= 0.1
    assert verdict("07 energy-norm-order", ok,
                   f"final H1 eoc={final:.4f}, expected 0.5+-0.1")


def test_criterion_08_compatibility_variant_agreement():
    plain = study("convex", 0.5)
    fixed = study("convex", 0.5, compat="affine_field")
    rel = max(abs(p.err_l2_velocity - f.err_l2_velocity)
              / p.err_l2_velocity for p, f in zip(plain, fixed))
    ok = rel <= 1e-6
    assert verdict("08 compat-variant-agreement", ok,
                   f"max relative e_h difference={rel:.2e} <= 1e-6")


def test_criterion_09_defect_decay():
    # the study datum on the ray-symmetric domains has a defect that cancels
    # to round-off; assert it never grows past a round-off floor and, on an
    # asymmetric compatible datum, that the decay is genuinely monotone
    records = study("nonconvex", 0.5)
    deltas = [abs(r.delta_h) for r in records]
    floor = 1e-12
    ok_study = all(d <= max(prev, floor) for prev, d in zip(deltas,
                                                            deltas[1:]))
    ok_study = ok_study and deltas[-1] < 1e-3

    mesh = build_domain("nonconvex")

    def evaluate(edge, s):
        p = mesh.polygon.point_on_edge(edge, s)
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([x ** 3 + np.exp(x) * np.cos(y),
                                -3 * x ** 2 * y - np.exp(x) * np.sin(y)])

    datum = BoundaryDatum(evaluate)
    decayed = []
    for _ in range(6):
        mesh = refine_uniform(mesh)
        dofmap = build_dofmap(mesh, TAYLOR_HOOD)
        u_h = project_l2(datum, mesh, dofmap)
        decayed.append(abs(compute_delta_h(u_h, mesh, dofmap)))
    ok_asym = all(b < a for a, b in zip(decayed, decayed[1:]))
    ok_asym = ok_asym and decayed[-1] < 1e-3
    assert verdict(
        "09 defect-decay", ok_study and ok_asym,
        f"study |delta| max={max(deltas):.1e} (symmetric cancellation), "
        f"asymmetric datum decay {decayed[0]:.1e}->{decayed[-1]:.1e} "
        f"monotone={ok_asym}")


def test_criterion_10_system_equivalence():
    from stokesbc.cli import counterexample_datum
    worst_sol = 0.0
    worst_delta = 0.0
    cases = []
    mesh = refine_uniform(refine_uniform(unit_square()))
    dofmap = build_dofmap(mesh, TAYLOR_HOOD)
    cases.append((mesh, dofmap,
                  project_l2(counterexample_datum(), mesh, dofmap)))
    mesh = refine_uniform(refine_uniform(build_domain("nonconvex")))
    dofmap = build_dofmap(mesh, TAYLOR_HOOD)
    sol = SingularSolution(0.5, 3 * np.pi / 2)
    cases.append((mesh, dofmap,
                  project_l2(trace_of_solution(mesh.polygon, sol),
                             mesh, dofmap)))
    for mesh, dofmap, u_h in cases:
        solutions = []
        for alpha_reg in (0.0, 1.0):
            system = assemble_bordered_system(mesh, dofmap, u_h,
                                              alpha_reg=alpha_reg)
            discrete, _ = solve(system)
            y0 = np.concatenate([
                discrete.velocity[dofmap.interior_dofs, 0],
                discrete.velocity[dofmap.interior_dofs, 1]])
            direct = compute_delta_h(u_h, mesh, dofmap)
            worst_delta = max(worst_delta,
                              abs(system.recovered_delta(y0) - direct),
                              abs(discrete.delta_h - direct))
            solutions.append(discrete)
        scale = max(np.abs(solutions[0].velocity).max(),
                    np.abs(solutions[0].pressure).max())
        dev = max(np.abs(solutions[0].velocity
                         - solutions[1].velocity).max(),
                  np.abs(solutions[0].pressure
                         - solutions[1].pressure).max())
        worst_sol = max(worst_sol, dev / scale)
    ok = worst_sol <= 1e-9 and worst_delta <= 1e-10
    assert verdict("10 system-equivalence", ok,
                   f"alpha_reg 0 vs 1 relative deviation={worst_sol:.1e} "
                   f"<= 1e-9, delta identity deviation={worst_delta:.1e} "
                   f"<= 1e-10")


def test_criterion_11_discrete_divergence_identity():
    worst = 0.0
    for domain in ("convex", "nonconvex"):
        omega = 2 * np.pi / 3 if domain == "convex" else 3 * np.pi / 2
        for pairing in (TAYLOR_HOOD, MINI):
            for alpha in (0.5, -0.499):
                mesh = build_domain(domain)
                for _ in range(2):
                    mesh = refine_uniform(mesh)
                dofmap = build_dofmap(mesh, pairing)
                datum = trace_of_solution(mesh.polygon,
                                          SingularSolution(alpha, omega))
                u_h = project_l2(datum, mesh, dofmap)
                system = assemble_bordered_system(mesh, dofmap, u_h)
                discrete, _ = solve(system)
                div_matrix = assemble_divergence(mesh, dofmap)
                v = np.concatenate([discrete.velocity[:, 0],
                                    discrete.velocity[:, 1]])
                lhs = (div_matrix @ v).sum()
                rhs = boundary_flux(u_h.coefficients, mesh, dofmap)
                worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    assert verdict("11 discrete-divergence-identity", ok,
                   f"max |(div y_h, 1) - <u_h, n>|={worst:.1e} <= 1e-10")


def test_criterion_12_mini_element_order():
    records = study("convex", 0.5, pairing="mini")
    final = records[-1].eoc_l2_velocity
    ok = final >= 1.3
    assert verdict("12 mini-element-order", ok,
                   f"final eoc={final:.4f} >= 1.3")
