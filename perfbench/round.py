"""One round of one workload, run in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N [--trace 1]
        [--levels L] [--setup-only] [--spans FILE] [--run-id ID]

A round is every operation of the workload once.  Set-up ends at the first
refinement: the parent process takes set-up time as that moment minus the
moment it started this interpreter.  Correctness checks run with the clock
paused and the tracer off; their time is left out of ``wall_s`` and
``finest_level_s``.  The last stdout line is the round's JSON record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# the package comes from this checkout's src/, never from site-packages
from stokesbc import boundary_data as bd  # noqa: E402
from stokesbc import cli, fe_spaces  # noqa: E402
from stokesbc import mesh as mesh_mod  # noqa: E402
from stokesbc.assembly import boundary_flux  # noqa: E402
from stokesbc.manufactured import SingularSolution  # noqa: E402

from checks import (Checks, check_counterexample, check_records,  # noqa: E402
                    check_solve, check_trace_level, check_trace_orders)
from tracing import NullTracer, Tracer  # noqa: E402

WORKLOADS = ("study-lshape-th", "sweep-coarse", "trace-fine")
TRACE_LEVELS = 8
PAIRINGS = ("taylor_hood", "mini")
PROJECTORS = ("l2", "carstensen", "lagrange")
COMPATS = ("off", "affine_field", "projected_normal")
CORRECTORS = COMPATS[1:]


def study_configs(workload: str, seed: int, levels: int | None):
    """The StudyConfig values of a study workload, made from the seed."""
    if workload == "study-lshape-th":
        # the canonical study: the seed does not change it
        return [cli.StudyConfig(domain="nonconvex", alpha_sing=0.5,
                            pairing="taylor_hood", projector="l2",
                            compat="off", levels=levels or 5)]
    rng = random.Random(seed)
    exponents = (rng.uniform(0.05, 0.95), rng.uniform(-0.45, -0.05))
    return [cli.StudyConfig(domain=domain, alpha_sing=alpha,
                            pairing=pairing, projector=projector,
                            compat=compat, levels=levels or 3)
            for alpha in exponents
            for domain, pairing, projector, compat in itertools.product(
                ("convex", "nonconvex"), PAIRINGS, PROJECTORS, COMPATS)
            if projector != "lagrange" or alpha > 0]


def trace_exponent(seed: int) -> float:
    return random.Random(seed).uniform(0.05, 0.95)


class SetupDone(Exception):
    """Raised at the first refinement of a set-up-only round."""


class Round:
    """Clock, operation counts, checks and tracer of one round."""

    def __init__(self, setup_only: bool, tracer):
        self.setup_only = setup_only
        self.tracer = tracer
        self.checks = Checks()
        self.setup_end = None     # time.monotonic() at the first refinement
        self.t_first = None       # perf_counter() at the first refinement
        self.paused = 0.0         # check time inside the timed region
        self.finest = 0.0
        self.attempted = 0
        self.failed = 0

    def refined(self):
        """Mark the start of a refinement; returns its perf_counter time."""
        if self.setup_end is None:
            self.setup_end = time.monotonic()
            if self.setup_only:
                raise SetupDone
            self.t_first = time.perf_counter()
        return time.perf_counter()

    @contextmanager
    def check(self):
        """Run checks with the clock paused and tracing off."""
        start = time.perf_counter()
        try:
            with self.tracer.pause():
                yield self.checks
        finally:
            self.paused += time.perf_counter() - start


def run_studies(rnd: Round, configs, orders: bool):
    """Each config through the package's study loop, cli.run_convergence.

    A level is done when the driver starts the next one or returns.  If the
    driver raises, the level in progress and every later level of that
    study count as failed.
    """
    refine, solve = cli.refine_uniform, cli.solve
    tracer = rnd.tracer
    state = {}

    def probe_refine(mesh):
        state["level_start"] = rnd.refined()
        state["paused_at_level"] = rnd.paused
        state["started"] += 1
        tracer.level = state["started"]
        return refine(mesh)

    def probe_solve(system, *args, **kwargs):
        out = solve(system, *args, **kwargs)
        with rnd.check() as checks:
            check_solve(checks, state["config"], system, out[0])
        return out

    cli.refine_uniform, cli.solve = probe_refine, probe_solve
    run = tracer.wrap(cli.run_convergence)
    try:
        for config in configs:
            state.update(config=config, started=0)
            tracer.level = 0
            rnd.attempted += config.levels
            try:
                records = run(config)
            except SetupDone:
                raise
            except Exception:
                traceback.print_exc()
                rnd.failed += config.levels - max(state["started"] - 1, 0)
                continue
            rnd.finest += (time.perf_counter() - state["level_start"]
                           - (rnd.paused - state["paused_at_level"]))
            with rnd.check() as checks:
                check_records(checks, config, records, orders)
    finally:
        cli.refine_uniform, cli.solve = refine, solve


def run_trace_study(rnd: Round, alpha: float, levels: int):
    """Trace-space approximation study on the L-shape, no volume solve.

    Each level runs the three projectors, each raw and with both flux
    correctors, for both pairings, plus the datum flux and every trace
    distance.
    """
    t = rnd.tracer.wrap
    refine = t(mesh_mod.refine_uniform)
    build_dofmap = t(fe_spaces.build_dofmap)
    build_corrector = t(bd.build_corrector)
    enforce = t(bd.enforce_compatibility)
    distance = t(bd.trace_l2_distance)
    datum_flux = t(bd.datum_flux)
    projectors = {"l2": t(bd.project_l2),
                  "carstensen": t(bd.interpolate_carstensen),
                  "lagrange": t(bd.interpolate_lagrange)}

    mesh = t(mesh_mod.build_domain)("nonconvex")
    sol = SingularSolution(alpha, 3 * np.pi / 2)
    datum = t(bd.trace_of_solution)(mesh.polygon, sol)
    previous = {}
    for level in range(1, levels + 1):
        start = rnd.refined()
        paused = rnd.paused
        rnd.tracer.level = level
        rnd.attempted += 1
        try:
            mesh = refine(mesh)
            exact_flux = datum_flux(datum, mesh)
            for name in PAIRINGS:
                pairing = fe_spaces.pairing_from_name(name)
                dofmap = build_dofmap(mesh, pairing)
                correctors = {k: build_corrector(k, mesh, dofmap)
                              for k in CORRECTORS}
                distances, fluxes = {}, {}
                for pname, project in projectors.items():
                    u_h = project(datum, mesh, dofmap)
                    distances[pname] = distance(datum, u_h, mesh, dofmap)
                    for cname, corrector in correctors.items():
                        fixed = enforce(u_h, corrector, mesh, dofmap)
                        key = f"{pname}+{cname}"
                        distances[key] = distance(datum, fixed, mesh, dofmap)
                        with rnd.check():
                            fluxes[key] = boundary_flux(fixed.coefficients,
                                                        mesh, dofmap)
                with rnd.check() as checks:
                    tag = f"trace alpha={alpha:.6f} {name} level {level}"
                    check_trace_level(checks, tag, exact_flux, fluxes,
                                      distances)
                    if level == levels and name in previous:
                        check_trace_orders(checks, tag, alpha,
                                           pairing.velocity_order,
                                           previous[name], distances, level)
                previous[name] = distances
        except Exception:  # the remaining levels need this one's mesh
            traceback.print_exc()
            rnd.failed += levels - level + 1
            break
        if level == levels:
            rnd.finest += (time.perf_counter() - start
                           - (rnd.paused - paused))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--levels", type=int,
                        help="override the workload's finest level")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="append the spans here (JSON lines)")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)
    levels = args.levels

    tracer = Tracer(args.run_id).install() if args.trace else NullTracer()
    rnd = Round(args.setup_only, tracer)
    try:
        if args.workload == "trace-fine":
            run_trace_study(rnd, trace_exponent(args.seed),
                            levels or TRACE_LEVELS)
        else:
            run_studies(rnd, study_configs(args.workload, args.seed, levels),
                        orders=args.workload == "study-lshape-th")
    except SetupDone:
        print(json.dumps({"setup_end": rnd.setup_end}))
        return 0
    wall = time.perf_counter() - rnd.t_first - rnd.paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with rnd.check() as checks:
        check_counterexample(checks)
    record = {"setup_end": rnd.setup_end, "wall_s": wall,
              "finest_level_s": rnd.finest, "peak_rss_mb": peak_rss_mb,
              "attempted": rnd.attempted, "failed": rnd.failed,
              "checks": rnd.checks.count, "failures": rnd.checks.failures}
    if args.trace:
        record["layers"] = tracer.layer_metrics()
        record["levels"] = tracer.level_table()
        if args.spans:
            tracer.write_jsonl(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
