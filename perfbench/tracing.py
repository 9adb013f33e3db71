"""Span recording around calls into the stokesbc modules.

The tracer wraps every function that one stokesbc module imports from another
(``stokesbc.cli.solve``, ``stokesbc.errors.eval_velocity``, ...), found by
walking the package, plus the ``cli.PROJECTORS`` table and the
``stokesbc._kernels`` entry points.  So the package's own study loop
runs unchanged while every call that crosses a module boundary leaves a span.
Calls inside one module are not wrapped, so spans of one layer never nest
in each other and a layer's self time is its spans' durations minus the
time covered by their direct children.

Spans are kept in memory and written as JSON lines after the round ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

# The `_kernels` module is reported as the `kernels` layer: metric names must
# start with a letter or a digit.
LAYERS = ("mesh", "fe_spaces", "boundary_data", "assembly", "kernels",
          "solver", "manufactured", "errors", "cli")

KERNELS = ("local_matrices", "l2_accumulate", "h1_accumulate")
# exact-solution evaluations: their time is manufactured.eval_s, their points
# manufactured.points
POINT_EVALS = {"manufactured.eval_velocity", "manufactured.eval_pressure",
               "manufactured.eval_velocity_gradient",
               "manufactured.velocity_from_polar"}
COUNTS = ("solver.iterations", "solver.unknowns", "manufactured.points",
          "assembly.system_nnz", "kernels.local_matrices_calls",
          "boundary_data.datum_points", "mesh.triangles",
          "fe_spaces.velocity_dofs")

APPROXIMATE = {"boundary_data.project_l2",
               "boundary_data.interpolate_carstensen",
               "boundary_data.interpolate_lagrange",
               "boundary_data.build_corrector",
               "boundary_data.enforce_compatibility"}
QUADRATURE = {"boundary_data.datum_flux", "boundary_data.trace_l2_distance"}

# per-level stage table: column -> span names summed into it
STAGES = {
    "refine": {"mesh.refine_uniform"},
    "dofmap": {"fe_spaces.build_dofmap"},
    "datum": APPROXIMATE,
    "quadrature": QUADRATURE,
    "assembly": {"assembly.assemble_bordered_system"},
    "solve": {"solver.solve"},
    "L2": {"errors.l2_velocity_error"},
    "H1": {"errors.h1_seminorm_velocity_error"},
    "pressure": {"errors.l2_pressure_error"},
}


def span_name(fn) -> str:
    """``<layer>.<function>`` of a stokesbc function."""
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module.removeprefix('_')}.{fn.__name__}"


def _n_points(name, args):
    if name == "manufactured.velocity_from_polar":
        return int(np.size(args[1]))
    return int(np.size(args[1])) // 2


def _count(tracer, name, args, out):
    """Work counts recorded at the same boundaries as the spans."""
    c = tracer.counts
    if name in POINT_EVALS:
        c["manufactured.points"] += _n_points(name, args)
    elif name == "mesh.refine_uniform":
        c["mesh.triangles"] += out.n_triangles
    elif name == "fe_spaces.build_dofmap":
        c["fe_spaces.velocity_dofs"] += out.n_velocity_dofs
    elif name == "kernels.local_matrices":
        c["kernels.local_matrices_calls"] += 1
    elif name == "solver.solve":
        system, report = args[0], out[1]
        c["solver.iterations"] += report.iterations
        c["solver.unknowns"] += 1 + system.A.shape[0] + system.B.shape[0]
    elif name == "assembly.assemble_bordered_system":
        # nnz of out.matrix(): the alpha entry, the border row and column,
        # A, B and B^T
        c["assembly.system_nnz"] += (1 + 2 * len(out.s) + out.A.nnz
                                     + 2 * out.B.nnz)
    elif name == "boundary_data.trace_of_solution":
        return tracer.counting_datum(out)
    return out


class NullTracer:
    """Stands in for the tracer when tracing is off: records nothing."""

    level = 0

    def wrap(self, fn, name=None):
        return fn

    def pause(self):
        return nullcontext()


class Tracer:
    """In-memory span recorder for one round."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []   # (id, name, start, end, parent, level)
        self.stack = []
        self.level = 0
        self.counts = defaultdict(int)
        self.active = True
        self.t0 = time.perf_counter()

    def wrap(self, fn, name=None):
        """Return ``fn`` recording one span per call while active."""
        name = name or span_name(fn)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans) + len(self.stack)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, name, start, end, parent, self.level))
            return _count(self, name, args, out)
        return traced

    @contextmanager
    def pause(self):
        """Record a block as one ``bench.check`` span, with tracing off.

        The span is a child of the enclosing call, so the block's time
        counts toward no layer's self time.
        """
        sid = len(self.spans) + len(self.stack)
        parent = self.stack[-1] if self.stack else None
        self.active = False
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, "bench.check", start, time.perf_counter(),
                               parent, self.level))
            self.active = True

    def counting_datum(self, datum):
        """The datum with its evaluations counted (no span per call)."""
        evaluate = datum.evaluate

        def counted(edge, s):
            if self.active:
                self.counts["boundary_data.datum_points"] += int(np.size(s))
            return evaluate(edge, s)
        return dataclasses.replace(datum, evaluate=counted)

    def install(self):
        """Wrap the cross-module names of the stokesbc package."""
        import stokesbc
        from stokesbc import _kernels, cli

        for info in pkgutil.iter_modules(stokesbc.__path__):
            module = importlib.import_module(f"stokesbc.{info.name}")
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn)
                        and fn.__module__.startswith("stokesbc.")
                        and fn.__module__ != module.__name__):
                    setattr(module, attr, self.wrap(fn))
        for key, fn in list(cli.PROJECTORS.items()):
            cli.PROJECTORS[key] = self.wrap(fn)
        # the entry points are aliases of the numpy or numba variant
        for attr in KERNELS:
            setattr(_kernels, attr,
                    self.wrap(getattr(_kernels, attr), f"kernels.{attr}"))
        return self

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        child = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: end - start - child[sid]
                for sid, name, start, end, parent, _ in self.spans}

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the round: busy times, counts, self times."""
        dur = defaultdict(float)
        for _, name, start, end, _, _ in self.spans:
            dur[name] += end - start
        own = self.self_times()
        layer_self = defaultdict(float)
        driver_self = 0.0
        for sid, name, *_ in self.spans:
            layer_self[name.split(".")[0]] += own[sid]
            if name == "cli.run_convergence":
                driver_self += own[sid]
        m = {
            "solver.solve_s": dur["solver.solve"],
            "errors.l2_velocity_s": dur["errors.l2_velocity_error"],
            "errors.h1_velocity_s": dur["errors.h1_seminorm_velocity_error"],
            "errors.l2_pressure_s": dur["errors.l2_pressure_error"],
            "manufactured.eval_s": sum(dur[k] for k in POINT_EVALS),
            "assembly.assemble_s": dur["assembly.assemble_bordered_system"],
            "kernels.local_matrices_s": dur["kernels.local_matrices"],
            "kernels.accumulate_s": (dur["kernels.l2_accumulate"]
                                     + dur["kernels.h1_accumulate"]),
            "boundary_data.approximate_s": sum(dur[k] for k in APPROXIMATE),
            "boundary_data.quadrature_s": sum(dur[k] for k in QUADRATURE),
            "mesh.refine_s": dur["mesh.refine_uniform"],
            "fe_spaces.dofmap_s": dur["fe_spaces.build_dofmap"],
            "cli.driver_self_s": driver_self,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        out = {k: {"value": v, "unit": "s"} for k, v in m.items()}
        for key in COUNTS:
            out[key] = {"value": self.counts[key], "unit": "count"}
        return out

    def level_table(self) -> dict:
        """Per-level stage times in ms, summed over the round's studies."""
        rows = defaultdict(lambda: defaultdict(float))
        for _, name, start, end, _, level in self.spans:
            for stage, names in STAGES.items():
                if name in names:
                    rows[level][stage] += 1e3 * (end - start)
        return {level: dict(cols) for level, cols in sorted(rows.items())}

    def write_jsonl(self, path):
        with open(path, "a", encoding="utf-8") as handle:
            for sid, name, start, end, parent, level in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent,
                    "run": self.run_id, "level": level}) + "\n")
