"""Batch driver: convergence studies and the boundary-flux counterexample.

Subcommands::

    stokesbc convergence --domain nonconvex --alpha -0.499 --levels 6 ...
    stokesbc counterexample

Exit codes: 0 success, 1 configuration/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .assembly import assemble_bordered_system, boundary_flux
from .boundary_data import (BoundaryDatum, build_corrector, datum_flux,
                            enforce_compatibility, interpolate_carstensen,
                            interpolate_lagrange, project_l2,
                            trace_of_solution)
from .errors import (DEFAULT_QUAD_DEGREE, ConvergenceRecord, ErrorQuadrature,
                     eoc, expected_order, h1_seminorm_velocity_error,
                     l2_pressure_error, l2_velocity_error)
from .fe_spaces import MAX_QUAD_DEGREE, build_dofmap, pairing_from_name
from .manufactured import SingularSolution
from .mesh import build_domain, refine_uniform, unit_square
from .solver import SolveError, solve

__all__ = [
    "StudyConfig",
    "ConfigError",
    "run_convergence",
    "run_counterexample",
    "emit_table",
    "main",
]

DOMAIN_ANGLES = {"convex": 2 * np.pi / 3, "nonconvex": 3 * np.pi / 2}
PAIRINGS = ("taylor_hood", "mini")
PROJECTORS = {
    "l2": project_l2,
    "carstensen": interpolate_carstensen,
    "lagrange": interpolate_lagrange,
}
COMPAT_MODES = ("off", "affine_field", "projected_normal")
OUTPUTS = ("csv", "markdown")
# study norms in table order: ConvergenceRecord field suffix (err_*, eoc_*)
# and markdown heading
NORMS = (("l2_velocity", "e_h (L2)"), ("h1_velocity", "|grad e_h|"),
         ("l2_pressure", "e_h (pressure)"))


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one convergence study."""

    domain: str = "convex"
    alpha_sing: float = 0.5
    pairing: str = "taylor_hood"
    projector: str = "l2"
    compat: str = "off"
    levels: int = 6
    quad_degree: int = DEFAULT_QUAD_DEGREE
    alpha_reg: float = 1.0
    output: str = "markdown"

    def validate(self) -> None:
        if self.domain not in DOMAIN_ANGLES:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if not self.alpha_sing > -1.0:
            raise ConfigError("alpha must exceed -1")
        if self.pairing not in PAIRINGS:
            raise ConfigError(f"unknown element pairing {self.pairing!r}")
        if self.projector not in PROJECTORS:
            raise ConfigError(f"unknown projector {self.projector!r}")
        if self.compat not in COMPAT_MODES:
            raise ConfigError(f"unknown compat mode {self.compat!r}")
        if self.levels < 2:
            raise ConfigError("levels must be at least 2 (eoc needs two "
                              "meshes)")
        if not 1 <= self.quad_degree <= MAX_QUAD_DEGREE:
            raise ConfigError(f"quad-degree must lie in [1, "
                              f"{MAX_QUAD_DEGREE}]")
        if self.alpha_reg < 0:
            raise ConfigError("alpha-reg must be nonnegative")
        if self.output not in OUTPUTS:
            raise ConfigError(f"unknown output format {self.output!r}")
        if self.projector == "lagrange" and self.alpha_sing <= 0:
            raise ConfigError("lagrange projector needs alpha > 0 (datum "
                              "must be continuous at the boundary nodes)")


def approximate_datum(config: StudyConfig, datum: BoundaryDatum, mesh,
                      dofmap):
    """Apply the configured projector and optional flux correction."""
    u_h = PROJECTORS[config.projector](datum, mesh, dofmap)
    if config.compat != "off":
        corrector = build_corrector(config.compat, mesh, dofmap)
        u_h = enforce_compatibility(u_h, corrector, mesh, dofmap)
    return u_h


def run_convergence(config: StudyConfig) -> list[ConvergenceRecord]:
    """Refinement loop: project datum, solve, measure errors, compute eoc."""
    config.validate()
    sol = SingularSolution(alpha=config.alpha_sing,
                           omega=DOMAIN_ANGLES[config.domain])
    pairing = pairing_from_name(config.pairing)
    mesh = build_domain(config.domain)
    datum = trace_of_solution(mesh.polygon, sol)
    # the H1 and pressure errors are infinite for alpha <= 0; the norms are
    # looked up here, not at import, so that patched module names count
    norms = {"l2_velocity": l2_velocity_error}
    if config.alpha_sing > 0:
        norms.update(h1_velocity=h1_seminorm_velocity_error,
                     l2_pressure=l2_pressure_error)
    records: list[ConvergenceRecord] = []
    for level in range(1, config.levels + 1):
        mesh = refine_uniform(mesh)
        dofmap = build_dofmap(mesh, pairing)
        u_h = approximate_datum(config, datum, mesh, dofmap)
        system = assemble_bordered_system(mesh, dofmap, u_h,
                                          alpha_reg=config.alpha_reg)
        y_h, report = solve(system)
        quad = ErrorQuadrature(mesh, dofmap, quad_degree=config.quad_degree)
        errs = {name: norm(y_h, sol, quad) for name, norm in norms.items()}
        rec = ConvergenceRecord(
            level=level, h=mesh.h,
            n_dofs=2 * dofmap.n_scalar_velocity + dofmap.n_pressure + 1,
            delta_h=system.delta_target,
            solver_iterations=report.iterations,
            solver_residual=report.residual_norm,
            solver_factor_nnz=report.factor_nnz,
            **{f"err_{name}": err for name, err in errs.items()})
        if records:
            for name, err in errs.items():
                setattr(rec, f"eoc_{name}",
                        eoc(getattr(records[-1], f"err_{name}"), err))
        records.append(rec)
    return records


@dataclass(frozen=True)
class CounterexampleReport:
    """Fluxes of the two projector variants on the square counterexample."""

    flux_exact: float
    flux_l2: float
    flux_carstensen: float
    tol: float = 1e-12

    @property
    def passed(self) -> bool:
        return (abs(self.flux_exact) <= self.tol
                and abs(self.flux_l2 - 3.0 / 16.0) <= self.tol
                and abs(self.flux_carstensen - 1.0 / 8.0) <= self.tol)

    def lines(self) -> list[str]:
        def verdict(ok):
            return "PASS" if ok else "FAIL"

        items = [
            ("exact datum      <u, n>", self.flux_exact, 0.0),
            ("L2 projection    <u_h, n>", self.flux_l2, 3.0 / 16.0),
            ("weighted average <u_h, n>", self.flux_carstensen, 1.0 / 8.0),
        ]
        out = []
        for label, value, target in items:
            ok = abs(value - target) <= self.tol
            out.append(f"{label} = {value:+.15f}  expected "
                       f"{Fraction(target).limit_denominator(32)}  "
                       f"{verdict(ok)}")
        return out


def counterexample_datum() -> BoundaryDatum:
    """Square datum (1, 0) on the right half of the top edge, zero elsewhere.

    Its exact flux vanishes, yet both trace approximations acquire nonzero
    flux: 3/16 for the L2 projection and 1/8 for the weighted average.
    """

    def evaluate(edge, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros((len(s), 2))
        if edge == 2:  # top edge runs from (1,1) to (0,1); x1 = 1 - s
            out[:, 0] = (1.0 - s >= 0.5).astype(float)
        return out

    return BoundaryDatum(evaluate=evaluate, jumps=((2, 0.5),))


def run_counterexample() -> CounterexampleReport:
    """Reproduce the exact nonzero-flux values of both trace approximations."""
    mesh = unit_square()
    dofmap = build_dofmap(mesh, pairing_from_name("mini"))
    datum = counterexample_datum()
    u_l2 = project_l2(datum, mesh, dofmap)
    u_ca = interpolate_carstensen(datum, mesh, dofmap)
    return CounterexampleReport(
        flux_exact=datum_flux(datum, mesh),
        flux_l2=boundary_flux(u_l2.coefficients, mesh, dofmap),
        flux_carstensen=boundary_flux(u_ca.coefficients, mesh, dofmap))


def _columns(records: list[ConvergenceRecord], fmt: str):
    """(field, markdown heading, markdown format) of the table's columns.

    CSV has every column; markdown has those with a heading, and a norm's
    two only when some record has its error.
    """
    cols = [("level", None, None), ("h", "h", ".6f"), ("n_dofs", None, None)]
    for name, heading in NORMS:
        if fmt == "csv" or any(getattr(r, f"err_{name}") is not None
                               for r in records):
            cols += [(f"err_{name}", heading, ".4e"),
                     (f"eoc_{name}", "eoc", ".4f")]
    cols.append(("delta_h", None, None))
    return cols if fmt == "csv" else [c for c in cols if c[1]]


def emit_table(records: list[ConvergenceRecord], fmt: str,
               expected: float | None = None) -> str:
    """Render study records as CSV or a markdown table.

    The expected order, if given, goes in a last row under the first eoc.
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt not in OUTPUTS:
        raise ValueError(f"unknown table format {fmt!r}")
    cols = _columns(records, fmt)

    def cell(value, spec):
        if fmt == "markdown":
            return "-" if value is None else format(value, spec)
        if value is None:
            return ""
        return f"{value:.12e}" if isinstance(value, float) else str(value)

    rows = [[cell(getattr(r, field), spec) for field, _, spec in cols]
            for r in records]
    if expected is not None:
        rows.append(["expected"] + [
            cell(expected, spec) if field == "eoc_l2_velocity" else ""
            for field, _, spec in cols[1:]])
    if fmt == "csv":
        lines = [",".join(field for field, _, _ in cols)]
        lines += [",".join(row) for row in rows]
    else:
        lines = ["| " + " | ".join(head for _, head, _ in cols) + " |",
                 "|" + "---|" * len(cols)]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _read_config_file(path: str) -> dict:
    """Plain key=value configuration file; blank lines and # comments allowed."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokesbc",
        description="Stokes convergence studies with trace-space boundary "
                    "data")
    sub = parser.add_subparsers(dest="command", required=True)
    conv = sub.add_parser("convergence", help="run a refinement study")
    conv.add_argument("--config", help="key=value config file (flags win)")
    conv.add_argument("--domain", choices=tuple(DOMAIN_ANGLES))
    conv.add_argument("--alpha", type=float, dest="alpha_sing")
    conv.add_argument("--element", choices=PAIRINGS, dest="pairing")
    conv.add_argument("--projector", choices=tuple(PROJECTORS))
    conv.add_argument("--compat", choices=COMPAT_MODES)
    conv.add_argument("--levels", type=int)
    conv.add_argument("--quad-degree", type=int, dest="quad_degree")
    conv.add_argument("--alpha-reg", type=float, dest="alpha_reg")
    conv.add_argument("--output", choices=OUTPUTS)
    conv.add_argument("--out", help="write the table to a file")
    ce = sub.add_parser("counterexample",
                        help="run the boundary-flux counterexample")
    ce.add_argument("--out", help="write the report to a file")
    return parser


def _config_from_args(args) -> StudyConfig:
    config = StudyConfig()
    if args.config:
        try:
            file_values = _read_config_file(args.config)
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: "
                              f"{exc}") from exc
        fields = {f: type(getattr(config, f)) for f in config.__dataclass_fields__}
        unknown = set(file_values) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cast = {}
        for key, value in file_values.items():
            try:
                cast[key] = fields[key](value)
            except ValueError as exc:
                raise ConfigError(f"{args.config}: bad value for {key}: "
                                  f"{value!r}") from exc
        config = replace(config, **cast)
    overrides = {k: v for k, v in vars(args).items()
                 if k in config.__dataclass_fields__ and v is not None}
    return replace(config, **overrides)


def _check_writable(path: str) -> None:
    """Raise OSError unless ``path`` can be opened for writing.

    Append mode neither truncates an existing file nor keeps a new one: a
    file the check creates is removed again.
    """
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage or help
        return 0 if exc.code == 0 else 1
    out_path = getattr(args, "out", None)
    try:
        if out_path:
            _check_writable(out_path)  # before the run, not after it
        if args.command == "counterexample":
            report = run_counterexample()
            text = "\n".join(report.lines()) + "\n"
        else:
            config = _config_from_args(args)
            records = run_convergence(config)
            target = expected_order(
                config.alpha_sing, DOMAIN_ANGLES[config.domain],
                pairing_from_name(config.pairing).velocity_order)
            text = emit_table(records, config.output, expected=target)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolveError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.command == "counterexample" and not report.passed:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
