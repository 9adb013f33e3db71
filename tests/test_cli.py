import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stokesbc import _kernels, assembly, cli, fe_spaces
from stokesbc import boundary_data as bd
from stokesbc import mesh as mesh_mod
from stokesbc.assembly import compute_delta_h
from stokesbc.boundary_data import trace_of_solution
from stokesbc.cli import (ConfigError, StudyConfig, approximate_datum,
                          emit_table, main, run_convergence,
                          run_counterexample)
from stokesbc.errors import ConvergenceRecord
from stokesbc.fe_spaces import build_dofmap, pairing_from_name
from stokesbc.manufactured import SingularSolution
from stokesbc.mesh import build_domain, refine_uniform


def test_counterexample_values():
    report = run_counterexample()
    assert abs(report.flux_exact) <= 1e-12
    assert report.flux_l2 == pytest.approx(3 / 16, abs=1e-12)
    assert report.flux_carstensen == pytest.approx(1 / 8, abs=1e-12)
    assert report.passed
    assert all("PASS" in line for line in report.lines())


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(domain="circle"), "domain"),
    (dict(alpha_sing=-1.5), "alpha"),
    (dict(alpha_sing=0.0), "exact solution is zero"),
    (dict(pairing="p2p0"), "pairing"),
    (dict(projector="clement"), "projector"),
    (dict(compat="local"), "compat"),
    (dict(levels=1), "levels"),
    (dict(output="json"), "output"),
    (dict(projector="lagrange", alpha_sing=-0.1), "lagrange"),
    (dict(alpha_sing=np.inf), "alpha must be finite"),
])
def test_config_validation_messages(kwargs, fragment):
    config = StudyConfig(**kwargs)
    with pytest.raises(ConfigError) as err:
        config.validate()
    assert fragment in str(err.value)


def small_records():
    return [
        ConvergenceRecord(level=1, h=0.5, n_dofs=10,
                          err_l2_velocity=0.04),
        ConvergenceRecord(level=2, h=0.25, n_dofs=34,
                          err_l2_velocity=0.01, eoc_l2_velocity=2.0),
    ]


def test_emit_table_single_record_has_no_eoc():
    text = emit_table(small_records()[:1], "markdown")
    assert "| -" in text


def test_emit_table_rejects_empty():
    with pytest.raises(ValueError):
        emit_table([], "csv")


def test_csv_roundtrip():
    records = small_records()
    text = emit_table(records, "csv")
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    for rec, line in zip(records, lines[1:]):
        fields = dict(zip(header, line.split(",")))
        for name in ("h", "err_l2_velocity"):
            assert float(fields[name]) == pytest.approx(
                getattr(rec, name), rel=1e-11)
        assert int(fields["level"]) == rec.level
        assert int(fields["n_dofs"]) == rec.n_dofs
        if rec.eoc_l2_velocity is None:
            assert fields["eoc_l2_velocity"] == ""
        else:
            assert float(fields["eoc_l2_velocity"]) == pytest.approx(
                rec.eoc_l2_velocity, rel=1e-11)


def test_markdown_expected_row():
    text = emit_table(small_records(), "markdown", expected=1.5)
    assert "1.5000" in text.splitlines()[-1]


def test_run_convergence_deterministic():
    config = StudyConfig(domain="convex", alpha_sing=0.5, levels=2)
    first = emit_table(run_convergence(config), "csv")
    second = emit_table(run_convergence(config), "csv")
    assert first == second


def test_run_convergence_rejects_bad_config():
    with pytest.raises(ConfigError):
        run_convergence(StudyConfig(levels=1))


@pytest.mark.parametrize("projector", ["l2", "carstensen", "lagrange"])
@pytest.mark.parametrize("pairing", ["taylor_hood", "mini"])
def test_run_convergence_all_projectors(projector, pairing):
    config = StudyConfig(domain="convex", alpha_sing=0.5, pairing=pairing,
                         projector=projector, levels=2)
    records = run_convergence(config)
    assert len(records) == 2
    assert records[1].err_l2_velocity < records[0].err_l2_velocity
    assert records[1].eoc_l2_velocity is not None


def test_main_counterexample(capsys):
    assert main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "3/16" in out and "1/8" in out


def test_main_convergence_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["convergence", "--domain", "convex", "--alpha", "0.5",
                 "--levels", "2", "--output", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("level,h,")
    assert "expected" in text.splitlines()[-1]


def test_main_validation_error_exit_code(capsys):
    assert main(["convergence", "--levels", "1"]) == 1
    assert "levels" in capsys.readouterr().err
    # a non-finite setting fails validation, not the solve
    assert main(["convergence", "--levels", "2", "--alpha", "nan"]) == 1
    assert "alpha must be finite" in capsys.readouterr().err
    # alpha = 0 makes every error zero, so eoc would fail after the study
    assert main(["convergence", "--alpha", "0", "--levels", "2"]) == 1
    assert "exact solution is zero" in capsys.readouterr().err


def test_main_lagrange_rejected_for_rough_data(capsys):
    code = main(["convergence", "--alpha", "-0.1", "--projector", "lagrange",
                 "--levels", "2"])
    assert code == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("domain = convex\nalpha_sing = 0.5\nlevels = 2\n"
                   "output = csv\n# comment\n")
    out1 = tmp_path / "a.csv"
    assert main(["convergence", "--config", str(cfg),
                 "--out", str(out1)]) == 0
    assert out1.read_text().startswith("level,")
    # flag overrides the file value
    out2 = tmp_path / "b.csv"
    assert main(["convergence", "--config", str(cfg), "--levels", "3",
                 "--out", str(out2)]) == 0
    assert out2.read_text().count("\n") == out1.read_text().count("\n") + 1


def test_config_file_unknown_key(tmp_path, capsys):
    # two keys differ from their flags; the error names the accepted keys
    cfg = tmp_path / "study.cfg"
    cfg.write_text("alpha = 0.3\nelement = mini\nmesh_size = 3\n")
    assert main(["convergence", "--config", str(cfg), "--levels", "2"]) == 1
    err = capsys.readouterr().err
    assert "['alpha', 'element', 'mesh_size']" in err
    assert "alpha_sing" in err and "pairing" in err


def test_config_file_bad_value_names_key(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels = x\n")
    assert main(["convergence", "--config", str(cfg)]) == 1
    assert "levels" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["convergence", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


def test_unwritable_output_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    assert main(["counterexample", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unwritable_output_fails_before_the_study(monkeypatch, tmp_path,
                                                  capsys):
    def study_must_not_run(config):
        pytest.fail("the study ran before --out was checked")

    monkeypatch.setattr(cli, "run_convergence", study_must_not_run)
    out = tmp_path / "missing" / "x"
    assert main(["convergence", "--levels", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("existing", [True, False])
def test_failed_study_leaves_output_path_alone(monkeypatch, tmp_path,
                                               existing):
    def failing(config):
        raise cli.SolveError("Schur-complement CG did not converge")

    monkeypatch.setattr(cli, "run_convergence", failing)
    out = tmp_path / "table.csv"
    if existing:
        out.write_text("earlier table\n")
    assert main(["convergence", "--levels", "2", "--out", str(out)]) == 2
    assert (out.read_text() == "earlier table\n" if existing
            else not out.exists())


@pytest.mark.parametrize("argv,code", [
    (["convergence", "--domain", "foo"], 1),
    (["counterexample", "--levels", "2"], 1),
    ([], 1),
    (["--help"], 0),
])
def test_argument_parsing_exit_codes(argv, code, capsys):
    assert main(argv) == code


def test_numerical_value_error_exit_code(monkeypatch, capsys):
    def failing(datum, mesh, dofmap):
        raise ValueError("boundary projection residual 1e-03 too large")

    monkeypatch.setitem(cli.PROJECTORS, "l2", failing)
    assert main(["convergence", "--levels", "2"]) == 2
    assert "residual" in capsys.readouterr().err


def test_misshapen_trace_exit_code(monkeypatch, capsys):
    # unchecked, the flux correction would broadcast a (1, 2) trace to the
    # boundary space's shape and the study would run on it
    monkeypatch.setitem(cli.PROJECTORS, "l2", lambda datum, mesh, dofmap:
                        bd.BoundaryTrace(np.ones((1, 2))))
    assert main(["convergence", "--levels", "2", "--compat",
                 "affine_field"]) == 2
    assert "does not match the boundary space" in capsys.readouterr().err


def test_records_carry_solver_report():
    config = StudyConfig(domain="convex", levels=2)
    records = run_convergence(config)
    mesh = build_domain(config.domain)
    datum = trace_of_solution(mesh.polygon, SingularSolution(
        config.alpha_sing, mesh.polygon.corner_angle))
    for r in records:
        mesh = refine_uniform(mesh)
        dofmap = build_dofmap(mesh, pairing_from_name(config.pairing))
        u_h = approximate_datum(config, datum, mesh, dofmap)
        assert r.delta_h == compute_delta_h(u_h, mesh, dofmap)
        assert r.solver_iterations > 0
        assert 0.0 <= r.solver_residual < 1e-8
        assert r.solver_factor_nnz > 0


def test_names_the_benchmark_binds(monkeypatch):
    # perfbench/tracing.py wraps these by name and perfbench/test_smoke.py
    # patches cli.l2_pressure_error, so renaming them breaks the benchmark
    for name in ("local_matrices", "l2_accumulate", "h1_accumulate"):
        assert callable(getattr(_kernels, name))
    norms = ("l2_velocity_error", "h1_seminorm_velocity_error",
             "l2_pressure_error")
    for name in norms:
        assert callable(getattr(cli, name))
    calls = []
    norm = cli.l2_pressure_error

    def counted(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(cli, "l2_pressure_error", counted)
    records = run_convergence(StudyConfig(domain="convex", pairing="mini",
                                          levels=2))
    assert len(calls) == len(records) == 2


def test_trace_study_call_forms_the_benchmark_binds():
    # perfbench/round.py's trace study calls these by module attribute with
    # positional arguments, so a signature change breaks the benchmark
    mesh = mesh_mod.refine_uniform(mesh_mod.build_domain("nonconvex"))
    datum = bd.trace_of_solution(mesh.polygon,
                                 SingularSolution(0.5, 3 * np.pi / 2))
    assert np.isfinite(bd.datum_flux(datum, mesh))
    for name in ("taylor_hood", "mini"):
        dm = fe_spaces.build_dofmap(mesh, fe_spaces.pairing_from_name(name))
        correctors = [bd.build_corrector(kind, mesh, dm)
                      for kind in ("affine_field", "projected_normal")]
        for project in (bd.project_l2, bd.interpolate_carstensen,
                        bd.interpolate_lagrange):
            u_h = project(datum, mesh, dm)
            assert bd.trace_l2_distance(datum, u_h, mesh, dm) > 0
            for corrector in correctors:
                fixed = bd.enforce_compatibility(u_h, corrector, mesh, dm)
                assert np.isfinite(bd.trace_l2_distance(datum, fixed, mesh,
                                                        dm))
                assert abs(assembly.boundary_flux(fixed.coefficients, mesh,
                                                  dm)) <= 1e-12


def test_cli_output_deterministic(tmp_path):
    paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for p in paths:
        assert main(["convergence", "--domain", "convex", "--alpha", "0.5",
                     "--levels", "2", "--output", "csv",
                     "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# tables in markdown: four significant digits do not flip on the last-bit
# differences between BLAS builds.  A change that moves a number on purpose
# regenerates the file with the command line below.
COMMITTED_OUTPUTS = {
    "convergence_nonconvex_taylor_hood.md":
        ["convergence", "--domain", "nonconvex", "--element", "taylor_hood",
         "--alpha", "0.5", "--levels", "4"],
    "convergence_convex_mini.md":
        ["convergence", "--domain", "convex", "--element", "mini",
         "--alpha", "0.5", "--levels", "4"],
    # a rough datum: its errors move by about 1 % with the corner rule
    "convergence_nonconvex_taylor_hood_rough.md":
        ["convergence", "--domain", "nonconvex", "--element", "taylor_hood",
         "--alpha", "-0.7", "--levels", "4"],
    "counterexample.txt": ["counterexample"],
}


@pytest.mark.parametrize("name", sorted(COMMITTED_OUTPUTS))
def test_committed_outputs_are_reproduced_byte_for_byte(name, tmp_path):
    out = tmp_path / name
    assert main(COMMITTED_OUTPUTS[name] + ["--out", str(out)]) == 0
    want = Path(__file__).parent / "data" / name
    assert out.read_bytes() == want.read_bytes()


def test_python_m_stokesbc_runs_clean():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "stokesbc", "counterexample"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0
    assert run.stderr == ""
    assert "PASS" in run.stdout
