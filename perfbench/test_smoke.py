"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The smoke mode runs every workload at levels <= 2, untraced and traced, with
every correctness check on; it takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# One two-level study whose pressure norm raises on the finest level.
FAILING_NORM = """
import json, sys
sys.path.insert(0, sys.argv[1])
import round as bench
from stokesbc import cli
from tracing import NullTracer

norm, calls = cli.l2_pressure_error, []

def failing_norm(*args, **kwargs):
    calls.append(1)
    if len(calls) == 2:
        raise MemoryError("injected at the finest level")
    return norm(*args, **kwargs)

cli.l2_pressure_error = failing_norm
rnd = bench.Round(False, NullTracer())
config = cli.StudyConfig(domain="convex", alpha_sing=0.5, pairing="mini",
                         levels=2)
bench.run_studies(rnd, [config], orders=False)
print(json.dumps({"attempted": rnd.attempted, "failed": rnd.failed,
                  "finest": rnd.finest, "failures": rnd.checks.failures}))
"""


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert ({r["workload"] for r in results}
            == {w["name"] for w in SPEC["workloads"]})
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    seen = set()
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
        names = set(r["metrics"])
        assert names in (end_to_end, per_layer)
        seen.add(frozenset(names))
        if names == end_to_end:
            assert all(m["value"] > 0 for m in r["metrics"].values())
    assert len(seen) == 2


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "trace-fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_norm_that_raises_fails_its_level():
    proc = subprocess.run([sys.executable, "-c", FAILING_NORM, str(HERE)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "MemoryError: injected" in proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"attempted": 2, "failed": 1, "finest": 0.0,
                      "failures": []}
