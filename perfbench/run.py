"""The stokesbc benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  Every round runs in a fresh interpreter (``round.py``), so set-up
and peak memory are those of a process that runs only this workload.  A run
starts set-up-only probes, then whole rounds while the next one is expected
to end within ``--seconds`` of the run's start (at least one), then the
rest of the probes, and reports medians.  With ``--trace 1`` there are no
probes, the rounds are traced, one untraced round follows for the tracing
overhead, and the spans go to ``perfbench/out/<workload>-seed<N>.jsonl``.

The last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--smoke`` runs every workload once untraced and once traced at levels <= 2
with every check on, prints one result line per workload and exits non-zero
unless all are correct with no failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study-lshape-th", "sweep-coarse", "trace-fine")
SETUP_PROBES = 10   # half before the rounds, half after
SMOKE_LEVELS = 2
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "finest_level_s": "s",
              "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    """A round process exited abnormally or ran past the deadline."""


def spawn(workload, seed, deadline, *flags):
    """Run one round in a fresh interpreter; returns (spawn time, record)."""
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundError("out of time before the round started")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round timed out: {' '.join(cmd)}") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round exited with {proc.returncode}: "
                         f"{' '.join(cmd)}")
    for line in lines[:-1]:
        print(line)
    return start, json.loads(lines[-1])


def level_table(levels: dict) -> str:
    """Markdown per-level stage table (ms) of one traced round."""
    stages = sorted({s for row in levels.values() for s in row})
    lines = ["| level | " + " | ".join(stages) + " |",
             "|---|" + "---|" * len(stages)]
    for level, row in levels.items():
        lines.append(f"| {level} | " + " | ".join(
            f"{row.get(s, 0.0):,.0f}" for s in stages) + " |")
    return "\n".join(lines)


def run_workload(workload, seed, seconds, trace, extra=()):
    """All probes and rounds of one run; ``extra`` goes to every round.

    Returns the result dict.
    """
    began = time.monotonic()
    deadline = began + DEADLINE_S
    setups, rounds, traced = [], [], []

    def probe(n):
        for _ in range(n):
            start, rec = spawn(workload, seed, deadline, "--setup-only",
                               *extra)
            setups.append(rec["setup_end"] - start)

    probes = 0 if trace else SETUP_PROBES
    probe(probes // 2)
    # time held back for the probes after the rounds
    reserve = (time.monotonic() - began) / max(probes // 2, 1) * (
        probes - probes // 2)

    spans = HERE / "out" / f"{workload}-seed{seed}.jsonl"
    if trace:
        spans.parent.mkdir(exist_ok=True)
        spans.write_text("")
    rounds_began = time.monotonic()
    while True:
        flags = list(extra)
        if trace:
            flags += ["--trace", "1", "--spans", str(spans),
                      "--run-id", f"{workload}/seed{seed}/round{len(traced)}"]
        start, rec = spawn(workload, seed, deadline, *flags)
        setups.append(rec["setup_end"] - start)
        done = traced if trace else rounds
        done.append(rec)
        now = time.monotonic()
        per_round = (now - rounds_began) / len(done)
        if now + per_round + reserve - began > seconds:
            break
    if trace:
        rounds.append(spawn(workload, seed, deadline, *extra)[1])
    probe(probes - probes // 2)

    everything = rounds + traced
    failures = [f for r in everything for f in r["failures"]]
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    metrics = {}
    if trace:
        for name, first in traced[0]["layers"].items():
            values = [r["layers"][name]["value"] for r in traced]
            # counts repeat exactly; median_low keeps them whole numbers
            median = (statistics.median_low if first["unit"] == "count"
                      else statistics.median)
            metrics[name] = {"value": median(values), "unit": first["unit"]}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in rounds))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{workload} per-level stage times (ms), traced round 0:")
        print(level_table(traced[0]["levels"]))
    else:
        samples = {"setup_s": setups}
        for name in ("wall_s", "finest_level_s", "peak_rss_mb"):
            samples[name] = [r[name] for r in rounds]
        for name, values in samples.items():
            metrics[name] = {"value": statistics.median(values),
                             "unit": END_TO_END[name]}
    return {"correct": not failures,
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stokesbc" / "__init__.py").is_file():
        print(f"error: no stokesbc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            ok = True
            for workload in [args.workload] if args.workload else WORKLOADS:
                for trace in (0, 1):
                    result = run_workload(
                        workload, args.seed, 0, trace,
                        extra=("--levels", str(SMOKE_LEVELS)))
                    ok = ok and result["correct"] and not result["failed"]
                    print(json.dumps({"workload": workload, **result}))
            return 0 if ok else 1
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
