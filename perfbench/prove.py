"""Repeat the benchmark over seeds and report each end-to-end metric's spread.

    python3 perfbench/prove.py --runs 10 [--workload NAME ...] [--write]

Runs ``perfbench/run.py`` once per seed and workload, one process at a
time, from the repository root. For every end-to-end metric it prints the
median of the runs and the quartile spread (Q3 - Q1 over the median, from
``statistics.quantiles(values, n=4)``) next to the metric's bound in
``BENCHMARK.json``, seeds 1 to ``--runs``. With ``--write`` it also records
the medians, spreads and machine facts in ``perfbench/baseline.json``; the
bounds and run length stay in ``BENCHMARK.json`` alone.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    machine: dict = {}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])["info"]
            machine = info["machine"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals)}
            flag = "" if rows[name]["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:22s} median {rows[name]['median']:.6g}  spread {rows[name]['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}")
        summary[workload] = {"runs": args.runs, "seeds": [1, args.runs], "metrics": rows}

    if args.write:
        machine = {**machine, "cpu_model": cpu_model(), "git_commit": git_commit()}
        out = {"machine": machine, "workloads": summary}
        (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
