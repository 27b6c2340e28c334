"""Self-test of the benchmark: determinism of its counts and its metric names.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload, from the root of a checkout:
  * two traced runs of one seed must give identical hardware-independent
    per-layer counts (solves, iterations, rows, cells, region counts);
  * an untraced run of the next seed must succeed unchanged;
  * the metric names printed must be exactly those in BENCHMARK.json.
Exits 1 on the first workload that fails, naming what differed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def hardware_independent(name: str, unit: str) -> bool:
    return unit == "count" or name == "geometry.beps_partition.edge_frac"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, seconds: float, spec: dict) -> list[str]:
    problems = []
    first, second = (run(workload, seed, seconds, 1) for _ in range(2))
    other = run(workload, seed + 1, seconds, 0)
    for label, result, kind in (("traced", first, "per_layer"), ("untraced", other, "end_to_end")):
        if not result["correct"] or result["failed"]:
            problems.append(f"{label} run failed {result['failed']} of {result['attempted']} checks")
        want = {m["name"] for m in spec[kind]}
        if set(result["metrics"]) != want:
            problems.append(f"{label} metric names differ from BENCHMARK.json {kind}: "
                            f"{sorted(set(result['metrics']) ^ want)}")
    for name, m in first["metrics"].items():
        if hardware_independent(name, m["unit"]):
            again = second["metrics"].get(name, {}).get("value")
            if again != m["value"]:
                problems.append(f"{name}: {m['value']} then {again} at seed {seed}")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    for workload in args.workload or names:
        problems = check(workload, args.seed, args.seconds, spec)
        for line in problems:
            print(f"{workload}: {line}")
        if problems:
            return 1
        print(f"{workload}: counts repeat at seed {args.seed}; seed {args.seed + 1} runs; names match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
