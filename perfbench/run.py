"""Benchmark entry point: run one workload in a child process, print one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a separate Python
process (workload.py) importing sdcil from this checkout's ``src``, with BLAS
pinned to one thread and string hashing fixed. With ``--trace 0`` the last
output line holds the end-to-end metrics of that untraced run. With ``--trace 1`` a second, traced
process follows the untraced one; the last line holds the per-layer metrics
of the traced run plus the tracing overhead, the traced run's slowdown
against the untraced one. The line before it records the environment.

Exits 2 without a result when the checkout holds no sdcil sources, and 3
when a child fails or overruns the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = Path(__file__).resolve().parent / "workload.py"

# A run must end within 180 s; keep some margin for process start and exit.
DEADLINE_S = 170.0

PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def run_child(args, trace: int, deadline: float) -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(WORKLOAD),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    # run() kills the child and waits for it when the timeout expires
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def overhead(slow: float, fast: float) -> float:
    """Relative slowdown slow / fast - 1; 0 when nothing was measured."""
    return slow / fast - 1.0 if slow > 0 and fast > 0 else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sdcil" / "__init__.py").is_file():
        print(f"error: no sdcil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        plain = run_child(args, 0, deadline)
        traced = run_child(args, 1, deadline) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    runs = [plain] if traced is None else [plain, traced]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **plain["info"]}
    if traced is None:
        metrics = plain["metrics"]
    else:
        info["traced"] = traced["info"]
        metrics = dict(traced["layers"])
        # the traced run repeats the untraced run's first fit and prediction
        metrics["trace.fit_overhead_frac"] = {
            "value": overhead(traced["info"]["fits"][0], plain["info"]["fits"][0]),
            "unit": "frac"}
        metrics["trace.predict_overhead_frac"] = {
            "value": overhead(plain["info"]["first_predict_rows_per_s"],
                              traced["info"]["first_predict_rows_per_s"]),
            "unit": "frac"}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
