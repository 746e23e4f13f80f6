"""Benchmark entry point.

    python3 perfbench/run.py --workload rooms64 --seed 1 --seconds 25 --trace 0

Runs the workload in a fresh process (so its peak RSS is its own) with BLAS
and OpenMP pinned to one thread per process. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs the untraced and then the traced
process and prints the per-layer metrics, with `cli.pool_efficiency` taken
from the untraced process. The last line of standard output is one JSON
object; the full results, with the thread settings and nproc, go to
perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("rooms64", "open128", "corner2k", "sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Both processes of a traced run share the 180 s a run may take.
TIMEOUT_S = {False: 170.0, True: 85.0}


def run_workload(args, traced: bool, trace_run: bool) -> dict:
    mode = "traced" if traced else "plain"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out", str(OUT / f"{args.workload}-{mode}"),
    ] + (["--traced"] if traced else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S[trace_run])
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description="losnet benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Before any numpy import, in this process and the workload processes:
    # with two BLAS threads on two cores, step times spread much wider.
    for var in THREAD_VARS:
        os.environ[var] = "1"

    plain = run_workload(args, traced=False, trace_run=bool(args.trace))
    results = {"plain": plain}
    if args.trace:
        traced = run_workload(args, traced=True, trace_run=True)
        results["traced"] = traced
        layers = dict(traced["layers"])
        layers["cli.pool_efficiency"] = {"value": plain["pool_efficiency"], "unit": "ratio"}
        line = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": layers,
        }
    else:
        line = {k: plain[k] for k in ("correct", "attempted", "failed", "metrics")}

    results["environment"] = {
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in THREAD_VARS},
        "python": sys.version.split()[0],
    }
    results["args"] = vars(args)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
