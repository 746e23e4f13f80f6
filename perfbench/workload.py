"""One workload in one process: set-up, timed rounds, output checks and, in
the traced mode, the spans. Started by run.py, which pins the BLAS and
OpenMP thread counts first; prints one JSON object as its last line.

A round is what a user does once: `rooms64`, `open128` and `corner2k` load
and validate a scenario, call `sim.run` and write the run's files with
`cli.write_outputs`; `sweep` runs `losnet sweep` through `cli.main`, each
round with its own seed drawn from --seed (`scenarios.sweep_seed`). Rounds
repeat while the next one is expected to end within --seconds of timed work;
there is always at least one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import losnet  # noqa: E402
from losnet import cli, sim  # noqa: E402

import check  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("rooms64", "open128", "corner2k", "sweep")
# Set-up takes milliseconds, so it is repeated and its median reported. The
# machine's speed drifts by tens of percent over seconds, so the repeats are
# spread over the run: one batch before the first round and one after each.
SETUP_MIN_REPEATS, SETUP_SECONDS = 9, 0.5


class Recorder:
    """Times every `sim.step` call (wall and process CPU at its start) and
    the busy time of every trial (team generation, `sim.run`, writing its
    files) as thread CPU time, and notes the start positions and subgroups
    of each run written to disk, so the checks know every trial's inputs."""

    def __init__(self):
        self.calls: list[tuple[float, float, float]] = []
        self.busy: list[float] = []
        self.inputs: dict[Path, tuple[np.ndarray, np.ndarray]] = {}
        self._tls = threading.local()

    def install(self) -> None:
        step, run, write, generate = sim.step, sim.run, cli.write_outputs, cli.generate_team

        def timed_step(*args, **kwargs):
            t0, c0 = perf_counter(), time.process_time()
            try:
                return step(*args, **kwargs)
            finally:
                self.calls.append((t0, c0, perf_counter()))

        def busy(fn):
            # CPU time of the calling thread: a worker waiting for the
            # interpreter lock is not busy.
            def timed(*args, **kwargs):
                t0 = time.thread_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.busy.append(time.thread_time() - t0)
            return timed

        def noted_run(scenario, *args, **kwargs):
            self._tls.start = (scenario.positions.copy(), scenario.subgroups.copy())
            return run(scenario, *args, **kwargs)

        def noted_write(record, out_dir, *args, **kwargs):
            self.inputs[Path(out_dir)] = self._tls.start
            return write(record, out_dir, *args, **kwargs)

        sim.step = timed_step
        sim.run, cli.write_outputs = busy(noted_run), busy(noted_write)
        cli.generate_team = busy(generate)


def run_round(workload, scenario_path, seed, out_dir, jobs):
    """One user-level round; returns (window start, exit code)."""
    if workload == "sweep":
        argv = [
            "sweep", "--scenario", str(scenario_path),
            "--sizes", ",".join(map(str, scenarios.SWEEP_SIZES)),
            "--trials", str(scenarios.SWEEP_TRIALS),
            "--out", str(out_dir), "--jobs", str(jobs), "--seed", str(seed),
        ]
        t0 = perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            return t0, cli.main(argv)
    scenario = cli.load_scenario(scenario_path)
    scenario.seed = seed  # as `losnet run --seed`
    t0 = perf_counter()
    cli.write_outputs(sim.run(scenario), out_dir)
    return t0, 0


def check_round(world, recorder, out_dir, workload):
    """Check every run written under out_dir; returns the checked runs and
    the failed steps, counting every step of a sweep trial whose team size
    has a wrong aggregate.csv row."""
    dirs = sorted(recorder.inputs)
    runs = [check.check_run(world, *recorder.inputs[d], d) for d in dirs]
    failed = sum(r.n_failed for r in runs)
    if workload == "sweep":
        by_size: dict[int, list[Path]] = {}
        for d in dirs:
            by_size.setdefault(recorder.inputs[d][0].shape[0], []).append(d)
        bad = check.aggregate_mismatches(out_dir, by_size)
        for d, r in zip(dirs, runs):
            if recorder.inputs[d][0].shape[0] in bad:
                failed += r.steps - r.n_failed
    return runs, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if Path(losnet.__file__).resolve().parent != ROOT / "src" / "losnet":
        print(f"losnet imported from {losnet.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = args.out
    shutil.rmtree(out, ignore_errors=True)
    inputs = scenarios.write_inputs(args.seed, out / "inputs")
    scenario_path = {
        "rooms64": scenarios.BUNDLED / "two_rooms_64.json",
        "corner2k": scenarios.BUNDLED / "corner_pull_2.json",
        "open128": inputs["open128"],
        "sweep": inputs["sweep_base"],
    }[args.workload]
    world = check.World(json.loads(scenario_path.read_text()))
    jobs = scenarios.SWEEP_JOBS if args.workload == "sweep" else 1

    recorder = Recorder()
    recorder.install()
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install()

    setups: list[float] = []

    def measure_setup() -> None:
        start = len(setups)
        while len(setups) - start < SETUP_MIN_REPEATS or sum(setups[start:]) < SETUP_SECONDS:
            t0 = perf_counter()
            cli.load_scenario(scenario_path)
            setups.append(perf_counter() - t0)

    measure_setup()

    round_dir = out / "round"
    steps_ms, runs, windows = [], [], []
    timed = cpu = 0.0
    steps = failed = 0
    correct = True
    while True:
        shutil.rmtree(round_dir, ignore_errors=True)
        recorder.calls.clear()
        recorder.inputs.clear()
        seed = scenarios.sweep_seed(args.seed, len(windows)) if args.workload == "sweep" else args.seed
        t_start, code = run_round(args.workload, scenario_path, seed, round_dir, jobs)
        t_end, c_end = perf_counter(), time.process_time()
        first = min(recorder.calls)
        timed += t_end - first[0]
        cpu += c_end - first[1]
        windows.append((t_start, t_end))
        steps += len(recorder.calls)
        steps_ms += [1e3 * (t1 - t0) for t0, _, t1 in recorder.calls]
        correct &= code == 0
        if len(windows) == 1:  # before any check has allocated its arrays
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        round_runs, round_failed = check_round(world, recorder, round_dir, args.workload)
        correct &= sum(r.steps for r in round_runs) == len(recorder.calls)
        failed += round_failed
        runs += round_runs
        measure_setup()
        if timed * (1.0 + 1.0 / len(windows)) > args.seconds:
            break

    def step_weighted(attr):
        return float(np.average([getattr(r, attr) for r in runs], weights=[r.steps for r in runs]))

    metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "steps_per_s": (steps / timed, "1/s"),
        "step_ms_p50": (float(np.percentile(steps_ms, 50)), "ms"),
        "step_ms_p90": (float(np.percentile(steps_ms, 90)), "ms"),
        "cpu_ms_per_step": (1e3 * cpu / steps, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "mean_perturbation": (step_weighted("mean_perturbation"), "m2/s2"),
        "final_target_dist": (float(np.mean([r.final_target_dist for r in runs])), "m"),
    }
    result = {
        "correct": bool(correct),
        "attempted": steps,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": len(windows),
        # Summed trial busy time over jobs x wall time of the rounds; taken
        # here because the traced process's hooks stretch its wall time.
        "pool_efficiency": sum(recorder.busy) / (jobs * sum(t1 - t0 for t0, t1 in windows)),
        "jobs": jobs,
        "failures": dict(sum((Counter(r.reasons) for r in runs), Counter())),
    }
    if tracer is not None:
        # A solve that fails the KKT check fails its step.
        kkt = tracer.kkt_ok.count(False)
        if kkt:
            result["failed"] += kkt
            result["failures"]["qp.verify_kkt"] = kkt
        layers = tracing.layer_metrics(tracer, runs)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.write(out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
