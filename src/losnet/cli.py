"""Scenario loading, run orchestration, and file outputs.

Scenario files are JSON with keys `robots`, `obstacles`, `sites`, `params`,
`method`, `seed` (see README for the full schema). Each run writes
metrics.csv, trajectory.jsonl, and summary.json into its output directory;
sweep mode additionally writes aggregate.csv with mean and standard deviation
per team size.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import sim
from .barriers import BarrierParams
from .behaviors import TaskSite
from .errors import LosnetError, PolygonError, ScenarioValidationError
from .geometry import Polygon
from .sim import RunRecord, Scenario

METRICS_COLUMNS = (
    "t",
    "d_min_robot",
    "d_min_obstacle",
    "d_avg_target",
    "lambda2",
    "perturbation",
    "solver_status",
    "tree_edge_count",
    "step_wall_time",
)

PARAM_DEFAULTS = {"gamma": 1.0, "delta": 0.02, "dt": 0.02, "R_s": 0.04, "u_max": 1.0}
PARAM_REQUIRED = ("R_obs", "R_c", "steps")


@dataclasses.dataclass
class CliConfig:
    scenario_path: Path
    out_dir: Path
    method: str | None = None
    seed: int | None = None
    sizes: tuple[int, ...] = ()
    trials: int = 1
    jobs: int = 1


def load_scenario(path) -> Scenario:
    """Parse, apply defaults, and validate a scenario file; every problem is
    reported at once."""
    path = Path(path)
    if not path.exists():
        raise ScenarioValidationError([f"scenario file not found: {path}"])
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioValidationError([f"invalid JSON at line {e.lineno}: {e.msg}"]) from e
    scenario, issues = _scenario_from_dict(raw)
    if scenario is not None:
        issues = issues + sim.validate_scenario(scenario)
    if issues:
        raise ScenarioValidationError(issues)
    return scenario


def _scenario_from_dict(raw: dict) -> tuple[Scenario | None, list[str]]:
    issues: list[str] = []
    if not isinstance(raw, dict):
        return None, ["top level must be a JSON object"]

    robots = raw.get("robots")
    positions: list[list[float]] = []
    subgroups: list[int] = []
    if not isinstance(robots, list) or not robots:
        issues.append("'robots' must be a non-empty list")
    else:
        for k, r in enumerate(robots):
            try:
                positions.append([float(r["pos"][0]), float(r["pos"][1])])
                subgroups.append(int(r["subgroup"]))
            except (KeyError, TypeError, IndexError, ValueError):
                issues.append(f"robots[{k}] needs 'pos': [x, y] and 'subgroup': int")

    obstacles: list[Polygon] = []
    for k, o in enumerate(raw.get("obstacles", []) or []):
        try:
            obstacles.append(Polygon(np.asarray(o["vertices"], dtype=np.float64)))
        except (KeyError, TypeError, ValueError) as e:
            issues.append(f"obstacles[{k}]: invalid vertices ({e})")
        except PolygonError as e:
            issues.append(f"obstacles[{k}]: {e}")

    sites: dict[int, TaskSite] = {}
    for k, s in enumerate(raw.get("sites", []) or []):
        try:
            kind = s.get("kind", "rendezvous")
            site = TaskSite(
                position=np.asarray(s["pos"], dtype=np.float64),
                kind=kind,
                radius=float(s.get("radius", 0.0)),
            )
            sites[int(s["subgroup"])] = site
        except (KeyError, TypeError, ValueError) as e:
            issues.append(f"sites[{k}]: {e}")

    pr = dict(PARAM_DEFAULTS)
    pr.update(raw.get("params", {}) or {})
    for key in PARAM_REQUIRED:
        if key not in pr:
            issues.append(f"params.{key} is required")
    params = None
    if not any(i.startswith("params.") for i in issues):
        try:
            params = BarrierParams(
                r_safety=float(pr["R_s"]),
                r_obstacle=float(pr["R_obs"]),
                r_comm=float(pr["R_c"]),
                u_max=float(pr["u_max"]),
                gamma=float(pr["gamma"]),
                delta=float(pr["delta"]),
            )
        except (ValueError, TypeError) as e:
            issues.append(f"params: {e}")

    if issues or params is None:
        return None, issues

    scenario = Scenario(
        positions=np.asarray(positions, dtype=np.float64),
        subgroups=np.asarray(subgroups, dtype=np.int64),
        obstacles=tuple(obstacles),
        sites=sites,
        params=params,
        dt=float(pr.get("dt", 0.02)),
        steps=int(pr.get("steps", 0)),
        method=str(raw.get("method", "mlccst")),
        seed=int(raw.get("seed", 0)),
        dynamics=str(raw.get("dynamics", "single")),
        lookahead=float(raw.get("lookahead", 0.05)),
        spacing=(float(raw["spacing"]) if "spacing" in raw else None),
        nominal_gain=float(raw.get("nominal_gain", 1.0)),
        comm_margin=(float(raw["comm_margin"]) if "comm_margin" in raw else None),
        obstacle_cutoff=(
            float(raw["obstacle_cutoff"]) if "obstacle_cutoff" in raw else None
        ),
        safety_cutoff_enabled=bool(raw.get("safety_cutoff", False)),
    )
    return scenario, []


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_outputs(record: RunRecord, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(METRICS_COLUMNS)]
    for m in record.metrics:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    m.t,
                    m.d_min_robot,
                    m.d_min_obstacle,
                    m.d_avg_target,
                    m.lambda2,
                    m.perturbation,
                    m.solver_status,
                    len(m.tree_edges),
                    m.step_wall_time,
                )
            )
        )
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n")

    with (out_dir / "trajectory.jsonl").open("w") as fh:
        for k, m in enumerate(record.metrics):
            fh.write(
                json.dumps(
                    {
                        "t": m.t,
                        "x": record.positions[k + 1].tolist(),
                        "u": record.controls[k].tolist(),
                        "u_nominal": record.nominals[k].tolist(),
                        "tree": [list(e) for e in m.tree_edges],
                    }
                )
                + "\n"
            )

    summary = dict(record.summary)
    summary["scenario_hash"] = record.scenario_hash
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _run_violations(scenario: Scenario, record: RunRecord) -> list[str]:
    """Declared invariants whose violation makes the exit code nonzero:
    safety for every method, connectivity only for the maintaining methods."""
    p = scenario.params
    tol_int = 2.0 * p.u_max * scenario.dt
    problems = []
    if record.summary["min_d_robot"] < p.r_safety - tol_int:
        problems.append(
            f"inter-robot distance dropped to {record.summary['min_d_robot']:.5f} m"
        )
    if record.summary["min_d_obstacle"] < p.r_obstacle - tol_int:
        problems.append(
            f"robot-obstacle distance dropped to {record.summary['min_d_obstacle']:.5f} m"
        )
    if scenario.method in ("mlccst", "fixed"):
        if record.summary["disconnected"]:
            problems.append("sight-line graph disconnected under a maintaining method")
        if not record.summary["subgroup_connected"]:
            problems.append("subgroup connectivity lost under a maintaining method")
    return problems


def run_command(config: CliConfig) -> int:
    scenario = load_scenario(config.scenario_path)
    if config.method is not None:
        scenario.method = config.method
    if config.seed is not None:
        scenario.seed = config.seed
    record = sim.run(scenario)
    write_outputs(record, config.out_dir)
    problems = _run_violations(scenario, record)
    for p in problems:
        print(f"INVARIANT VIOLATED: {p}", file=sys.stderr)
    print(f"run complete: {config.out_dir} (method={scenario.method})")
    return 1 if problems else 0


def generate_team(base: Scenario, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded initial placement for a team of `size` robots near the base
    scenario's start area: a jittered grid assigned to subgroups in contiguous
    column blocks, retried until the scenario invariants hold."""
    rng = np.random.default_rng(seed)
    labels = sorted(base.sites.keys())
    m = len(labels)
    counts = [size // m + (1 if k < size % m else 0) for k in range(m)]
    subgroups = np.concatenate(
        [np.full(c, lab, dtype=np.int64) for lab, c in zip(labels, counts)]
    )
    center = base.positions.mean(axis=0)
    spacing = max(2.5 * base.params.r_safety, 0.02)
    cols = math.ceil(math.sqrt(size))
    rows = math.ceil(size / cols)
    base_grid = np.array(
        [
            (
                center[0] + (c - (cols - 1) / 2.0) * spacing,
                center[1] + (r - (rows - 1) / 2.0) * spacing,
            )
            for c in range(cols)
            for r in range(rows)
        ]
    )[:size]
    for _ in range(50):
        jitter = rng.uniform(-0.15, 0.15, size=(size, 2)) * spacing
        positions = base_grid + jitter
        trial = dataclasses.replace(
            base, positions=positions, subgroups=subgroups, steps=0, seed=seed
        )
        if not sim.validate_scenario(trial):
            return positions, subgroups
    raise ScenarioValidationError(
        [f"could not place a valid team of {size} robots near {center}"]
    )


def _sweep_one(base: Scenario, size: int, trial: int, seed: int, out_dir: Path):
    positions, subgroups = generate_team(base, size, seed)
    scenario = dataclasses.replace(
        base, positions=positions, subgroups=subgroups, seed=seed
    )
    record = sim.run(scenario)
    run_dir = out_dir / f"size{size}_trial{trial}"
    write_outputs(record, run_dir)
    metrics = record.metrics
    scalars = {
        "step_wall_time": float(np.mean([m.step_wall_time for m in metrics])),
        "d_min_robot": float(np.min([m.d_min_robot for m in metrics])),
        "d_min_obstacle": float(np.min([m.d_min_obstacle for m in metrics])),
        "d_avg_target_final": float(metrics[-1].d_avg_target),
        "lambda2_min": float(np.min([m.lambda2 for m in metrics])),
        "perturbation": float(np.mean([m.perturbation for m in metrics])),
    }
    return size, trial, scalars, _run_violations(scenario, record)


AGGREGATE_FIELDS = (
    "step_wall_time",
    "d_min_robot",
    "d_min_obstacle",
    "d_avg_target_final",
    "lambda2_min",
    "perturbation",
)


def write_aggregate(results: dict[tuple[int, int], dict], out_dir: Path) -> None:
    """aggregate.csv: per team size, mean and population standard deviation of
    each per-run scalar over the trials. Trial values that are all equal
    (obstacle-free runs report an infinite clearance) have std 0.0."""
    sizes = sorted({s for s, _ in results})
    header = ["size", "trials"]
    for f in AGGREGATE_FIELDS:
        header += [f"{f}_mean", f"{f}_std"]
    lines = [",".join(header)]
    for size in sizes:
        trials = sorted(t for s, t in results if s == size)
        row: list[str] = [str(size), str(len(trials))]
        for f in AGGREGATE_FIELDS:
            vals = np.array([results[(size, t)][f] for t in trials])
            std = 0.0 if np.all(vals == vals[0]) else float(np.std(vals))
            row += [_fmt(float(np.mean(vals))), _fmt(std)]
        lines.append(",".join(row))
    (out_dir / "aggregate.csv").write_text("\n".join(lines) + "\n")


def sweep_command(config: CliConfig) -> int:
    base = load_scenario(config.scenario_path)
    if config.method is not None:
        base.method = config.method
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    seed_base = base.seed if config.seed is None else config.seed
    jobs = max(1, config.jobs)
    tasks = [
        (size, trial, seed_base + 1000 * size + trial)
        for size in config.sizes
        for trial in range(config.trials)
    ]
    results: dict[tuple[int, int], dict] = {}
    problems: dict[tuple[int, int], list[str]] = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_sweep_one, base, size, trial, seed, out_dir)
            for size, trial, seed in tasks
        ]
        for fut in concurrent.futures.as_completed(futures):
            size, trial, scalars, violations = fut.result()
            results[(size, trial)] = scalars
            problems[(size, trial)] = violations
    write_aggregate(results, out_dir)
    for (size, trial), violations in sorted(problems.items()):
        for p in violations:
            print(f"INVARIANT VIOLATED: size {size} trial {trial}: {p}", file=sys.stderr)
    print(f"sweep complete: {len(tasks)} runs, aggregate at {out_dir / 'aggregate.csv'}")
    return 1 if any(problems.values()) else 0


def validate_command(config: CliConfig) -> int:
    try:
        load_scenario(config.scenario_path)
    except ScenarioValidationError as e:
        for v in e.violations:
            print(f"INVALID: {v}", file=sys.stderr)
        return 1
    print(f"scenario OK: {config.scenario_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losnet",
        description="Headless multi-robot sight-line connectivity maintenance runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and write its outputs")
    p_run.add_argument("--scenario", required=True, type=Path)
    p_run.add_argument("--out", required=True, type=Path)
    p_run.add_argument("--method", choices=sim.METHODS)
    p_run.add_argument("--seed", type=int)

    p_sweep = sub.add_parser("sweep", help="multi-trial sweep over team sizes")
    p_sweep.add_argument("--scenario", required=True, type=Path)
    p_sweep.add_argument("--out", required=True, type=Path)
    p_sweep.add_argument("--sizes", required=True, type=lambda s: tuple(int(x) for x in s.split(",")))
    p_sweep.add_argument("--trials", type=int, default=10)
    p_sweep.add_argument("--method", choices=sim.METHODS)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))

    p_val = sub.add_parser("validate", help="check a scenario file against all invariants")
    p_val.add_argument("--scenario", required=True, type=Path)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = CliConfig(
        scenario_path=args.scenario,
        out_dir=getattr(args, "out", Path(".")),
        method=getattr(args, "method", None),
        seed=getattr(args, "seed", None),
        sizes=getattr(args, "sizes", ()),
        trials=getattr(args, "trials", 1),
        jobs=getattr(args, "jobs", 1),
    )
    try:
        if args.command == "run":
            return run_command(config)
        if args.command == "sweep":
            return sweep_command(config)
        return validate_command(config)
    except LosnetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
