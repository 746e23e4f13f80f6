"""Planted-violation tests of the output checks: copies of real output files
with one property broken must fail exactly the steps that property belongs
to, so the checks cannot be vacuous.

    python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import scenarios  # noqa: E402
from losnet import cli, sim  # noqa: E402

STEPS = 8
WALL_INSIDE = [1.5, 0.6]  # inside the dividing wall of the two-rooms world


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    """A short two_rooms_40 run: its scenario and its output directory."""
    raw = scenarios.bundled("two_rooms_40")
    raw["params"]["steps"] = STEPS
    base = tmp_path_factory.mktemp("real")
    path = base / "scenario.json"
    path.write_text(json.dumps(raw))
    cli.write_outputs(sim.run(cli.load_scenario(path)), base / "files")
    return raw, base / "files"


def failed_steps(real_run, tmp_path, plant=None):
    """Check a copy of the real files after `plant` edited its trajectory
    lines in place; returns the failed steps and the failure reasons."""
    raw, files = real_run
    run_dir = tmp_path / "files"
    shutil.copytree(files, run_dir)
    if plant is not None:
        traj = run_dir / "trajectory.jsonl"
        lines = [json.loads(s) for s in traj.read_text().splitlines()]
        plant(lines)
        traj.write_text("".join(json.dumps(m) + "\n" for m in lines))
    result = check.check_run(
        check.World(raw),
        [r["pos"] for r in raw["robots"]],
        [r["subgroup"] for r in raw["robots"]],
        run_dir,
    )
    return set(np.nonzero(result.failed)[0].tolist()), result.reasons


def test_real_files_pass(real_run, tmp_path):
    assert failed_steps(real_run, tmp_path) == (set(), {})


def test_robot_moved_inside_wall(real_run, tmp_path):
    # The state after step 3 is wrong: step 3 produced it, step 4 starts from it.
    def plant(lines):
        lines[3]["x"][5] = WALL_INSIDE

    steps, reasons = failed_steps(real_run, tmp_path, plant)
    assert steps == {3, 4}
    assert {"clearance", "integration"} <= set(reasons)


def test_tree_edge_dropped(real_run, tmp_path):
    def plant(lines):
        lines[5]["tree"].pop()

    assert failed_steps(real_run, tmp_path, plant) == ({5}, {"tree": 1})


def test_control_outside_speed_box(real_run, tmp_path):
    def plant(lines):
        lines[2]["u"][0][0] = 0.25  # the box is u_max / sqrt(2) = 0.212

    steps, reasons = failed_steps(real_run, tmp_path, plant)
    assert steps == {2}
    assert {"speed box", "integration"} <= set(reasons)


def test_nominal_control_changed(real_run, tmp_path):
    def plant(lines):
        lines[6]["u_nominal"][1][1] += 0.1

    assert failed_steps(real_run, tmp_path, plant) == ({6}, {"perturbation": 1})


def test_aggregate_row_changed(tmp_path):
    raw = scenarios.sweep_base(seed=5)
    raw["params"]["steps"] = 3
    path = tmp_path / "base.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "sweep"
    argv = ["sweep", "--scenario", str(path), "--sizes", "8,16", "--trials", "2",
            "--out", str(out), "--jobs", "1"]
    assert cli.main(argv) == 0
    dirs = {size: [out / f"size{size}_trial{t}" for t in range(2)] for size in (8, 16)}
    assert check.aggregate_mismatches(out, dirs) == set()

    table = list(csv.DictReader((out / "aggregate.csv").open()))
    table[1]["perturbation_mean"] = repr(1.001 * float(table[1]["perturbation_mean"]))
    with (out / "aggregate.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table[0]))
        writer.writeheader()
        writer.writerows(table)
    assert check.aggregate_mismatches(out, dirs) == {16}
