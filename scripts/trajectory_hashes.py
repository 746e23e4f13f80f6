"""Print content hashes of the outputs of every bundled scenario.

Each scenario runs as a user runs it (`cli.load_scenario`, `sim.run`,
`cli.write_outputs` into a temporary directory). For each one the script
prints the sha256 of `trajectory.jsonl` and of `metrics.csv` with its
`step_wall_time` column removed, the only output that depends on the clock.
A change that leaves the math alone must leave every hash unchanged.

A change that moves the math within solver tolerance reports how far instead:
`--save DIR` also writes each scenario's positions and per-step spanning
trees to `DIR/<name>.npz`, and `--compare DIR` prints, against such a saved
run, the largest position difference and the number of steps whose trees
differ.

`--expect FILE` makes the gate one command with an exit code: FILE holds
lines as this script prints them (`# ...` lines are comments), and the
script exits 1 when a hash of a scenario it ran differs from, or is missing
in, FILE. `scripts/expected_hashes.txt` holds the current hashes.

BLAS and OpenMP are pinned to one thread before numpy is imported, as the
benchmark (`perfbench/run.py`) pins them: `two_rooms_64` hashes differently
with two BLAS threads, so the gate would otherwise depend on the machine.

Run from the repo root:

    PYTHONPATH=src python3 scripts/trajectory_hashes.py [--save DIR | --compare DIR]
        [--expect FILE] [name ...]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from losnet import cli, scenarios, sim  # noqa: E402


def output_hashes(record: sim.RunRecord) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cli.write_outputs(record, out)
        trajectory = (out / "trajectory.jsonl").read_bytes()
        lines = (out / "metrics.csv").read_text().splitlines()
    wall = lines[0].split(",").index("step_wall_time")
    metrics = "\n".join(
        ",".join(c for k, c in enumerate(line.split(",")) if k != wall) for line in lines
    )
    return (
        hashlib.sha256(trajectory).hexdigest(),
        hashlib.sha256(metrics.encode()).hexdigest(),
    )


def tree_arrays(record: sim.RunRecord) -> tuple[np.ndarray, np.ndarray]:
    """Per-step tree edge counts and all tree edges stacked, (sum, 2)."""
    trees = [m.tree_edges for m in record.metrics]
    edges = np.array([e for tree in trees for e in tree], dtype=np.int64).reshape(-1, 2)
    return np.array([len(tree) for tree in trees], dtype=np.int64), edges


def deviation(record: sim.RunRecord, saved: Path) -> tuple[float, int, int]:
    """Largest |dx| over every robot and step, and the number of steps whose
    trees differ, against a run saved with --save."""
    with np.load(saved) as ref:
        positions, counts, edges = ref["positions"], ref["tree_counts"], ref["tree_edges"]
    if positions.shape != record.positions.shape:
        raise SystemExit(f"{saved}: positions {positions.shape}, run {record.positions.shape}")
    new_counts, new_edges = tree_arrays(record)
    ends, new_ends = np.cumsum(counts), np.cumsum(new_counts)
    differ = sum(
        not np.array_equal(a, b)
        for a, b in zip(np.split(edges, ends[:-1]), np.split(new_edges, new_ends[:-1]))
    )
    return float(np.max(np.abs(record.positions - positions))), differ, counts.size


def read_expected(path: Path) -> dict[tuple[str, str], str]:
    """(scenario, output file) -> hash, from lines as `main` prints them."""
    expected = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, output, digest = line.split()
            expected[name, output] = digest
    return expected


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", type=Path, metavar="DIR",
                      help="write positions and trees of each scenario to DIR/<name>.npz")
    mode.add_argument("--compare", type=Path, metavar="DIR",
                      help="print the deviation from the runs saved in DIR")
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="exit 1 unless every hash equals the one listed in FILE")
    parser.add_argument("names", nargs="*", help="bundled scenarios (default: all)")
    args = parser.parse_args(argv)
    expected = read_expected(args.expect) if args.expect else None
    mismatched = []
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
    for name in args.names or scenarios.available():
        record = sim.run(cli.load_scenario(scenarios.builtin_path(name)))
        for output, digest in zip(("trajectory.jsonl", "metrics.csv"), output_hashes(record)):
            print(f"{name} {output} {digest}")
            if expected is not None and expected.get((name, output)) != digest:
                mismatched.append(f"{name} {output}")
        if args.save:
            counts, edges = tree_arrays(record)
            np.savez(args.save / f"{name}.npz", positions=record.positions,
                     tree_counts=counts, tree_edges=edges)
        if args.compare:
            dx, differ, steps = deviation(record, args.compare / f"{name}.npz")
            print(f"{name} max |dx| {dx:.3g} m, trees differ on {differ} of {steps} steps")
    if mismatched:
        print(f"hashes differ from {args.expect}: {', '.join(mismatched)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
