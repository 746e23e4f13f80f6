"""Print content hashes of the outputs of every bundled scenario.

Each scenario runs as a user runs it (`cli.load_scenario`, `sim.run`,
`cli.write_outputs` into a temporary directory). For each one the script
prints the sha256 of `trajectory.jsonl` and of `metrics.csv` with its
`step_wall_time` column removed, the only output that depends on the clock.
A change that leaves the math alone must leave every hash unchanged.

BLAS and OpenMP are pinned to one thread before numpy is imported, as the
benchmark (`perfbench/run.py`) pins them: `two_rooms_64` hashes differently
with two BLAS threads, so the gate would otherwise depend on the machine.

Run from the repo root:  PYTHONPATH=src python3 scripts/trajectory_hashes.py [name ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from losnet import cli, scenarios, sim  # noqa: E402


def output_hashes(name: str) -> tuple[str, str]:
    scenario = cli.load_scenario(scenarios.builtin_path(name))
    record = sim.run(scenario)
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


def main(names: list[str]) -> int:
    for name in names or scenarios.available():
        trajectory, metrics = output_hashes(name)
        print(f"{name} trajectory.jsonl {trajectory}")
        print(f"{name} metrics.csv {metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
