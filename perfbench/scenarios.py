"""Input scenarios of the benchmark workloads.

`rooms64` and `corner2k` run the bundled scenario files unchanged. `open128`
and the `sweep` base are made here: `open128` places 128 robots on a jittered
grid drawn from the seed, and the sweep base is the bundled `two_rooms_40`
with a shortened horizon (the sweep draws its teams from the seed itself).

Write the generated files for one seed, from the repository root:

    python3 perfbench/scenarios.py --seed 1 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "losnet" / "scenarios"

OPEN_COLS, OPEN_ROWS, OPEN_SPACING, OPEN_STEPS = 16, 8, 0.1, 100
# Each subgroup's site sits 0.3 m outside its block of the grid. The
# rendezvous groups crowd onto a point and the circle groups press onto rings
# whose 32 slots lie closer than R_s, so about 200 safety rows bind in the QP
# at once: the QP, not occlusion or row assembly, dominates the step.
OPEN_SITES = (
    (1, "rendezvous", (-0.3, 0.0)),
    (2, "circle", (0.0, 0.3)),
    (3, "rendezvous", (0.0, -0.3)),
    (4, "circle", (0.3, 0.0)),
)
OPEN_RADIUS = 0.2

SWEEP_BASE = "two_rooms_40"
# Short trials make short rounds (about 4 s on 2 cores), so a run holds
# several of them and its slowest steps, those of the largest team, are timed
# in several windows spread over the run rather than in one of 5 s: with
# 30-step trials a run was one round, and the machine's speed in that one
# window set `step_ms_p90`, which spread by 23-28% over ten seeds.
SWEEP_STEPS = 10
# Five sizes in equal shares of the steps, so the step-time median and 90th
# percentile fall inside the third and fifth size's steps, not between two
# sizes, where they would jump from run to run.
SWEEP_SIZES = (16, 24, 32, 48, 64)
SWEEP_TRIALS = 3
# One worker: with one worker per core, every cycle the host steals from
# either core slows the sweep, and over ten runs on 2 cores its throughput
# spread by 29% (against 6-12% for the one-threaded workloads at the time).
SWEEP_JOBS = 1
# Each round is a sweep with its own seed, so a run times several teams of
# each size, not the same three again: over six seeds, the median step time
# of one 64-robot team was 43 ms and of another 64 ms.
SWEEP_ROUND_STRIDE = 100_000


def bundled(name: str) -> dict:
    return json.loads((BUNDLED / f"{name}.json").read_text())


def open128(seed: int) -> dict:
    """128 robots in four contiguous 32-robot column blocks of a 16 x 8 grid,
    each position jittered by up to 15% of the grid spacing; no obstacles."""
    rng = np.random.default_rng(seed)
    xs = (np.arange(OPEN_COLS) - (OPEN_COLS - 1) / 2.0) * OPEN_SPACING
    ys = (np.arange(OPEN_ROWS) - (OPEN_ROWS - 1) / 2.0) * OPEN_SPACING
    pos = np.array([(x, y) for x in xs for y in ys])
    pos += rng.uniform(-0.15, 0.15, size=pos.shape) * OPEN_SPACING
    per = pos.shape[0] // len(OPEN_SITES)
    subgroups = np.repeat([label for label, _, _ in OPEN_SITES], per)
    sites = []
    for label, kind, shift in OPEN_SITES:
        center = pos[subgroups == label].mean(axis=0) + np.asarray(shift)
        site = {"subgroup": label, "kind": kind, "pos": [float(c) for c in center]}
        if kind == "circle":
            site["radius"] = OPEN_RADIUS
        sites.append(site)
    return {
        "robots": [
            {"pos": [float(x), float(y)], "subgroup": int(s)}
            for (x, y), s in zip(pos, subgroups)
        ],
        "obstacles": [],
        "sites": sites,
        "params": {
            "R_s": 0.04, "R_obs": 0.08, "R_c": 0.6, "gamma": 1.0,
            "u_max": 0.3, "delta": 0.02, "dt": 0.02, "steps": OPEN_STEPS,
        },
        "method": "mlccst",
        "seed": seed,
    }


def sweep_base(seed: int) -> dict:
    raw = bundled(SWEEP_BASE)
    raw["params"]["steps"] = SWEEP_STEPS
    raw["seed"] = seed
    return raw


def sweep_seed(seed: int, round_index: int) -> int:
    """`--seed` of round `round_index` of the sweep workload. The sweep adds
    1000 x size + trial (below 100,000) to it, so no two rounds of one run
    share a team."""
    return seed + SWEEP_ROUND_STRIDE * round_index


def write_inputs(seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the generated scenario files for `seed`; returns name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, raw in (("open128", open128(seed)), ("sweep_base", sweep_base(seed))):
        paths[name] = out_dir / f"{name}.json"
        paths[name].write_text(json.dumps(raw, indent=1) + "\n")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, path in write_inputs(args.seed, args.out).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
