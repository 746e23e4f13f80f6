"""The benchmark's contract with the package: a short traced run of
`perfbench/workload.py` must print one strict-JSON line that carries every
end-to-end and per-layer metric `BENCHMARK.json` declares, each finite, with
no failed KKT check. It runs on `corner2k` (two robots, fixed per-step costs)
and on `rooms64` (64 robots behind walls, every stage busy).

The traced run wraps named functions of losnet from outside (see
`perfbench/tracing.py`) and skips a name that no longer exists, so a refactor
that stops calling one of them silently drops its metrics. This test makes
that loud.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Taken from the untraced process by perfbench/run.py, not by the workload.
FROM_PLAIN_RUN = {"cli.pool_efficiency"}


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the workload output")


@pytest.mark.parametrize("workload", ["corner2k", "rooms64"])
def test_traced_workload_reports_every_declared_metric(tmp_path, workload):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "workload.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--traced", "--out", str(tmp_path / workload),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(
        proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant
    )

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert result["failed"] == 0, result.get("failures")
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert set(result["layers"]) | FROM_PLAIN_RUN == {m["name"] for m in declared["per_layer"]}
    values = {**result["metrics"], **result["layers"]}
    bad = {k: v["value"] for k, v in values.items() if not math.isfinite(v["value"])}
    assert not bad
    assert result["layers"]["qp.kkt_failures"]["value"] == 0
