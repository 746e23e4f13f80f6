import json
from pathlib import Path

import numpy as np
import pytest

from losnet import cli
from losnet.cli import (
    METRICS_COLUMNS,
    load_scenario,
    main,
)
from losnet.errors import ScenarioValidationError
from losnet.scenarios import available, builtin_path
from losnet.sim import scenario_to_dict

MINIMAL = {
    "robots": [
        {"pos": [0.0, 0.0], "subgroup": 1},
        {"pos": [0.3, 0.0], "subgroup": 2},
    ],
    "sites": [
        {"subgroup": 1, "kind": "rendezvous", "pos": [-0.2, 0.2]},
        {"subgroup": 2, "kind": "rendezvous", "pos": [0.5, 0.2]},
    ],
    "params": {"R_obs": 0.06, "R_c": 0.6, "u_max": 0.3, "steps": 5},
    "method": "mlccst",
    "seed": 1,
}


def write_scenario(tmp_path, payload, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadScenario:
    def test_minimal_file_with_defaults(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert sc.params.r_safety == 0.04  # default
        assert sc.params.gamma == 1.0
        assert sc.dt == 0.02
        assert sc.steps == 5
        assert sc.n_robots == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioValidationError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioValidationError, match="line 2"):
            load_scenario(path)

    def test_safety_violation_names_pair(self, tmp_path):
        payload = dict(MINIMAL)
        payload["robots"] = [
            {"pos": [0.0, 0.0], "subgroup": 1},
            {"pos": [0.01, 0.0], "subgroup": 2},
        ]
        with pytest.raises(ScenarioValidationError, match="robots 0 and 1"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_disconnected_start_cites_premise(self, tmp_path):
        payload = dict(MINIMAL)
        payload["robots"] = [
            {"pos": [0.0, 0.0], "subgroup": 1},
            {"pos": [5.0, 0.0], "subgroup": 2},
        ]
        with pytest.raises(ScenarioValidationError, match="start globally and per-subgroup"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_multiple_errors_reported_at_once(self, tmp_path):
        payload = dict(MINIMAL)
        payload["params"] = {"R_c": 0.6, "steps": -3}  # missing R_obs, bad steps
        try:
            load_scenario(write_scenario(tmp_path, payload))
        except ScenarioValidationError as e:
            assert len(e.violations) >= 1
            assert any("R_obs" in v for v in e.violations)
        else:
            pytest.fail("expected validation error")

    def test_bundled_scenarios_all_load(self):
        names = available()
        assert {"two_rooms_40", "two_rooms_64", "corner_pull_2", "open_rendezvous_8"} <= set(names)
        for name in names:
            sc = load_scenario(builtin_path(name))
            assert sc.n_robots >= 1

    @pytest.mark.parametrize("key, value", [
        ("dynamics", "unicycle"),
        ("lookahead", 0.05),
        ("obstacle_cutoff", 1.0),
        ("safety_cutoff", True),
    ])
    def test_unknown_key_rejected(self, tmp_path, key, value):
        payload = {**MINIMAL, key: value}
        with pytest.raises(ScenarioValidationError) as info:
            load_scenario(write_scenario(tmp_path, payload))
        assert info.value.violations == [f"unknown key {key!r}"]

    def test_misspelt_param_rejected(self, tmp_path):
        payload = {**MINIMAL, "params": {**MINIMAL["params"], "R_C": 0.6}}
        with pytest.raises(ScenarioValidationError) as info:
            load_scenario(write_scenario(tmp_path, payload))
        assert info.value.violations == ["unknown key 'params.R_C'"]

    @pytest.mark.parametrize("key, value, issue", [
        ("params", [1, 2], "params must be an object"),
        ("sites", [[0, 1]], "sites[0] must be an object"),
    ])
    def test_non_object_entry_rejected(self, tmp_path, key, value, issue):
        payload = {**MINIMAL, key: value}
        with pytest.raises(ScenarioValidationError) as info:
            load_scenario(write_scenario(tmp_path, payload))
        assert info.value.violations == [issue]

    def test_canonical_form_loads(self, tmp_path):
        # scenario_to_dict writes only keys the loader knows, optional ones too.
        sc = load_scenario(builtin_path("two_rooms_40"))
        sc.spacing, sc.nominal_gain, sc.comm_margin = 0.03, 0.8, 0.01
        again = load_scenario(write_scenario(tmp_path, scenario_to_dict(sc)))
        assert scenario_to_dict(again) == scenario_to_dict(sc)


class TestRunCommand:
    def test_writes_three_files(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(scenario), "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.csv", "summary.json", "trajectory.jsonl",
        ]

    def test_metrics_columns_exact(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ",".join(METRICS_COLUMNS)
        assert header == (
            "t,d_min_robot,d_min_obstacle,d_avg_target,lambda2,"
            "perturbation,solver_status,tree_edge_count,step_wall_time"
        )

    def test_trajectory_schema(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        lines = (out / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == MINIMAL["params"]["steps"]
        row = json.loads(lines[0])
        assert set(row) == {"t", "x", "u", "u_nominal", "tree"}
        assert np.asarray(row["x"]).shape == (2, 2)

    def test_method_override_and_seed(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out),
              "--method", "mccst", "--seed", "42"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "mccst"
        assert summary["seed"] == 42

    def test_deterministic_outputs(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(scenario), "--out", str(out1)])
        main(["run", "--scenario", str(scenario), "--out", str(out2)])
        assert (out1 / "trajectory.jsonl").read_text() == (out2 / "trajectory.jsonl").read_text()
        # metrics.csv identical except the wall-time column
        rows1 = [r.split(",")[:-1] for r in (out1 / "metrics.csv").read_text().splitlines()]
        rows2 = [r.split(",")[:-1] for r in (out2 / "metrics.csv").read_text().splitlines()]
        assert rows1 == rows2

    def test_validate_command(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        assert main(["validate", "--scenario", str(scenario)]) == 0
        bad = dict(MINIMAL)
        bad["robots"] = [
            {"pos": [0.0, 0.0], "subgroup": 1},
            {"pos": [9.0, 0.0], "subgroup": 2},
        ]
        assert main(["validate", "--scenario", str(write_scenario(tmp_path, bad, "b.json"))]) == 1

    @pytest.mark.parametrize("key, value, issue", [
        ("params", [1, 2], "params must be an object"),
        ("sites", [[0, 1]], "sites[0] must be an object"),
    ])
    def test_validate_reports_non_object_entry(self, tmp_path, capsys, key, value, issue):
        path = write_scenario(tmp_path, {**MINIMAL, key: value})
        assert main(["validate", "--scenario", str(path)]) == 1
        assert f"INVALID: {issue}" in capsys.readouterr().err.splitlines()

    def test_mccst_disconnection_is_not_a_failure(self, tmp_path):
        # A wall between the two subgroups: the range-only baseline keeps a
        # range edge through it, so the sight-line graph splits, the run still
        # exits 0, and the summary flags the disconnection.
        payload = {
            "robots": [
                {"pos": [0.10, 0.0], "subgroup": 1},
                {"pos": [0.24, 0.0], "subgroup": 1},
                {"pos": [0.38, 0.0], "subgroup": 2},
                {"pos": [0.52, 0.0], "subgroup": 2},
            ],
            "obstacles": [
                {"vertices": [[0.29, 0.15], [0.33, 0.15], [0.33, 1.0], [0.29, 1.0]]}
            ],
            "sites": [
                {"subgroup": 1, "kind": "rendezvous", "pos": [0.05, 0.9]},
                {"subgroup": 2, "kind": "rendezvous", "pos": [0.57, 0.9]},
            ],
            "params": {"R_obs": 0.05, "R_c": 0.5, "u_max": 0.3, "steps": 250,
                       "R_s": 0.04, "delta": 0.02},
            "spacing": 0.02,
            "method": "mccst",
            "seed": 0,
        }
        scenario = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(scenario), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert rc == 0
        assert summary["disconnected"] is True


class TestSweep:
    def test_sweep_layout_and_aggregate(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--scenario", str(scenario), "--out", str(out),
            "--sizes", "4,6", "--trials", "2", "--jobs", "2",
        ])
        assert rc == 0
        run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert run_dirs == [
            "size4_trial0", "size4_trial1", "size6_trial0", "size6_trial1",
        ]
        for d in run_dirs:
            assert (out / d / "metrics.csv").exists()
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 3  # header + one row per size

    def test_sweep_exits_nonzero_on_invariant_violation(self, tmp_path, monkeypatch, capsys):
        def planted(scenario, record):
            return ["planted"] if scenario.positions.shape[0] == 6 else []

        monkeypatch.setattr(cli, "_run_violations", planted)
        scenario = write_scenario(tmp_path, MINIMAL)
        rc = main([
            "sweep", "--scenario", str(scenario), "--out", str(tmp_path / "sweep"),
            "--sizes", "4,6", "--trials", "2", "--jobs", "1",
        ])
        assert rc == 1
        flagged = [l for l in capsys.readouterr().err.splitlines() if "INVARIANT VIOLATED" in l]
        assert flagged == [
            "INVARIANT VIOLATED: size 6 trial 0: planted",
            "INVARIANT VIOLATED: size 6 trial 1: planted",
        ]
        assert (tmp_path / "sweep" / "aggregate.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_aggregate_recomputes_from_run_csvs(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "sweep"
        main([
            "sweep", "--scenario", str(scenario), "--out", str(out),
            "--sizes", "4", "--trials", "3",
        ])
        header, *rows = (out / "aggregate.csv").read_text().splitlines()
        cols = header.split(",")
        agg = dict(zip(cols, rows[0].split(",")))
        assert agg["size"] == "4"
        assert agg["trials"] == "3"

        per_run = {"step_wall_time": [], "d_min_robot": [], "perturbation": [],
                   "d_avg_target_final": [], "lambda2_min": [], "d_min_obstacle": []}
        for trial in range(3):
            lines = (out / f"size4_trial{trial}" / "metrics.csv").read_text().splitlines()
            names = lines[0].split(",")
            data = [dict(zip(names, l.split(","))) for l in lines[1:]]
            per_run["step_wall_time"].append(np.mean([float(r["step_wall_time"]) for r in data]))
            per_run["d_min_robot"].append(np.min([float(r["d_min_robot"]) for r in data]))
            per_run["d_min_obstacle"].append(np.min([float(r["d_min_obstacle"]) for r in data]))
            per_run["d_avg_target_final"].append(float(data[-1]["d_avg_target"]))
            per_run["lambda2_min"].append(np.min([float(r["lambda2"]) for r in data]))
            per_run["perturbation"].append(np.mean([float(r["perturbation"]) for r in data]))
        for field, values in per_run.items():
            assert np.isclose(float(agg[f"{field}_mean"]), np.mean(values), atol=1e-12)
            if np.all(np.isinf(values)):
                # Obstacle-free runs: every clearance is inf, and equal trial
                # values spread by exactly 0.
                assert field == "d_min_obstacle"
                assert float(agg[f"{field}_std"]) == 0.0
            else:
                assert np.isclose(float(agg[f"{field}_std"]), np.std(values), atol=1e-12)

    def test_sweep_placements_deterministic(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            main(["sweep", "--scenario", str(scenario), "--out", str(out),
                  "--sizes", "5", "--trials", "1"])
        t1 = (out1 / "size5_trial0" / "trajectory.jsonl").read_text()
        t2 = (out2 / "size5_trial0" / "trajectory.jsonl").read_text()
        assert t1 == t2
