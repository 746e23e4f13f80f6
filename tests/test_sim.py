import dataclasses

import numpy as np
import pytest

from losnet import qp
from losnet.barriers import BarrierParams
from losnet.behaviors import TaskSite
from losnet.errors import ScenarioValidationError
from losnet.geometry import ObstacleField, Polygon
from losnet.sim import (
    Scenario,
    _lambda2_from_edges,
    initial_state,
    lambda2_los,
    min_obstacle_distance,
    min_pairwise_distance,
    nominal_controls,
    run,
    scenario_hash,
    step,
    target_distances,
    validate_scenario,
)

PARAMS = BarrierParams(r_safety=0.04, r_obstacle=0.06, r_comm=0.6, u_max=0.3, gamma=1.0)


def make_scenario(positions, subgroups, sites, steps=10, obstacles=(), **kw):
    return Scenario(
        positions=np.asarray(positions, float),
        subgroups=np.asarray(subgroups, int),
        obstacles=tuple(obstacles),
        sites=sites,
        params=kw.pop("params", PARAMS),
        dt=kw.pop("dt", 0.02),
        steps=steps,
        method=kw.pop("method", "mlccst"),
        seed=kw.pop("seed", 0),
        **kw,
    )


class TestLambda2:
    def test_path_three(self):
        field = ObstacleField.empty()
        x = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        assert lambda2_los(x, field, PARAMS) == pytest.approx(1.0, abs=1e-9)

    def test_complete_three(self):
        field = ObstacleField.empty()
        x = np.array([[0.0, 0.0], [0.3, 0.0], [0.15, 0.25]])
        assert lambda2_los(x, field, PARAMS) == pytest.approx(3.0, abs=1e-9)

    def test_two_isolated(self):
        field = ObstacleField.empty()
        x = np.array([[0.0, 0.0], [5.0, 0.0]])
        assert lambda2_los(x, field, PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_wall_disconnects(self):
        wall = Polygon(np.array([[0.2, -1.0], [0.3, -1.0], [0.3, 1.0], [0.2, 1.0]]))
        field = ObstacleField(
            polygons=(wall,), points=np.array([[0.25, 0.0]]), spacing=1.0
        )
        x = np.array([[0.0, 0.0], [0.5, 0.0]])
        assert lambda2_los(x, field, PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_laplacian_matches_dense_loop(self, rng):
        # The Laplacian built from the edge arrays is the one a per-edge loop
        # builds, entry for entry, so the eigenvalue is bit-identical.
        for _ in range(50):
            n = int(rng.integers(2, 14))
            i, j = np.triu_indices(n, 1)
            keep = rng.random(i.size) < rng.uniform(0.0, 0.8)
            edges = np.stack([i[keep], j[keep]], axis=1)[rng.permutation(int(keep.sum()))]
            lap = np.zeros((n, n))
            for a, b in edges.tolist():
                lap[a, a] += 1.0
                lap[b, b] += 1.0
                lap[a, b] -= 1.0
                lap[b, a] -= 1.0
            expected = float(np.linalg.eigvalsh(lap)[1])
            assert _lambda2_from_edges(n, edges) == expected
            assert _lambda2_from_edges(n, edges.tolist()) == expected
        assert _lambda2_from_edges(3, np.zeros((0, 2), np.int64)) == 0.0
        assert _lambda2_from_edges(1, np.zeros((0, 2), np.int64)) == 0.0


class TestStep:
    def test_single_robot_moves_exactly(self):
        sites = {1: TaskSite(position=np.array([1.0, 0.0]))}
        sc = make_scenario([[0.0, 0.0]], [1], sites, steps=1)
        state = initial_state(sc)
        u_hat = nominal_controls(state.positions, sc)
        new_state, metrics = step(state, sc)
        np.testing.assert_allclose(
            new_state.positions, state.positions + u_hat * sc.dt, atol=1e-12
        )
        assert metrics.solver_status == qp.STATUS_OPTIMAL

    def test_static_equilibrium(self):
        sites = {1: TaskSite(position=np.array([0.0, 0.0])),
                 2: TaskSite(position=np.array([0.3, 0.0]))}
        sc = make_scenario([[0.0, 0.0], [0.3, 0.0]], [1, 2], sites, steps=3)
        state = initial_state(sc)
        for _ in range(3):
            state, metrics = step(state, sc)
            assert metrics.perturbation == pytest.approx(0.0, abs=1e-16)
        np.testing.assert_allclose(state.positions, sc.positions, atol=1e-12)

    def test_opposing_pull_at_range_limit(self):
        # Two robots at the certificate range limit pulled apart: the QP must
        # equal the closed-form projection onto the single active row.
        sites = {1: TaskSite(position=np.array([-5.0, 0.0])),
                 2: TaskSite(position=np.array([5.0, 0.0]))}
        sc = make_scenario([[0.0, 0.0], [0.588, 0.0]], [1, 2], sites, steps=1)
        d0 = 0.588
        assert d0 == pytest.approx(sc.cert_params.r_comm, abs=1e-12)
        state = initial_state(sc)
        new_state, metrics = step(state, sc)
        u = new_state.controls
        u_hat = nominal_controls(state.positions, sc)
        # Active connectivity row: 2 dx (u_0 - u_1) <= gamma h = 0.
        x = state.positions
        g = 2.0 * (x[0] - x[1])
        a_row = np.concatenate([g, -g])
        viol = a_row @ u_hat.ravel()
        expected = u_hat.ravel() - max(viol, 0.0) / (a_row @ a_row) * a_row
        np.testing.assert_allclose(u.ravel(), expected, atol=1e-6)
        d1 = np.linalg.norm(new_state.positions[0] - new_state.positions[1])
        assert d1 <= sc.params.r_comm + sc.params.gamma * sc.dt

    def test_mccst_skips_los_rows(self):
        wall = Polygon(np.array([[0.2, -0.5], [0.3, -0.5], [0.3, 0.5], [0.2, 0.5]]))
        sites = {1: TaskSite(position=np.array([0.0, 0.0])),
                 2: TaskSite(position=np.array([0.5, 0.0]))}
        sc = make_scenario(
            [[0.0, 0.0], [0.5, 0.0]], [1, 2], sites, steps=1, method="mccst",
            obstacles=(wall,),
        )
        state = initial_state(sc)
        # Robots are range-connected but wall-occluded: the range baseline
        # still maintains the edge.
        new_state, metrics = step(state, sc)
        assert metrics.tree_edges == ((0, 1),)
        assert metrics.lambda2 == pytest.approx(0.0, abs=1e-12)


class TestRun:
    def _small_scenario(self, steps=5, method="mlccst"):
        sites = {1: TaskSite(position=np.array([-0.3, 0.2])),
                 2: TaskSite(position=np.array([0.6, 0.2]))}
        return make_scenario(
            [[0.0, 0.0], [0.3, 0.0], [0.15, 0.25]], [1, 1, 2], sites,
            steps=steps, method=method,
        )

    def test_zero_steps_records_initial_only(self):
        rec = run(self._small_scenario(steps=0))
        assert rec.metrics == []
        assert rec.positions.shape == (1, 3, 2)

    def test_determinism_bit_identical(self):
        sc = self._small_scenario(steps=8)
        r1 = run(sc)
        r2 = run(self._small_scenario(steps=8))
        np.testing.assert_array_equal(r1.positions, r2.positions)
        np.testing.assert_array_equal(r1.controls, r2.controls)
        np.testing.assert_array_equal(r1.nominals, r2.nominals)
        assert r1.scenario_hash == r2.scenario_hash
        for m1, m2 in zip(r1.metrics, r2.metrics):
            # Everything except the wall-clock timing is reproducible.
            assert m1.t == m2.t
            assert m1.d_min_robot == m2.d_min_robot
            assert m1.lambda2 == m2.lambda2
            assert m1.perturbation == m2.perturbation
            assert m1.tree_edges == m2.tree_edges

    def test_metrics_recompute_from_record(self):
        sc = self._small_scenario(steps=6)
        rec = run(sc)
        for k, m in enumerate(rec.metrics):
            x = rec.positions[k]
            assert m.d_min_robot == pytest.approx(min_pairwise_distance(x), abs=1e-12)
            assert m.d_min_obstacle == pytest.approx(
                min_obstacle_distance(x, sc.field), abs=1e-12
            )
            assert m.d_avg_target == pytest.approx(
                float(np.mean(target_distances(x, sc))), abs=1e-12
            )
            assert m.lambda2 == pytest.approx(
                lambda2_los(x, sc.field, sc.params), abs=1e-12
            )
            diff = rec.controls[k] - rec.nominals[k]
            assert m.perturbation == pytest.approx(
                float(np.mean(np.sum(diff * diff, axis=1))), abs=1e-14
            )

    def test_scenario_hash_changes_with_seed(self):
        a = self._small_scenario()
        b = self._small_scenario()
        b.seed = 99
        assert scenario_hash(a) != scenario_hash(b)


class TestValidation:
    def test_safety_violation_names_pair(self):
        sites = {1: TaskSite(position=np.array([0.0, 0.0]))}
        sc = make_scenario([[0.0, 0.0], [0.01, 0.0]], [1, 1], sites)
        issues = validate_scenario(sc)
        assert any("robots 0 and 1" in v for v in issues)

    def test_disconnected_start_cites_premise(self):
        sites = {1: TaskSite(position=np.array([0.0, 0.0]))}
        sc = make_scenario([[0.0, 0.0], [5.0, 0.0]], [1, 1], sites)
        issues = validate_scenario(sc)
        assert any("start globally and per-subgroup" in v for v in issues)

    def test_subgroup_disconnected_start(self):
        # Chain 1-2-1: global graph connected, subgroup 1 split by subgroup 2.
        sites = {1: TaskSite(position=np.array([0.0, 0.0])),
                 2: TaskSite(position=np.array([0.5, 0.0]))}
        sc = make_scenario(
            [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], [1, 2, 1], sites,
        )
        issues = validate_scenario(sc)
        assert any("subgroup 1 starts" in v for v in issues)

    def test_robot_inside_obstacle(self):
        square = Polygon(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
        sites = {1: TaskSite(position=np.array([0.0, 3.0]))}
        sc = make_scenario([[0.0, 0.0], [0.0, 0.2]], [1, 1], sites, obstacles=(square,))
        issues = validate_scenario(sc)
        assert any("inside obstacle polygon" in v for v in issues)

    def test_missing_site(self):
        sites = {1: TaskSite(position=np.array([0.0, 0.0]))}
        sc = make_scenario([[0.0, 0.0], [0.3, 0.0]], [1, 7], sites)
        issues = validate_scenario(sc)
        assert any("subgroup 7 has no task site" in v for v in issues)

    def test_run_raises_on_invalid(self):
        sites = {1: TaskSite(position=np.array([0.0, 0.0]))}
        sc = make_scenario([[0.0, 0.0], [0.01, 0.0]], [1, 1], sites)
        with pytest.raises(ScenarioValidationError):
            run(sc)

    def test_valid_scenario_passes(self):
        sites = {1: TaskSite(position=np.array([0.0, 0.0])),
                 2: TaskSite(position=np.array([0.5, 0.0]))}
        sc = make_scenario([[0.0, 0.0], [0.3, 0.0]], [1, 2], sites)
        assert validate_scenario(sc) == []


class TestTreeFallback:
    def test_certificate_pulls_pair_inside_margin(self):
        # Opposing pulls with a large certificate margin: the pair relaxes
        # exponentially (rate gamma) toward the reduced range.
        params = dataclasses.replace(PARAMS, r_comm=0.5, u_max=1.0)
        sites = {1: TaskSite(position=np.array([-3.0, 0.0])),
                 2: TaskSite(position=np.array([3.0, 0.0]))}
        sc = make_scenario(
            [[-0.2, 0.0], [0.2, 0.0]], [1, 2], sites, steps=300,
            params=params, method="mccst", comm_margin=0.3,
        )
        rec = run(sc)
        assert rec.summary["tree_fallback_count"] == 0
        assert all(m.tree_edges == ((0, 1),) for m in rec.metrics)
        d = np.linalg.norm(rec.positions[-1, 0] - rec.positions[-1, 1])
        assert d <= params.r_comm - sc.effective_comm_margin + 0.01

    def test_previous_tree_reused_when_graph_splits(self):
        # Drive step() directly from a hand-built state whose robots already
        # sit beyond range; the range graph is empty, so the previous tree is
        # reused (flagged) and its certificate pulls the pair back together.
        from losnet.sim import SimState
        from losnet.topology import SpanningTree

        params = dataclasses.replace(PARAMS, r_comm=0.5, u_max=1.0)
        sites = {1: TaskSite(position=np.array([0.0, 0.0])),
                 2: TaskSite(position=np.array([0.8, 0.0]))}
        sc = make_scenario(
            [[0.0, 0.0], [0.4, 0.0]], [1, 2], sites, steps=1,
            params=params, method="mccst",
        )
        state = SimState(
            positions=np.array([[0.0, 0.0], [0.8, 0.0]]),
            t=5,
            tree=SpanningTree(((0, 1),), 0.0),
            controls=np.zeros((2, 2)),
            nominals=np.zeros((2, 2)),
        )
        new_state, metrics = step(state, sc)
        assert metrics.tree_fallback is True
        assert metrics.tree_edges == ((0, 1),)
        d0 = 0.8
        d1 = np.linalg.norm(new_state.positions[0] - new_state.positions[1])
        assert d1 < d0  # the reused certificate forces re-approach
