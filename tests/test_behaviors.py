import math

import numpy as np
import pytest

from losnet.barriers import BarrierParams
from losnet.behaviors import TaskSite, circle_slot
from losnet.sim import Scenario, nominal_controls, target_distances


def scenario(positions, subgroups, sites, *, cap=10.0, gain=1.0) -> Scenario:
    """Scenario whose speed box has half-width `cap` (u_max = cap * sqrt(2))."""
    params = BarrierParams(
        r_safety=0.04, r_obstacle=0.06, r_comm=0.6, u_max=cap * math.sqrt(2.0)
    )
    return Scenario(
        positions=np.asarray(positions, float),
        subgroups=np.asarray(subgroups, int),
        obstacles=(),
        sites=sites,
        params=params,
        nominal_gain=gain,
    )


def controls_at(x, sc: Scenario) -> np.ndarray:
    return nominal_controls(np.asarray(x, float).reshape(-1, 2), sc)


class TestRendezvous:
    def test_at_site_is_fixed_point(self):
        sc = scenario([[0.0, 0.0]], [1], {1: TaskSite(position=np.array([2.0, -1.0]))})
        np.testing.assert_allclose(controls_at([2, -1], sc), [[0, 0]])

    def test_proportional_pull(self):
        sc = scenario([[0.0, 0.0]], [1], {1: TaskSite(position=np.array([1.0, 0.0]))})
        np.testing.assert_allclose(controls_at([0, 0], sc), [[1, 0]])
        sc = scenario(
            [[0.0, 0.0]], [1], {1: TaskSite(position=np.array([1.0, 0.0]))}, gain=0.5
        )
        np.testing.assert_allclose(controls_at([0, 0], sc), [[0.5, 0]])

    def test_speed_cap(self):
        sc = scenario(
            [[0.0, 0.0]], [1], {1: TaskSite(position=np.array([100.0, 0.0]))}, cap=2.0
        )
        np.testing.assert_allclose(controls_at([0, 0], sc), [[2, 0]])

    def test_bounded_and_continuous(self, rng):
        x = rng.uniform(-10, 10, (50, 2))
        sc = scenario(
            x, np.ones(50, int), {1: TaskSite(position=np.array([0.5, 0.5]))},
            cap=0.7, gain=1.3,
        )
        u = nominal_controls(x, sc)
        u_near = nominal_controls(x + 1e-9, sc)
        assert np.all(np.linalg.norm(u, axis=1) <= 0.7 + 1e-12)
        assert np.all(np.linalg.norm(u - u_near, axis=1) < 1e-7)


class TestCircleFormation:
    def test_slot_angles_quarter(self):
        site = TaskSite(position=np.zeros(2), kind="circle", radius=1.0)
        slots = [circle_slot(site, k, 4) for k in range(4)]
        np.testing.assert_allclose(slots[0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(slots[1], [0, 1], atol=1e-12)
        np.testing.assert_allclose(slots[2], [-1, 0], atol=1e-12)
        np.testing.assert_allclose(slots[3], [0, -1], atol=1e-12)

    def test_targets_take_slots_in_index_order(self):
        # Subgroup 1's four robots sit at indices 0, 2, 4, 5: slots 0..3 of 4.
        circle = TaskSite(position=np.array([1.0, 2.0]), kind="circle", radius=0.5)
        point = TaskSite(position=np.array([-3.0, 0.0]))
        sc = scenario(np.zeros((6, 2)), [1, 2, 1, 2, 1, 1], {1: circle, 2: point})
        expected = [
            circle_slot(circle, 0, 4), point.position, circle_slot(circle, 1, 4),
            point.position, circle_slot(circle, 2, 4), circle_slot(circle, 3, 4),
        ]
        np.testing.assert_array_equal(sc.targets, np.array(expected))

    def test_robot_at_slot_is_fixed_point(self):
        site = TaskSite(position=np.zeros(2), kind="circle", radius=1.0)
        x = [[1, 0], [0, 1], [-1, 0], [0, -1]]
        sc = scenario(x, [1, 1, 1, 1], {1: site})
        np.testing.assert_allclose(controls_at(x, sc), np.zeros((4, 2)), atol=1e-12)
        np.testing.assert_allclose(target_distances(x, sc), np.zeros(4), atol=1e-12)

    def test_pull_towards_slot(self):
        site = TaskSite(position=np.zeros(2), kind="circle", radius=1.0)
        x = [[2, 0], [0, 1], [-1, 0], [0, -1]]
        sc = scenario(x, [1, 1, 1, 1], {1: site})
        np.testing.assert_allclose(controls_at(x, sc)[0], [-1, 0], atol=1e-12)
        assert target_distances(x, sc)[0] == pytest.approx(1.0, abs=1e-12)

    def test_radius_required(self):
        with pytest.raises(ValueError):
            TaskSite(position=np.zeros(2), kind="circle", radius=0.0)


def _reference(x, sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-robot loop: target from the site, proportional pull, speed cap."""
    cap = sc.params.box_bound(2)
    u = np.zeros_like(x)
    dist = np.zeros(x.shape[0])
    for r in range(x.shape[0]):
        label = int(sc.subgroups[r])
        site = sc.sites[label]
        members = np.nonzero(sc.subgroups == label)[0]
        if site.kind == "circle":
            rank = int(np.nonzero(members == r)[0][0])
            target = circle_slot(site, rank, len(members))
        else:
            target = site.position
        cmd = sc.nominal_gain * (target - x[r])
        speed = float(np.linalg.norm(cmd))
        if speed > cap:
            cmd *= cap / speed
        u[r] = cmd
        dist[r] = float(np.linalg.norm(target - x[r]))
    return u, dist


class TestMatchesPerRobotLoop:
    def test_exact_equality_on_random_teams(self, rng):
        capped = free = 0
        for _ in range(4):
            n = 600
            labels = [1, 2, 3, 4]
            sites = {
                1: TaskSite(position=rng.uniform(-2, 2, 2)),
                2: TaskSite(position=rng.uniform(-2, 2, 2), kind="circle",
                            radius=float(rng.uniform(0.1, 1.0))),
                3: TaskSite(position=rng.uniform(-2, 2, 2)),
                4: TaskSite(position=rng.uniform(-2, 2, 2), kind="circle",
                            radius=float(rng.uniform(0.1, 1.0))),
            }
            x = rng.uniform(-2.5, 2.5, (n, 2))
            sc = scenario(
                x, rng.choice(labels, n), sites,
                cap=float(rng.uniform(0.5, 2.5)), gain=float(rng.uniform(0.5, 2.0)),
            )
            ref_u, ref_d = _reference(x, sc)
            np.testing.assert_array_equal(nominal_controls(x, sc), ref_u)
            np.testing.assert_array_equal(target_distances(x, sc), ref_d)
            speed = sc.nominal_gain * ref_d
            capped += int(np.count_nonzero(speed > sc.params.box_bound(2)))
            free += int(np.count_nonzero(speed < sc.params.box_bound(2)))
        # Both sides of the cap are exercised.
        assert capped > 300 and free > 300
