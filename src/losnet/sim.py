"""Step-wise simulation loop: build the sight-line graph, score its edges,
pick the maintained spanning tree, assemble the certificate rows, solve the
minimally invasive QP, and integrate. Also the per-step metrics and the run
recorder.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from functools import cached_property

import numpy as np

from . import qp
from .barriers import BarrierParams, assemble_system
from .behaviors import TaskSite, UnicycleState, circle_slot, unicycle_map
from .errors import ConnectivityLossError, ScenarioValidationError
from .geometry import (
    ObstacleField,
    Polygon,
    discretize_obstacles,
    points_strictly_inside,
    segments_occluded,
)
from .topology import (
    SpanningTree,
    WeightedLosGraph,
    build_los_graph,
    mccst_baseline,
    mlccst,
    tree_ellipsoids,
    verify_subgroup_connectivity,
    weigh_edges,
)

METHODS = ("mlccst", "mccst", "fixed")

LAMBDA2_TOL = 1e-9


@dataclasses.dataclass(eq=False)
class Scenario:
    """Full description of one simulation: team, world, tasks, and knobs."""

    positions: np.ndarray
    subgroups: np.ndarray
    obstacles: tuple[Polygon, ...]
    sites: dict[int, TaskSite]
    params: BarrierParams
    dt: float = 0.02
    steps: int = 0
    method: str = "mlccst"
    seed: int = 0
    dynamics: str = "single"
    lookahead: float = 0.05
    spacing: float | None = None
    nominal_gain: float = 1.0
    qp_tol: float = qp.DEFAULT_TOL
    qp_max_iter: int = qp.DEFAULT_MAX_ITER
    safety_cutoff_enabled: bool = False
    obstacle_cutoff: float | None = None
    comm_margin: float | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        self.subgroups = np.asarray(self.subgroups, dtype=np.int64).ravel()
        self.obstacles = tuple(self.obstacles)

    @property
    def n_robots(self) -> int:
        return int(self.positions.shape[0])

    @property
    def effective_comm_margin(self) -> float:
        """Range margin the certificates keep below the true communication
        radius. Maintained edges settle at r_comm minus this margin, so the
        one-step integration overshoot can never push an enforced edge out of
        the strict graph membership test."""
        if self.comm_margin is not None:
            return self.comm_margin
        return 2.0 * self.params.u_max * self.dt

    @cached_property
    def cert_params(self) -> BarrierParams:
        return dataclasses.replace(
            self.params, r_comm=self.params.r_comm - self.effective_comm_margin
        )

    @cached_property
    def field(self) -> ObstacleField:
        spacing = self.spacing if self.spacing is not None else self.params.r_obstacle / 2.0
        return discretize_obstacles(self.obstacles, spacing)

    @cached_property
    def slots(self) -> dict[int, tuple[int, int]]:
        """robot index -> (slot index, slot count) within its subgroup."""
        out: dict[int, tuple[int, int]] = {}
        for label in np.unique(self.subgroups):
            members = np.nonzero(self.subgroups == label)[0]
            for rank, r in enumerate(members):
                out[int(r)] = (rank, len(members))
        return out


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON-ready form of a scenario (also the CLI file schema)."""
    p = scenario.params
    out = {
        "robots": [
            {"pos": [float(x), float(y)], "subgroup": int(s)}
            for (x, y), s in zip(scenario.positions, scenario.subgroups)
        ],
        "obstacles": [
            {"vertices": [[float(a), float(b)] for a, b in poly.vertices]}
            for poly in scenario.obstacles
        ],
        "sites": [
            {
                "subgroup": int(label),
                "kind": site.kind,
                "pos": [float(site.position[0]), float(site.position[1])],
                **({"radius": float(site.radius)} if site.kind == "circle" else {}),
            }
            for label, site in sorted(scenario.sites.items())
        ],
        "params": {
            "R_s": p.r_safety,
            "R_obs": p.r_obstacle,
            "R_c": p.r_comm,
            "gamma": p.gamma,
            "u_max": p.u_max,
            "delta": p.delta,
            "dt": scenario.dt,
            "steps": scenario.steps,
        },
        "method": scenario.method,
        "seed": scenario.seed,
    }
    if scenario.dynamics != "single":
        out["dynamics"] = scenario.dynamics
        out["lookahead"] = scenario.lookahead
    if scenario.spacing is not None:
        out["spacing"] = scenario.spacing
    if scenario.nominal_gain != 1.0:
        out["nominal_gain"] = scenario.nominal_gain
    if scenario.comm_margin is not None:
        out["comm_margin"] = scenario.comm_margin
    if scenario.obstacle_cutoff is not None:
        out["obstacle_cutoff"] = scenario.obstacle_cutoff
    if scenario.safety_cutoff_enabled:
        out["safety_cutoff"] = True
    return out


def scenario_hash(scenario: Scenario) -> str:
    payload = json.dumps(scenario_to_dict(scenario), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def validate_scenario(scenario: Scenario) -> list[str]:
    """Collect every violated load-time invariant; empty list means valid."""
    issues: list[str] = []
    x = scenario.positions
    n = scenario.n_robots
    p = scenario.params
    if n < 1:
        return ["scenario has no robots"]
    if not np.all(np.isfinite(x)):
        issues.append("robot positions contain non-finite values")
        return issues
    if scenario.subgroups.size != n:
        issues.append(
            f"subgroup list length {scenario.subgroups.size} does not match {n} robots"
        )
        return issues
    if scenario.method not in METHODS:
        issues.append(f"unknown method {scenario.method!r}; expected one of {METHODS}")
    if scenario.dynamics not in ("single", "unicycle"):
        issues.append(f"unknown dynamics {scenario.dynamics!r}")
    if scenario.dt <= 0:
        issues.append(f"dt must be positive, got {scenario.dt}")
    if scenario.steps < 0:
        issues.append(f"steps must be nonnegative, got {scenario.steps}")
    if 2.0 * p.delta > p.r_safety + 1e-12:
        issues.append(
            f"ellipsoid thickness delta={p.delta} too large: robots {p.r_safety} apart "
            "could not support an edge ellipsoid (need 2*delta <= R_s)"
        )
    if scenario.effective_comm_margin >= p.r_comm - p.r_safety:
        issues.append(
            f"communication margin {scenario.effective_comm_margin} leaves no usable "
            f"range between R_s={p.r_safety} and R_c={p.r_comm}"
        )
    for label in np.unique(scenario.subgroups):
        if int(label) not in scenario.sites:
            issues.append(f"subgroup {int(label)} has no task site")
    if issues:
        return issues

    small, large = np.triu_indices(n, 1)
    if small.size:
        dist = np.linalg.norm(x[large] - x[small], axis=1)
        for k in np.nonzero(dist <= p.r_safety)[0]:
            issues.append(
                f"robots {small[k]} and {large[k]} start {dist[k]:.4f} m apart, "
                f"within the safety radius {p.r_safety}"
            )
    field = scenario.field
    if field.n_points:
        d_obs = np.linalg.norm(
            x[:, None, :] - field.points[None, :, :], axis=2
        ).min(axis=1)
        for r in np.nonzero(d_obs <= p.r_obstacle)[0]:
            issues.append(
                f"robot {r} starts {d_obs[r]:.4f} m from an obstacle, "
                f"within the obstacle radius {p.r_obstacle}"
            )
    for k, poly in enumerate(field.polygons):
        inside = points_strictly_inside(x, poly)
        for r in np.nonzero(inside)[0]:
            issues.append(f"robot {r} starts inside obstacle polygon {k}")
    if issues:
        return issues

    if n >= 2:
        edges = build_los_graph(x, field, p).edges
        if _lambda2_from_edges(n, edges) <= LAMBDA2_TOL:
            issues.append(
                "initial sight-line graph is disconnected; the maintenance guarantee "
                "requires the team to start globally and per-subgroup sight-line connected"
            )
        else:
            for label in np.unique(scenario.subgroups):
                members = scenario.subgroups == label
                local = np.cumsum(members) - 1  # index of each member within its subgroup
                sub = local[edges[members[edges].all(axis=1)]]
                count = int(members.sum())
                if count >= 2 and _lambda2_from_edges(count, sub) <= LAMBDA2_TOL:
                    issues.append(
                        f"subgroup {int(label)} starts sight-line disconnected; the "
                        "maintenance guarantee requires initial per-subgroup connectivity"
                    )
    return issues


@dataclasses.dataclass(frozen=True)
class SimState:
    """World state between steps. `controls`/`nominals` are the commands that
    produced this state (zero-filled at t=0). `qp_warm` carries the previous
    step's nonzero dual values keyed by row identity; it only accelerates the
    next solve and never changes its converged answer."""

    positions: np.ndarray
    headings: np.ndarray | None
    t: int
    tree: SpanningTree | None
    controls: np.ndarray
    nominals: np.ndarray
    qp_warm: dict | None = None


@dataclasses.dataclass(frozen=True)
class StepMetrics:
    t: int
    d_min_robot: float
    d_min_obstacle: float
    d_avg_target: float
    lambda2: float
    perturbation: float
    tree_edges: tuple[tuple[int, int], ...]
    solver_status: str
    step_wall_time: float
    tree_fallback: bool = False
    occluded_tree_edges: int = 0


@dataclasses.dataclass
class RunRecord:
    scenario_hash: str
    metrics: list[StepMetrics]
    positions: np.ndarray
    controls: np.ndarray
    nominals: np.ndarray
    headings: np.ndarray | None
    summary: dict


def initial_state(scenario: Scenario) -> SimState:
    n = scenario.n_robots
    headings = np.zeros(n) if scenario.dynamics == "unicycle" else None
    return SimState(
        positions=scenario.positions.copy(),
        headings=headings,
        t=0,
        tree=None,
        controls=np.zeros((n, 2)),
        nominals=np.zeros((n, 2)),
    )


def nominal_controls(positions, scenario: Scenario) -> np.ndarray:
    """Task controller per robot: attraction to the subgroup site or to the
    robot's formation slot, capped to fit the per-component speed box."""
    x = np.asarray(positions, dtype=np.float64)
    cap = scenario.params.box_bound(2)
    gain = scenario.nominal_gain
    u = np.zeros_like(x)
    for r in range(x.shape[0]):
        site = scenario.sites[int(scenario.subgroups[r])]
        target = _target_point(scenario, r, site)
        cmd = gain * (target - x[r])
        speed = float(np.linalg.norm(cmd))
        if speed > cap:
            cmd *= cap / speed
        u[r] = cmd
    return u


def _target_point(scenario: Scenario, robot: int, site: TaskSite) -> np.ndarray:
    if site.kind == "circle":
        slot, count = scenario.slots[robot]
        return circle_slot(site, slot, count)
    return site.position


def target_distances(positions, scenario: Scenario) -> np.ndarray:
    x = np.asarray(positions, dtype=np.float64)
    out = np.zeros(x.shape[0])
    for r in range(x.shape[0]):
        site = scenario.sites[int(scenario.subgroups[r])]
        out[r] = float(np.linalg.norm(_target_point(scenario, r, site) - x[r]))
    return out


def min_pairwise_distance(positions) -> float:
    x = np.asarray(positions, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        return math.inf
    small, large = np.triu_indices(n, 1)
    return float(np.min(np.linalg.norm(x[large] - x[small], axis=1)))


def min_obstacle_distance(positions, field: ObstacleField) -> float:
    if field.n_points == 0:
        return math.inf
    x = np.asarray(positions, dtype=np.float64)
    return float(
        np.min(np.linalg.norm(x[:, None, :] - field.points[None, :, :], axis=2))
    )


def _lambda2_from_edges(n: int, edges) -> float:
    """Second-smallest eigenvalue of the 0/1 Laplacian of n nodes and the
    given (E, 2) edge array. Entries are small integers, hence exact."""
    if n < 2:
        return 0.0
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lap = np.zeros((n, n))
    np.add.at(lap, (e[:, 0], e[:, 1]), -1.0)
    np.add.at(lap, (e[:, 1], e[:, 0]), -1.0)
    lap[np.diag_indices(n)] = np.bincount(e.ravel(), minlength=n)
    return float(np.linalg.eigvalsh(lap)[1])


def lambda2_los(states, field: ObstacleField, params: BarrierParams) -> float:
    """Algebraic connectivity of the 0/1 sight-line graph: second-smallest
    Laplacian eigenvalue. Positive iff the graph is connected."""
    x = np.asarray(states, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        return 0.0
    small, large = np.triu_indices(n, 1)
    dist = np.linalg.norm(x[large] - x[small], axis=1)
    in_range = dist <= params.r_comm
    small, large = small[in_range], large[in_range]
    if small.size:
        clear = ~segments_occluded(x[small], x[large], field)
        small, large = small[clear], large[clear]
    return _lambda2_from_edges(n, np.stack([small, large], axis=1))


def _select_tree(
    state: SimState,
    scenario: Scenario,
    graph: WeightedLosGraph,
    positions: np.ndarray,
    u_hat: np.ndarray,
) -> tuple[SpanningTree, bool, int]:
    """Tree for this step per the configured method, whether it is a
    fallback, and how many of its edges the weighed graph flags `occluded`
    (their ellipsoid test fails; only `mlccst` weighs the graph). Falls back
    to the previously enforced tree when the graph no longer spans, which
    keeps the run going (and is the expected behavior of the range-only
    baseline)."""
    method = scenario.method
    fallback = False
    if method == "fixed" and state.tree is not None:
        return state.tree, False, 0
    if method == "mccst":
        try:
            tree = mccst_baseline(positions, u_hat, scenario.params, scenario.subgroups)
        except ConnectivityLossError:
            if state.tree is None:
                raise
            tree, fallback = state.tree, True
        return tree, fallback, 0
    weighted = weigh_edges(
        graph, positions, u_hat, scenario.field, scenario.params,
        subgroups=scenario.subgroups,
    )
    try:
        tree = mlccst(weighted)
    except ConnectivityLossError:
        if state.tree is None:
            raise
        tree, fallback = state.tree, True
    flagged = set(map(tuple, weighted.edges[weighted.occluded].tolist()))
    return tree, fallback, sum(e in flagged for e in tree.edges)


def step(state: SimState, scenario: Scenario) -> tuple[SimState, StepMetrics]:
    """Advance the world by one control period.

    Pipeline: sight-line graph, edge weights, maintained tree (per method),
    certificate rows over the tree, minimally invasive QP, Euler integration.
    The returned metrics describe the state the decisions were made at.
    """
    t_start = time.perf_counter()
    x = state.positions
    params = scenario.params
    field = scenario.field
    u_hat = nominal_controls(x, scenario)

    graph = build_los_graph(x, field, params)
    tree, fallback, occluded_edges = _select_tree(state, scenario, graph, x, u_hat)
    ellipsoids = (
        None if scenario.method == "mccst" else tree_ellipsoids(x, tree, params.delta)
    )

    safety_cutoff = (
        params.r_comm + 2.0 * params.u_max * scenario.dt
        if scenario.safety_cutoff_enabled
        else None
    )
    system = assemble_system(
        x, field, tree.edges, ellipsoids, scenario.cert_params,
        safety_cutoff=safety_cutoff,
        obstacle_cutoff=scenario.obstacle_cutoff,
    )
    problem = qp.QpProblem(target=u_hat.ravel(), system=system, box=params.box_bound(2))
    solution = qp.solve(
        problem, tol=scenario.qp_tol, max_iter=scenario.qp_max_iter,
        warm_start=state.qp_warm,
    )
    u = solution.u.reshape(x.shape)
    active = np.nonzero(solution.duals)[0]
    qp_warm = dict(
        zip(system.packed_keys()[active].tolist(), solution.duals[active].tolist())
    )

    if scenario.dynamics == "unicycle":
        headings = state.headings.copy()
        new_x = x.copy()
        for r in range(x.shape[0]):
            v, omega = unicycle_map(
                u[r], UnicycleState(x[r], float(headings[r]), scenario.lookahead)
            )
            new_x[r] = x[r] + v * scenario.dt * np.array(
                [math.cos(headings[r]), math.sin(headings[r])]
            )
            headings[r] = headings[r] + omega * scenario.dt
    else:
        headings = None
        new_x = x + u * scenario.dt

    lam2 = _lambda2_from_edges(graph.n_robots, graph.edges)
    diff = u - u_hat
    metrics = StepMetrics(
        t=state.t,
        d_min_robot=min_pairwise_distance(x),
        d_min_obstacle=min_obstacle_distance(x, field),
        d_avg_target=float(np.mean(target_distances(x, scenario))),
        lambda2=lam2,
        perturbation=float(np.mean(np.einsum("ij,ij->i", diff, diff))),
        tree_edges=tree.edges,
        solver_status=solution.status,
        step_wall_time=time.perf_counter() - t_start,
        tree_fallback=fallback,
        occluded_tree_edges=occluded_edges,
    )
    next_state = SimState(
        positions=new_x,
        headings=headings,
        t=state.t + 1,
        tree=tree,
        controls=u,
        nominals=u_hat,
        qp_warm=qp_warm,
    )
    return next_state, metrics


def run(scenario: Scenario) -> RunRecord:
    """Validate, then step the scenario to completion, recording everything.
    Deterministic for a fixed scenario and seed (wall-clock timings aside)."""
    issues = validate_scenario(scenario)
    if issues:
        raise ScenarioValidationError(issues)
    n = scenario.n_robots
    steps = scenario.steps
    state = initial_state(scenario)
    positions = np.zeros((steps + 1, n, 2))
    controls = np.zeros((steps, n, 2))
    nominals = np.zeros((steps, n, 2))
    headings = np.zeros((steps + 1, n)) if scenario.dynamics == "unicycle" else None
    positions[0] = state.positions
    metrics: list[StepMetrics] = []
    t_run = time.perf_counter()
    for k in range(steps):
        state, m = step(state, scenario)
        metrics.append(m)
        positions[k + 1] = state.positions
        controls[k] = state.controls
        nominals[k] = state.nominals
        if headings is not None:
            headings[k + 1] = state.headings
    total_wall = time.perf_counter() - t_run

    final_lambda2 = lambda2_los(state.positions, scenario.field, scenario.params)
    lam_values = [m.lambda2 for m in metrics] + ([final_lambda2] if n >= 2 else [])
    subgroup_ok = all(
        verify_subgroup_connectivity(SpanningTree(m.tree_edges, 0.0), scenario.subgroups)
        for m in metrics
    )
    # Each step's metrics hold the distances at the state it started from;
    # only the final state is left to measure.
    d_min_robot_all = min(
        [m.d_min_robot for m in metrics] + [min_pairwise_distance(state.positions)]
    )
    d_min_obs_all = min(
        [m.d_min_obstacle for m in metrics]
        + [min_obstacle_distance(state.positions, scenario.field)]
    )
    summary = {
        "method": scenario.method,
        "seed": scenario.seed,
        "n_robots": n,
        "steps": steps,
        "disconnected": bool(any(v <= LAMBDA2_TOL for v in lam_values)) if n >= 2 else False,
        "min_lambda2": float(min(lam_values)) if lam_values else 0.0,
        "subgroup_connected": bool(subgroup_ok),
        "min_d_robot": float(d_min_robot_all),
        "min_d_obstacle": float(d_min_obs_all),
        "final_d_avg_target": float(np.mean(target_distances(state.positions, scenario))),
        "final_lambda2": float(final_lambda2),
        "mean_perturbation": float(np.mean([m.perturbation for m in metrics])) if metrics else 0.0,
        "mean_step_wall_time": float(np.mean([m.step_wall_time for m in metrics])) if metrics else 0.0,
        "total_wall_time": float(total_wall),
        "tree_fallback_count": int(sum(m.tree_fallback for m in metrics)),
        "occluded_tree_edge_steps": int(sum(m.occluded_tree_edges > 0 for m in metrics)),
        "solver_fallback_count": int(
            sum(m.solver_status == qp.STATUS_FALLBACK_ZERO for m in metrics)
        ),
    }
    return RunRecord(
        scenario_hash=scenario_hash(scenario),
        metrics=metrics,
        positions=positions,
        controls=controls,
        nominals=nominals,
        headings=headings,
        summary=summary,
    )
