"""Checks of a run's output files against properties the method must have.

Written with numpy alone and independent of `losnet`: the obstacle boundary
samples, the sight-line test, the edge ellipsoids and the task targets are
rebuilt here from the scenario file. Every failed property is charged to the
control step it belongs to, so a run reports how many steps failed:

- state s (s = 0 is the start, s = k + 1 the state after step k) is charged
  to step max(s - 1, 0): safety, clearance to the continuous polygons, and a
  connected sight-line graph;
- step k is charged for its tree (N - 1 edges spanning all robots and every
  subgroup, each edge in range and clear at the decision state x_k), its
  certificates (h_conn and h_los of every tree edge at x_k and x_{k+1}), its
  control (speed box, x_{k+1} = x_k + dt u_k) and its perturbation value;
- a file-level inconsistency (summary or aggregate against the per-step
  files) is charged to every step it summarizes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

PARAM_DEFAULTS = {"gamma": 1.0, "delta": 0.02, "dt": 0.02, "R_s": 0.04, "u_max": 1.0}
REL_TOL = 1e-9
AGGREGATE_FIELDS = (
    "step_wall_time", "d_min_robot", "d_min_obstacle",
    "d_avg_target_final", "lambda2_min", "perturbation",
)


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _close(a, b) -> bool:
    return bool(np.isclose(a, b, rtol=REL_TOL, atol=1e-12, equal_nan=True))


class World:
    """The static part of a scenario file: radii, obstacles, boundary samples
    and task sites. Obstacles must be convex polygons."""

    def __init__(self, raw: dict):
        p = dict(PARAM_DEFAULTS)
        p.update(raw["params"])
        self.r_s, self.r_obs, self.r_c = float(p["R_s"]), float(p["R_obs"]), float(p["R_c"])
        self.u_max, self.delta, self.dt = float(p["u_max"]), float(p["delta"]), float(p["dt"])
        self.tol = 2.0 * self.u_max * self.dt
        self.polygons = [_ccw_convex(o["vertices"]) for o in raw.get("obstacles") or []]
        spacing = float(raw.get("spacing", self.r_obs / 2.0))
        self.points = _boundary_samples(self.polygons, spacing)
        self.sites = {int(s["subgroup"]): s for s in raw["sites"]}

    def occluded(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per segment a[m]-b[m]: does a piece longer than 1e-9 m run through
        the open interior of some polygon? Clipping against the edges'
        half-planes (Cyrus-Beck), so grazing a corner or a face is clear."""
        hit = np.zeros(a.shape[0], dtype=bool)
        d = b - a
        length = np.linalg.norm(d, axis=1)
        for v in self.polygons:
            e = np.roll(v, -1, axis=0) - v  # (E, 2), interior on the left
            f0 = _cross(e[None, :, :], a[:, None, :] - v[None, :, :])  # (M, E)
            c = _cross(e[None, :, :], d[:, None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                t = -f0 / c
            lo = np.max(np.where(c > 0, t, 0.0), axis=1, initial=0.0)
            hi = np.min(np.where(c < 0, t, 1.0), axis=1, initial=1.0)
            parallel_out = np.any((c == 0) & (f0 <= 0), axis=1)
            hit |= ~parallel_out & ((np.minimum(hi, 1.0) - np.maximum(lo, 0.0)) * length > 1e-9)
        return hit

    def clearance(self, x: np.ndarray) -> np.ndarray:
        """Distance of each robot to the continuous polygons; negative inside."""
        out = np.full(x.shape[0], np.inf)
        for v in self.polygons:
            e = np.roll(v, -1, axis=0) - v
            rel = x[:, None, :] - v[None, :, :]
            t = np.clip(np.einsum("nek,ek->ne", rel, e) / np.einsum("ek,ek->e", e, e), 0.0, 1.0)
            dist = np.linalg.norm(rel - t[..., None] * e[None, :, :], axis=2).min(axis=1)
            inside = np.all(_cross(e[None, :, :], rel) > 0.0, axis=1)
            out = np.minimum(out, np.where(inside, -dist, dist))
        return out

    def targets(self, subgroups: np.ndarray) -> np.ndarray:
        """Rendezvous point, or the robot's slot on its subgroup's circle:
        the k-th member (by index) of m takes angle 2 pi k / m."""
        out = np.zeros((subgroups.size, 2))
        for label, site in self.sites.items():
            members = np.nonzero(subgroups == label)[0]
            pos = np.asarray(site["pos"], dtype=np.float64)
            if site.get("kind", "rendezvous") == "circle":
                ang = 2.0 * np.pi * np.arange(members.size) / members.size
                out[members] = pos + float(site["radius"]) * np.stack(
                    [np.cos(ang), np.sin(ang)], axis=1
                )
            else:
                out[members] = pos
        return out

    def h_los(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        """Minimum over boundary samples of (xo - c)^T Q (xo - c) - 1 for the
        thin ellipsoid with semi-axes |xj - xi| / 2 and delta; +inf when there
        are no samples, -inf for an edge too short to carry an ellipsoid."""
        if self.points.shape[0] == 0:
            return np.full(xi.shape[:-1], np.inf)
        axis = xj - xi
        a = 0.5 * np.linalg.norm(axis, axis=-1)
        axis = axis / (2.0 * a)[..., None]
        rel = self.points - 0.5 * (xi + xj)[..., None, :]  # (..., F, 2)
        s = np.einsum("...fd,...d->...f", rel, axis)
        r2 = np.einsum("...fd,...fd->...f", rel, rel)
        h = s**2 / (a**2)[..., None] + (r2 - s**2) / self.delta**2 - 1.0
        return np.where(a > self.delta, h.min(axis=-1), -np.inf)


def _ccw_convex(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=np.float64)
    if float(np.sum(_cross(v, np.roll(v, -1, axis=0)))) < 0.0:
        v = v[::-1].copy()
    e = np.roll(v, -1, axis=0) - v
    if np.any(_cross(e, np.roll(e, -1, axis=0)) <= 0.0):
        raise ValueError("the checker supports convex obstacle polygons only")
    return v


def _boundary_samples(polygons, spacing: float) -> np.ndarray:
    """Vertices plus evenly spaced samples at most `spacing` apart on every
    polygon edge: the point set the obstacle and LOS certificates use."""
    chunks = [np.zeros((0, 2))]
    for v in polygons:
        for a, b in zip(v, np.roll(v, -1, axis=0)):
            n = max(1, math.ceil(float(np.linalg.norm(b - a)) / spacing - 1e-12))
            chunks.append(a + (np.arange(n) / n)[:, None] * (b - a))
    return np.vstack(chunks)


def _connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    adj = np.zeros((n, n), dtype=bool)
    adj[i, j] = adj[j, i] = True
    reach = np.zeros(n, dtype=bool)
    reach[0] = True
    while True:
        grown = reach | adj[reach].any(axis=0)
        if grown.sum() == reach.sum():
            return bool(reach.all())
        reach = grown


@dataclasses.dataclass
class RunCheck:
    """Outcome of one run: which steps failed and why, plus the quality
    figures and certificate statistics recomputed from the files."""

    steps: int
    failed: np.ndarray
    reasons: dict
    mean_perturbation: float
    final_target_dist: float
    min_h_los: float
    occluded_tree_edge_steps: int
    tree_churn: float
    summary: dict

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())


def check_run(world: World, x0, subgroups, run_dir: Path) -> RunCheck:
    """Check metrics.csv, trajectory.jsonl and summary.json of one run that
    started at positions x0 with the given subgroup labels."""
    x0 = np.asarray(x0, dtype=np.float64)
    sg = np.asarray(subgroups, dtype=np.int64)
    n = x0.shape[0]
    lines = [json.loads(s) for s in (run_dir / "trajectory.jsonl").read_text().splitlines()]
    with (run_dir / "metrics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((run_dir / "summary.json").read_text())
    steps = len(lines)
    failed = np.zeros(steps, dtype=bool)
    reasons: dict[str, int] = {}

    def fail(what: str, mask) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.any():
            failed[mask] = True
            reasons[what] = reasons.get(what, 0) + int(mask.sum())

    if len(rows) != steps or [m["t"] for m in lines] != list(range(steps)) or steps == 0:
        fail("malformed files", np.ones(steps, dtype=bool))
        return RunCheck(steps, failed, reasons, math.nan, math.nan, math.nan, 0, math.nan,
                        summary)
    xs = np.concatenate([x0[None], np.array([m["x"] for m in lines])])  # (T+1, N, 2)
    u = np.array([m["u"] for m in lines])
    u_nom = np.array([m["u_nominal"] for m in lines])
    trees = [np.asarray(m["tree"], dtype=np.int64).reshape(-1, 2) for m in lines]

    def per_state(mask) -> np.ndarray:
        out = np.zeros(steps, dtype=bool)
        np.logical_or.at(out, np.maximum(np.arange(steps + 1) - 1, 0), mask)
        return out

    # Safety, clearance and the sight-line graph at every recorded state.
    si, sj = np.triu_indices(n, 1)
    dist = np.linalg.norm(xs[:, si] - xs[:, sj], axis=2)
    fail("safety", per_state(dist.min(axis=1, initial=np.inf) < world.r_s - world.tol))
    clear = np.array([world.clearance(x).min(initial=np.inf) for x in xs])
    fail("clearance", per_state(clear < world.r_obs - world.tol))
    disconnected = np.zeros(steps + 1, dtype=bool)
    for s, x in enumerate(xs):
        near = dist[s] <= world.r_c
        i, j = si[near], sj[near]
        ok = ~world.occluded(x[i], x[j])
        disconnected[s] = not _connected(n, i[ok], j[ok])
    fail("connectivity", per_state(disconnected))

    # Trees: shape, spanning, per-subgroup spanning; then range and sight
    # line at the decision state, vectorized over steps.
    bad_tree = np.array([
        t.shape[0] != n - 1 or t.min(initial=0) < 0 or t.max(initial=0) >= n
        or (n > 1 and not _connected(n, t[:, 0], t[:, 1]))
        or not _subgroups_connected(sg, t)
        for t in trees
    ])
    fail("tree", bad_tree)
    good = ~bad_tree
    churn = [
        len({tuple(e) for e in trees[k].tolist()} - {tuple(e) for e in trees[k - 1].tolist()})
        for k in range(1, steps)
    ]
    min_h_los = math.inf
    occluded_steps = 0
    if n > 1 and good.any():
        ks = np.nonzero(good)[0]
        e = np.stack([trees[k] for k in ks])  # (K, N-1, 2)
        kk = ks[:, None]
        pre_i, pre_j = xs[kk, e[..., 0]], xs[kk, e[..., 1]]
        post_i, post_j = xs[kk + 1, e[..., 0]], xs[kk + 1, e[..., 1]]
        d_pre = np.linalg.norm(pre_i - pre_j, axis=-1)
        blocked = world.occluded(pre_i.reshape(-1, 2), pre_j.reshape(-1, 2)).reshape(d_pre.shape)
        bad = np.zeros(steps, dtype=bool)
        bad[ks] = np.any((d_pre > world.r_c) | blocked, axis=1)
        fail("tree edge out of range or blocked", bad)
        h_conn = np.minimum(
            world.r_c**2 - d_pre**2,
            world.r_c**2 - np.sum((post_i - post_j) ** 2, axis=-1),
        )
        h_pre = world.h_los(pre_i, pre_j)
        h_post = world.h_los(post_i, post_j)
        bad[:] = False
        bad[ks] = np.any((h_conn < -world.tol) | (np.minimum(h_pre, h_post) < -world.tol), axis=1)
        fail("certificate", bad)
        min_h_los = float(np.min(np.minimum(h_pre, h_post)))
        occluded_steps = int(np.sum(np.any(h_pre < 0.0, axis=1)))

    # Controls: speed box and Euler integration.
    box = world.u_max / math.sqrt(2.0)
    fail("speed box", np.any(np.abs(u) > box * (1.0 + REL_TOL), axis=(1, 2)))
    step_err = np.abs(xs[1:] - (xs[:-1] + world.dt * u))
    fail("integration", np.any(step_err > 1e-12 * (1.0 + np.abs(xs[1:])), axis=(1, 2)))

    # Quality figures, recomputed and compared with what the run reported.
    pert = np.mean(np.sum((u - u_nom) ** 2, axis=2), axis=1)
    reported = np.array([float(m["perturbation"]) for m in rows])
    fail("perturbation", ~np.isclose(pert, reported, rtol=REL_TOL, atol=1e-15))
    final_target = float(np.mean(np.linalg.norm(xs[-1] - world.targets(sg), axis=1)))
    if not _close(np.mean(reported), summary.get("mean_perturbation", math.nan)):
        fail("summary mean_perturbation", np.ones(steps, dtype=bool))
    if not _close(final_target, summary.get("final_d_avg_target", math.nan)):
        fail("summary final_d_avg_target", np.arange(steps) == steps - 1)
    return RunCheck(
        steps=steps,
        failed=failed,
        reasons=reasons,
        mean_perturbation=float(np.mean(pert)),
        final_target_dist=final_target,
        min_h_los=min_h_los,
        occluded_tree_edge_steps=occluded_steps,
        tree_churn=float(np.mean(churn)) if churn else 0.0,
        summary=summary,
    )


def _subgroups_connected(sg: np.ndarray, tree: np.ndarray) -> bool:
    for label in np.unique(sg):
        members = np.nonzero(sg == label)[0]
        if members.size < 2:
            continue
        inside = (sg[tree[:, 0]] == label) & (sg[tree[:, 1]] == label)
        local = np.searchsorted(members, tree[inside])
        if not _connected(members.size, local[:, 0], local[:, 1]):
            return False
    return True


def trial_scalars(run_dir: Path) -> dict[str, float]:
    """Per-trial scalars of a sweep, as defined for aggregate.csv, from the
    trial's metrics.csv."""
    with (run_dir / "metrics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    col = {
        k: np.array([float(r[k]) for r in rows])
        for k in ("step_wall_time", "d_min_robot", "d_min_obstacle", "d_avg_target",
                  "lambda2", "perturbation")
    }
    return {
        "step_wall_time": float(np.mean(col["step_wall_time"])),
        "d_min_robot": float(np.min(col["d_min_robot"])),
        "d_min_obstacle": float(np.min(col["d_min_obstacle"])),
        "d_avg_target_final": float(col["d_avg_target"][-1]),
        "lambda2_min": float(np.min(col["lambda2"])),
        "perturbation": float(np.mean(col["perturbation"])),
    }


def aggregate_mismatches(sweep_dir: Path, trial_dirs: dict[int, list[Path]]) -> set[int]:
    """Team sizes whose aggregate.csv row disagrees with the mean and
    population standard deviation recomputed from the per-trial files."""
    with (sweep_dir / "aggregate.csv").open() as fh:
        table = {int(r["size"]): r for r in csv.DictReader(fh)}
    bad = set()
    for size, dirs in trial_dirs.items():
        row = table.get(size)
        if row is None or int(row["trials"]) != len(dirs):
            bad.add(size)
            continue
        scalars = [trial_scalars(d) for d in dirs]
        for f in AGGREGATE_FIELDS:
            vals = np.array([s[f] for s in scalars])
            with np.errstate(invalid="ignore"):
                mean, std = float(np.mean(vals)), float(np.std(vals))
            if not (_close(mean, float(row[f"{f}_mean"])) and _close(std, float(row[f"{f}_std"]))):
                bad.add(size)
    return bad
