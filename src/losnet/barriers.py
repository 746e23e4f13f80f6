"""Barrier certificate values, their time derivatives under single-integrator
dynamics, and assembly of the joint linear constraint system A u <= b.

Four certificate families produce rows:

  safety        |xi - xj|^2 - r_safety^2 >= 0        for every robot pair
  obstacle      |xi - xo|^2 - r_obstacle^2 >= 0      for every robot/boundary point
  connectivity  r_comm^2 - |xi - xj|^2 >= 0          for every maintained edge
  los           (xo - c)^T Q (xo - c) - 1 >= 0       per maintained edge and point

Each certificate h contributes the linear row  -dh/du . u <= gamma * h, so a
state strictly inside every desired set yields strictly positive bounds and
u = 0 satisfies the whole system.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

import numpy as np

from .errors import AssemblyError
from .geometry import LosEllipsoid, ObstacleField

KIND_SAFETY = "safety"
KIND_OBSTACLE = "obstacle"
KIND_CONNECTIVITY = "connectivity"
KIND_LOS = "los"


@dataclasses.dataclass(frozen=True)
class BarrierParams:
    """Certificate radii and gains.

    r_safety   minimum inter-robot distance (m)
    r_obstacle minimum robot-to-obstacle distance (m)
    r_comm     communication range (m)
    gamma      class-K gain (1/s)
    u_max      per-robot speed bound (m/s)
    delta      sight-line ellipsoid thickness (m)
    """

    r_safety: float
    r_obstacle: float
    r_comm: float
    u_max: float
    gamma: float = 1.0
    delta: float = 0.02

    def __post_init__(self):
        for name in ("r_safety", "r_obstacle", "r_comm", "u_max", "gamma", "delta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)}")
        if self.r_safety >= self.r_comm:
            raise ValueError(
                f"r_safety ({self.r_safety}) must be smaller than r_comm ({self.r_comm})"
            )

    def box_bound(self, d: int = 2) -> float:
        """Per-component control bound |u_k| <= u_max / sqrt(d), a conservative
        inner approximation of the Euclidean speed ball."""
        return self.u_max / np.sqrt(d)


def h_safe(xi, xj, params: BarrierParams) -> float:
    diff = np.asarray(xi, dtype=np.float64) - np.asarray(xj, dtype=np.float64)
    return float(diff @ diff - params.r_safety**2)


def h_obs(xi, xo, params: BarrierParams) -> float:
    diff = np.asarray(xi, dtype=np.float64) - np.asarray(xo, dtype=np.float64)
    return float(diff @ diff - params.r_obstacle**2)


def h_conn(xi, xj, params: BarrierParams) -> float:
    diff = np.asarray(xi, dtype=np.float64) - np.asarray(xj, dtype=np.float64)
    return float(params.r_comm**2 - diff @ diff)


def h_los(ell: LosEllipsoid, xo) -> float:
    """Occlusion margin of one obstacle point against a sight-line ellipsoid:
    nonnegative iff the point is outside or on the ellipsoid."""
    return float(ell.level(np.asarray(xo, dtype=np.float64))) - 1.0


def hdot_los_coefficients(ell: LosEllipsoid, xo) -> np.ndarray:
    """Coefficient vector v = Q (xo - c) such that, holding the ellipsoid
    frozen, d/dt h_los = -v . (u_i + u_j). The same v applies to both robots
    of the edge."""
    xo = np.asarray(xo, dtype=np.float64).ravel()
    return ell.shape @ (xo - ell.center)


class ConstraintSystem:
    """The stacked inequality system over the joint control u in R^(N*d).

    Rows are stored in flat arrays (each row touches at most two robots), one
    contiguous block per certificate kind (`kind_slice`); `dense()` produces
    the full (A, b) pair for the QP.
    """

    def __init__(
        self,
        n_robots: int,
        dimension: int,
        robot_a: np.ndarray,
        vec_a: np.ndarray,
        robot_b: np.ndarray,
        vec_b: np.ndarray,
        bounds: np.ndarray,
        kind_slices: dict[str, slice],
        obstacle_indices: np.ndarray,
    ):
        self.n_robots = int(n_robots)
        self.dimension = int(dimension)
        self._robot_a = robot_a
        self._vec_a = vec_a
        self._robot_b = robot_b
        self._vec_b = vec_b
        self.bounds = bounds
        self._kind_slices = kind_slices
        self._obstacle_indices = obstacle_indices
        self._packed_cache: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.bounds.size)

    @property
    def n_rows(self) -> int:
        return len(self)

    def count(self, kind: str) -> int:
        sl = self._kind_slices.get(kind)
        return 0 if sl is None else sl.stop - sl.start

    def kind_slice(self, kind: str) -> slice:
        return self._kind_slices.get(kind, slice(0, 0))

    _KIND_CODES = {KIND_SAFETY: 0, KIND_OBSTACLE: 1, KIND_CONNECTIVITY: 2, KIND_LOS: 3}

    # Robot index + 1 takes 12 bits of a key and boundary point index + 1
    # takes 21, so larger indices would collide silently.
    _KEY_ROBOT_LIMIT = (1 << 12) - 1
    _KEY_POINT_LIMIT = (1 << 21) - 1

    def packed_keys(self) -> np.ndarray:
        """Stable int64 identity of each row across rebuilt systems: kind plus
        the robots and obstacle point the row certifies. Lets a later system
        look up dual values from an earlier related solve.

        Raises AssemblyError when the system has more robots or boundary
        points than the key fields hold."""
        if self._packed_cache is None:
            if self.n_robots > self._KEY_ROBOT_LIMIT:
                raise AssemblyError(
                    f"row keys hold at most {self._KEY_ROBOT_LIMIT} robots, "
                    f"system has {self.n_robots}"
                )
            top_point = int(self._obstacle_indices.max(initial=-1))
            if top_point >= self._KEY_POINT_LIMIT:
                raise AssemblyError(
                    f"row keys hold at most {self._KEY_POINT_LIMIT} boundary points, "
                    f"a row refers to point {top_point}"
                )
            codes = np.zeros(len(self), dtype=np.int64)
            for kind, code in self._KIND_CODES.items():
                codes[self._kind_slices.get(kind, slice(0, 0))] = code
            packed = (
                ((codes * 4096 + (self._robot_a + 1)) * 4096 + (self._robot_b + 1))
                * (1 << 21)
                + (self._obstacle_indices + 1)
            )
            self._packed_cache = packed
        return self._packed_cache

    def row_norms(self) -> np.ndarray:
        """Euclidean norm of each row of A; the two robot blocks are disjoint,
        so the norm combines them directly. Zero rows report norm 1."""
        sq = np.einsum("kd,kd->k", self._vec_a, self._vec_a)
        has_b = self._robot_b >= 0
        if np.any(has_b):
            sq = sq + np.where(
                has_b, np.einsum("kd,kd->k", self._vec_b, self._vec_b), 0.0
            )
        norms = np.sqrt(sq)
        return np.where(norms > 0.0, norms, 1.0)

    def reachable_rows(self, box: float) -> np.ndarray:
        """Increasing indices of the rows that some control with every
        component in [-box, box] can violate, i.e. |a|_1 * box > b. Every
        other row holds for all such controls."""
        ones = np.ones(self.dimension)  # a product with ones sums rows fastest
        l1 = np.abs(self._vec_a) @ ones + np.where(
            self._robot_b >= 0, np.abs(self._vec_b) @ ones, 0.0
        )
        return np.nonzero(l1 * box > self.bounds)[0]

    def take(self, indices: np.ndarray) -> "ConstraintSystem":
        """The subsystem of the given rows. Indices must be strictly
        increasing, so each kind stays one contiguous block and every row
        keeps its kind and packed key. Packed keys already computed here are
        sliced, not recomputed."""
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx[1:] <= idx[:-1]):
            raise ValueError("row indices must be strictly increasing")
        ends = np.searchsorted(
            idx, [end for sl in self._kind_slices.values() for end in (sl.start, sl.stop)]
        ).tolist()
        kind_slices = {
            kind: slice(ends[2 * i], ends[2 * i + 1]) for i, kind in enumerate(self._kind_slices)
        }
        sub = ConstraintSystem(
            n_robots=self.n_robots,
            dimension=self.dimension,
            robot_a=self._robot_a[idx],
            vec_a=self._vec_a[idx],
            robot_b=self._robot_b[idx],
            vec_b=self._vec_b[idx],
            bounds=self.bounds[idx],
            kind_slices=kind_slices,
            obstacle_indices=self._obstacle_indices[idx],
        )
        if self._packed_cache is not None:
            sub._packed_cache = self._packed_cache[idx]
        return sub

    def residuals(self, u: np.ndarray) -> np.ndarray:
        """A u - b computed from the two-robot block structure without
        materializing the dense matrix; u has shape (n_robots, dimension) or
        is the flat stacked vector."""
        uu = np.asarray(u, dtype=np.float64).reshape(self.n_robots, self.dimension)
        vals = np.einsum("kd,kd->k", self._vec_a, uu[self._robot_a])
        has_b = self._robot_b >= 0
        if np.any(has_b):
            vals[has_b] += np.einsum(
                "kd,kd->k", self._vec_b[has_b], uu[self._robot_b[has_b]]
            )
        return vals - self.bounds

    def dense_rows(self, indices: np.ndarray) -> np.ndarray:
        """Dense coefficient matrix for a subset of rows, shape (k, N*d)."""
        idx = np.asarray(indices, dtype=np.int64)
        d = self.dimension
        a = np.zeros((idx.size, self.n_robots * d))
        rows_idx = np.arange(idx.size)
        cols = self._robot_a[idx, None] * d + np.arange(d)[None, :]
        a[rows_idx[:, None], cols] = self._vec_a[idx]
        has_b = self._robot_b[idx] >= 0
        if np.any(has_b):
            cols_b = self._robot_b[idx[has_b], None] * d + np.arange(d)[None, :]
            a[rows_idx[has_b, None], cols_b] += self._vec_b[idx[has_b]]
        return a

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize (A, b) with A of shape (n_rows, n_robots * dimension)."""
        z = len(self)
        d = self.dimension
        a = np.zeros((z, self.n_robots * d))
        if z:
            rows_idx = np.arange(z)
            cols = self._robot_a[:, None] * d + np.arange(d)[None, :]
            a[rows_idx[:, None], cols] = self._vec_a
            has_b = self._robot_b >= 0
            if np.any(has_b):
                cols_b = self._robot_b[has_b, None] * d + np.arange(d)[None, :]
                a[rows_idx[has_b, None], cols_b] += self._vec_b[has_b]
        return a, self.bounds.copy()


def assemble_system(
    states,
    field: ObstacleField,
    tree_edges: Iterable[tuple[int, int]],
    ellipsoids: Mapping[tuple[int, int], LosEllipsoid] | None,
    params: BarrierParams,
    *,
    safety_cutoff: float | None = None,
    obstacle_cutoff: float | None = None,
) -> ConstraintSystem:
    """Build the full certificate row system in deterministic order:
    safety, obstacle, connectivity, los.

    Safety rows cover every robot pair; obstacle rows every (robot, boundary
    point); each maintained edge adds one connectivity row plus one los row
    per boundary point, using the edge's ellipsoid. Passing ellipsoids=None
    skips the los rows entirely (range-only maintenance, used by the
    range-tree baseline). The optional cutoffs drop pairs/points too far away
    to ever activate; they default to off.

    Raises AssemblyError if a tree edge has no ellipsoid.
    """
    x = np.asarray(states, dtype=np.float64)
    n, d = x.shape
    pts = field.points
    f = pts.shape[0]
    gamma = params.gamma

    edges = [(int(i), int(j)) if i < j else (int(j), int(i)) for i, j in tree_edges]
    if ellipsoids is not None:
        missing = [e for e in edges if e not in ellipsoids]
        if missing:
            raise AssemblyError(f"tree edges missing an ellipsoid: {missing}")

    blocks_ra: list[np.ndarray] = []
    blocks_va: list[np.ndarray] = []
    blocks_rb: list[np.ndarray] = []
    blocks_vb: list[np.ndarray] = []
    blocks_bd: list[np.ndarray] = []
    blocks_obs: list[np.ndarray] = []
    kind_slices: dict[str, slice] = {}
    total = 0

    def push(kind, ra, va, rb, vb, bd, obs_arr):
        nonlocal total
        m = bd.size
        blocks_ra.append(ra)
        blocks_va.append(va)
        blocks_rb.append(rb)
        blocks_vb.append(vb)
        blocks_bd.append(bd)
        blocks_obs.append(obs_arr)
        kind_slices[kind] = slice(total, total + m)
        total += m

    # Safety: unordered pairs in (small, large) lexicographic order.
    small, large = np.triu_indices(n, 1)
    if small.size:
        diff = x[large] - x[small]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        keep = np.ones(small.size, dtype=bool)
        if safety_cutoff is not None:
            keep = dist2 <= safety_cutoff**2
        g = 2.0 * diff[keep]
        push(
            KIND_SAFETY,
            large[keep].astype(np.int64),
            -g,
            small[keep].astype(np.int64),
            g,
            gamma * (dist2[keep] - params.r_safety**2),
            np.full(int(keep.sum()), -1, dtype=np.int64),
        )
    else:
        push(KIND_SAFETY, *_empty_block(d))

    # Obstacle: robot-major, then boundary-point order.
    if f and n:
        diff = x[:, None, :] - pts[None, :, :]  # (n, f, d)
        dist2 = np.einsum("nfd,nfd->nf", diff, diff)
        keep = np.ones((n, f), dtype=bool)
        if obstacle_cutoff is not None:
            keep = dist2 <= obstacle_cutoff**2
        ridx, oidx = np.nonzero(keep)
        push(
            KIND_OBSTACLE,
            ridx.astype(np.int64),
            -2.0 * diff[ridx, oidx],
            np.full(ridx.size, -1, dtype=np.int64),
            np.zeros((ridx.size, d)),
            gamma * (dist2[ridx, oidx] - params.r_obstacle**2),
            oidx.astype(np.int64),
        )
    else:
        push(KIND_OBSTACLE, *_empty_block(d))

    # Connectivity: maintained edges in sorted order.
    edges_sorted = sorted(edges)
    if edges_sorted:
        e = np.asarray(edges_sorted, dtype=np.int64)
        diff = x[e[:, 0]] - x[e[:, 1]]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        g = 2.0 * diff
        push(
            KIND_CONNECTIVITY,
            e[:, 0],
            g,
            e[:, 1],
            -g,
            gamma * (params.r_comm**2 - dist2),
            np.full(e.shape[0], -1, dtype=np.int64),
        )
    else:
        push(KIND_CONNECTIVITY, *_empty_block(d))

    # Line of sight: per maintained edge, one row per boundary point.
    if edges_sorted and f and ellipsoids is not None:
        e_arr = np.asarray(edges_sorted, dtype=np.int64)
        q = np.stack([ellipsoids[e].shape for e in edges_sorted])
        centers = np.stack([ellipsoids[e].center for e in edges_sorted])
        rel = pts[None, :, :] - centers[:, None, :]  # (t, f, d)
        v = rel @ q  # batched matmul; Q symmetric, rows are Q (xo - c)
        h = np.sum(rel * v, axis=2) - 1.0
        keep = np.ones((len(edges_sorted), f), dtype=bool)
        if obstacle_cutoff is not None:
            reach = obstacle_cutoff + np.array(
                [ellipsoids[e].major_axis_half_length for e in edges_sorted]
            )
            keep = np.sum(rel * rel, axis=2) <= (reach**2)[:, None]
        eidx, oidx = np.nonzero(keep)
        push(
            KIND_LOS,
            e_arr[eidx, 0],
            v[eidx, oidx],
            e_arr[eidx, 1],
            v[eidx, oidx],
            gamma * h[eidx, oidx],
            oidx.astype(np.int64),
        )
    else:
        push(KIND_LOS, *_empty_block(d))

    return ConstraintSystem(
        n_robots=n,
        dimension=d,
        robot_a=np.concatenate(blocks_ra),
        vec_a=np.vstack(blocks_va),
        robot_b=np.concatenate(blocks_rb),
        vec_b=np.vstack(blocks_vb),
        bounds=np.concatenate(blocks_bd),
        kind_slices=kind_slices,
        obstacle_indices=np.concatenate(blocks_obs),
    )


def _empty_block(d: int):
    return (
        np.zeros(0, dtype=np.int64),
        np.zeros((0, d)),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, d)),
        np.zeros(0),
        np.zeros(0, dtype=np.int64),
    )
