"""Planar geometric primitives: polygonal obstacles, boundary discretization,
exact segment occlusion tests, and minimum-volume enclosing ellipsoids for
sight-line edges.

Points are plain float64 arrays of shape (d,). All experiments use d = 2;
the ellipsoid constructions work for any d >= 2, the exact occlusion test
is implemented for planar polygons only.

Everything static about an obstacle field is computed once, on first use,
and kept read-only on the frozen `Polygon` and `ObstacleField` objects: each
polygon's edge vectors and bounding box, the boundary points in groups of
consecutive samples with one bounding box per group, and the point moments
the edge scores average over.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateEdgeError,
    MveeConvergenceError,
    PolygonError,
    RankDeficiencyError,
)

_EPS = 1e-12


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=np.float64).ravel()
    if not np.all(np.isfinite(a)):
        raise ValueError(f"point has non-finite components: {a}")
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z-component of the 2D cross product, broadcasting over leading axes."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclasses.dataclass(frozen=True)
class Polygon:
    """Simple planar polygon, vertices stored counter-clockwise.

    Clockwise input is accepted and reversed. Degenerate input (fewer than 3
    vertices, repeated vertices, zero area, self-intersection) raises
    PolygonError.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise PolygonError(f"vertices must have shape (n, 2), got {v.shape}")
        if v.shape[0] < 3:
            raise PolygonError(f"need at least 3 vertices, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise PolygonError("vertices contain non-finite values")
        area2 = float(np.sum(_cross2(v, np.roll(v, -1, axis=0))))
        scale = float(np.max(np.abs(v))) + 1.0
        if abs(area2) <= _EPS * scale * scale:
            raise PolygonError("polygon has (near-)zero area")
        if area2 < 0.0:
            v = v[::-1].copy()
        edge_len = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        if np.any(edge_len <= _EPS * scale):
            raise PolygonError("repeated or coincident consecutive vertices")
        if _is_self_intersecting(v):
            raise PolygonError("polygon edges self-intersect")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def area(self) -> float:
        v = self.vertices
        return 0.5 * float(np.sum(_cross2(v, np.roll(v, -1, axis=0))))

    @property
    def perimeter(self) -> float:
        v = self.vertices
        return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        """(V, 2) vector from each vertex to the next, read-only."""
        return _read_only(np.roll(self.vertices, -1, axis=0) - self.vertices)

    @cached_property
    def box(self) -> np.ndarray:
        """(2, 2) bounding box, read-only: the lower corner, then the upper."""
        return _read_only(np.stack([self.vertices.min(axis=0), self.vertices.max(axis=0)]))


def _is_self_intersecting(v: np.ndarray) -> bool:
    """Check a closed polyline for proper crossings between non-adjacent edges."""
    n = v.shape[0]
    a = v
    b = np.roll(v, -1, axis=0)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_properly_cross(a[i], b[i], a[j], b[j]):
                return True
    return False


def _segments_properly_cross(p1, p2, q1, q2) -> bool:
    r = p2 - p1
    s = q2 - q1
    den = _cross2(r, s)
    if abs(den) < _EPS:
        return False
    t = _cross2(q1 - p1, s) / den
    u = _cross2(q1 - p1, r) / den
    return 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9


@dataclasses.dataclass(frozen=True)
class ObstacleField:
    """Polygonal obstacles plus the point set sampled along their boundaries.

    `points` has shape (F, 2); every sample lies on some polygon boundary and
    consecutive samples along a boundary are at most `spacing` apart.
    """

    polygons: tuple[Polygon, ...]
    points: np.ndarray
    spacing: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "polygons", tuple(self.polygons))

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @cached_property
    def polygon_boxes(self) -> np.ndarray:
        """(P, 2, 2) bounding box of every polygon (see `Polygon.box`)."""
        return _read_only(np.array([p.box for p in self.polygons]).reshape(-1, 2, 2))

    @cached_property
    def point_groups(self) -> np.ndarray:
        """(G, g, 2) runs of g = ceil(sqrt(F)) consecutive points, the last run
        padded with copies of the last point. Consecutive boundary samples lie
        close together, so each run has a small box; g ~ sqrt(F) balances the
        per-group box tests against the per-point tests inside met groups."""
        f = self.n_points
        g = math.isqrt(f - 1) + 1 if f else 1
        runs = np.minimum(np.arange(-(-f // g) * g), f - 1).reshape(-1, g)
        return _read_only(self.points[runs])

    @cached_property
    def group_boxes(self) -> np.ndarray:
        """(G, 2, 2) bounding box of each run of `point_groups`, taken from its
        own points."""
        groups = self.point_groups
        return _read_only(np.stack([groups.min(axis=1), groups.max(axis=1)], axis=1))

    @cached_property
    def point_moments(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Sum of the points, sum of their outer products, and sum of |p|^2."""
        m2 = _read_only(self.points.T @ self.points)
        return _read_only(self.points.sum(axis=0)), m2, float(np.trace(m2))

    @staticmethod
    def empty() -> "ObstacleField":
        return ObstacleField(polygons=(), points=np.zeros((0, 2)), spacing=1.0)


def discretize_obstacles(polygons, spacing: float) -> ObstacleField:
    """Sample polygon boundaries at arc-length intervals <= spacing.

    Each polygon contributes its vertices plus evenly spaced interior samples
    on every edge. Ordering is deterministic: polygon index, then edge index,
    then arc length along the edge.
    """
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    polys: list[Polygon] = []
    for k, p in enumerate(polygons):
        try:
            polys.append(p if isinstance(p, Polygon) else Polygon(np.asarray(p)))
        except PolygonError as e:
            raise PolygonError(str(e), index=k) from e
    chunks = []
    for poly in polys:
        v = poly.vertices
        nxt = np.roll(v, -1, axis=0)
        for a, b in zip(v, nxt):
            length = float(np.linalg.norm(b - a))
            n_seg = max(1, math.ceil(length / spacing - 1e-12))
            ts = np.arange(n_seg, dtype=np.float64) / n_seg
            chunks.append(a[None, :] + ts[:, None] * (b - a)[None, :])
    points = np.vstack(chunks) if chunks else np.zeros((0, 2))
    return ObstacleField(polygons=tuple(polys), points=points, spacing=float(spacing))


# ---------------------------------------------------------------------------
# Exact segment occlusion
# ---------------------------------------------------------------------------


def boxes_meet(lo: np.ndarray, hi: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """(M, B) mask: whether the closed box from lo[m] to hi[m] ((M, 2)
    corners) meets the closed box b of `boxes` ((B, 2, 2), lower corner
    first)."""
    b = boxes.T  # (2, 2, B): coordinate, lower/upper, box
    return (
        (lo[:, :1] <= b[0, 1]) & (lo[:, 1:] <= b[1, 1])
        & (hi[:, :1] >= b[0, 0]) & (hi[:, 1:] >= b[1, 0])
    )


def points_strictly_inside(points: np.ndarray, poly: Polygon, tol: float = 1e-9) -> np.ndarray:
    """Boolean mask: which points lie strictly inside the polygon.

    Points on the boundary (within `tol` of an edge) count as outside, so a
    sight line sliding along a wall face is not treated as blocked.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    a = poly.vertices
    ab = poly.edge_vectors[None, :, :]
    # Crossing-number test against each edge; edge k runs from vertex k to
    # vertex k + 1, so its far end is above p iff vertex k + 1 is.
    px = p[:, 0][:, None]
    py = p[:, 1][:, None]
    ay, ax = a[:, 1][None, :], a[:, 0][None, :]
    above = ay > py
    straddles = above != np.concatenate([above[:, 1:], above[:, :1]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = ax + (py - ay) * ab[..., 0] / ab[..., 1]
    crossings = (straddles & (px < x_int)).sum(axis=1)
    inside = (crossings % 2) == 1
    # Distance to each edge; boundary contact overrides "inside".
    ap = p[:, None, :] - a[None, :, :]
    denom = np.einsum("ijk,ijk->ij", ab, ab)
    t = np.clip(np.einsum("ijk,ijk->ij", ap, ab) / denom, 0.0, 1.0)
    foot = a[None, :, :] + t[:, :, None] * ab
    dist = np.linalg.norm(p[:, None, :] - foot, axis=2)
    on_boundary = dist.min(axis=1) <= tol
    return inside & ~on_boundary


def _interior_hits(p: np.ndarray, r: np.ndarray, poly: Polygon) -> np.ndarray:
    """Exact test of segments p + t r, t in [0, 1], against one polygon: cut
    each segment at its transversal edge crossings and at the polygon
    vertices lying on it, and report whether the midpoint of some piece of
    positive length lies strictly inside."""
    v = poly.vertices
    s = poly.edge_vectors[None, :, :]  # (1, V, 2)
    qmp = v[None, :, :] - p[:, None, :]  # (M, V, 2)
    rr = r[:, None, :]
    den = _cross2(rr, s)  # (M, V)
    # A near-parallel edge can leave den subnormal, so t and u overflow; `ok`
    # drops every such candidate through |den| > _EPS.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = _cross2(qmp, s) / den
        u = _cross2(qmp, rr) / den
    ok = (np.abs(den) > _EPS) & (t >= -1e-12) & (t <= 1 + 1e-12) & (u >= -1e-12) & (u <= 1 + 1e-12)
    t_cross = np.where(ok, np.clip(t, 0.0, 1.0), np.nan)
    # Vertices sitting on the segment subdivide collinear or corner contact.
    rlen2 = np.einsum("ij,ij->i", r, r)[:, None]  # (M, 1)
    tv = np.einsum("mvk,mk->mv", qmp, r) / rlen2
    foot = p[:, None, :] + tv[..., None] * rr
    dv = np.linalg.norm(v[None, :, :] - foot, axis=2)
    on_seg = (dv <= 1e-9) & (tv >= -1e-12) & (tv <= 1 + 1e-12)
    t_vert = np.where(on_seg, np.clip(tv, 0.0, 1.0), np.nan)
    m = p.shape[0]
    cand = np.concatenate([t_cross, t_vert, np.zeros((m, 1)), np.ones((m, 1))], axis=1)
    cand.sort(axis=1)  # NaNs sort to the end
    mids = 0.5 * (cand[:, :-1] + cand[:, 1:])
    valid = np.isfinite(mids) & (cand[:, 1:] - cand[:, :-1] > 1e-12)
    seg_idx, k_idx = np.nonzero(valid)
    pts = p[seg_idx] + mids[seg_idx, k_idx][:, None] * r[seg_idx]
    hit = np.zeros(m, dtype=bool)
    hit[seg_idx[points_strictly_inside(pts, poly)]] = True
    return hit


def segments_occluded(starts, ends, field: ObstacleField) -> np.ndarray:
    """Vectorized occlusion test for a batch of segments.

    A segment is occluded iff some open subinterval of it lies strictly inside
    a polygon; measure-zero boundary contact (grazing a vertex or sliding
    along a face) does not count.

    The exact test runs, per polygon, only on the segments whose closed
    bounding box meets the polygon's and whose supporting line has polygon
    vertices strictly on both sides. A segment failing either test is
    disjoint from the polygon's interior, so this skips no occluded segment;
    it makes the cost follow the segment-polygon pairs that can cross, not
    all of them. (A vertex within rounding of the line cannot flip the
    answer: a piece the exact test finds inside lies more than its 1e-9
    boundary tolerance from the boundary, so vertices lie that far on both
    sides.)
    """
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 2)
    m = starts.shape[0]
    occluded = np.zeros(m, dtype=bool)
    if m == 0:
        return occluded
    r = ends - starts
    if (np.linalg.norm(r, axis=1) <= _EPS).any():
        raise ValueError("occlusion test requires distinct segment endpoints")
    if not field.polygons:
        return occluded
    meets = boxes_meet(np.minimum(starts, ends), np.maximum(starts, ends), field.polygon_boxes)
    for k in np.flatnonzero(meets.any(axis=0)):
        poly = field.polygons[k]
        idx = np.flatnonzero(meets[:, k] & ~occluded)
        # The polygon lies in the hull of its vertices, so a segment whose
        # line has no vertex strictly on each side misses its interior.
        side = _cross2(r[idx, None, :], poly.vertices[None, :, :] - starts[idx, None, :])
        idx = idx[(side < 0.0).any(axis=1) & (side > 0.0).any(axis=1)]
        if idx.size:
            occluded[idx[_interior_hits(starts[idx], r[idx], poly)]] = True
    return occluded


def segment_occluded(a, b, field: ObstacleField) -> bool:
    """True iff the closed segment from a to b intersects the interior of any
    obstacle polygon. Exact test against the continuous polygons, not the
    discretized boundary points."""
    a = _as_point(a)
    b = _as_point(b)
    if np.linalg.norm(b - a) <= _EPS:
        raise ValueError("segment endpoints must be distinct")
    return bool(segments_occluded(a[None, :], b[None, :], field)[0])


# ---------------------------------------------------------------------------
# Minimum-volume enclosing ellipsoids
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LosEllipsoid:
    """Ellipsoid {x : (x - center)^T shape (x - center) <= 1}.

    `shape` is symmetric positive definite (units 1/m^2). For sight-line
    ellipsoids the two generating robot positions sit exactly on the unit
    level set and `thickness` is the minor semi-axis length.
    """

    center: np.ndarray
    shape: np.ndarray
    major_axis_half_length: float
    thickness: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64).ravel()
        q = np.asarray(self.shape, dtype=np.float64)
        if q.shape != (c.size, c.size):
            raise ValueError(f"shape matrix {q.shape} does not match center dimension {c.size}")
        scale = float(np.max(np.abs(q)))
        if float(np.max(np.abs(q - q.T))) > 1e-12 * max(scale, 1.0):
            raise ValueError("shape matrix is not symmetric")
        q = 0.5 * (q + q.T)
        if float(np.min(np.linalg.eigvalsh(q))) <= 0.0:
            raise ValueError("shape matrix is not positive definite")
        c.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", q)

    @property
    def dim(self) -> int:
        return int(self.center.size)

    def level(self, points: np.ndarray) -> np.ndarray:
        """(x - c)^T Q (x - c) for one point or a batch of points."""
        p = np.asarray(points, dtype=np.float64)
        diff = p.reshape(-1, self.dim) - self.center[None, :]
        vals = np.einsum("ij,jk,ik->i", diff, self.shape, diff)
        return vals[0] if p.ndim == 1 else vals


def _orthonormal_with_first(e1: np.ndarray) -> np.ndarray:
    """Orthonormal basis whose first vector is e1. In 2D the second vector is
    e1 rotated +90 degrees; higher dimensions complete via SVD null space."""
    d = e1.size
    if d == 2:
        return np.stack([e1, np.array([-e1[1], e1[0]])])
    _, _, vt = np.linalg.svd(e1[None, :])
    basis = np.vstack([e1, vt[1:]])
    return basis


def mvee_points(xi, xj, delta: float) -> np.ndarray:
    """The 2d-point construction generating a thin ellipsoid around an edge:
    the two endpoints on the major axis plus +/- delta offsets from the
    midpoint along each perpendicular basis direction.

    Returns an array of shape (2d, d) ordered
    [xi, xj, mid + delta*e2, mid - delta*e2, mid + delta*e3, ...].
    """
    xi = _as_point(xi)
    xj = _as_point(xj)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    diff = xj - xi
    norm = float(np.linalg.norm(diff))
    if norm <= _EPS:
        raise DegenerateEdgeError("edge endpoints coincide")
    basis = _orthonormal_with_first(diff / norm)
    mid = 0.5 * (xi + xj)
    pts = [xi, xj]
    for p in range(1, xi.size):
        pts.append(mid + delta * basis[p])
        pts.append(mid - delta * basis[p])
    return np.stack(pts)


def _ellipsoid_unchecked(center, shape, a: float, delta: float) -> LosEllipsoid:
    """Internal fast path for ellipsoids built by formulas that guarantee the
    invariants; skips the symmetric/positive-definite validation."""
    ell = object.__new__(LosEllipsoid)
    center = np.ascontiguousarray(center, dtype=np.float64)
    shape = np.ascontiguousarray(shape, dtype=np.float64)
    center.setflags(write=False)
    shape.setflags(write=False)
    object.__setattr__(ell, "center", center)
    object.__setattr__(ell, "shape", shape)
    object.__setattr__(ell, "major_axis_half_length", float(a))
    object.__setattr__(ell, "thickness", float(delta))
    return ell


def mvee_closed_form_batch(xi, xj, delta: float) -> list[LosEllipsoid]:
    """Vectorized mvee_closed_form over paired endpoint arrays of shape (m, d)."""
    xi = np.asarray(xi, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    m, d = xi.shape
    if m == 0:
        return []
    diff = xj - xi
    norm = np.linalg.norm(diff, axis=1)
    if np.any(norm <= 2.0 * delta):
        k = int(np.argmin(norm))
        raise DegenerateEdgeError(
            f"edge length {norm[k]:.6g} must exceed twice the thickness {delta:.6g}"
        )
    a = 0.5 * norm
    u = diff / norm[:, None]
    outer = np.einsum("mi,mj->mij", u, u)
    q = outer / (a**2)[:, None, None] + (np.eye(d)[None, :, :] - outer) / delta**2
    centers = 0.5 * (xi + xj)
    return [
        _ellipsoid_unchecked(centers[k], q[k], a[k], delta) for k in range(m)
    ]


def mvee_closed_form(xi, xj, delta: float) -> LosEllipsoid:
    """Minimum-volume enclosing ellipsoid of the mvee_points construction,
    written directly: semi-axes (|xj - xi|/2, delta, ..., delta) aligned with
    the edge. Requires |xj - xi| > 2*delta so the edge is the major axis.
    """
    xi = _as_point(xi)
    xj = _as_point(xj)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    diff = xj - xi
    norm = float(np.linalg.norm(diff))
    if norm <= 2.0 * delta:
        raise DegenerateEdgeError(
            f"edge length {norm:.6g} must exceed twice the thickness {delta:.6g}"
        )
    a = 0.5 * norm
    u = diff / norm
    proj = np.outer(u, u)
    q = proj / a**2 + (np.eye(xi.size) - proj) / delta**2
    return LosEllipsoid(
        center=0.5 * (xi + xj),
        shape=q,
        major_axis_half_length=a,
        thickness=float(delta),
    )


def mvee_khachiyan(points, tolerance: float, max_iter: int = 100_000) -> LosEllipsoid:
    """Minimum-volume enclosing ellipsoid of a point set by the classic
    weight-update iteration on the lifted point matrix.

    Stops when the duality gap guarantees every point satisfies
    (p - c)^T Q (p - c) <= 1 + tolerance. Serves as the independent oracle for
    mvee_closed_form in the test suite.
    """
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {p.shape}")
    n, d = p.shape
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if n < d + 1:
        raise RankDeficiencyError(f"need at least {d + 1} points in {d}D, got {n}")
    lifted = np.hstack([p, np.ones((n, 1))])  # (n, d+1)
    if np.linalg.matrix_rank(lifted, tol=1e-9 * max(1.0, float(np.max(np.abs(p))))) < d + 1:
        raise RankDeficiencyError("points are affinely dependent (e.g. collinear in 2D)")
    gap_tol = tolerance * d / (d + 1.0)
    u = np.full(n, 1.0 / n)
    residual = np.inf
    for it in range(max_iter):
        v = lifted.T @ (u[:, None] * lifted)
        try:
            vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError as e:
            raise RankDeficiencyError("weighted point matrix became singular") from e
        m = np.einsum("ij,jk,ik->i", lifted, vinv, lifted)
        j_add = int(np.argmax(m))
        eps_add = float(m[j_add]) / (d + 1.0) - 1.0
        support = np.nonzero(u > 1e-12)[0]
        j_away = int(support[np.argmin(m[support])])
        eps_away = 1.0 - float(m[j_away]) / (d + 1.0)
        residual = max(eps_add, eps_away)
        if eps_add <= gap_tol and eps_away <= gap_tol:
            break
        # Wolfe-Atwood: shrink the least-needed support weight when that
        # violation dominates; plain first-order steps converge too slowly.
        if eps_add >= eps_away:
            kappa = float(m[j_add])
            step = (kappa - d - 1.0) / ((d + 1.0) * (kappa - 1.0))
            j = j_add
        else:
            kappa = float(m[j_away])
            step = (kappa - d - 1.0) / ((d + 1.0) * (kappa - 1.0))
            step = max(step, -u[j_away] / (1.0 - u[j_away]))
            j = j_away
        u *= 1.0 - step
        u[j] += step
    else:
        raise MveeConvergenceError(residual=residual, iterations=max_iter)
    center = p.T @ u
    sigma = p.T @ (u[:, None] * p) - np.outer(center, center)
    try:
        q = np.linalg.inv(sigma) / d
    except np.linalg.LinAlgError as e:
        raise RankDeficiencyError("enclosing ellipsoid is degenerate") from e
    q = 0.5 * (q + q.T)
    eigvals = np.linalg.eigvalsh(q)
    if eigvals[0] <= 0:
        raise RankDeficiencyError("enclosing ellipsoid is degenerate")
    return LosEllipsoid(
        center=center,
        shape=q,
        major_axis_half_length=float(1.0 / math.sqrt(eigvals[0])),
        thickness=float(1.0 / math.sqrt(eigvals[-1])),
    )
