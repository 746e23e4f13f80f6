"""Sight-line communication graph construction, edge scoring, and the
spanning-tree topology optimizer.

The candidate graph is a struct of arrays: an (E, 2) array of robot pairs
(i < j) plus one (E,) array per edge attribute, carried unchanged in shape
from `build_los_graph` through `weigh_edges` to the tree optimizer. No
per-edge object or ellipsoid is built; the sight-line ellipsoid of an edge is
fixed by its endpoints and the thickness delta, so the scores use its axis
form directly and `tree_ellipsoids` builds ellipsoid objects for the N-1
maintained edges only.

Each candidate edge gets a score saying how unlikely its maintenance
constraints are to be violated under the nominal controls: w_d for the range
constraint, w_los averaged over all obstacle boundary points for the
occlusion constraint, and w_dlos as their sum. Edges whose ellipsoid test
already fails are flagged `occluded` and get a large negative sentinel
instead, and same-subgroup edges are amplified so the tree connects every
subgroup internally before bridging between subgroups. The maintained
topology is then the maximum-weight spanning tree under the strict
lexicographic (-w, i, j) order, so it is unique and runs are
bit-reproducible; it is computed by Borůvka's algorithm on arrays.

The stage does work only where geometry can matter, by exact prefilters:
`segments_occluded` runs its exact test only on segment-polygon pairs whose
boxes meet and whose supporting line separates two polygon vertices, and
the `occluded` flag looks only at boundary points in groups whose box meets
the edge's box padded by delta, which contains the edge ellipsoid. The
per-field boxes, point groups and point moments are computed once per
`ObstacleField`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .barriers import BarrierParams
from .errors import ConnectivityLossError, DegenerateEdgeError, WeightOrderingError
from .geometry import (
    LosEllipsoid,
    ObstacleField,
    boxes_meet,
    mvee_closed_form_batch,
    segments_occluded,
)


@dataclasses.dataclass
class WeightedLosGraph:
    """Candidate edges `edges`, an (E, 2) int64 array of pairs (i < j), with
    parallel (E,) score arrays that stay None until `weigh_edges` fills them.
    `w_prime` is the effective weight the tree optimizer sorts on; `occluded`
    marks edges whose ellipsoid test fails."""

    n_robots: int
    subgroups: np.ndarray
    edges: np.ndarray
    w_d: np.ndarray | None = None
    w_los: np.ndarray | None = None
    w_dlos: np.ndarray | None = None
    w_prime: np.ndarray | None = None
    occluded: np.ndarray | None = None
    epsilon: float | None = None
    lam: float | None = None

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)


@dataclasses.dataclass(frozen=True)
class SpanningTree:
    """N-1 edges spanning all robots; total_weight is the sum of effective
    edge weights w_prime."""

    edges: tuple[tuple[int, int], ...]
    total_weight: float

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def build_los_graph(states, field: ObstacleField, params: BarrierParams) -> WeightedLosGraph:
    """Candidate graph: edge (i, j) present iff the robots are within
    communication range and the exact segment between them is occlusion-free.
    Edges come in (i, j) lexicographic order; weights are unset.

    Raises DegenerateEdgeError if a candidate edge is no longer than twice the
    ellipsoid thickness, since its sight-line ellipsoid is then undefined.
    """
    x = np.asarray(states, dtype=np.float64)
    n = x.shape[0]
    small, large = np.triu_indices(n, 1)
    if small.size:
        dist = np.linalg.norm(x[large] - x[small], axis=1)
        in_range = dist <= params.r_comm
        small, large, dist = small[in_range], large[in_range], dist[in_range]
    if small.size:
        clear = ~segments_occluded(x[small], x[large], field)
        small, large, dist = small[clear], large[clear], dist[clear]
        if np.any(dist <= 2.0 * params.delta):
            k = int(np.argmin(dist))
            raise DegenerateEdgeError(
                f"edge length {dist[k]:.6g} must exceed twice the thickness {params.delta:.6g}"
            )
    return WeightedLosGraph(
        n_robots=n,
        subgroups=np.zeros(n, dtype=np.int64),
        edges=np.stack([small, large], axis=1),
    )


def weigh_edges(
    graph: WeightedLosGraph,
    states,
    nominal_controls,
    field: ObstacleField,
    params: BarrierParams,
    subgroups=None,
    lam: float | None = None,
    epsilon: float | None = None,
) -> WeightedLosGraph:
    """Score every edge of the graph under the nominal controls.

    w_d    = dh_conn/dt + gamma * h_conn
    w_los  = mean over boundary points of (dh_los/dt + gamma * h_los)
    w_dlos = w_d + w_los, or the epsilon sentinel if any point sits inside
             the edge ellipsoid (occluded by the conservative test)
    w_prime = lam * w_dlos on same-subgroup edges, w_dlos otherwise

    The edge ellipsoid has center (xi + xj)/2, semi-axis |xj - xi|/2 along
    the edge and `params.delta` across it, as built by `mvee_closed_form`.
    With explicit `lam`/`epsilon` the scaling is applied verbatim. By default
    both are calibrated from the realized weights: non-sentinel weights are
    shifted to a common positive range before the subgroup amplification, so
    same-subgroup edges always outrank cross-subgroup edges in the tree
    regardless of the sign or scale of the raw scores, and sentinel edges
    always rank last. With no boundary points w_los is zero.
    """
    x = np.asarray(states, dtype=np.float64)
    u_hat = np.asarray(nominal_controls, dtype=np.float64)
    if subgroups is None:
        subgroups = graph.subgroups
    subgroups = np.asarray(subgroups, dtype=np.int64)
    gamma = params.gamma
    ii, jj = graph.edges[:, 0], graph.edges[:, 1]
    xi, xj = x[ii], x[jj]
    n_edges = ii.size

    diff = xi - xj
    w_d_vals = (
        -2.0 * np.einsum("ed,ed->e", diff, u_hat[ii] - u_hat[jj])
        + gamma * (params.r_comm**2 - np.einsum("ed,ed->e", diff, diff))
    )

    occluded_flags = np.zeros(n_edges, dtype=bool)
    f_count = field.n_points
    if n_edges and f_count:
        # The per-point average reduces to the static point moments (sum of
        # points and of their outer products), because h and its derivative
        # are quadratic/linear in the point coordinates; only the occlusion
        # flag needs individual points.
        p1, m2, s2_total = field.point_moments
        centers = 0.5 * (xi + xj)
        axis = xj - xi
        length = np.linalg.norm(axis, axis=1)
        axis = axis / length[:, None]
        a2 = (0.5 * length) ** 2
        d2 = params.delta**2
        usum = u_hat[ii] + u_hat[jj]
        coef = 1.0 / a2 - 1.0 / d2
        c_dot_u = np.einsum("ed,ed->e", centers, axis)
        p1_dot_u = axis @ p1
        u_m2_u = np.einsum("ei,ij,ej->e", axis, m2, axis)
        sum_r2 = s2_total - 2.0 * (centers @ p1) + f_count * np.einsum("ed,ed->e", centers, centers)
        sum_s2 = u_m2_u - 2.0 * p1_dot_u * c_dot_u + f_count * c_dot_u**2
        sum_h = sum_s2 / a2 + (sum_r2 - sum_s2) / d2 - f_count
        sum_s = p1_dot_u - f_count * c_dot_u
        sum_hdot = -(
            ((p1[None, :] - f_count * centers) * usum).sum(axis=1) / d2
            + coef * sum_s * np.einsum("ed,ed->e", axis, usum)
        )
        w_los_vals = (sum_hdot + gamma * sum_h) / f_count
        # The ellipsoid lies inside the edge's box padded by delta, so only
        # point groups whose box meets that padded box can hold a point
        # inside it.
        eidx, gidx = np.nonzero(boxes_meet(
            np.minimum(xi, xj) - params.delta, np.maximum(xi, xj) + params.delta,
            field.group_boxes,
        ))
        if eidx.size:
            rel = field.point_groups[gidx] - centers[eidx][:, None, :]  # (K, g, 2)
            s_c = np.einsum("kgd,kd->kg", rel, axis[eidx])
            r2_c = np.einsum("kgd,kgd->kg", rel, rel)
            h_c = s_c**2 / a2[eidx, None] + (r2_c - s_c**2) / d2 - 1.0
            occluded_flags[eidx[(h_c < 0.0).any(axis=1)]] = True
    else:
        w_los_vals = np.zeros(n_edges)

    raw = w_d_vals + w_los_vals
    same = subgroups[ii] == subgroups[jj]
    lam_eff, eps_eff, sort_weights = _calibrate_weights(
        raw, occluded_flags, same, lam, epsilon
    )
    return WeightedLosGraph(
        n_robots=graph.n_robots,
        subgroups=subgroups,
        edges=graph.edges,
        w_d=w_d_vals,
        w_los=w_los_vals,
        w_dlos=np.where(occluded_flags, eps_eff, raw),
        w_prime=sort_weights,
        occluded=occluded_flags,
        epsilon=eps_eff,
        lam=lam_eff,
    )


def _calibrate_weights(raw, occluded, same, lam, epsilon):
    """Produce effective sort weights realizing the four-band ordering

        same-subgroup clear > cross-subgroup clear > cross sentinel > same sentinel

    and verify it holds on the realized values. Explicit lam/epsilon are used
    verbatim (the verbatim product lam * w_dlos); automatic calibration first
    shifts the clear weights into a positive range, which preserves the
    argmax over spanning trees band by band because every spanning tree uses
    the same number of edges of each band at the optimum.
    """
    clear = raw[~occluded] if raw.size else raw
    max_abs = float(np.max(np.abs(clear))) if clear.size else 0.0
    eps_eff = float(epsilon) if epsilon is not None else -1e6 * (1.0 + max_abs)

    if lam is not None:
        lam_eff = float(lam)
        base = np.where(occluded, eps_eff, raw)
        sort_w = np.where(same, lam_eff * base, base)
    else:
        if clear.size:
            lo = float(np.min(clear))
            hi = float(np.max(clear))
            shift = 1.0 + (hi - lo) - lo  # maps clear weights into [1 + span, 1 + 2*span]
            shifted_hi = hi + shift
            shifted_lo = lo + shift
            lam_eff = 1e3 * (1.0 + shifted_hi / shifted_lo)
        else:
            shift = 0.0
            lam_eff = 1e3
        shifted = raw + shift
        base = np.where(occluded, eps_eff, shifted)
        sort_w = np.where(same, lam_eff * base, base)

    _assert_weight_ordering(sort_w, occluded, same)
    return lam_eff, eps_eff, sort_w


def _assert_weight_ordering(sort_w, occluded, same) -> None:
    if sort_w.size == 0:
        return
    if not np.all(np.isfinite(sort_w)):
        raise WeightOrderingError("effective edge weights overflowed to non-finite values")
    bands = [
        sort_w[same & ~occluded],
        sort_w[~same & ~occluded],
        sort_w[~same & occluded],
        sort_w[same & occluded],
    ]
    floor = np.inf
    for band in bands:
        if band.size == 0:
            continue
        if float(np.max(band)) >= floor:
            raise WeightOrderingError(
                "edge weight bands out of order; subgroup priority cannot be guaranteed"
            )
        floor = float(np.min(band))


def _max_spanning_tree(n_robots: int, edges: np.ndarray, weights: np.ndarray) -> SpanningTree:
    """Maximum-weight spanning tree of the (E, 2) edge array under the strict
    order (-weight, i, j), by Borůvka's algorithm on arrays.

    Each round every component takes its best leaving edge (`np.minimum.at`
    on the edge ranks) and the picks are merged by pointer jumping; the
    component count at least halves per round. Under a strict order the
    maximum spanning tree is unique, so this is the tree Kruskal builds from
    the same order, and `total_weight` adds the tree's weights in that order,
    so it matches Kruskal's sum bit for bit.
    """
    n_edges = edges.shape[0]
    # i * n + j orders the pairs as (i, j) does, and as one key it sorts fast.
    order = np.lexsort((edges[:, 0] * n_robots + edges[:, 1], -weights))
    ei, ej = edges[order, 0], edges[order, 1]  # in rank order: position = rank
    comp = np.arange(n_robots)
    live = np.arange(n_edges)
    picked: list[np.ndarray] = []
    n_components = n_robots
    while n_components > 1:
        ci, cj = comp[ei[live]], comp[ej[live]]
        cross = ci != cj
        live, ci, cj = live[cross], ci[cross], cj[cross]
        if live.size == 0:
            break
        best = np.full(n_robots, n_edges)
        np.minimum.at(best, ci, live)
        np.minimum.at(best, cj, live)
        roots = np.nonzero(best < n_edges)[0]
        pick = best[roots]
        # Each root hooks onto the component across its pick, except that of
        # two components picking the same edge only the larger hooks; every
        # hook merges two components along one tree edge.
        other = comp[ei[pick]] + comp[ej[pick]] - roots
        hooks = (best[other] != pick) | (roots > other)
        parent = np.arange(n_robots)
        parent[roots[hooks]] = other[hooks]
        picked.append(pick[hooks])
        n_components -= picked[-1].size
        if n_components == 1:
            break
        while True:
            hop = parent[parent]
            if (hop == parent).all():
                break
            parent = hop
        comp = parent[comp]
    if n_components > 1:
        raise ConnectivityLossError(components=_components(comp))
    chosen = order[np.sort(np.concatenate(picked))] if picked else order[:0]
    total = 0.0
    for w in weights[chosen].tolist():  # Kruskal's order of addition
        total += w
    tree = edges[chosen]
    return SpanningTree(edges=tree[np.lexsort((tree[:, 1], tree[:, 0]))].tolist(), total_weight=total)


def _components(labels: np.ndarray) -> list[list[int]]:
    """Robots grouped by component label, each group ascending, groups
    ordered by their smallest robot."""
    groups: dict[int, list[int]] = {}
    for v, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(v)
    return sorted(groups.values())


def mlccst(graph: WeightedLosGraph) -> SpanningTree:
    """Maximum-weight spanning tree of the weighed sight-line graph.

    Raises ConnectivityLossError (listing components) if the graph does not
    span all robots. The tree keeps an edge flagged `occluded` only when no
    spanning tree avoids one; its occlusion constraint then starts violated,
    and `sim.step` counts such edges per step.
    """
    if graph.w_prime is None:
        raise ValueError("graph edges are unweighted; call weigh_edges first")
    return _max_spanning_tree(graph.n_robots, graph.edges, graph.w_prime)


def tree_ellipsoids(
    states, tree: SpanningTree, delta: float
) -> dict[tuple[int, int], LosEllipsoid]:
    """Closed-form sight-line ellipsoid of every tree edge, keyed by edge."""
    x = np.asarray(states, dtype=np.float64)
    ends = np.array(tree.edges, dtype=np.int64).reshape(-1, 2)
    return dict(zip(tree.edges, mvee_closed_form_batch(x[ends[:, 0]], x[ends[:, 1]], delta)))


def verify_subgroup_connectivity(tree: SpanningTree, subgroups) -> bool:
    """True iff, for every subgroup, the tree edges internal to that subgroup
    connect all of its members."""
    sg = np.asarray(subgroups, dtype=np.int64)
    n = sg.size
    uf = UnionFind(n)
    for i, j in tree.edges:
        if sg[i] == sg[j]:
            uf.union(i, j)
    for label in np.unique(sg):
        members = np.nonzero(sg == label)[0]
        roots = {uf.find(int(v)) for v in members}
        if len(roots) > 1:
            return False
    return True


def mccst_baseline(
    states,
    nominal_controls,
    params: BarrierParams,
    subgroups,
    lam: float | None = None,
) -> SpanningTree:
    """Range-only baseline: candidate edges need only proximity (occlusion is
    ignored), scored by the range weight w_d alone with the same subgroup
    amplification."""
    x = np.asarray(states, dtype=np.float64)
    u_hat = np.asarray(nominal_controls, dtype=np.float64)
    sg = np.asarray(subgroups, dtype=np.int64)
    n = x.shape[0]
    gamma = params.gamma
    small, large = np.triu_indices(n, 1)
    diff = x[large] - x[small]
    dist2 = np.einsum("ij,ij->i", diff, diff)
    in_range = dist2 <= params.r_comm**2
    pairs = np.stack([small[in_range], large[in_range]], axis=1)
    w_d = (
        -2.0 * np.einsum("ij,ij->i", x[small[in_range]] - x[large[in_range]],
                         u_hat[small[in_range]] - u_hat[large[in_range]])
        + gamma * (params.r_comm**2 - dist2[in_range])
    )
    same = sg[small[in_range]] == sg[large[in_range]]
    _, _, sort_w = _calibrate_weights(
        w_d, np.zeros(len(pairs), dtype=bool), same, lam, None
    )
    return _max_spanning_tree(n, pairs, sort_w)
