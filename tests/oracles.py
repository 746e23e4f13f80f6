"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately avoid the library's solver paths: spanning trees come from
exhaustive subset enumeration or a plain greedy union-find, QP optima from
enumerating candidate active sets of the KKT conditions, and segment
occlusion from dense sampling with a point-in-polygon test of its own.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from losnet.topology import SpanningTree, UnionFind, verify_subgroup_connectivity


def spanning_tree_indices(n: int, edges: list[tuple[int, int]]):
    """Yield every index subset of size n-1 that forms a spanning tree."""
    for combo in combinations(range(len(edges)), n - 1):
        uf = UnionFind(n)
        if all(uf.union(*edges[k]) for k in combo):
            yield combo


def greedy_key(pair: tuple[int, int], w_prime: float):
    """Total order the greedy tree builder processes edges in."""
    return (-w_prime, pair[0], pair[1])


def greedy_tree(n: int, edges: list[tuple[int, int]], w_prime):
    """Kruskal's maximum spanning tree: edges taken in `greedy_key` order,
    each kept when it joins two components, the kept weights summed in that
    order. Returns (sorted tree edges, total weight, components), where
    components lists the vertex sets of the whole graph, each ascending,
    ordered by smallest vertex; the tree spans iff there is one component."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    kept, total = [], 0.0
    for k in sorted(range(len(edges)), key=lambda k: greedy_key(edges[k], float(w_prime[k]))):
        ra, rb = find(edges[k][0]), find(edges[k][1])
        if ra != rb:
            root[ra] = rb
            kept.append(tuple(edges[k]))
            total += float(w_prime[k])
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(kept)), total, sorted(groups.values())


def segment_hits_interior(a, b, polygons, samples: int = 2**17, tol: float = 1e-9) -> bool:
    """Whether one of `samples` evenly spaced points of the open segment from
    a to b, at t = (k + 1/2) / samples, lies strictly inside one of the
    polygons ((V, 2) vertex arrays, either orientation): inside, and more
    than `tol` from every edge, the boundary contact the library ignores.
    Any interior stretch longer than 1/samples of the segment holds a
    sample."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t = (np.arange(samples) + 0.5) / samples
    pts = a + t[:, None] * (b - a)
    for v in polygons:
        v = np.asarray(v, dtype=np.float64)
        near = pts[np.all((pts >= v.min(axis=0)) & (pts <= v.max(axis=0)), axis=1)]
        if near.size and _strictly_inside(near, v, tol).any():
            return True
    return False


def _strictly_inside(pts, v, tol) -> np.ndarray:
    """Winding-number test by orientation signs, then the distance from each
    point to each edge segment: strictly inside iff the point winds around
    the polygon and is more than `tol` from every edge."""
    x, y = pts[:, :1], pts[:, 1:]
    ax, ay = v[:, 0], v[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    ex, ey = bx - ax, by - ay
    side = ex * (y - ay) - ey * (x - ax)  # > 0: left of the edge
    up = (ay <= y) & (by > y) & (side > 0)
    down = (ay > y) & (by <= y) & (side < 0)
    winding = up.sum(axis=1) - down.sum(axis=1)
    along = np.clip(((x - ax) * ex + (y - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    gap = np.hypot(x - ax - along * ex, y - ay - along * ey)
    return (winding != 0) & (gap.min(axis=1) > tol)


def best_constrained_tree(
    n: int,
    edges: list[tuple[int, int]],
    w_dlos: np.ndarray,
    w_prime: np.ndarray,
    subgroups,
):
    """Argmax of the summed raw edge scores over all spanning trees whose
    per-subgroup induced subgraphs are connected, with ties resolved by the
    greedy processing order (lexicographically smallest sorted key sequence).

    Returns (edge tuple, total raw score, total effective score) or None if no
    subgroup-connected spanning tree exists.
    """
    best = None
    for combo in spanning_tree_indices(n, edges):
        tree_edges = tuple(sorted(edges[k] for k in combo))
        if not verify_subgroup_connectivity(SpanningTree(tree_edges, 0.0), subgroups):
            continue
        keys = tuple(sorted(greedy_key(edges[k], float(w_prime[k])) for k in combo))
        # Summing in key order makes equal multisets sum bit-identically.
        order = sorted(combo, key=lambda k: greedy_key(edges[k], float(w_prime[k])))
        total_raw = float(np.sum([w_dlos[k] for k in order]))
        total_eff = float(np.sum([w_prime[k] for k in order]))
        cand = (-total_raw, keys, tree_edges, total_eff)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    return best[2], -best[0], best[3]


def best_unconstrained_tree_weight(n, edges, w_prime) -> float:
    """Max total effective weight over all spanning trees (no subgroup
    constraint); checks the greedy tree builder itself."""
    best = -np.inf
    for combo in spanning_tree_indices(n, edges):
        order = sorted(combo, key=lambda k: greedy_key(edges[k], float(w_prime[k])))
        best = max(best, float(np.sum([w_prime[k] for k in order])))
    return best


def qp_active_set_oracle(u_hat, a, b, box: float):
    """Exact minimizer of 0.5|u - u_hat|^2 subject to a u <= b and the box,
    by enumerating candidate active sets of the KKT system (box faces are
    rows too). Returns (u, objective).
    """
    u_hat = np.asarray(u_hat, dtype=np.float64).ravel()
    n = u_hat.size
    a = np.asarray(a, dtype=np.float64).reshape(-1, n)
    b = np.asarray(b, dtype=np.float64).ravel()
    rows = [(a[k], b[k]) for k in range(b.size)]
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        rows.append((e.copy(), box))
        rows.append((-e, box))
    mat = np.array([r[0] for r in rows])
    vec = np.array([r[1] for r in rows])
    m = mat.shape[0]

    def feasible(u):
        return np.all(mat @ u <= vec + 1e-9)

    best_u, best_obj = None, np.inf
    if feasible(u_hat):
        return u_hat.copy(), 0.0
    for size in range(1, n + 1):
        for subset in combinations(range(m), size):
            a_s = mat[list(subset)]
            gram = a_s @ a_s.T
            if np.linalg.matrix_rank(gram, tol=1e-10) < size:
                continue
            lam = np.linalg.solve(gram, a_s @ u_hat - vec[list(subset)])
            if np.min(lam) < -1e-9:
                continue
            u = u_hat - a_s.T @ lam
            if not feasible(u):
                continue
            obj = float((u - u_hat) @ (u - u_hat))
            if obj < best_obj - 1e-15:
                best_obj, best_u = obj, u
    assert best_u is not None, "oracle found no KKT point; problem infeasible?"
    return best_u, best_obj
