import warnings

import numpy as np
import pytest

from losnet.barriers import BarrierParams
from losnet.behaviors import TaskSite
from losnet.errors import ConnectivityLossError, WeightOrderingError
from losnet.geometry import (
    ObstacleField,
    Polygon,
    discretize_obstacles,
    mvee_closed_form,
    segment_occluded,
)
from losnet.topology import (
    SpanningTree,
    UnionFind,
    WeightedLosGraph,
    build_los_graph,
    mccst_baseline,
    mlccst,
    verify_subgroup_connectivity,
    weigh_edges,
)
from losnet.sim import Scenario, initial_state, run, step
from oracles import best_constrained_tree, best_unconstrained_tree_weight


@pytest.fixture
def params():
    return BarrierParams(r_safety=0.1, r_obstacle=0.1, r_comm=2.0, u_max=1.0, gamma=1.0)


def _wall_between():
    return discretize_obstacles(
        [Polygon(np.array([[0.45, -1.0], [0.55, -1.0], [0.55, 1.0], [0.45, 1.0]]))], 0.2
    )


class TestBuildLosGraph:
    def test_in_range_edge(self, params):
        g = build_los_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), ObstacleField.empty(), params)
        assert g.edges.tolist() == [[0, 1]]
        assert g.edges.dtype == np.int64
        assert g.w_prime is None and g.occluded is None

    def test_out_of_range(self, params):
        g = build_los_graph(np.array([[0.0, 0.0], [3.0, 0.0]]), ObstacleField.empty(), params)
        assert g.edges.shape == (0, 2)

    def test_wall_occludes(self, params):
        g = build_los_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), _wall_between(), params)
        assert g.edges.shape == (0, 2)

    def test_matches_pairwise_oracle(self, rng):
        # Random teams among random axis-aligned walls: the edge array is
        # exactly the pairs (i < j), in lexicographic order, that are in range
        # and whose segment the scalar exact test finds clear.
        params = BarrierParams(r_safety=0.05, r_obstacle=0.05, r_comm=0.8, u_max=1.0)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 12))
            x = rng.uniform(0.0, 2.0, (n, 2))
            if min(np.linalg.norm(x[i] - x[j]) for i in range(n) for j in range(i)) < 0.05:
                continue
            walls = []
            for _ in range(int(rng.integers(1, 4))):
                lo = rng.uniform(0.0, 1.8, 2)
                hi = lo + rng.uniform(0.05, 0.6, 2)
                walls.append(Polygon(np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])))
            field = discretize_obstacles(walls, 0.1)
            expected = [
                [i, j]
                for i in range(n)
                for j in range(i + 1, n)
                if np.linalg.norm(x[j] - x[i]) <= params.r_comm
                and not segment_occluded(x[i], x[j], field)
            ]
            g = build_los_graph(x, field, params)
            assert g.edges.dtype == np.int64
            assert g.edges.tolist() == expected
            checked += bool(expected)
        assert checked >= 20


class TestWeighEdges:
    def test_free_space_weights(self):
        # Stationary robots 5 m apart with R_c = 6: h_conn = 11, no points.
        params = BarrierParams(r_safety=0.1, r_obstacle=0.1, r_comm=6.0, u_max=1.0)
        x = np.array([[0.0, 0.0], [5.0, 0.0]])
        g = build_los_graph(x, ObstacleField.empty(), params)
        w = weigh_edges(g, x, np.zeros((2, 2)), ObstacleField.empty(), params, subgroups=[0, 1])
        assert w.w_d[0] == pytest.approx(11.0)
        assert w.w_los[0] == pytest.approx(0.0)
        assert w.w_dlos[0] == pytest.approx(11.0)
        assert not w.occluded[0]

    def test_point_inside_ellipsoid_gets_sentinel(self, params):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        field = ObstacleField(polygons=(), points=np.array([[0.5, 0.0]]), spacing=1.0)
        g = build_los_graph(x, field, params)
        assert len(g.edges) == 1  # exact test sees no polygon
        w = weigh_edges(g, x, np.zeros((2, 2)), field, params, subgroups=[0, 1])
        assert w.occluded[0]
        assert w.w_dlos[0] == w.epsilon
        assert w.w_dlos[0] < 0

    def test_explicit_lambda_scales_verbatim(self):
        params = BarrierParams(r_safety=0.1, r_obstacle=0.1, r_comm=6.0, u_max=1.0)
        x = np.array([[0.0, 0.0], [5.0, 0.0]])
        g = build_los_graph(x, ObstacleField.empty(), params)
        w = weigh_edges(
            g, x, np.zeros((2, 2)), ObstacleField.empty(), params,
            subgroups=[0, 0], lam=1e6,
        )
        assert w.w_prime[0] == pytest.approx(1.1e7)

    def test_weights_invariant_under_relabeling(self, params, rng):
        x = rng.uniform(-1, 1, (5, 2))
        u = rng.uniform(-0.5, 0.5, (5, 2))
        field = ObstacleField(polygons=(), points=rng.uniform(2, 3, (4, 2)), spacing=1.0)
        sub = np.array([0, 0, 1, 1, 1])
        g = weigh_edges(build_los_graph(x, field, params), x, u, field, params, subgroups=sub)
        perm = np.array([4, 2, 0, 1, 3])
        g2 = weigh_edges(
            build_los_graph(x[perm], field, params), x[perm], u[perm], field, params,
            subgroups=sub[perm],
        )
        w1 = dict(zip(map(tuple, g.edges.tolist()), g.w_dlos))
        w2 = {
            tuple(sorted((int(perm[i]), int(perm[j])))): w
            for (i, j), w in zip(g2.edges.tolist(), g2.w_dlos)
        }
        assert set(w1) == set(w2)
        for pair, val in w1.items():
            assert w2[pair] == pytest.approx(val, rel=1e-9)

    def test_auto_calibration_handles_negative_weights(self, params):
        # Robots pulling apart hard make raw scores negative; subgroup edges
        # must still outrank cross edges.
        x = np.array([[0.0, 0.0], [1.9, 0.0], [0.0, 0.5], [1.9, 0.5]])
        u = np.array([[-1.0, 0], [1.0, 0], [-1.0, 0], [1.0, 0]])
        g = build_los_graph(x, ObstacleField.empty(), params)
        w = weigh_edges(g, x, u, ObstacleField.empty(), params, subgroups=[0, 0, 1, 1])
        raw = dict(zip(map(tuple, w.edges.tolist()), w.w_dlos))
        assert raw[(0, 1)] < 0  # stretched pair, diverging nominal controls
        is_intra = np.array([tuple(e) in {(0, 1), (2, 3)} for e in w.edges.tolist()])
        intra = w.w_prime[is_intra]
        inter = w.w_prime[~is_intra]
        assert min(intra) > max(inter)

    def test_weights_match_direct_per_point_computation(self, params, rng):
        # The shipped implementation averages analytically over the point
        # moments; check it against the naive per-point sum.
        from losnet.barriers import h_los, hdot_los_coefficients

        for _ in range(25):
            n = int(rng.integers(2, 6))
            x = rng.uniform(0, 1.2, (n, 2))
            if n > 1 and min(
                np.linalg.norm(x[i] - x[j]) for i in range(n) for j in range(i)
            ) < 0.1:
                continue
            u = rng.uniform(-0.5, 0.5, (n, 2))
            field = ObstacleField(
                polygons=(), points=rng.uniform(-0.5, 1.7, (int(rng.integers(1, 25)), 2)),
                spacing=1.0,
            )
            g = build_los_graph(x, field, params)
            w = weigh_edges(g, x, u, field, params, subgroups=np.zeros(n, int))
            for k, (i, j) in enumerate(w.edges.tolist()):
                ell = mvee_closed_form(x[i], x[j], params.delta)
                h_direct = np.array([h_los(ell, p) for p in field.points])
                hd_direct = np.array(
                    [-hdot_los_coefficients(ell, p) @ (u[i] + u[j]) for p in field.points]
                )
                w_los_direct = float(np.mean(hd_direct + params.gamma * h_direct))
                assert w.w_los[k] == pytest.approx(w_los_direct, rel=1e-9, abs=1e-9)
                assert w.occluded[k] == bool(np.min(h_direct) < 0)

    def test_explicit_lambda_ordering_violation_raises(self, params):
        x = np.array([[0.0, 0.0], [1.9, 0.0], [0.0, 0.5], [1.9, 0.5]])
        u = np.array([[-1.0, 0], [1.0, 0], [-1.0, 0], [1.0, 0]])
        g = build_los_graph(x, ObstacleField.empty(), params)
        with pytest.raises(WeightOrderingError):
            weigh_edges(
                g, x, u, ObstacleField.empty(), params,
                subgroups=[0, 0, 1, 1], lam=1e6,
            )


def _graph_from_weights(n, weighted_edges, subgroups=None, occluded=None):
    w = np.array([e[2] for e in weighted_edges], dtype=np.float64)
    return WeightedLosGraph(
        n_robots=n,
        subgroups=np.zeros(n, np.int64) if subgroups is None else np.asarray(subgroups),
        edges=[e[:2] for e in weighted_edges],
        w_dlos=w,
        w_prime=w,
        occluded=np.zeros(w.size, bool) if occluded is None else np.asarray(occluded),
    )


class TestMlccst:
    def test_triangle_keeps_two_heaviest(self):
        g = _graph_from_weights(3, [(0, 1, 5.0), (0, 2, 3.0), (1, 2, 4.0)])
        tree = mlccst(g)
        assert tree.edges == ((0, 1), (1, 2))
        assert tree.total_weight == pytest.approx(9.0)

    def test_path_graph_unique_tree(self):
        g = _graph_from_weights(4, [(0, 1, 1.0), (1, 2, -2.0), (2, 3, 0.5)])
        assert mlccst(g).edges == ((0, 1), (1, 2), (2, 3))

    def test_four_node_tie_break(self):
        # Both cross edges weigh the same; lexicographic order picks (0, 3).
        lam = 1e6
        g = _graph_from_weights(
            4, [(0, 1, lam), (2, 3, lam), (0, 3, 1.0), (1, 2, 1.0)], subgroups=[0, 0, 1, 1]
        )
        tree = mlccst(g)
        assert tree.edges == ((0, 1), (0, 3), (2, 3))
        assert verify_subgroup_connectivity(tree, [0, 0, 1, 1])

    def test_equal_weights_break_ties_by_pair(self, rng):
        # Weights from a three-value set tie often; the array order of the
        # edges must not matter, and the tree must be the one Kruskal builds
        # from edges sorted by (-w_prime, i, j).
        for _ in range(60):
            n = int(rng.integers(2, 8))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
            chain = [(k, k + 1) for k in range(n - 1)]
            pairs = sorted(set(pairs) | set(chain))
            w = rng.choice([-1.0, 2.0, 5.0], size=len(pairs))
            uf = UnionFind(n)
            kept = [
                (i, j, -neg_w)
                for neg_w, i, j in sorted((-wk, i, j) for (i, j), wk in zip(pairs, w))
                if uf.union(i, j)
            ]
            perm = rng.permutation(len(pairs))
            tree = mlccst(_graph_from_weights(n, [(*pairs[k], w[k]) for k in perm]))
            assert tree.edges == tuple(sorted((i, j) for i, j, _ in kept))
            assert tree.total_weight == pytest.approx(sum(wk for _, _, wk in kept))
        g = _graph_from_weights(4, [(2, 3, 1.0), (1, 3, 1.0), (0, 3, 1.0), (0, 1, 1.0),
                                    (1, 2, 1.0), (0, 2, 1.0)])
        assert mlccst(g).edges == ((0, 1), (0, 2), (0, 3))

    def test_disconnected_graph_lists_components(self):
        g = _graph_from_weights(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ConnectivityLossError) as exc:
            mlccst(g)
        assert exc.value.components == [[0, 1], [2, 3]]

    def test_unweighted_graph_rejected(self):
        g = WeightedLosGraph(n_robots=2, subgroups=np.zeros(2, np.int64), edges=[(0, 1)])
        with pytest.raises(ValueError):
            mlccst(g)

    def test_occluded_edges_avoided_when_possible(self, params, rng):
        # As long as some spanning tree of clear edges exists, no
        # sentinel-weighted edge may appear in the result.
        for _ in range(30):
            n = int(rng.integers(3, 7))
            x = _random_connected_layout(rng, n, np.zeros(n, int), params)
            if x is None:
                continue
            g = build_los_graph(x, ObstacleField.empty(), params)
            if len(g.edges) <= n - 1:
                continue
            # Plant points at some non-bridge edges' midpoints.
            extra = rng.choice(len(g.edges), size=min(2, len(g.edges) - (n - 1)),
                               replace=False)
            points = 0.5 * (x[g.edges[extra, 0]] + x[g.edges[extra, 1]])
            field = ObstacleField(polygons=(), points=points, spacing=1.0)
            w = weigh_edges(g, x, np.zeros((n, 2)), field, params,
                            subgroups=np.zeros(n, int))
            occluded = set(map(tuple, w.edges[w.occluded].tolist()))
            clear = w.edges[~w.occluded]
            from losnet.sim import _lambda2_from_edges
            if not occluded or _lambda2_from_edges(n, clear) <= 1e-9:
                continue
            tree = mlccst(w)
            assert not occluded & set(tree.edges)

    def test_occluded_edge_in_tree_counted(self, params):
        # A block just below the only edge: the exact segment test passes,
        # but its boundary point (0.5, -0.01) sits inside the edge ellipsoid,
        # so the tree must keep an edge whose ellipsoid test fails. Each step
        # counts it, the summary counts the steps, and nothing warns.
        block = Polygon(np.array([[0.4, -0.5], [0.6, -0.5], [0.6, -0.01], [0.4, -0.01]]))
        sc = Scenario(
            positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
            subgroups=np.array([0, 1]),
            obstacles=(block,),
            sites={0: TaskSite(np.array([0.0, 0.0])), 1: TaskSite(np.array([1.0, 0.0]))},
            params=params,
            steps=3,
        )
        graph = weigh_edges(
            build_los_graph(sc.positions, sc.field, params), sc.positions, np.zeros((2, 2)),
            sc.field, params, subgroups=sc.subgroups,
        )
        assert graph.occluded.tolist() == [True]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, metrics = step(initial_state(sc), sc)
            record = run(sc)
        assert metrics.tree_edges == ((0, 1),)
        assert metrics.occluded_tree_edges == 1
        per_step = [m.occluded_tree_edges for m in record.metrics]
        assert per_step[0] == 1
        assert record.summary["occluded_tree_edge_steps"] == sum(c > 0 for c in per_step)
        sc.method = "mccst"
        assert step(initial_state(sc), sc)[1].occluded_tree_edges == 0

    def test_small_oracle_equivalence(self, params, rng):
        # Randomized cross-check against exhaustive enumeration; the large
        #版 run lives in the acceptance suite.
        for _ in range(60):
            n = int(rng.integers(3, 6))
            sub = rng.integers(0, 2, n)
            x = _random_connected_layout(rng, n, sub, params)
            if x is None:
                continue
            u = rng.uniform(-0.5, 0.5, (n, 2))
            g = weigh_edges(
                build_los_graph(x, ObstacleField.empty(), params),
                x, u, ObstacleField.empty(), params, subgroups=sub,
            )
            edges = list(map(tuple, g.edges.tolist()))
            expected = best_constrained_tree(n, edges, g.w_dlos, g.w_prime, sub)
            if expected is None:
                continue
            tree = mlccst(g)
            assert tree.edges == expected[0]
            assert tree.total_weight == pytest.approx(
                best_unconstrained_tree_weight(n, edges, g.w_prime), rel=1e-12
            )


def _random_connected_layout(rng, n, sub, params, tries=20):
    """Positions whose sight-line graph is connected and subgroup-connected."""
    from losnet.sim import _lambda2_from_edges

    for _ in range(tries):
        x = rng.uniform(0, 1.5, (n, 2))
        if np.min(
            [np.linalg.norm(x[i] - x[j]) for i in range(n) for j in range(i)] or [1]
        ) < 0.15:
            continue
        pairs = build_los_graph(x, ObstacleField.empty(), params).edges.tolist()
        if _lambda2_from_edges(n, pairs) <= 1e-9:
            continue
        ok = True
        for label in np.unique(sub):
            members = sorted(np.nonzero(sub == label)[0])
            relabel = {v: k for k, v in enumerate(members)}
            inner = [(relabel[i], relabel[j]) for i, j in pairs
                     if i in relabel and j in relabel]
            if len(members) >= 2 and _lambda2_from_edges(len(members), inner) <= 1e-9:
                ok = False
                break
        if ok:
            return x
    return None


class TestSubgroupConnectivity:
    def test_connected_case(self):
        tree = SpanningTree(((0, 1), (2, 3), (0, 3)), 0.0)
        assert verify_subgroup_connectivity(tree, [0, 0, 1, 1]) is True

    def test_star_through_other_subgroup(self):
        tree = SpanningTree(((0, 2), (1, 2), (2, 3)), 0.0)
        assert verify_subgroup_connectivity(tree, [0, 0, 1, 1]) is False

    def test_singleton_subgroups(self):
        tree = SpanningTree(((0, 1), (1, 2)), 0.0)
        assert verify_subgroup_connectivity(tree, [0, 1, 2]) is True


class TestBaselines:
    def test_mccst_ignores_walls(self, params):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        field = _wall_between()
        tree = mccst_baseline(x, np.zeros((2, 2)), params, [0, 1])
        assert tree.edges == ((0, 1),)
        assert build_los_graph(x, field, params).edges.shape == (0, 2)

    def test_obstacle_free_agreement(self, params, rng):
        for _ in range(20):
            n = 5
            sub = np.array([0, 0, 0, 1, 1])
            x = _random_connected_layout(rng, n, sub, params)
            if x is None:
                continue
            u = rng.uniform(-0.3, 0.3, (n, 2))
            g = weigh_edges(
                build_los_graph(x, ObstacleField.empty(), params),
                x, u, ObstacleField.empty(), params, subgroups=sub,
            )
            assert mlccst(g).edges == mccst_baseline(x, u, params, sub).edges

    def test_mccst_disconnected_raises(self, params):
        x = np.array([[0.0, 0.0], [10.0, 0.0]])
        with pytest.raises(ConnectivityLossError):
            mccst_baseline(x, np.zeros((2, 2)), params, [0, 1])

    def test_fixed_keeps_first_tree(self, params):
        # Robots swing around each other, so the maximum-weight tree changes
        # along the run; the frozen-topology method keeps the first one.
        sc = Scenario(
            positions=np.array([[0.0, 0.0], [0.6, 0.0], [0.0, 0.6], [0.6, 0.6]]),
            subgroups=np.array([0, 1, 2, 3]),
            obstacles=(),
            sites={
                0: TaskSite(np.array([0.6, 0.6])), 1: TaskSite(np.array([0.0, 0.6])),
                2: TaskSite(np.array([0.6, 0.0])), 3: TaskSite(np.array([0.0, 0.0])),
            },
            params=params,
            steps=40,
        )
        maintained = {m.tree_edges for m in run(sc).metrics}
        assert len(maintained) > 1
        sc.method = "fixed"
        frozen = [m.tree_edges for m in run(sc).metrics]
        assert set(frozen) == {frozen[0]}
