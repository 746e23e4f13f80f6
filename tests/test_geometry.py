import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from losnet.errors import DegenerateEdgeError, PolygonError, RankDeficiencyError
from losnet.geometry import (
    LosEllipsoid,
    Polygon,
    discretize_obstacles,
    mvee_closed_form,
    mvee_closed_form_batch,
    mvee_khachiyan,
    mvee_points,
    segment_occluded,
    segments_occluded,
)

from oracles import segment_hits_interior

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
OFFSET_SQUARE = np.array([[0.5, -0.5], [1.5, -0.5], [1.5, 0.5], [0.5, 0.5]])


class TestPolygon:
    def test_clockwise_input_is_reversed(self):
        p = Polygon(UNIT_SQUARE[::-1])
        assert p.area > 0

    def test_too_few_vertices(self):
        with pytest.raises(PolygonError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_zero_area(self):
        with pytest.raises(PolygonError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_self_intersection(self):
        bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(PolygonError):
            Polygon(bowtie)


class TestDiscretize:
    def test_unit_square_half_spacing(self):
        field = discretize_obstacles([Polygon(UNIT_SQUARE)], 0.5)
        assert field.n_points == 8  # 4 corners + 4 edge midpoints

    def test_unit_square_unit_spacing(self):
        field = discretize_obstacles([Polygon(UNIT_SQUARE)], 1.0)
        assert field.n_points == 4

    def test_two_squares_sum(self):
        far = Polygon(UNIT_SQUARE + 5.0)
        field = discretize_obstacles([Polygon(UNIT_SQUARE), far], 0.5)
        assert field.n_points == 16

    def test_points_lie_on_boundary(self):
        poly = Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [1.5, 1.7], [0.1, 1.1]]))
        field = discretize_obstacles([poly], 0.23)
        v = poly.vertices
        nxt = np.roll(v, -1, axis=0)
        for p in field.points:
            d_edges = []
            for a, b in zip(v, nxt):
                t = np.clip((p - a) @ (b - a) / ((b - a) @ (b - a)), 0, 1)
                d_edges.append(np.linalg.norm(p - (a + t * (b - a))))
            assert min(d_edges) < 1e-9

    def test_consecutive_spacing_bound(self):
        poly = Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [1.5, 1.7], [0.1, 1.1]]))
        spacing = 0.3
        field = discretize_obstacles([poly], spacing)
        pts = field.points
        gaps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        # Consecutive samples along the closed boundary stay within spacing.
        assert np.all(gaps <= spacing + 1e-9)

    def test_invalid_polygon_names_index(self):
        degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(PolygonError, match="polygon 1"):
            discretize_obstacles([UNIT_SQUARE, degenerate], 0.5)

    def test_deterministic_ordering(self):
        polys = [Polygon(UNIT_SQUARE), Polygon(OFFSET_SQUARE + 3.0)]
        f1 = discretize_obstacles(polys, 0.37)
        f2 = discretize_obstacles(polys, 0.37)
        np.testing.assert_array_equal(f1.points, f2.points)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_point_count_monotone_in_spacing(self, k):
        poly = Polygon(UNIT_SQUARE)
        coarse = discretize_obstacles([poly], 0.1 * k + 0.05)
        fine = discretize_obstacles([poly], 0.1 * k)
        assert fine.n_points >= coarse.n_points


class TestSegmentOccluded:
    @pytest.fixture
    def field(self):
        return discretize_obstacles([Polygon(OFFSET_SQUARE)], 0.5)

    def test_through_square(self, field):
        assert segment_occluded([0, 0], [2, 0], field) is True

    def test_above_square(self, field):
        assert segment_occluded([0, 1], [2, 1], field) is False

    def test_short_of_square(self, field):
        assert segment_occluded([0, 0], [0.4, 0], field) is False

    def test_boundary_grazing_not_occluded(self, field):
        # Sliding exactly along the top face touches only the boundary.
        assert segment_occluded([0.0, 0.5], [2.0, 0.5], field) is False

    def test_vertex_grazing_not_occluded(self, field):
        # Positive slope through corner (0.5, 0.5): contact is a single point.
        assert segment_occluded([0.4, 0.4], [0.6, 0.6], field) is False

    def test_diagonal_through_corner_occluded(self, field):
        # Negative slope through the same corner runs through the interior.
        assert segment_occluded([0.0, 1.0], [1.0, 0.0], field) is True

    def test_segment_fully_inside(self, field):
        assert segment_occluded([0.9, 0.0], [1.1, 0.0], field) is True

    def test_endpoint_inside(self, field):
        assert segment_occluded([1.0, 0.0], [3.0, 0.0], field) is True

    def test_coincident_endpoints_rejected(self, field):
        with pytest.raises(ValueError):
            segment_occluded([0.1, 0.1], [0.1, 0.1], field)

    @given(
        st.tuples(
            st.floats(-2, 3, allow_nan=False),
            st.floats(-2, 3, allow_nan=False),
            st.floats(-2, 3, allow_nan=False),
            st.floats(-2, 3, allow_nan=False),
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_symmetric_in_endpoints(self, coords):
        ax, ay, bx, by = coords
        if abs(ax - bx) < 1e-6 and abs(ay - by) < 1e-6:
            return
        field = discretize_obstacles([Polygon(OFFSET_SQUARE)], 0.5)
        assert segment_occluded([ax, ay], [bx, by], field) == segment_occluded(
            [bx, by], [ax, ay], field
        )

    def test_near_parallel_segment_warns_nothing(self):
        # A rise of 5e-324 makes the crossing denominator subnormal against
        # the square's horizontal edges, and the crossing parameters overflow.
        field = discretize_obstacles([Polygon(OFFSET_SQUARE)], 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tilted = segments_occluded([[-1.0, 0.0]], [[2.0, 5e-324]], field)
        assert tilted.tolist() == segments_occluded([[-1.0, 0.0]], [[2.0, 0.0]], field).tolist()

    def test_batch_matches_scalar(self, field, rng):
        starts = rng.uniform(-1, 3, size=(60, 2))
        ends = rng.uniform(-1, 3, size=(60, 2))
        batch = segments_occluded(starts, ends, field)
        single = [segment_occluded(s, e, field) for s, e in zip(starts, ends)]
        assert batch.tolist() == single


# Lattice cases for the occlusion oracle. Polygon vertices are even integers
# in [0, 6] and segment ends integers in [-3, 9], all scaled by 1/4 (exact in
# binary). Every cut of a segment by a polygon boundary then sits at a t whose
# denominator is at most 288, so a piece of positive length is longer than
# 1/288^2 > 2^-17 of the segment and holds oracle samples far more than the
# 1e-9 boundary tolerance from the boundary. Segments moved off the lattice
# by 1e-12 can touch a boundary only that deep, which both sides count as
# boundary contact.
_EVEN = st.integers(0, 3).map(lambda k: 2 * k)
_FREE = st.integers(-3, 9)
_SCALE = 0.25


@st.composite
def _lattice_polygon(draw):
    kind = draw(st.sampled_from(["rect", "tri", "ell"]))
    if kind == "tri":
        v = np.array(draw(st.lists(st.tuples(_EVEN, _EVEN), min_size=3, max_size=3, unique=True)))
        d1, d2 = v[1] - v[0], v[2] - v[0]
        assume(d1[0] * d2[1] - d1[1] * d2[0] != 0)
        return v
    n = 2 if kind == "rect" else 3
    xs = sorted(draw(st.lists(_EVEN, min_size=n, max_size=n, unique=True)))
    ys = sorted(draw(st.lists(_EVEN, min_size=n, max_size=n, unique=True)))
    if kind == "rect":
        return np.array([[xs[0], ys[0]], [xs[1], ys[0]], [xs[1], ys[1]], [xs[0], ys[1]]])
    # An L: a rectangle with its top-right corner cut out (one reflex vertex).
    return np.array([[xs[0], ys[0]], [xs[2], ys[0]], [xs[2], ys[1]],
                     [xs[1], ys[1]], [xs[1], ys[2]], [xs[0], ys[2]]])


@st.composite
def _occlusion_case(draw):
    """Two or three lattice polygons and segments that run freely, touch a
    polygon's box exactly from outside, end on a vertex, slide along a face,
    or miss a box by 1e-12."""
    polys = draw(st.lists(_lattice_polygon(), min_size=2, max_size=3))
    segments = []
    for _ in range(draw(st.integers(3, 8))):
        v = polys[draw(st.integers(0, len(polys) - 1))]
        kind = draw(st.sampled_from(["free", "touch", "vertex", "face", "miss"]))
        if kind == "free":
            a, b = draw(st.tuples(_FREE, _FREE)), draw(st.tuples(_FREE, _FREE))
        elif kind == "vertex":
            a, b = v[draw(st.integers(0, len(v) - 1))], draw(st.tuples(_FREE, _FREE))
        elif kind == "face":
            k = draw(st.integers(0, len(v) - 1))
            half = (v[(k + 1) % len(v)] - v[k]) // 2
            s1, s2 = draw(st.lists(st.integers(-1, 3), min_size=2, max_size=2, unique=True))
            a, b = v[k] + s1 * half, v[k] + s2 * half
        else:
            axis, upper = draw(st.integers(0, 1)), draw(st.booleans())
            edge = v[:, axis].max() if upper else v[:, axis].min()
            step = draw(st.integers(1, 3)) * (1 if upper else -1)
            a, b = np.array(draw(st.tuples(_FREE, _FREE)), float), np.array(draw(st.tuples(_FREE, _FREE)), float)
            a[axis], b[axis] = edge + step, edge
            if kind == "miss":
                a[axis] += 1e-12 * np.sign(step)
                b[axis] += 1e-12 * np.sign(step)
            if draw(st.booleans()):
                a, b = b, a
        a, b = np.asarray(a, float), np.asarray(b, float)
        assume(np.all((a >= -3) & (a <= 9) & (b >= -3) & (b <= 9)) and np.any(a != b))
        segments.append((a * _SCALE, b * _SCALE))
    return [v * _SCALE for v in polys], segments


_SIDE_BY_SIDE = [np.array([[0, 0], [2, 0], [2, 2], [0, 2]]) * _SCALE,
                 np.array([[2, 0], [4, 0], [4, 2], [2, 2]]) * _SCALE]


class TestOcclusionOracle:
    @given(_occlusion_case())
    # Misses the left square's box by 1e-12, so it runs 1e-12 inside the
    # right square along their shared face: boundary contact, not occlusion.
    @example((_SIDE_BY_SIDE, [(np.array([0.5 + 1e-12, 0.1]), np.array([0.5 + 1e-12, 0.4]))]))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_sampling(self, case):
        polys, segments = case
        field = discretize_obstacles([Polygon(v) for v in polys], 0.5)
        starts, ends = (np.array(e) for e in zip(*segments))
        expected = [segment_hits_interior(a, b, polys) for a, b in segments]
        assert segments_occluded(starts, ends, field).tolist() == expected


class TestMveePoints:
    def test_horizontal(self):
        pts = mvee_points([0, 0], [2, 0], 0.1)
        np.testing.assert_allclose(pts, [[0, 0], [2, 0], [1, 0.1], [1, -0.1]])

    def test_vertical(self):
        pts = mvee_points([0, 0], [0, 2], 0.1)
        np.testing.assert_allclose(np.abs(pts), [[0, 0], [0, 2], [0.1, 1], [0.1, 1]])
        assert pts[2][0] == pytest.approx(-pts[3][0])

    def test_offset(self):
        pts = mvee_points([1, 1], [3, 1], 0.5)
        np.testing.assert_allclose(pts, [[1, 1], [3, 1], [2, 1.5], [2, 0.5]])

    def test_coincident_error(self):
        with pytest.raises(DegenerateEdgeError):
            mvee_points([1, 1], [1, 1], 0.1)

    def test_three_dimensional(self):
        pts = mvee_points([0, 0, 0], [2, 0, 0], 0.1)
        assert pts.shape == (6, 3)
        mid = np.array([1.0, 0, 0])
        for p in pts[2:]:
            assert np.linalg.norm(p - mid) == pytest.approx(0.1)
            assert abs((p - mid) @ np.array([1.0, 0, 0])) < 1e-12


class TestMveeClosedForm:
    @pytest.mark.parametrize(
        "xi,xj,delta,center,q_diag",
        [
            ((0, 0), (2, 0), 0.1, (1, 0), (1, 100)),
            ((0, 0), (0, 2), 0.1, (0, 1), (100, 1)),
            ((0, 0), (4, 0), 0.5, (2, 0), (0.25, 4)),
        ],
    )
    def test_axis_aligned_cases(self, xi, xj, delta, center, q_diag):
        ell = mvee_closed_form(xi, xj, delta)
        np.testing.assert_allclose(ell.center, center, atol=1e-12)
        np.testing.assert_allclose(ell.shape, np.diag(q_diag), atol=1e-9)

    def test_generators_on_unit_level_set(self, rng):
        for _ in range(100):
            xi = rng.uniform(-5, 5, 2)
            xj = rng.uniform(-5, 5, 2)
            delta = rng.uniform(0.01, 0.2)
            if np.linalg.norm(xj - xi) <= 2 * delta:
                continue
            ell = mvee_closed_form(xi, xj, delta)
            for p in mvee_points(xi, xj, delta):
                assert ell.level(p) == pytest.approx(1.0, abs=1e-9)

    def test_segment_inside(self, rng):
        for _ in range(200):
            xi = rng.uniform(-5, 5, 2)
            xj = rng.uniform(-5, 5, 2)
            delta = rng.uniform(0.01, 0.3)
            if np.linalg.norm(xj - xi) <= 2 * delta:
                continue
            ell = mvee_closed_form(xi, xj, delta)
            betas = rng.uniform(0, 1, 25)
            seg = xi[None, :] * (1 - betas[:, None]) + xj[None, :] * betas[:, None]
            assert np.all(ell.level(seg) <= 1 + 1e-9)

    def test_short_edge_rejected(self):
        with pytest.raises(DegenerateEdgeError):
            mvee_closed_form([0, 0], [0.1, 0], 0.06)

    def test_batch_matches_scalar(self, rng):
        xi = rng.uniform(-2, 2, size=(40, 2))
        xj = xi + rng.uniform(0.5, 2.0, size=(40, 2))
        ells = mvee_closed_form_batch(xi, xj, 0.05)
        for k in range(40):
            one = mvee_closed_form(xi[k], xj[k], 0.05)
            np.testing.assert_allclose(ells[k].shape, one.shape, rtol=1e-12)
            np.testing.assert_allclose(ells[k].center, one.center, rtol=1e-12)


class TestMveeKhachiyan:
    def test_matches_closed_form_on_edge_points(self):
        pts = mvee_points([0, 0], [2, 0], 0.1)
        ell = mvee_khachiyan(pts, 1e-9)
        np.testing.assert_allclose(ell.shape, np.diag([1.0, 100.0]), atol=1e-6)

    def test_unit_square_gives_circumcircle(self):
        ell = mvee_khachiyan(UNIT_SQUARE, 1e-9)
        np.testing.assert_allclose(ell.center, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(ell.shape, np.diag([2.0, 2.0]), atol=1e-6)

    def test_collinear_points_rejected(self):
        with pytest.raises(RankDeficiencyError):
            mvee_khachiyan(np.array([[0.0, 0], [1, 0], [2, 0]]), 1e-9)

    def test_too_few_points_rejected(self):
        with pytest.raises(RankDeficiencyError):
            mvee_khachiyan(np.array([[0.0, 0], [1, 1]]), 1e-9)

    def test_containment_within_tolerance(self, rng):
        for _ in range(30):
            pts = rng.uniform(-3, 3, size=(rng.integers(3, 12), 2))
            try:
                ell = mvee_khachiyan(pts, 1e-7)
            except RankDeficiencyError:
                continue
            assert np.all(ell.level(pts) <= 1 + 1e-7)

    def test_agrees_with_closed_form_random_edges(self, rng):
        for _ in range(150):
            xi = rng.uniform(-4, 4, 2)
            xj = rng.uniform(-4, 4, 2)
            delta = rng.uniform(0.02, 0.3)
            if np.linalg.norm(xj - xi) <= 2.2 * delta:
                continue
            closed = mvee_closed_form(xi, xj, delta)
            iterative = mvee_khachiyan(mvee_points(xi, xj, delta), 1e-9)
            np.testing.assert_allclose(iterative.shape, closed.shape, atol=1e-6 * np.max(np.abs(closed.shape)))
            np.testing.assert_allclose(iterative.center, closed.center, atol=1e-8)


class TestLosEllipsoidType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            LosEllipsoid(
                center=np.zeros(2),
                shape=np.array([[1.0, 0.5], [0.0, 1.0]]),
                major_axis_half_length=1.0,
                thickness=1.0,
            )

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            LosEllipsoid(
                center=np.zeros(2),
                shape=np.diag([1.0, -2.0]),
                major_axis_half_length=1.0,
                thickness=1.0,
            )

    def test_ellipsoid_consistency_with_exact_occlusion(self, rng):
        # Unoccluded edges whose clearance exceeds the thickness never see a
        # boundary point inside their ellipsoid.
        square = Polygon(OFFSET_SQUARE)
        field = discretize_obstacles([square], 0.2)
        delta = 0.02
        hits = 0
        for _ in range(300):
            xi = rng.uniform(-1, 3, 2)
            xj = rng.uniform(-1, 3, 2)
            if np.linalg.norm(xj - xi) <= 2 * delta:
                continue
            if segment_occluded(xi, xj, field):
                continue
            seg_clearance = _segment_points_distance(xi, xj, field.points)
            if seg_clearance <= delta:
                continue
            hits += 1
            ell = mvee_closed_form(xi, xj, delta)
            assert np.all(ell.level(field.points) >= 1.0 - 1e-9)
        assert hits > 50


def _segment_points_distance(a, b, points) -> float:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ab = b - a
    t = np.clip((points - a) @ ab / (ab @ ab), 0.0, 1.0)
    feet = a[None, :] + t[:, None] * ab[None, :]
    return float(np.min(np.linalg.norm(points - feet, axis=1)))
