import numpy as np
import pytest

from losnet.barriers import (
    BarrierParams,
    ConstraintSystem,
    assemble_system,
    h_conn,
    h_los,
    h_obs,
    h_safe,
    hdot_los_coefficients,
)
from losnet.errors import AssemblyError
from losnet.geometry import (
    LosEllipsoid,
    ObstacleField,
    Polygon,
    discretize_obstacles,
    mvee_closed_form,
)


@pytest.fixture
def params():
    return BarrierParams(r_safety=1.0, r_obstacle=1.0, r_comm=6.0, u_max=1.0, gamma=1.0)


@pytest.fixture
def ell():
    return LosEllipsoid(
        center=np.array([1.0, 0.0]),
        shape=np.diag([1.0, 100.0]),
        major_axis_half_length=1.0,
        thickness=0.1,
    )


class TestBarrierValues:
    def test_h_safe(self, params):
        assert h_safe([0, 0], [3, 4], params) == pytest.approx(24.0)
        assert h_safe([1, 1], [1, 1], params) == pytest.approx(-1.0)
        assert h_safe([0, 0], [1, 0], params) == pytest.approx(0.0)

    def test_h_obs(self, params):
        assert h_obs([0, 0], [0, 2], params) == pytest.approx(3.0)
        assert h_obs([1, 1], [1, 1], params) == pytest.approx(-1.0)
        assert h_obs([0, 0], [1, 0], params) == pytest.approx(0.0)

    def test_h_conn(self, params):
        assert h_conn([0, 0], [3, 4], params) == pytest.approx(11.0)
        assert h_conn([0, 0], [6, 0], params) == pytest.approx(0.0)
        assert h_conn([2, 2], [2, 2], params) == pytest.approx(36.0)

    def test_h_los(self, ell):
        assert h_los(ell, [1, 1]) == pytest.approx(99.0)
        assert h_los(ell, [1, 0]) == pytest.approx(-1.0)
        assert h_los(ell, [2, 0]) == pytest.approx(0.0)

    def test_pair_symmetry(self, params, rng):
        for _ in range(50):
            a, b = rng.uniform(-5, 5, (2, 2))
            assert h_safe(a, b, params) == pytest.approx(h_safe(b, a, params))
            assert h_conn(a, b, params) == pytest.approx(h_conn(b, a, params))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BarrierParams(r_safety=2.0, r_obstacle=1.0, r_comm=1.0, u_max=1.0)
        with pytest.raises(ValueError):
            BarrierParams(r_safety=-1.0, r_obstacle=1.0, r_comm=2.0, u_max=1.0)


class TestLosDerivative:
    def test_coefficient_vector(self, ell):
        v = hdot_los_coefficients(ell, [1, 1])
        np.testing.assert_allclose(v, [0.0, 100.0])
        hdot = -v @ (np.array([0.0, 1.0]) + np.array([0.0, 1.0]))
        assert hdot == pytest.approx(-200.0)

    def test_opposite_controls_cancel(self, ell, rng):
        for _ in range(20):
            xo = rng.uniform(-3, 3, 2)
            ui = rng.uniform(-1, 1, 2)
            v = hdot_los_coefficients(ell, xo)
            assert -v @ (ui + (-ui)) == pytest.approx(0.0)

    def test_point_at_center(self, ell):
        np.testing.assert_allclose(hdot_los_coefficients(ell, [1, 0]), [0.0, 0.0])

    def test_finite_difference(self, rng):
        # Advance both robots by eps * u with the ellipsoid frozen; the
        # directional derivative must match -v . (u_i + u_j).
        params = BarrierParams(r_safety=0.1, r_obstacle=0.1, r_comm=10.0, u_max=1.0)
        eps = 1e-7
        for _ in range(60):
            xi = rng.uniform(-2, 2, 2)
            xj = rng.uniform(-2, 2, 2)
            if np.linalg.norm(xi - xj) < 0.2:
                continue
            ui = rng.uniform(-1, 1, 2)
            uj = rng.uniform(-1, 1, 2)
            xo = rng.uniform(-2, 2, 2)

            d_safe = (h_safe(xi + eps * ui, xj + eps * uj, params) - h_safe(xi, xj, params)) / eps
            assert d_safe == pytest.approx(2 * (xi - xj) @ (ui - uj), abs=1e-5)

            d_conn = (h_conn(xi + eps * ui, xj + eps * uj, params) - h_conn(xi, xj, params)) / eps
            assert d_conn == pytest.approx(-2 * (xi - xj) @ (ui - uj), abs=1e-5)

            ell = mvee_closed_form(xi, xj, 0.05)
            frozen = LosEllipsoid(
                center=ell.center, shape=ell.shape,
                major_axis_half_length=ell.major_axis_half_length, thickness=ell.thickness,
            )
            # Frozen shape: only the center moves with the robots.
            moved_center = 0.5 * (xi + eps * ui + xj + eps * uj)
            shifted = LosEllipsoid(
                center=moved_center, shape=frozen.shape,
                major_axis_half_length=frozen.major_axis_half_length,
                thickness=frozen.thickness,
            )
            d_los = (h_los(shifted, xo) - h_los(frozen, xo)) / eps
            v = hdot_los_coefficients(frozen, xo)
            assert d_los == pytest.approx(-v @ (ui + uj), abs=1e-4)


def _field_with_points(points):
    return ObstacleField(polygons=(), points=np.asarray(points, float), spacing=1.0)


class TestAssembleSystem:
    def test_two_robots_no_obstacles(self, params):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        ells = {(0, 1): mvee_closed_form(x[0], x[1], 0.02)}
        sys_ = assemble_system(x, ObstacleField.empty(), [(0, 1)], ells, params)
        assert len(sys_) == 2
        assert sys_.count("safety") == 1
        assert sys_.count("connectivity") == 1
        assert sys_.count("los") == 0

    def test_two_robots_one_point(self, params):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        field = _field_with_points([[5.0, 5.0]])
        ells = {(0, 1): mvee_closed_form(x[0], x[1], 0.02)}
        sys_ = assemble_system(x, field, [(0, 1)], ells, params)
        assert len(sys_) == 5  # 1 safety + 2 obstacle + 1 connectivity + 1 los

    def test_three_robots_counts(self, params):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.5]])
        field = _field_with_points([[5.0, 5.0], [6.0, 5.0]])
        edges = [(0, 1), (1, 2)]
        ells = {e: mvee_closed_form(x[e[0]], x[e[1]], 0.02) for e in edges}
        sys_ = assemble_system(x, field, edges, ells, params)
        assert len(sys_) == 15  # 3 safety + 6 obstacle + 2 connectivity + 4 los

    def test_row_count_formula(self, params, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = int(rng.integers(0, 5))
            x = rng.uniform(-3, 3, (n, 2)) * 3
            while np.min([np.linalg.norm(x[i] - x[j]) for i in range(n) for j in range(i)]) < 0.5:
                x = rng.uniform(-3, 3, (n, 2)) * 3
            field = _field_with_points(rng.uniform(5, 9, (f, 2))) if f else ObstacleField.empty()
            edges = [(k, k + 1) for k in range(n - 1)]
            ells = {e: mvee_closed_form(x[e[0]], x[e[1]], 0.02) for e in edges}
            sys_ = assemble_system(x, field, edges, ells, params)
            expected = n * (n - 1) // 2 + n * f + len(edges) * (1 + f)
            assert len(sys_) == expected

    def test_zero_control_feasible_inside_sets(self, params, rng):
        # State strictly inside every desired set gives positive bounds, so
        # u = 0 satisfies every row.
        for _ in range(20):
            x = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.5]]) + rng.uniform(-0.2, 0.2, (3, 2))
            field = _field_with_points(rng.uniform(3, 6, (3, 2)))
            edges = [(0, 1), (1, 2)]
            ells = {e: mvee_closed_form(x[e[0]], x[e[1]], 0.02) for e in edges}
            sys_ = assemble_system(x, field, edges, ells, params)
            assert np.all(sys_.bounds > 0)
            assert np.all(sys_.residuals(np.zeros((3, 2))) <= 0)

    def test_missing_ellipsoid(self, params):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        with pytest.raises(AssemblyError):
            assemble_system(x, ObstacleField.empty(), [(0, 1)], {}, params)

    def test_skip_los_rows_with_none(self, params):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        field = _field_with_points([[5.0, 5.0]])
        sys_ = assemble_system(x, field, [(0, 1)], None, params)
        assert sys_.count("los") == 0
        assert sys_.count("connectivity") == 1

    def test_row_order_and_contents(self, params):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        field = _field_with_points([[0.0, 3.0]])
        ells = {(0, 1): mvee_closed_form(x[0], x[1], 0.02)}
        sys_ = assemble_system(x, field, [(0, 1)], ells, params)
        slices = {k: sys_.kind_slice(k) for k in ("safety", "obstacle", "connectivity", "los")}
        assert slices == {
            "safety": slice(0, 1),
            "obstacle": slice(1, 3),
            "connectivity": slice(3, 4),
            "los": slice(4, 5),
        }
        a, b = sys_.dense()  # columns: u_0 (x, y), u_1 (x, y)
        np.testing.assert_allclose(a[0], [4.0, 0.0, -4.0, 0.0])  # safety
        assert b[0] == pytest.approx(params.gamma * 3.0)  # 4 - 1
        np.testing.assert_allclose(a[3], [-4.0, 0.0, 4.0, 0.0])  # connectivity
        assert b[3] == pytest.approx(params.gamma * 32.0)  # 36 - 4
        v = hdot_los_coefficients(ells[(0, 1)], [0.0, 3.0])
        np.testing.assert_allclose(a[4], np.concatenate([v, v]))  # los, point 0
        h = h_los(ells[(0, 1)], [0.0, 3.0])
        assert b[4] == pytest.approx(params.gamma * h)

    def test_dense_matches_rows(self, params, rng):
        x = rng.uniform(-3, 3, (4, 2)) * 2
        field = _field_with_points(rng.uniform(4, 8, (2, 2)))
        edges = [(0, 1), (2, 3)]
        ells = {e: mvee_closed_form(x[e[0]], x[e[1]], 0.02) for e in edges}
        sys_ = assemble_system(x, field, edges, ells, params)
        a, b = sys_.dense()
        u = rng.uniform(-1, 1, 8)
        np.testing.assert_allclose(a @ u - b, sys_.residuals(u), atol=1e-12)
        sub = sys_.dense_rows(np.array([0, 3, 5]))
        np.testing.assert_allclose(sub, a[[0, 3, 5]])

    def test_reachable_rows_and_take(self, params, rng):
        x = rng.uniform(-3, 3, (4, 2)) * 2
        field = _field_with_points(rng.uniform(4, 8, (3, 2)))
        edges = [(0, 1), (2, 3)]
        ells = {e: mvee_closed_form(x[e[0]], x[e[1]], 0.02) for e in edges}
        sys_ = assemble_system(x, field, edges, ells, params)
        a, b = sys_.dense()
        box = params.box_bound(2)
        reach = sys_.reachable_rows(box)
        np.testing.assert_array_equal(reach, np.nonzero(np.abs(a).sum(axis=1) * box > b)[0])
        assert 0 < reach.size < len(sys_)
        sub = sys_.take(reach)
        sub_a, sub_b = sub.dense()
        np.testing.assert_array_equal(sub_a, a[reach])
        np.testing.assert_array_equal(sub_b, b[reach])
        np.testing.assert_array_equal(sub.packed_keys(), sys_.packed_keys()[reach])
        # Once the full system is keyed, a new subsystem slices its keys.
        np.testing.assert_array_equal(sys_.take(reach).packed_keys(), sys_.packed_keys()[reach])
        for kind in ("safety", "obstacle", "connectivity", "los"):
            sl = sys_.kind_slice(kind)
            assert sub.count(kind) == np.count_nonzero((reach >= sl.start) & (reach < sl.stop))
        with pytest.raises(ValueError):
            sys_.take(reach[::-1])

    def test_finite_difference_of_rows(self, params, rng):
        # Row residual at u equals d/dt h along the motion it encodes.
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        field = _field_with_points([[0.0, 3.0]])
        ells = {(0, 1): mvee_closed_form(x[0], x[1], 0.02)}
        sys_ = assemble_system(x, field, [(0, 1)], ells, params)
        u = rng.uniform(-1, 1, (2, 2))
        eps = 1e-7
        x2 = x + eps * u
        row_vals = sys_.residuals(u) + sys_.bounds  # a . u per row
        fd_safe = (h_safe(x2[0], x2[1], params) - h_safe(x[0], x[1], params)) / eps
        assert -row_vals[0] == pytest.approx(fd_safe, abs=1e-5)
        fd_conn = (h_conn(x2[0], x2[1], params) - h_conn(x[0], x[1], params)) / eps
        assert -row_vals[3] == pytest.approx(fd_conn, abs=1e-5)


class TestDiscretizedFieldIntegration:
    def test_assemble_with_real_field(self, params):
        square = Polygon(np.array([[3.0, 3.0], [4.0, 3.0], [4.0, 4.0], [3.0, 4.0]]))
        field = discretize_obstacles([square], 0.5)
        x = np.array([[0.0, 0.0], [1.5, 0.0]])
        ells = {(0, 1): mvee_closed_form(x[0], x[1], 0.02)}
        sys_ = assemble_system(x, field, [(0, 1)], ells, params)
        assert len(sys_) == 1 + 2 * field.n_points + 1 + field.n_points
        assert np.all(sys_.bounds > 0)


def _two_row_system(n_robots, robot, point):
    return ConstraintSystem(
        n_robots=n_robots,
        dimension=2,
        robot_a=np.array([0, robot], np.int64),
        vec_a=np.ones((2, 2)),
        robot_b=np.full(2, -1, np.int64),
        vec_b=np.zeros((2, 2)),
        bounds=np.ones(2),
        kind_slices={"obstacle": slice(0, 2)},
        obstacle_indices=np.array([0, point], np.int64),
    )


class TestPackedKeys:
    def test_largest_indices_that_fit_stay_distinct(self):
        keys = _two_row_system(4095, 4094, (1 << 21) - 2).packed_keys()
        assert keys[0] != keys[1]

    def test_too_many_robots_raises(self):
        with pytest.raises(AssemblyError, match="robots"):
            _two_row_system(4096, 4095, 1).packed_keys()

    def test_too_many_boundary_points_raises(self):
        with pytest.raises(AssemblyError, match="boundary points"):
            _two_row_system(2, 1, (1 << 21) - 1).packed_keys()
