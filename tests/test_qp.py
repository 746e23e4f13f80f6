import numpy as np
import pytest

from losnet import qp
from losnet.barriers import BarrierParams, assemble_system
from losnet.errors import InternalInvariantError
from losnet.geometry import ObstacleField
from conftest import raw_system
from oracles import qp_active_set_oracle


def make_problem(u_hat, a, b, box=10.0):
    u_hat = np.asarray(u_hat, float).ravel()
    system = raw_system(np.asarray(a, float).reshape(-1, u_hat.size), b, u_hat.size)
    return qp.QpProblem(target=u_hat, system=system, box=box)


class TestSolveExamples:
    def test_no_rows_returns_target(self):
        prob = make_problem([0.3, -0.2], np.zeros((0, 2)), [])
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.u, [0.3, -0.2])
        assert sol.status == qp.STATUS_OPTIMAL
        assert sol.iterations == 0

    def test_halfspace_projection(self):
        prob = make_problem([1.0, 0.0], [[1.0, 0.0]], [0.0])
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.u, [0.0, 0.0], atol=1e-8)
        assert sol.status == qp.STATUS_OPTIMAL

    def test_componentwise_projection(self):
        prob = make_problem([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.25])
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.u, [0.5, 0.25], atol=1e-8)
        # Cross-check with an exhaustive grid at 1e-3 resolution.
        axis = np.linspace(-1.5, 1.5, 3001)
        ux, uy = np.meshgrid(axis, axis, indexing="ij")
        feasible = (ux <= 0.5) & (uy <= 0.25)
        obj = np.where(feasible, (ux - 1.0) ** 2 + (uy - 1.0) ** 2, np.inf)
        k = np.unravel_index(np.argmin(obj), obj.shape)
        assert sol.u[0] == pytest.approx(ux[k], abs=1e-3)
        assert sol.u[1] == pytest.approx(uy[k], abs=1e-3)

    def test_box_clips_unconstrained_target(self):
        prob = make_problem([3.0, -4.0], np.zeros((0, 2)), [], box=1.0)
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.u, [1.0, -1.0])

    def test_dimension_mismatch_rejected(self):
        system = raw_system(np.zeros((0, 4)), [], 4)
        with pytest.raises(ValueError):
            qp.QpProblem(target=np.zeros(3), system=system, box=1.0)


class TestVerifyKkt:
    def test_halfspace_dual_is_one(self):
        prob = make_problem([1.0, 0.0], [[1.0, 0.0]], [0.0])
        sol = qp.solve(prob)
        assert sol.duals[0] == pytest.approx(1.0, abs=1e-6)
        assert qp.verify_kkt(prob, sol, 1e-6)

    def test_perturbed_solution_fails(self):
        prob = make_problem([1.0, 0.0], [[1.0, 0.0]], [0.0])
        sol = qp.solve(prob)
        bad = qp.QpSolution(
            u=sol.u + np.array([0.0, 10 * 1e-6]),
            status=sol.status,
            max_violation=sol.max_violation,
            iterations=sol.iterations,
            duals=sol.duals,
        )
        assert not qp.verify_kkt(prob, bad, 1e-6)

    def test_fallback_only_checks_feasibility(self):
        prob = make_problem([1.0, 0.0], [[1.0, 0.0]], [0.5])
        fake = qp.QpSolution(
            u=np.zeros(2), status=qp.STATUS_FALLBACK_ZERO,
            max_violation=0.0, iterations=0, duals=np.zeros(1),
        )
        assert qp.verify_kkt(prob, fake, 1e-6)

    def test_every_optimal_solve_verifies(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4)) * 2
            z = int(rng.integers(0, 7))
            a = rng.normal(size=(z, n))
            b = rng.uniform(0.05, 1.0, z)  # nonnegative bounds: zero feasible
            prob = make_problem(rng.uniform(-1, 1, n), a, b, box=rng.uniform(0.5, 3.0))
            sol = qp.solve(prob)
            assert sol.status == qp.STATUS_OPTIMAL
            assert qp.verify_kkt(prob, sol, 1e-5)


class TestInvariants:
    def test_zero_always_feasible_with_nonneg_bounds(self, rng):
        for _ in range(50):
            z, n = 6, 4
            a = rng.normal(size=(z, n)) * rng.uniform(0.1, 100)
            b = rng.uniform(0.0, 2.0, z)
            prob = make_problem(rng.uniform(-2, 2, n), a, b, box=1.0)
            assert np.all(prob.system.residuals(np.zeros(n)) <= 0)
            qp.solve(prob)  # must never raise InternalInvariantError

    def test_monotone_in_row_removal(self, rng):
        for _ in range(40):
            n = 4
            a = rng.normal(size=(5, n))
            b = rng.uniform(0.0, 0.5, 5)
            u_hat = rng.uniform(-1.5, 1.5, n)
            full = qp.solve(make_problem(u_hat, a, b, box=2.0))
            drop = int(rng.integers(0, 5))
            keep = [k for k in range(5) if k != drop]
            reduced = qp.solve(make_problem(u_hat, a[keep], b[keep], box=2.0))
            full_obj = float((full.u - u_hat) @ (full.u - u_hat))
            red_obj = float((reduced.u - u_hat) @ (reduced.u - u_hat))
            assert red_obj <= full_obj + 1e-8

    def test_row_scaling_leaves_solution_unchanged(self, rng):
        for _ in range(30):
            n = 4
            a = rng.normal(size=(6, n))
            b = rng.uniform(0.0, 0.5, 6)
            u_hat = rng.uniform(-1.5, 1.5, n)
            c = rng.uniform(0.01, 100.0, 6)
            sol1 = qp.solve(make_problem(u_hat, a, b, box=2.0))
            sol2 = qp.solve(make_problem(u_hat, a * c[:, None], b * c, box=2.0))
            np.testing.assert_allclose(sol1.u, sol2.u, atol=1e-5)

    def test_infeasible_zero_raises_internal_error(self):
        # Contradictory rows with a negative bound: no feasible point at all,
        # so the fallback assertion must fire instead of returning junk.
        a = [[1.0, 0.0], [-1.0, 0.0]]
        b = [-5.0, -5.0]
        prob = make_problem([0.0, 0.0], a, b, box=1.0)
        with pytest.raises(InternalInvariantError):
            qp.solve(prob, max_iter=50)


class TestOracleAgreement:
    def test_small_random_problems(self, rng):
        # Reduced version of the acceptance criterion; 500 problems run there.
        for _ in range(60):
            n = int(rng.integers(2, 5))
            z = int(rng.integers(1, 7))
            a = rng.normal(size=(z, n))
            b = rng.uniform(-0.2, 1.0, z)
            u_hat = rng.uniform(-2, 2, n)
            box = rng.uniform(0.8, 4.0)
            prob = make_problem(u_hat, a, b, box=box)
            try:
                u_star, obj_star = qp_active_set_oracle(u_hat, a, b, box)
            except AssertionError:
                continue  # infeasible draw
            sol = qp.solve(prob)
            assert sol.status == qp.STATUS_OPTIMAL
            obj = float((sol.u - u_hat) @ (sol.u - u_hat))
            assert obj == pytest.approx(obj_star, abs=1e-4)


def degenerate_rows(rng, n, distinct):
    """Unit rows: `distinct` random directions, then an exact copy and a copy
    turned by about 1e-9 of each, so the row Gram is singular or nearly so."""
    base = rng.normal(size=(distinct, n))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    near = base + 1e-9 * rng.normal(size=base.shape)
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    return np.vstack([base, base, near])


def check_against_oracle(u_hat, a, b, box):
    prob = make_problem(u_hat, a, b, box=box)
    sol = qp.solve(prob)
    assert sol.status == qp.STATUS_OPTIMAL
    assert qp.verify_kkt(prob, sol, 1e-5)
    _, obj_star = qp_active_set_oracle(u_hat, a, b, box)
    obj = float((sol.u - u_hat) @ (sol.u - u_hat))
    assert obj == pytest.approx(obj_star, abs=1e-6)


class TestNewtonFactorization:
    def test_thin_degenerate_rows_use_no_svd(self, rng, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("thin Newton step called np.linalg.svd")

        for _ in range(6):
            n = 5
            a = degenerate_rows(rng, n, distinct=1)  # 3 rows < 5 columns
            a = np.vstack([a, rng.normal(size=(1, n)) / np.sqrt(n)])
            b = rng.uniform(0.0, 0.3, a.shape[0])
            b[1:3] = b[0]
            u_hat = rng.uniform(-2.0, 2.0, n) + 1.5 * a[0]
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "svd", no_svd)
                sol = qp.solve(make_problem(u_hat, a, b, box=10.0))
            assert sol.iterations > 0
            check_against_oracle(u_hat, a, b, 10.0)

    def test_tall_degenerate_rows(self, rng, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        for _ in range(8):
            n = 3
            a = degenerate_rows(rng, n, distinct=2)  # 6 rows > 3 columns
            b = np.tile(rng.uniform(0.0, 0.3, 2), 3)
            u_hat = rng.uniform(-1.0, 1.0, n) + 2.0 * (a[0] + a[1])
            box = rng.uniform(1.5, 4.0)
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "svd", counting_svd)
                qp.solve(make_problem(u_hat, a, b, box=box))
            check_against_oracle(u_hat, a, b, box)
        assert calls, "no solve took the tall (SVD) path"

    def test_team_of_pairwise_rows(self, rng):
        # 20 robots on a jittered grid pulled hard towards their centroid:
        # safety rows for every pair, connectivity rows along a chain.
        grid = np.stack(np.meshgrid(np.arange(5), np.arange(4), indexing="ij"), -1)
        x = 0.1 * grid.reshape(-1, 2) + rng.uniform(-0.01, 0.01, size=(20, 2))
        chain = [(k, k + 1) for k in range(19)]
        params = BarrierParams(r_safety=0.04, r_obstacle=0.05, r_comm=0.5, u_max=0.3, gamma=5.0)
        system = assemble_system(x, ObstacleField.empty(), chain, None, params)
        u_hat = 3.0 * (x.mean(axis=0) - x) + rng.uniform(-0.1, 0.1, size=x.shape)
        prob = qp.QpProblem(target=u_hat.ravel(), system=system, box=params.box_bound(2))
        sol = qp.solve(prob)
        assert sol.status == qp.STATUS_OPTIMAL
        assert qp.verify_kkt(prob, sol, 1e-6)
        assert np.count_nonzero(sol.duals) >= 5
        screened = np.setdiff1d(np.arange(len(system)), system.reachable_rows(prob.box))
        assert screened.size > 0
        assert np.all(sol.duals[screened] == 0.0)


class TestRowScreen:
    @staticmethod
    def problem_with_slack_rows(rng, box=1.0):
        a = rng.normal(size=(10, 4))
        b = rng.uniform(0.0, 0.3, 10)
        # Every other row gets a bound no box-feasible control can reach.
        b[::2] = np.abs(a[::2]).sum(axis=1) * box * rng.uniform(1.0, 2.0, 5)
        # Exactly on the screen's boundary; binary fractions sum exactly.
        a[0] = [0.5, -0.25, 0.125, 1.0]
        b[0] = np.abs(a[0]).sum() * box
        u_hat = rng.uniform(-3.0, 3.0, 4)
        return u_hat, a, b, box

    def test_matches_solve_over_reachable_rows(self, rng):
        for _ in range(20):
            u_hat, a, b, box = self.problem_with_slack_rows(rng)
            prob = make_problem(u_hat, a, b, box=box)
            reach = prob.system.reachable_rows(box)
            np.testing.assert_array_equal(reach, np.arange(1, 10, 2))
            sol = qp.solve(prob)
            alone = qp.solve(make_problem(u_hat, a[reach], b[reach], box=box))
            np.testing.assert_array_equal(sol.u, alone.u)
            assert sol.duals.size == 10
            assert np.all(sol.duals[::2] == 0.0)
            np.testing.assert_array_equal(sol.duals[reach], alone.duals)
            assert qp.verify_kkt(prob, sol, 1e-6)

    def test_every_row_screened_returns_clipped_target(self, rng):
        u_hat, a, b, box = self.problem_with_slack_rows(rng)
        keep = np.arange(0, 10, 2)
        prob = make_problem(u_hat, a[keep], b[keep], box=box)
        sol = qp.solve(prob)
        np.testing.assert_array_equal(sol.u, np.clip(u_hat, -box, box))
        assert sol.status == qp.STATUS_OPTIMAL
        assert sol.iterations == 0
        np.testing.assert_array_equal(sol.duals, np.zeros(5))
        assert qp.verify_kkt(prob, sol, 1e-6)


class TestWorkingSetSeed:
    """A crowd of tight pairs, 3 m from one another: at the clipped nominal
    every pair violates its safety row (pulled together) or its connectivity
    row (pushed apart). The screen drops every row between two pairs, so the
    optimum splits into one 4-variable QP per pair, which the active-set
    oracle solves exactly."""

    PAIRS = 110
    PARAMS = BarrierParams(r_safety=0.04, r_obstacle=0.05, r_comm=0.5, u_max=0.3, gamma=5.0)

    @classmethod
    def crowd(cls, rng):
        k = np.arange(cls.PAIRS)
        centers = 3.0 * np.stack([k % 11, k // 11], axis=-1)
        apart = k % 2 == 1
        gap = np.where(apart, 0.48, 0.05) + rng.uniform(-0.005, 0.005, cls.PAIRS)
        theta = rng.uniform(0.0, 2.0 * np.pi, cls.PAIRS)
        axis = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        speed = np.where(apart, 1.0, -1.0) * rng.uniform(0.15, 0.2, cls.PAIRS)
        x = np.stack([centers - 0.5 * gap[:, None] * axis,
                      centers + 0.5 * gap[:, None] * axis], axis=1).reshape(-1, 2)
        u_hat = np.stack([-speed[:, None] * axis, speed[:, None] * axis], axis=1)
        return x, u_hat.reshape(-1, 2)

    @classmethod
    def problem(cls, x, u_hat):
        pairs = [(2 * k, 2 * k + 1) for k in range(cls.PAIRS)]
        system = assemble_system(x, ObstacleField.empty(), pairs, None, cls.PARAMS)
        return qp.QpProblem(target=u_hat.ravel(), system=system, box=cls.PARAMS.box_bound(2))

    @classmethod
    def oracle_u(cls, x, u_hat, box):
        parts = []
        for k in range(cls.PAIRS):
            pair = slice(2 * k, 2 * k + 2)
            a, b = assemble_system(x[pair], ObstacleField.empty(), [(0, 1)], None,
                                   cls.PARAMS).dense()
            parts.append(qp_active_set_oracle(u_hat[pair].ravel(), a, b, box)[0])
        return np.concatenate(parts)

    @staticmethod
    def solve_with_spy(problem, monkeypatch, **kwargs):
        """Solve, returning the solution and the (a_w, b_w) of the first
        working subsystem handed to the dual ascent."""
        calls = []
        ascent = qp._dual_ascent

        def spy(u_hat, box, a_w, b_w, *rest):
            calls.append((a_w, b_w))
            return ascent(u_hat, box, a_w, b_w, *rest)

        with monkeypatch.context() as mp:
            mp.setattr(qp, "_dual_ascent", spy)
            sol = qp.solve(problem, **kwargs)
        return sol, calls[0]

    def check_optimal(self, x, u_hat, problem, sol):
        assert sol.status == qp.STATUS_OPTIMAL
        assert qp.verify_kkt(problem, sol, 1e-6)
        u_star = self.oracle_u(x, u_hat, problem.box)
        # Each pair's optimum ignores the rows between pairs; together they
        # satisfy those rows too, so they are the optimum of the whole crowd.
        assert np.max(problem.system.residuals(u_star)) <= 1e-9
        np.testing.assert_allclose(sol.u, u_star, atol=1e-6)

    def test_cold_seed_is_the_most_violated_rows(self, rng, monkeypatch):
        x, u_hat = self.crowd(rng)
        problem = self.problem(x, u_hat)
        system = problem.system
        resid = system.residuals(np.clip(problem.target, -problem.box, problem.box))
        pair_rows = np.r_[system.kind_slice("safety"), system.kind_slice("connectivity")]
        assert np.count_nonzero(resid[pair_rows] > 0.0) > 100

        sol, (a_w, _) = self.solve_with_spy(problem, monkeypatch)
        assert a_w.shape[0] <= qp._ROWS_PER_PASS
        self.check_optimal(x, u_hat, problem, sol)

    def test_warm_seed_holds_every_warm_hit(self, rng, monkeypatch):
        x, u_hat = self.crowd(rng)
        first = self.problem(x, u_hat)
        cold = qp.solve(first)
        active = np.nonzero(cold.duals)[0]
        warm = dict(zip(first.system.packed_keys()[active].tolist(),
                        cold.duals[active].tolist()))

        x = x + 0.02 * cold.u.reshape(x.shape)  # one step on, as sim.step does
        problem = self.problem(x, u_hat)
        system = problem.system
        sol, (a_w, b_w) = self.solve_with_spy(problem, monkeypatch, warm_start=warm)

        hit = np.intersect1d(np.nonzero(np.isin(system.packed_keys(), list(warm)))[0],
                             system.reachable_rows(problem.box))
        assert hit.size >= self.PAIRS
        norms = system.row_norms()[hit]
        rows = np.hstack([system.dense_rows(hit), system.bounds[hit, None]]) / norms[:, None]
        seeded = np.hstack([a_w, b_w[:, None]])
        gap = np.max(np.abs(rows[:, None, :] - seeded[None, :, :]), axis=2)
        assert np.all(np.min(gap, axis=1) <= 1e-12)
        assert a_w.shape[0] <= hit.size + qp._ROWS_PER_PASS
        self.check_optimal(x, u_hat, problem, sol)
