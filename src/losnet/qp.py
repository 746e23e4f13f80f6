"""Minimally invasive quadratic program: find the control closest to the
nominal one that satisfies every certificate row and the per-component speed
box.

    minimize    0.5 * |u - u_hat|^2
    subject to  A u <= b,   |u_k| <= box

The Hessian is the identity, so the dual over the row multipliers mu >= 0 has
a closed-form inner minimizer u(mu) = clip(u_hat - A^T mu, -box, box) and a
Lipschitz gradient A u(mu) - b. A row with |a|_1 * box <= b holds for every
box-feasible control, so the solver drops such rows once per solve; the
screen is exact, and on the bundled 64-robot walled scenario it keeps about
one assembled row in seven. It then runs a projected semismooth Newton ascent
on the dual of a working subsystem, where each Newton trial is one SPD solve
on the damped Gram of the free rows (a thin SVD only when free rows outnumber
unclipped control components). The working set starts near the active set,
from the rows a warm start names and the most violated rows of any kind, and
each pass adds the most violated rows still outside it, so it ends at the KKT
point of the full system. On non-convergence it falls back to the
always-feasible zero control.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .barriers import ConstraintSystem
from .errors import InternalInvariantError

STATUS_OPTIMAL = "optimal"
STATUS_FALLBACK_ZERO = "fallback_zero"
STATUS_MAX_ITER = "max_iter"

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 5000

_MAX_OUTER_PASSES = 200
_ROWS_PER_PASS = 32


def _most_violated(resid: np.ndarray, in_working: np.ndarray, limit: int) -> np.ndarray:
    """Indices of the most violated rows outside the working set (the boolean
    mask `in_working`). Feeding the subsolver a few representatives at a time
    keeps it small when many near-duplicate rows (adjacent boundary samples,
    a crowd of pairs) violate together."""
    cand = np.nonzero((resid > 0.0) & ~in_working)[0]
    if cand.size <= limit:
        return cand
    order = np.argsort(resid[cand])[::-1]
    return cand[order[:limit]]


def _initial_working_set(system, resid0, norms, warm_start):
    """Seed rows: the rows a previous solve named in `warm_start`, with their
    duals, plus the _ROWS_PER_PASS most violated rows of any kind. Returns the
    boolean working-set mask and the seed duals over all rows."""
    in_working = np.zeros(resid0.size, dtype=bool)
    mu0 = np.zeros(resid0.size)
    if warm_start:
        warm_keys = np.fromiter(warm_start.keys(), dtype=np.int64, count=len(warm_start))
        warm_vals = np.fromiter(warm_start.values(), dtype=np.float64, count=len(warm_start))
        order = np.argsort(warm_keys)
        warm_keys, warm_vals = warm_keys[order], warm_vals[order]
        keys = system.packed_keys()
        pos = np.searchsorted(warm_keys, keys)
        pos = np.clip(pos, 0, warm_keys.size - 1)
        in_working = warm_keys[pos] == keys
        mu0[in_working] = warm_vals[pos[in_working]] * norms[in_working]
    in_working[_most_violated(resid0, in_working, _ROWS_PER_PASS)] = True
    return in_working, mu0


@dataclasses.dataclass(frozen=True)
class QpProblem:
    """Stacked nominal control target, the inequality system, and the
    symmetric per-component box bound."""

    target: np.ndarray
    system: ConstraintSystem
    box: float

    def __post_init__(self):
        t = np.asarray(self.target, dtype=np.float64).ravel()
        expected = self.system.n_robots * self.system.dimension
        if t.size != expected:
            raise ValueError(f"target has {t.size} entries, system expects {expected}")
        if self.box <= 0:
            raise ValueError(f"box bound must be positive, got {self.box}")
        t.setflags(write=False)
        object.__setattr__(self, "target", t)

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        return self.system.dense()


@dataclasses.dataclass(frozen=True)
class QpSolution:
    u: np.ndarray
    status: str
    max_violation: float
    iterations: int
    duals: np.ndarray

    def objective_against(self, problem: QpProblem) -> float:
        diff = self.u - problem.target
        return float(diff @ diff)


def _dual_ascent(u_hat, box, a_w, b_w, mu0, tol, budget):
    """Projected semismooth Newton ascent on the dual of the working
    subsystem. The dual gradient is A u(mu) - b with u(mu) the box-clipped
    Lagrangian minimizer; its generalized Hessian is -A_f A_f^T, with A_f the
    free rows restricted to the unclipped components.

    With no more free rows than unclipped components (the common case), each
    damping trial is one SPD solve on the damped row Gram A_f A_f^T + lam I.
    With more, the thin SVD of A_f splits the gradient: a component outside
    the range of A_f is walked exactly, the rest takes the damped range-space
    step. A monotone line search plus a plain projected-gradient fallback
    keeps the ascent safe on degenerate (duplicate-row) systems.
    Returns (u, mu, iterations_used, converged)."""
    m = b_w.size
    mu = mu0.copy()
    b_scale = 1.0 + float(np.max(np.abs(b_w)))
    grad_step = 1.0 / m  # rows have unit norm, so |A|_2^2 <= m

    def dual_value(mu_v):
        u_v = np.clip(u_hat - a_w.T @ mu_v, -box, box)
        d = u_v - u_hat
        return 0.5 * float(d @ d) + float(mu_v @ (a_w @ u_v - b_w))

    u = np.clip(u_hat - a_w.T @ mu, -box, box)
    damping = 1e-8
    for it in range(1, budget + 1):
        v = u_hat - a_w.T @ mu
        u = np.clip(v, -box, box)
        resid = a_w @ u - b_w
        viol = float(np.max(resid))
        comp = float(np.max(np.abs(mu * resid))) if m else 0.0
        if viol <= tol and comp <= tol * b_scale * (1.0 + float(np.max(mu, initial=0.0))):
            return u, mu, it, True
        free = (mu > 0.0) | (resid > 0.0)
        inner = np.abs(v) < box
        a_f = a_w[np.ix_(free, inner)]
        g_f = resid[free]
        d = u - u_hat
        g0 = 0.5 * float(d @ d) + float(mu @ resid)
        stepped = False
        newton_step = None
        if a_f.size and a_f.shape[0] <= a_f.shape[1]:
            # The thin SVD's U is square here, so U (S^2 + lam)^-1 U^T g is
            # exactly (A_f A_f^T + lam I)^-1 g. The largest absolute row sum
            # of the Gram bounds its largest eigenvalue.
            gram = a_f @ a_f.T
            scale = float(np.max(np.sum(np.abs(gram), axis=1))) + 1e-12
            diag = np.diag_indices_from(gram)

            def newton_step(lam):
                damped = gram.copy()
                damped[diag] += lam
                return np.linalg.solve(damped, g_f)

        elif a_f.size:
            # The Hessian has rank at most the number of unclipped control
            # components, so factor the thin matrix once and reuse it across
            # damping retries.
            try:
                basis, sing, _ = np.linalg.svd(a_f, full_matrices=False)
            except np.linalg.LinAlgError:
                basis = None
            if basis is not None:
                proj = basis.T @ g_f
                g_null = g_f - basis @ proj
                null_norm = float(np.max(np.abs(g_null))) if g_null.size else 0.0
                if null_norm > 1e-12 * (1.0 + float(np.max(np.abs(g_f)))):
                    # With more active rows than control dimensions the dual
                    # is linear along this direction; walk it exactly to the
                    # first multiplier hitting zero (the control is unchanged
                    # along it, so the slope |g_null|^2 is constant).
                    mu_f = mu[free]
                    falling = g_null < -1e-14
                    if np.any(falling):
                        t_step = float(np.min(mu_f[falling] / -g_null[falling]))
                    else:
                        t_step = (1.0 + float(np.max(mu_f, initial=0.0))) / null_norm
                    mu_t = mu.copy()
                    mu_t[free] = np.maximum(0.0, mu_f + t_step * g_null)
                    if dual_value(mu_t) > g0:
                        mu = mu_t
                        stepped = True
                if not stepped:
                    scale = float(sing[0] ** 2) + 1e-12

                    def newton_step(lam):
                        return basis @ (proj / (sing**2 + lam))

        if newton_step is not None:
            # Range-space Newton with adaptive damping: a failed ascent trial
            # raises the damping, a good one lowers it.
            for _ in range(10):
                try:
                    delta = newton_step(damping * scale)
                except np.linalg.LinAlgError:
                    delta = None
                if delta is not None:
                    mu_t = mu.copy()
                    mu_t[free] = np.maximum(0.0, mu[free] + delta)
                    if np.all(np.isfinite(mu_t)) and dual_value(mu_t) > g0 + 1e-14 * max(
                        1.0, abs(g0)
                    ):
                        mu = mu_t
                        damping = max(damping / 30.0, 1e-10)
                        stepped = True
                        break
                damping = min(damping * 10.0, 1e12)
        if not stepped:
            mu = np.maximum(0.0, mu + grad_step * resid)
            damping = 1e-8
    return u, mu, budget, False


def solve(
    problem: QpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: dict | None = None,
) -> QpSolution:
    """Solve to KKT tolerance `tol` with a global inner-iteration budget of
    `max_iter`. Returns status "optimal" on convergence, "max_iter" if the
    budget ran out but the final iterate is feasible within tol, and
    "fallback_zero" (u = 0) otherwise.

    Rows with |a|_1 * box <= b hold for every box-feasible control, so the
    solve drops them once up front (ConstraintSystem.reachable_rows); they
    cannot change the optimum and get duals of exactly zero. `duals` always
    has one entry per row of the full system.

    `warm_start` maps row keys (ConstraintSystem.packed_keys) to dual values
    from a previous related solve; it only seeds the iteration and cannot
    change the converged answer beyond the tolerance.

    The zero fallback is guaranteed feasible whenever every row bound is
    nonnegative; if that guarantee is broken an InternalInvariantError is
    raised rather than returning an infeasible control.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    system = problem.system
    z = len(system)
    reach = system.reachable_rows(problem.box)
    if reach.size == 0:
        return QpSolution(u=np.clip(problem.target, -problem.box, problem.box),
                          status=STATUS_OPTIMAL, max_violation=0.0, iterations=0,
                          duals=np.zeros(z))
    if warm_start:
        # Keyed once on the full system, which callers key again to build
        # the next warm start; the subsystem slices these keys.
        system.packed_keys()
    rows = system if reach.size == z else system.take(reach)
    sol = _solve_rows(problem.target, problem.box, rows, tol, max_iter, warm_start)
    duals = np.zeros(z)
    duals[reach] = sol.duals
    return dataclasses.replace(sol, duals=duals)


def _solve_rows(u_hat, box, system, tol, max_iter, warm_start) -> QpSolution:
    """The working-set solve of `solve` over every row of a nonempty
    `system`."""
    z = len(system)
    u0 = np.clip(u_hat, -box, box)
    # The solve runs on unit-norm rows; violations are therefore Euclidean
    # distances to the half-space boundaries, and the certificate rows with
    # wildly different gradient magnitudes stay comparably conditioned.
    norms = system.row_norms()
    resid0 = system.residuals(u0) / norms
    viol0 = float(np.max(resid0))
    if viol0 <= tol:
        return QpSolution(u=u0, status=STATUS_OPTIMAL, max_violation=max(viol0, 0.0),
                          iterations=0, duals=np.zeros(z))

    in_working, mu0 = _initial_working_set(system, resid0, norms, warm_start)
    working = np.nonzero(in_working)[0]
    mu_w = mu0[working]
    budget = max_iter
    used = 0
    u = u0
    for _ in range(_MAX_OUTER_PASSES):
        a_w = system.dense_rows(working) / norms[working, None]
        b_w = system.bounds[working] / norms[working]
        u, mu_w, it, converged = _dual_ascent(u_hat, box, a_w, b_w, mu_w, tol, budget - used)
        used += it
        full_resid = system.residuals(u) / norms
        full_viol = float(np.max(full_resid))
        if converged:
            newly = _most_violated(
                np.where(full_resid > tol, full_resid, 0.0), in_working, _ROWS_PER_PASS
            )
            if newly.size == 0:
                duals = np.zeros(z)
                duals[working] = mu_w / norms[working]
                return QpSolution(u=u, status=STATUS_OPTIMAL,
                                  max_violation=max(full_viol, 0.0),
                                  iterations=used, duals=duals)
            in_working[newly] = True
            working = np.concatenate([working, newly])
            mu_w = np.concatenate([mu_w, np.zeros(newly.size)])
        if used >= budget:
            break

    full_viol = float(np.max(system.residuals(u) / norms))
    if full_viol <= tol:
        duals = np.zeros(z)
        duals[working] = mu_w / norms[working]
        return QpSolution(u=u, status=STATUS_MAX_ITER, max_violation=max(full_viol, 0.0),
                          iterations=used, duals=duals)

    zero_viol = float(np.max(-system.bounds / norms))
    if zero_viol > tol:
        raise InternalInvariantError(
            f"zero-control fallback violates a row by {zero_viol:.3e}; "
            "some certificate bound is negative beyond tolerance"
        )
    return QpSolution(u=np.zeros_like(u_hat), status=STATUS_FALLBACK_ZERO,
                      max_violation=max(zero_viol, 0.0), iterations=used,
                      duals=np.zeros(z))


def verify_kkt(problem: QpProblem, solution: QpSolution, tol: float) -> bool:
    """Independent optimality check from first principles.

    Verifies primal feasibility (rows and box), dual nonnegativity,
    complementary slackness, and stationarity of the box-projected Lagrangian
    minimizer. For a zero fallback only primal feasibility is meaningful.
    """
    system = problem.system
    u = np.asarray(solution.u, dtype=np.float64)
    box = problem.box
    scale = 1.0 + float(np.max(np.abs(problem.target)))
    if np.max(np.abs(u)) > box + tol:
        return False
    z = len(system)
    if z == 0:
        if solution.status == STATUS_FALLBACK_ZERO:
            return True
        return bool(np.max(np.abs(u - np.clip(problem.target, -box, box))) <= tol * scale)
    norms = system.row_norms()
    resid = system.residuals(u) / norms
    b_scale = 1.0 + float(np.max(np.abs(system.bounds / norms)))
    if float(np.max(resid)) > tol * b_scale:
        return False
    if solution.status == STATUS_FALLBACK_ZERO:
        return True
    mu = np.asarray(solution.duals, dtype=np.float64)
    if mu.size != z:
        return False
    if float(np.min(mu)) < -tol:
        return False
    mu_scaled = mu * norms
    if float(np.max(np.abs(mu_scaled * resid))) > tol * (1.0 + float(np.max(mu_scaled))) * b_scale:
        return False
    a, _ = problem.dense()
    stationary = np.clip(problem.target - a.T @ mu, -box, box)
    return bool(np.max(np.abs(u - stationary)) <= tol * scale)
