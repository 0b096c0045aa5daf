import numpy as np
import pytest
from scipy.optimize import linprog

from natset import qpsolver
from natset.qpsolver import (
    DimensionMismatch,
    QuadraticProgram,
    SolverStatus,
    solve,
)

from oracles import NoFeasibleActiveSet, enumerate_oracle


def random_qps(count, seed):
    """Small random strictly convex programs with guaranteed feasibility."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, 5))
        M = rng.standard_normal((n, n))
        P = M.T @ M + 0.1 * np.eye(n)
        q = rng.standard_normal(n)
        A = rng.standard_normal((k, n))
        feasible_point = rng.standard_normal(n)
        b = A @ feasible_point + rng.uniform(0.0, 1.0, size=k)
        out.append(QuadraticProgram(P, q, A, b))
    return out


def test_scalar_lower_bound():
    qp = QuadraticProgram([[2.0]], [0.0], [[-1.0]], [-1.0])
    sol = solve(qp)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.z[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_unconstrained_projection():
    c = np.array([0.3, -1.7, 2.5])
    qp = QuadraticProgram(2 * np.eye(3), -2 * c, np.zeros((0, 3)), np.zeros(0))
    sol = solve(qp)
    assert sol.status is SolverStatus.OPTIMAL
    assert np.allclose(sol.z, c, atol=1e-8)


def test_oracle_trivial_examples():
    qp = QuadraticProgram([[2.0]], [0.0], [[-1.0]], [-1.0])
    sol = enumerate_oracle(qp)
    assert abs(sol.z[0] - 1.0) < 1e-10
    assert abs(sol.objective - 1.0) < 1e-10

    c = np.array([4.0, -2.0])
    qp = QuadraticProgram(2 * np.eye(2), -2 * c, np.zeros((0, 2)), np.zeros(0))
    assert np.max(np.abs(enumerate_oracle(qp).z - c)) < 1e-10


def test_infeasible_pair():
    # z <= 0 together with z >= 1
    qp = QuadraticProgram([[2.0]], [0.0], [[1.0], [-1.0]], [0.0, -1.0])
    with pytest.raises(NoFeasibleActiveSet):
        enumerate_oracle(qp)
    sol = solve(qp)
    assert sol.status is SolverStatus.INFEASIBLE


def test_degenerate_vertex_matches_oracle():
    # both rows active at the optimum (1, 0): project (2, 0) onto the wedge
    qp = QuadraticProgram(
        2 * np.eye(2), [-4.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0]
    )
    exact = enumerate_oracle(qp)
    assert np.allclose(exact.z, [1.0, 0.0], atol=1e-10)
    sol = solve(qp)
    assert sol.status is SolverStatus.OPTIMAL
    assert np.max(np.abs(sol.z - exact.z)) < 1e-6


def test_random_agreement_with_oracle():
    for qp in random_qps(30, seed=5):
        sol = solve(qp)
        exact = enumerate_oracle(qp)
        assert sol.status is SolverStatus.OPTIMAL
        assert abs(sol.objective - exact.objective) < 1e-5


def test_optimal_returns_carry_kkt_certificate():
    for qp in random_qps(20, seed=11):
        sol = solve(qp)
        assert sol.status is SolverStatus.OPTIMAL
        lam = sol.lam
        stat = np.max(np.abs(qp.P @ sol.z + qp.q + qp.A.T @ lam), initial=0.0)
        margins = qp.A @ sol.z - qp.b
        assert stat <= 1e-7 * (1.0 + np.max(np.abs(qp.q), initial=0.0)) + 1e-12
        assert np.max(margins, initial=0.0) <= 1e-7
        assert np.max(np.abs(lam * margins), initial=0.0) <= 1e-6
        assert np.min(lam, initial=0.0) >= -1e-9


def test_scaling_leaves_minimizer_unchanged():
    for qp in random_qps(10, seed=31):
        scaled = QuadraticProgram(37.0 * qp.P, 37.0 * qp.q, qp.A, qp.b)
        assert np.max(np.abs(solve(qp).z - solve(scaled).z)) < 1e-7


def degenerate_qps(count, seed, multiples=(0.25, 0.5, 1.0, 2.0)):
    """Random programs whose rows repeat, or point against, earlier rows.

    With the default power-of-two multiples a row parallel to another is
    parallel in floating point too and the oracle's KKT systems are singular
    exactly where they should be; a multiple of 3 rounds, leaving rows that
    are only nearly parallel.  Row norms span about four decades, which a
    dependence test must not mistake for independence.  Right-hand sides
    are arbitrary, so many programs are infeasible.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        M = rng.standard_normal((n, n))
        P = M.T @ M + 0.1 * np.eye(n)
        q = 3.0 * rng.standard_normal(n)
        A = rng.standard_normal((k, n))
        for i in range(1, k):
            kind = rng.random()
            if kind < 0.4:
                sign = 1.0 if kind < 0.2 else -1.0
                A[i] = sign * rng.choice(multiples) * A[rng.integers(0, i)]
        A *= 2.0 ** rng.integers(0, 13, size=(k, 1))
        out.append(QuadraticProgram(P, q, A, rng.standard_normal(k)))
    return out


def test_degenerate_and_infeasible_programs_match_oracle():
    infeasible = 0
    for idx, qp in enumerate(degenerate_qps(400, seed=2024)):
        sol = solve(qp)
        try:
            exact = enumerate_oracle(qp)
        except NoFeasibleActiveSet:
            infeasible += 1
            assert sol.status is SolverStatus.INFEASIBLE, idx
            continue
        assert sol.status is SolverStatus.OPTIMAL, idx
        assert abs(sol.objective - exact.objective) <= 1e-8 * (1.0 + abs(exact.objective)), idx
    assert 100 <= infeasible <= 300  # both outcomes are exercised


@pytest.mark.parametrize("seed", [2024, 7])
def test_large_multipliers_certify_exact_optima(seed):
    # rows scaled by 2^-12 push multipliers to 1e9-6e10, which magnify the
    # rounding of a tight row's margin (a few 1e-16) past 1e-6
    for idx, base in enumerate(degenerate_qps(400, seed)):
        qp = QuadraticProgram(base.P, base.q, base.A * 2.0**-12, base.b)
        sol = solve(qp)
        try:
            exact = enumerate_oracle(qp)
        except NoFeasibleActiveSet:
            assert sol.status is SolverStatus.INFEASIBLE, idx
            continue
        assert sol.status is SolverStatus.OPTIMAL, idx
        assert abs(sol.objective - exact.objective) <= 1e-8 * (1.0 + abs(exact.objective)), idx


# (seed, e, index) of degenerate_qps(400, seed) programs whose exact optima,
# with rows scaled by 2^-e, carry multipliers of 1e13-1e16: the rounding of
# A'lam then exceeds any absolute stationarity bound
HUGE_MULTIPLIERS = (
    (1, 20, 214), (1, 20, 392), (2, 20, 59), (2, 20, 84), (2, 20, 246),
    (4, 16, 326), (4, 20, 326), (4, 20, 332), (6, 20, 73), (6, 20, 208),
    (7, 20, 25), (8, 16, 271), (8, 20, 116), (8, 20, 271), (2024, 16, 92),
    (2024, 20, 92), (2024, 20, 361),
)


def test_huge_multipliers_certify_exact_optima():
    programs = {}
    for seed, e, idx in HUGE_MULTIPLIERS:
        if seed not in programs:
            programs[seed] = degenerate_qps(400, seed)
        base = programs[seed][idx]
        qp = QuadraticProgram(base.P, base.q, base.A * 2.0**-e, base.b)
        sol = solve(qp)
        exact = enumerate_oracle(qp)
        key = (seed, e, idx)
        assert sol.status is SolverStatus.OPTIMAL, key
        assert abs(sol.objective - exact.objective) <= 1e-8 * (1.0 + abs(exact.objective)), key
        assert np.max(sol.lam) > 1e12, key
        # the rounding allowance is relative: multipliers one part in 1e8
        # off, or a point moved by one part in 1e6, still fail
        assert not qpsolver._certificate(qp, sol.z, sol.lam * (1.0 + 1e-8))[0], key
        moved = sol.z + 1e-6 * (1.0 + np.abs(sol.z))
        assert not qpsolver._certificate(qp, moved, sol.lam)[0], key


def test_certificate_rejects_a_slack_working_row():
    # min (z^2 + q z) s.t. z >= 1, with the multiplier that makes z stationary
    for z, ok in ((1.0, True), (1.0 + 1e-5, False)):
        qp = QuadraticProgram([[2.0]], [1.0 - 2.0 * z], [[-1.0]], [-1.0])
        passed, stat, viol = qpsolver._certificate(qp, np.array([z]), np.array([1.0]))
        assert stat <= 1e-15 and viol == 0.0
        assert passed is ok


def test_certificate_judges_the_gap_against_the_objective_scale():
    # min z^2 - 2000 z s.t. z <= 1 has z* = 1 and lam* = 1998, and its scale
    # 1 + |q'z| + z'Pz is about 2.0e3: the gap lam |z - 1| may reach 2e-3
    qp = QuadraticProgram([[2.0]], [-2000.0], [[1.0]], [1.0])
    for slack, ok in ((1e-7, True), (1e-6, True), (1e-5, False)):
        z = 1.0 - slack
        passed, _, viol = qpsolver._certificate(qp, np.array([z]), np.array([2000.0 - 2.0 * z]))
        assert viol == 0.0
        assert passed is ok, slack


def test_nearly_parallel_rows_match_linprog_feasibility():
    infeasible = 0
    for idx, qp in enumerate(degenerate_qps(400, seed=2024, multiples=(3.0, 0.25))):
        lp = linprog(np.zeros(qp.n), A_ub=qp.A, b_ub=qp.b, bounds=(None, None), method="highs")
        assert lp.status in (0, 2), idx
        sol = solve(qp)
        if lp.status == 2:
            infeasible += 1
            with pytest.raises(NoFeasibleActiveSet):
                enumerate_oracle(qp)
            assert sol.status is SolverStatus.INFEASIBLE, idx
            continue
        exact = enumerate_oracle(qp)
        assert sol.status is SolverStatus.OPTIMAL, idx
        assert abs(sol.objective - exact.objective) <= 1e-8 * (1.0 + abs(exact.objective)), idx
    assert 100 <= infeasible <= 300  # both outcomes are exercised


def test_iterations_count_active_set_steps():
    # entering z >= 1 is one step; the unconstrained optimum z = 0 is none
    qp = QuadraticProgram([[2.0]], [0.0], [[-1.0], [1.0]], [-1.0, 5.0])
    assert solve(qp).iterations == 1
    free = QuadraticProgram([[2.0]], [0.0], [[1.0]], [5.0])
    assert solve(free).iterations == 0


def test_step_cap_reports_max_iter(monkeypatch):
    qp = QuadraticProgram(
        2 * np.eye(2), [-4.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0]
    )
    assert solve(qp).iterations == 2
    monkeypatch.setattr(qpsolver, "_MAX_STEPS", 1)
    sol = solve(qp)
    assert sol.status is SolverStatus.MAX_ITER
    assert sol.iterations == 1


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        QuadraticProgram(np.eye(2), np.zeros(3), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DimensionMismatch):
        QuadraticProgram(np.eye(2), np.zeros(2), np.ones((1, 3)), np.ones(1))


def test_invalid_objective_rejected():
    with pytest.raises(ValueError, match="P is not symmetric within 1e-10"):
        QuadraticProgram([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0], np.zeros((0, 2)), np.zeros(0))
    # negative, singular and indefinite blocks have no Cholesky factor
    for P in ([[-1.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[0.0]]):
        with pytest.raises(ValueError) as exc:
            QuadraticProgram(P, np.zeros(len(P)), np.zeros((0, len(P))), np.zeros(0))
        assert str(exc.value) == "P is not positive definite; not strictly convex"


def test_oracle_refuses_large_row_count():
    qp = QuadraticProgram(np.eye(1), np.zeros(1), np.ones((17, 1)), np.ones(17))
    with pytest.raises(ValueError):
        enumerate_oracle(qp)


def test_solution_arrays_read_only():
    sol = solve(QuadraticProgram([[2.0]], [0.0], [[-1.0]], [-1.0]))
    with pytest.raises(ValueError):
        sol.z[0] = 99.0


def midsize_qps(count, seed, n=100, k=400):
    """Random programs with 100 variables and 400 rows that repeat each other.

    The first quarter of the rows are fresh.  Every later row is a signed
    multiple of an earlier row (by 0.25-2, exactly parallel, or by 3, which
    rounds to nearly parallel) or, three times in ten, the sum of two
    earlier rows, which lies in their span up to rounding.  Row norms span
    eight binary decades.  The right-hand sides keep a random point
    feasible, except that every second program moves one row past it, so
    some programs are infeasible.  A large linear term makes about 80 rows
    active at the optimum.
    """
    rng = np.random.default_rng(seed)
    out = []
    for idx in range(count):
        M = rng.standard_normal((n, n))
        P = M.T @ M / n + 0.1 * np.eye(n)
        q = 10.0 * rng.standard_normal(n)
        A = rng.standard_normal((k, n))
        for i in range(k // 4, k):
            s, t = rng.integers(0, i, size=2)
            if rng.random() < 0.3:
                A[i] = A[s] + A[t]
            else:
                A[i] = rng.choice((1.0, -1.0)) * rng.choice((0.25, 0.5, 1.0, 2.0, 3.0)) * A[s]
        A *= 2.0 ** rng.integers(0, 9, size=(k, 1))
        x0 = rng.standard_normal(n)
        b = A @ x0 + rng.uniform(0.0, 1.0, size=k)
        if idx % 2:
            i = int(rng.integers(k // 4, k))
            b[i] = A[i] @ x0 - 0.5 - 10.0 * rng.random()
        out.append(QuadraticProgram(P, q, A, b))
    return out


def test_midsize_degenerate_programs_certify_and_match_linprog(monkeypatch):
    # n = 100, k = 400: long working sets, long Givens chains on a drop, and
    # rows that depend on the working set, which the small programs above
    # never reach
    drop_chains, dependent = [], []
    split, drop = qpsolver._split, qpsolver._drop

    def recording_split(Q1t, y):
        w, d = split(Q1t, y)
        dependent.append(np.linalg.norm(d) <= qpsolver._DEPENDENT_TOL * np.linalg.norm(y))
        return w, d

    def recording_drop(Qt, R, m, j):
        drop_chains.append(m - 1 - j)
        drop(Qt, R, m, j)

    monkeypatch.setattr(qpsolver, "_split", recording_split)
    monkeypatch.setattr(qpsolver, "_drop", recording_drop)
    outcomes = []
    for idx, qp in enumerate(midsize_qps(6, seed=0)):
        del dependent[:]
        lp = linprog(np.zeros(qp.n), A_ub=qp.A, b_ub=qp.b, bounds=(None, None), method="highs")
        assert lp.status in (0, 2), idx
        sol = solve(qp)
        if lp.status == 2:
            assert sol.status is SolverStatus.INFEASIBLE, idx
        else:
            assert sol.status is SolverStatus.OPTIMAL, idx
            assert qpsolver._certificate(qp, sol.z, sol.lam)[0], idx
            assert np.count_nonzero(sol.lam) >= 50, idx
        outcomes.append((sol.status, any(dependent)))
    # both outcomes, and dependent rows on the way to an optimum as well
    assert (SolverStatus.INFEASIBLE, True) in outcomes
    assert (SolverStatus.OPTIMAL, True) in outcomes
    assert len(drop_chains) >= 50 and max(drop_chains) >= 40
