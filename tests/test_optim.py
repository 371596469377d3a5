import itertools
import math

import numpy as np
import pytest

import rkbs_sparse as rk
from rkbs_sparse.core import ConvergenceError, DomainError
from rkbs_sparse.optim import (INFEASIBLE, OPTIMAL, _crash_basis, basis_pursuit,
                               lasso_residual, linear_program, lp_solve,
                               prox_l1_solve)


def test_lp_single_box_variable():
    lp = linear_program([1.0], np.zeros((0, 1)), [], [], [(-1.0, 1.0)],
                        maximize=True)
    sol = lp_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0])
    assert sol.objective_value == pytest.approx(1.0)


def test_lp_two_constraints_vertex():
    # max x1 + x2 s.t. x1 <= 1, x1/2 + x2 <= 1, both free below
    lp = linear_program([1.0, 1.0], [[1.0, 0.0], [0.5, 1.0]], [1.0, 1.0],
                        ["<=", "<="], [(None, None), (None, None)],
                        maximize=True)
    sol = lp_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(1.5, abs=1e-9)
    assert sol.x == pytest.approx([1.0, 0.5], abs=1e-9)


def test_lp_infeasible():
    lp = linear_program([1.0], [[1.0], [1.0]], [0.0, 1.0], ["<=", ">="],
                        [(None, None)])
    assert lp_solve(lp).status == INFEASIBLE


def test_lp_unbounded():
    lp = linear_program([1.0], [[-1.0]], [0.0], ["<="], [(None, None)],
                        maximize=True)
    assert lp_solve(lp).status == "unbounded"


def test_lp_equality_and_lower_bounds():
    # min x1 + 2 x2 s.t. x1 + x2 == 3, x >= 0
    lp = linear_program([1.0, 2.0], [[1.0, 1.0]], [3.0], ["=="],
                        [(0.0, None), (0.0, None)])
    sol = lp_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([3.0, 0.0], abs=1e-9)


def _enumerate_lp_optimum(c, A, b, maximize):
    """Brute-force vertex enumeration over row intersections (bounded LPs
    with all-free variables); independent of the simplex implementation."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    best = None
    for rows in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ x <= b + 1e-9):
            val = float(np.asarray(c) @ x)
            if best is None or (val > best if maximize else val < best):
                best = val
    return best


def test_lp_matches_vertex_enumeration_on_random_instances():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 60:
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        A = np.round(rng.uniform(-2, 2, (m + n, n)), 2)
        A[m:] = -np.eye(n)  # bound the problem from below
        b = np.concatenate([np.round(rng.uniform(0.5, 2.5, m), 2),
                            np.full(n, 2.0)])
        c = np.round(rng.uniform(-1, 1, n), 2)
        expected = _enumerate_lp_optimum(c, A, b, maximize=True)
        if expected is None:
            continue
        lp = linear_program(c, A, b, ["<="] * (m + n), [(None, None)] * n,
                            maximize=True)
        sol = lp_solve(lp)
        if sol.status != OPTIMAL:
            continue
        assert sol.objective_value == pytest.approx(expected, abs=1e-9)
        checked += 1


def _random_bounds(rng, n):
    """One (lower, upper) pair per variable: free, lower-only, upper-only or boxed."""
    out = []
    for kind in rng.integers(0, 4, n):
        lo = float(np.round(rng.uniform(-2, 0.5), 2))
        hi = lo + float(np.round(rng.uniform(0.5, 3), 2))
        out.append([(None, None), (lo, None), (None, hi), (lo, hi)][kind])
    return out


def test_lp_reductions_match_highs_on_random_instances():
    # every reduction lp_solve makes: free splits, shifted lower bounds,
    # mirrored upper bounds, box rows, <= / >= / == rows with right-hand
    # sides of either sign (row flips, surplus columns), min and max
    from scipy.optimize import linprog
    rng = np.random.default_rng(20240607)
    statuses = {0: OPTIMAL, 2: INFEASIBLE, 3: "unbounded"}
    seen = set()
    for _ in range(300):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = np.round(rng.uniform(-2, 2, (m, n)), 2)
        b = np.round(rng.uniform(-2, 2, m), 2)
        c = np.round(rng.uniform(-1, 1, n), 2)
        senses = [["<=", ">=", "=="][k] for k in rng.integers(0, 3, m)]
        bounds = _random_bounds(rng, n)
        maximize = bool(rng.integers(0, 2))
        sol = lp_solve(linear_program(c, A, b, senses, bounds, maximize=maximize))

        le = [i for i, s in enumerate(senses) if s == "<="]
        ge = [i for i, s in enumerate(senses) if s == ">="]
        eq = [i for i, s in enumerate(senses) if s == "=="]
        A_ub = np.vstack([A[le], -A[ge]])
        b_ub = np.concatenate([b[le], -b[ge]])
        ref = linprog(-c if maximize else c, A_ub=A_ub if A_ub.size else None,
                      b_ub=b_ub if A_ub.size else None, A_eq=A[eq] if eq else None,
                      b_eq=b[eq] if eq else None, bounds=bounds, method="highs")
        assert sol.status == statuses[ref.status]
        seen.add(sol.status)
        if sol.status != OPTIMAL:
            continue
        assert sol.objective_value == pytest.approx(-ref.fun if maximize else ref.fun,
                                                    abs=1e-9)
        x, Ax = sol.x, A @ sol.x
        feas = 1e-9 * (1.0 + np.abs(b))
        assert np.all(Ax[le] <= b[le] + feas[le])
        assert np.all(Ax[ge] >= b[ge] - feas[ge])
        assert np.all(np.abs(Ax[eq] - b[eq]) <= feas[eq])
        for xj, (lo, hi) in zip(x, bounds):
            assert lo is None or xj >= lo - 1e-9
            assert hi is None or xj <= hi + 1e-9
    assert seen == {OPTIMAL, INFEASIBLE, "unbounded"}


def test_crash_basis_matches_column_loop():
    # reference: scan the columns in order; a column with a single nonzero,
    # equal to +1, claims its row if no earlier column has
    rng = np.random.default_rng(5)
    for _ in range(200):
        m, n = int(rng.integers(1, 7)), int(rng.integers(0, 9))
        A = rng.choice([0.0, 0.0, 0.0, 1.0, -1.0, 2.0], size=(m, n))
        expected = np.full(m, -1)
        for j in range(n):
            nz = np.nonzero(A[:, j])[0]
            if nz.size == 1 and expected[nz[0]] == -1 and A[nz[0], j] == 1.0:
                expected[nz[0]] = j
        assert _crash_basis(A).tolist() == expected.tolist()


def test_basis_pursuit_worked_example_matrix():
    sol = basis_pursuit(np.array([[1.0, 0.5], [1.0, -0.5]]), np.array([1.0, 1.0]))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_basis_pursuit_single_column():
    sol = basis_pursuit(np.array([[1.0]]), np.array([2.0]))
    assert sol.x == pytest.approx([2.0])


def test_basis_pursuit_triangular():
    # frozen from the vertex-enumeration oracle: unique feasible support {1,2}
    sol = basis_pursuit(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))
    assert sol.x == pytest.approx([0.5, 1.0], abs=1e-9)
    assert sol.objective_value == pytest.approx(1.5, abs=1e-9)


def test_basis_pursuit_infeasible():
    sol = basis_pursuit(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    assert sol.status == INFEASIBLE


def test_basis_pursuit_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        L = np.round(rng.uniform(-2, 2, (m, n)), 2)
        alpha_true = np.zeros(n)
        support = rng.choice(n, size=min(m, n), replace=False)
        alpha_true[support] = np.round(rng.uniform(-2, 2, support.size), 2)
        y = L @ alpha_true
        sol = basis_pursuit(L, y)
        report = rk.vertex_enumerate_l1(L, y)
        if report.value is None:
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(report.value, abs=1e-9)
        # vertex sparsity against the rank of the matrix
        nnz = int(np.sum(np.abs(sol.x) > 1e-10))
        assert nnz <= np.linalg.matrix_rank(L, tol=1e-9)
        residual = float(np.max(np.abs(L @ sol.x - y)))
        assert residual <= 1e-9 * (1.0 + float(np.max(np.abs(y))))


def test_basis_pursuit_midpoint_of_perturbed_optima():
    # non-unique instance: objective perturbation exposes two vertices
    L = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    first = basis_pursuit(L, y, weights=np.array([1.0, 1.0 + 1e-6]))
    second = basis_pursuit(L, y, weights=np.array([1.0 + 1e-6, 1.0]))
    assert first.x == pytest.approx([1.0, 0.0], abs=1e-9)
    assert second.x == pytest.approx([0.0, 1.0], abs=1e-9)
    mid = 0.5 * (first.x + second.x)
    assert float(np.max(np.abs(L @ mid - y))) <= 1e-12
    assert float(np.sum(np.abs(mid))) == pytest.approx(1.0, abs=1e-12)


def test_prox_soft_threshold_identity():
    alpha = prox_l1_solve(np.eye(2), np.array([1.0, 1.0]), 0.5, tol=1e-10)
    assert alpha == pytest.approx([0.5, 0.5], abs=1e-9)


def test_prox_zero_above_lambda_max():
    alpha = prox_l1_solve(np.eye(2), np.array([1.0, 1.0]), 1.5, tol=1e-10)
    assert alpha == pytest.approx([0.0, 0.0], abs=0.0)


def test_prox_small_lambda_limits_to_least_squares():
    L = np.array([[2.0, 0.3], [-0.4, 1.1]])
    y = np.array([1.0, -0.7])
    tol = 1e-10
    alpha = prox_l1_solve(L, y, 1e-12, tol=tol)
    assert alpha == pytest.approx(np.linalg.solve(L, y), abs=10 * tol)


def test_prox_output_passes_lambda_certificate():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = 3, 5
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        lam = float(rng.uniform(0.05, 1.0))
        alpha = prox_l1_solve(L, y, lam, tol=1e-10)
        cert = rk.lambda_certificate(L, alpha, y, lam, tol=1e-9)
        assert cert.verdict
        assert lasso_residual(L, alpha, y, lam) <= 1e-10


def test_prox_iteration_cap_raises_with_residual():
    L = np.array([[1.0, 0.999999], [0.999999, 1.0]])
    y = np.array([1.0, -1.0])
    with pytest.raises(ConvergenceError) as err:
        prox_l1_solve(L, y, 1e-8, tol=1e-16, max_iters=5)
    assert math.isfinite(err.value.residual)


def test_prox_rejects_nonpositive_lambda():
    with pytest.raises(DomainError):
        prox_l1_solve(np.eye(2), np.array([1.0, 1.0]), 0.0)
