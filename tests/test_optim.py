import itertools
import math

import numpy as np
import pytest

import rkbs_sparse as rk
from rkbs_sparse.core import ConvergenceError, DomainError, matrix_rank
import rkbs_sparse.optim as optim_mod
from rkbs_sparse.optim import (INFEASIBLE, OPTIMAL, UNBOUNDED, _exact_residual,
                               basis_pursuit, l1_column_simplex, lasso_path,
                               lasso_residual, lasso_solve, revised_simplex)
from conftest import random_seq_instances


def test_lp_two_constraints_vertex():
    # max x1 + x2 s.t. x1 <= 1, x1/2 + x2 <= 1, x >= 0
    x, status = revised_simplex([[1.0, 0.0], [0.5, 1.0]], [1.0, 1.0], np.array([-1.0, -1.0]),
                                2, 1e-9)
    assert status == OPTIMAL
    assert x == pytest.approx([1.0, 0.5], abs=1e-9)


def test_lp_infeasible():
    # x <= 0 and x == 1 with x >= 0
    assert revised_simplex([[1.0], [1.0]], [0.0, 1.0], np.array([1.0]), 1, 1e-9)[1] == INFEASIBLE


def test_lp_unbounded():
    # min -x s.t. -x <= 0, x >= 0
    assert revised_simplex([[-1.0]], [0.0], np.array([-1.0]), 1, 1e-9)[1] == UNBOUNDED


def test_lp_equality_and_lower_bounds():
    # min x1 + 2 x2 s.t. x1 + x2 == 3, x >= 0
    x, status = revised_simplex([[1.0, 1.0]], [3.0], np.array([1.0, 2.0]), 0, 1e-9)
    assert status == OPTIMAL
    assert x == pytest.approx([3.0, 0.0], abs=1e-9)


def test_lp_recheck_catches_a_corrupted_pivot(monkeypatch):
    # the optimal phase leaves its first basic value (x1 = 1) off by delta,
    # so the vertex misses its own constraints by exactly delta;
    # rounding-level drift passes, a real miss raises and carries the residual
    bland = optim_mod._bland_revised
    delta = [0.0]

    def corrupted(lp, basis, cost):
        status, x_B = bland(lp, basis, cost)
        x_B[0] += delta[0]
        return status, x_B

    monkeypatch.setattr(optim_mod, "_bland_revised", corrupted)
    A, b, cost = [[1.0, 0.0], [0.5, 1.0]], [1.0, 1.0], np.array([-1.0, -1.0])
    delta[0] = 1e-12
    assert revised_simplex(A, b, cost, 2, 1e-9)[1] == OPTIMAL
    delta[0] = 0.25
    with pytest.raises(ConvergenceError) as err:
        revised_simplex(A, b, cost, 2, 1e-9)
    assert err.value.residual == pytest.approx(0.25, rel=1e-12)


def _enumerate_lp_optimum(c, A, b):
    """Brute-force vertex enumeration over row intersections: max c.x
    s.t. A x <= b, x free and bounded; independent of the simplex."""
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
            if best is None or val > best:
                best = val
    return best


def test_lp_matches_vertex_enumeration_on_random_instances():
    # max c.x s.t. A x <= b over free x = x+ - x-, the shape of the l1 dual LP
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 60:
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        A = np.round(rng.uniform(-2, 2, (m + n, n)), 2)
        A[m:] = -np.eye(n)  # bound the problem from below
        b = np.concatenate([np.round(rng.uniform(0.5, 2.5, m), 2),
                            np.full(n, 2.0)])
        c = np.round(rng.uniform(-1, 1, n), 2)
        expected = _enumerate_lp_optimum(c, A, b)
        if expected is None:
            continue
        u, status = revised_simplex(np.hstack([A, -A]), b, np.concatenate([-c, c]), m + n, 1e-9)
        if status != OPTIMAL:
            continue
        assert float(c @ (u[:n] - u[n:2 * n])) == pytest.approx(expected, abs=1e-9)
        checked += 1


def test_lp_reductions_match_highs_on_random_instances():
    # every reduction revised_simplex makes: row flips for right-hand sides
    # of either sign, the slack start basis of <= rows and the phase-1
    # artificials of == rows and flipped <= rows, over x >= 0
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(20240607)
    statuses = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    seen = set()
    for _ in range(300):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = np.round(rng.uniform(-2, 2, (m, n)), 2)
        b = np.round(rng.uniform(-2, 2, m), 2)
        c = np.round(rng.uniform(-1, 1, n), 2)
        le = rng.integers(0, 2, m) == 1
        order = np.concatenate([np.flatnonzero(le), np.flatnonzero(~le)])
        x, status = revised_simplex(A[order], b[order], c, int(le.sum()), 1e-9)

        ref = linprog(c, A_ub=A[le] if le.any() else None,
                      b_ub=b[le] if le.any() else None,
                      A_eq=A[~le] if not le.all() else None,
                      b_eq=b[~le] if not le.all() else None,
                      bounds=(0, None), method="highs")
        assert status == statuses[ref.status]
        seen.add(status)
        if status != OPTIMAL:
            continue
        assert float(c @ x) == pytest.approx(ref.fun, abs=1e-9)
        Ax = A @ x
        feas = 1e-9 * (1.0 + np.abs(b))
        assert np.all(Ax[le] <= b[le] + feas[le])
        assert np.all(np.abs(Ax[~le] - b[~le]) <= feas[~le])
        assert np.all(x >= -1e-9)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_lp_drops_redundant_equality_rows_and_matches_highs(monkeypatch):
    # a duplicated equality row and one that is the sum of two others stay
    # basic on their artificial after phase 1, with an all-zero row of
    # B^-1 A, so both are dropped before phase 2
    linprog = pytest.importorskip("scipy.optimize").linprog
    bland = optim_mod._bland_revised
    live = []

    def spy(lp, basis, cost):
        live.append(lp.live.copy())
        return bland(lp, basis, cost)

    monkeypatch.setattr(optim_mod, "_bland_revised", spy)
    A_le = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, -1.0]])
    b_le = np.array([4.0, 3.0])
    duplicated = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0]]), np.array([2.0, 2.0])
    e1, e2 = np.array([1.0, -1.0, 0.0, 2.0]), np.array([0.0, 1.0, 1.0, 1.0])
    summed = np.array([e1, e2, e1 + e2]), np.array([1.0, 1.5, 2.5])
    for A_eq, b_eq in (duplicated, summed):
        for c in (np.array([1.0, -1.0, 0.5, 2.0]), np.array([-1.0, -2.0, 1.0, 0.0])):
            live.clear()
            x, status = revised_simplex(np.vstack([A_le, A_eq]), np.concatenate([b_le, b_eq]),
                                        c, 2, 1e-9)
            ref = linprog(c, A_ub=A_le, b_ub=b_le, A_eq=A_eq, b_eq=b_eq,
                          bounds=(0, None), method="highs")
            assert ref.status == 0 and status == OPTIMAL
            assert float(c @ x) == pytest.approx(ref.fun, abs=1e-9)
            assert np.all(A_le @ x <= b_le + 1e-9)
            assert np.max(np.abs(A_eq @ x - b_eq)) <= 1e-9
            assert np.all(x >= -1e-9)
            assert len(live) == 2 and live[0].all() and int(np.sum(~live[1])) == 1


def test_working_lp_matches_highs_on_random_instances():
    # the dual working LP max c.y s.t. |V^T c| <= 1 over the first
    # truncation_start coordinates, on acceptance-style instances with
    # n <= 8.  HiGHS drops matrix entries below 1e-9 (its small_matrix_value),
    # which moves the optimum of instance 44 by 5.6e-9 relative, so both
    # solvers get V with those entries zeroed.
    linprog = pytest.importorskip("scipy.optimize").linprog
    from rkbs_sparse.sequence import _solve_working_lp
    problems = random_seq_instances(100, max_n=8, seed=8128)
    assert max(p.n for p in problems) == 8
    for problem in problems:
        V = problem.coordinate_matrix(problem.options.truncation_start)
        V = np.where(np.abs(V) < 1e-9, 0.0, V)
        y = problem.y_vector()
        c = _solve_working_lp(problem, V)
        ref = linprog(-y, A_ub=np.vstack([V.T, -V.T]), b_ub=np.ones(2 * V.shape[1]),
                      bounds=(None, None), method="highs")
        assert ref.status == 0
        assert float(c @ y) == pytest.approx(-ref.fun, rel=1e-9)
        assert float(np.max(np.abs(V.T @ c))) <= 1.0 + problem.options.tol


def _gauss_working_set(rng):
    """Kernel columns K(centers, t) over centers plus random points, and data y."""
    n = int(rng.integers(1, 9))
    centers = np.sort(rng.uniform(-6.0, 6.0, n))
    while n > 1 and np.min(np.diff(centers)) < 0.4:
        centers = np.sort(rng.uniform(-6.0, 6.0, n))
    points = np.concatenate([centers, rng.uniform(-9.0, 9.0, int(rng.integers(0, 40)))])
    V = np.exp(-0.5 * (centers[:, None] - points[None, :]) ** 2)
    return V, rng.uniform(-1.0, 1.0, n)


def _highs_l1(V, y):
    linprog = pytest.importorskip("scipy.optimize").linprog
    W = V.shape[1]
    ref = linprog(np.ones(2 * W), A_eq=np.hstack([V, -V]), b_eq=y,
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.fun


def test_l1_column_simplex_matches_highs_on_gaussian_working_sets():
    rng = np.random.default_rng(42)
    tol = 1e-9
    for _ in range(60):
        V, y = _gauss_working_set(rng)
        n = y.size
        sol = l1_column_simplex(V, y, np.arange(n), tol=tol)  # crash from the centers
        value = float(np.sum(sol.weights))
        assert value == pytest.approx(_highs_l1(V, y), rel=1e-9)
        assert float(sol.dual @ y) == pytest.approx(value, rel=1e-9)
        assert float(np.max(np.abs(sol.dual @ V))) <= 1.0 + tol
        alpha = np.zeros(V.shape[1])
        alpha[sol.cols] = sol.signs * sol.weights
        assert np.all(sol.weights >= -tol)
        assert np.max(np.abs(V @ alpha - y)) <= tol * (1.0 + np.max(np.abs(y)))


def test_l1_column_simplex_warm_start_from_stale_basis():
    # the optimal basis over a subset of the columns stays feasible when
    # columns are added, and warm-starts to the cold-start optimum
    rng = np.random.default_rng(7)
    for _ in range(30):
        V, y = _gauss_working_set(rng)
        n = y.size
        half = n + (V.shape[1] - n) // 2
        stale = l1_column_simplex(V[:, :half], y, np.arange(n))
        warm = l1_column_simplex(V, y, stale.cols, stale.signs)
        cold = l1_column_simplex(V, y, np.arange(n))
        warm_value = float(np.sum(warm.weights))
        assert warm_value == pytest.approx(float(np.sum(cold.weights)), rel=1e-9)
        assert warm_value == pytest.approx(_highs_l1(V, y), rel=1e-9)
        assert float(np.max(np.abs(warm.dual @ V))) <= 1.0 + 1e-9


def _clustered_working_set(rng):
    """y from a few atoms, and working points clustered within 1e-6..1e-2 of them."""
    n = int(rng.integers(6, 17))
    centers = np.sort(np.linspace(-8.0, 8.0, n) + rng.uniform(-0.1, 0.1, n))
    k = int(rng.integers(2, n // 2 + 1))
    sites = rng.uniform(-9.0, 9.0, k)
    y = np.exp(-0.5 * (centers[:, None] - sites) ** 2) @ rng.uniform(-1.0, 1.0, k)
    offsets = rng.choice([-1.0, 1.0], (k, 6)) * 10.0 ** rng.uniform(-6.0, -2.0, (k, 6))
    points = np.concatenate([centers, np.linspace(centers[0] - 5.0, centers[-1] + 5.0, 33),
                             (sites[:, None] + offsets).ravel()])
    return np.exp(-0.5 * (centers[:, None] - points) ** 2), y


def test_l1_column_simplex_certifies_degenerate_clustered_working_sets():
    # degenerate LPs whose bases reach condition numbers near 1e10, as in
    # the exchange rounds of regularization support updates.  Each result
    # is checked by its own certificate: HiGHS only agrees to its
    # feasibility tolerance here.
    rng = np.random.default_rng(0)
    tol = 1e-9
    for _ in range(60):
        V, y = _clustered_working_set(rng)
        n = y.size
        sol = l1_column_simplex(V, y, np.arange(n), tol=tol)
        scale = 1.0 + float(np.max(np.abs(y)))
        alpha = np.zeros(V.shape[1])
        alpha[sol.cols] = sol.signs * sol.weights
        assert float(np.max(np.abs(sol.dual @ V))) <= 1.0 + tol
        value = float(np.sum(sol.weights))
        assert float(sol.dual @ y) == pytest.approx(value, rel=1e-12)
        assert float(np.min(sol.weights)) >= -tol * scale
        assert float(np.max(np.abs(V @ alpha - y))) <= tol * scale
        assert value == pytest.approx(_highs_l1(V, y), rel=1e-6)


def _crash_dual(V, y):
    n = y.size
    signs = np.where(np.linalg.solve(V[:, :n], y) < 0, -1.0, 1.0)
    return np.linalg.solve((V[:, :n] * signs).T, np.ones(n))


def test_l1_column_simplex_pivot_cap_raises_with_residual(monkeypatch):
    rng = np.random.default_rng(1)
    V, y = _gauss_working_set(rng)
    while float(np.max(np.abs(_crash_dual(V, y) @ V))) <= 1.0 + 1e-6:
        V, y = _gauss_working_set(rng)
    monkeypatch.setattr(optim_mod, "_PIVOTS_PER_COLUMN", 0)
    with pytest.raises(ConvergenceError) as err:
        l1_column_simplex(V, y, np.arange(y.size))
    assert err.value.residual == pytest.approx(
        float(np.max(np.abs(_crash_dual(V, y) @ V))) - 1.0, rel=1e-12)
    assert err.value.residual > 0


def test_exact_residual_is_correctly_rounded():
    # the refinement residual rhs - B x is the exact value rounded once,
    # from float64 arithmetic alone, so it does not depend on long double
    from fractions import Fraction
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        B = np.exp(-0.5 * (rng.uniform(-8, 8, n)[:, None] - rng.uniform(-8, 8, n)) ** 2)
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 6.0, n)
        rhs = B @ x + rng.normal(size=n) * 1e-12
        got = _exact_residual(B, x, rhs)
        for i in range(n):
            exact = Fraction(rhs[i]) - sum(Fraction(B[i, j]) * Fraction(x[j])
                                           for j in range(n))
            assert got[i] == float(exact)


def test_exact_residual_is_correctly_rounded_row_by_row():
    # with one x per row, as the column simplex stacks x_B against the rows
    # of B and c against those of B^T, each row is still rounded once
    from fractions import Fraction
    rng = np.random.default_rng(4)
    for _ in range(50):
        m, n = int(rng.integers(1, 33)), int(rng.integers(1, 17))
        B = np.exp(-0.5 * (rng.uniform(-8, 8, m)[:, None] - rng.uniform(-8, 8, n)) ** 2)
        X = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 6.0, (m, n))
        rhs = np.sum(B * X, axis=1) + rng.normal(size=m) * 1e-12
        got = _exact_residual(B, X, rhs)
        assert got.shape == (m,)
        for i in range(m):
            exact = Fraction(rhs[i]) - sum(Fraction(B[i, j]) * Fraction(X[i, j])
                                           for j in range(n))
            assert got[i] == float(exact)


def test_l1_column_simplex_inverts_each_basis_once(monkeypatch):
    # one np.linalg.inv per refined factor, read back as the columns it
    # inverts: the crash, then each candidate optimum of the update path,
    # all distinct, the last one returned; the pivots between them update
    # the inverse, so there are fewer inverses than pivots, and no solve
    inverted, solves, keys = [], [], []
    inv, key = np.linalg.inv, optim_mod._basis_key
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(np.array(a)) or inv(a))
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
    monkeypatch.setattr(optim_mod, "_basis_key",
                        lambda cols, signs: keys.append(1) or key(cols, signs))
    rng = np.random.default_rng(7)
    inverses = pivots = 0
    for _ in range(30):
        V, y = _gauss_working_set(rng)
        n = y.size
        half = n + (V.shape[1] - n) // 2
        stale = None
        for W in (V[:, :half], V):  # a cold crash, then a warm start from its basis
            inverted.clear()
            keys.clear()
            start = np.arange(n) if stale is None else stale.cols
            sol = l1_column_simplex(W, y, start, None if stale is None else stale.signs)
            bases = [frozenset(int(np.flatnonzero(np.all(W == col[:, None], axis=0))[0])
                               for col in B.T) for B in inverted]
            assert bases[0] == frozenset(start.tolist())
            assert len(set(bases)) == len(bases)
            assert bases[-1] == frozenset(sol.cols.tolist())
            inverses += len(bases)
            pivots += max(len(keys) - 1, 0)  # a key per pivot, and the crash's at the first
            stale = sol
    assert not solves
    assert pivots >= 100
    assert inverses < pivots


def test_l1_column_simplex_update_path_matches_the_exact_path(monkeypatch):
    # with _basis_key made constant every pivot revisits, so each call that
    # pivots drops its update path and reruns with a refined factor per
    # basis: the exact path.  Both end on the same basis with the same
    # weights and dual, to the bit, on all 120 draws: none of them has two
    # optimal bases that the two paths could reach apart
    draws = []
    for seed, draw in ((42, _gauss_working_set), (0, _clustered_working_set)):
        rng = np.random.default_rng(seed)
        draws += [draw(rng) for _ in range(60)]
    updated = [l1_column_simplex(V, y, np.arange(y.size)) for V, y in draws]
    monkeypatch.setattr(optim_mod, "_basis_key", lambda cols, signs: None)
    exact = [l1_column_simplex(V, y, np.arange(y.size)) for V, y in draws]
    for a, b in zip(updated, exact):
        for field in ("cols", "signs", "weights", "dual"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_l1_column_simplex_rejects_an_infeasible_basis():
    # dual feasible from the start, so no pivot runs; x_B = -1 < 0 fails the recheck
    with pytest.raises(ConvergenceError) as err:
        l1_column_simplex(np.array([[1.0]]), np.array([1.0]), [0], [-1.0])
    assert err.value.residual == pytest.approx(1.0)


def _check_vertex(L, y, alpha, tol=1e-9):
    """alpha solves L alpha = y to tol and has at most rank(L) nonzeros."""
    residual = float(np.max(np.abs(L @ alpha - y), initial=0.0))
    assert residual <= tol * (1.0 + float(np.max(np.abs(y), initial=0.0)))
    assert np.count_nonzero(alpha) <= matrix_rank(L, tol)


def test_basis_pursuit_worked_example_matrix():
    L, y = np.array([[1.0, 0.5], [1.0, -0.5]]), np.array([1.0, 1.0])
    alpha = basis_pursuit(L, y)
    _check_vertex(L, y, alpha)
    assert alpha == pytest.approx([1.0, 0.0], abs=1e-9)
    assert float(np.sum(np.abs(alpha))) == pytest.approx(1.0, abs=1e-9)


def test_basis_pursuit_single_column():
    L, y = np.array([[1.0]]), np.array([2.0])
    alpha = basis_pursuit(L, y)
    _check_vertex(L, y, alpha)
    assert alpha == pytest.approx([2.0])


def test_basis_pursuit_triangular():
    # frozen from the vertex-enumeration oracle: unique feasible support {1,2}
    L, y = np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0])
    alpha = basis_pursuit(L, y)
    _check_vertex(L, y, alpha)
    assert alpha == pytest.approx([0.5, 1.0], abs=1e-9)
    assert float(np.sum(np.abs(alpha))) == pytest.approx(1.5, abs=1e-9)


def test_basis_pursuit_infeasible():
    cases = [
        # the one row the crash keeps is met; the other misses by 1
        (np.array([[1.0], [1.0]]), np.array([1.0, 2.0]), 1.0),
        # rank 1: the crash keeps the largest row, 3 a + 6 b = 4, and
        # row 2 then misses by 8/3 - 2
        (np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]), np.array([1.0, 2.0, 4.0]), 2.0 / 3.0),
        # rank 0: alpha = 0 misses by ||y||_inf
        (np.zeros((3, 4)), np.array([0.0, -2.5, 1.0]), 2.5),
    ]
    for L, y, residual in cases:
        with pytest.raises(ConvergenceError) as err:
            basis_pursuit(L, y)
        assert err.value.residual == pytest.approx(residual, rel=1e-12)


def test_basis_pursuit_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        L = np.round(rng.uniform(-2, 2, (m, n)), 2)
        alpha_true = np.zeros(n)
        support = rng.choice(n, size=min(m, n), replace=False)
        alpha_true[support] = np.round(rng.uniform(-2, 2, support.size), 2)
        y = L @ alpha_true
        report = rk.vertex_enumerate_l1(L, y)
        if report.value is None:
            with pytest.raises(ConvergenceError) as err:
                basis_pursuit(L, y)
            assert err.value.residual > 1e-9 * (1.0 + float(np.max(np.abs(y))))
            continue
        alpha = basis_pursuit(L, y)
        assert float(np.sum(np.abs(alpha))) == pytest.approx(report.value, abs=1e-9)
        # vertex sparsity against the rank of the matrix
        nnz = int(np.sum(np.abs(alpha) > 1e-10))
        assert nnz <= np.linalg.matrix_rank(L, tol=1e-9)
        residual = float(np.max(np.abs(L @ alpha - y)))
        assert residual <= 1e-9 * (1.0 + float(np.max(np.abs(y))))


def test_basis_pursuit_rank_deficient_and_redundant_rows():
    cases = [
        (np.array([[1.0], [1.0]]), np.array([1.0, 1.0]), 1.0),  # the demo's minimal V
        (np.array([[1.0, 2.0, -1.0], [1.0, 2.0, -1.0], [1.0, 2.0, -1.0]]),
         np.array([4.0, 4.0, 4.0]), 2.0),  # repeated rows, rank 1
        (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0]]),
         np.array([1.0, -2.0, -1.0, 4.0]), 3.0),  # tall, rank 2
        (np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
         np.array([2.0, 3.0, 5.0]), 5.0),  # a repeated column and a dependent row
        (np.zeros((3, 4)), np.zeros(3), 0.0),  # rank 0
    ]
    for L, y, norm in cases:
        alpha = basis_pursuit(L, y)
        _check_vertex(L, y, alpha)
        assert float(np.sum(np.abs(alpha))) == pytest.approx(norm, abs=1e-12)


def test_basis_pursuit_rank_deficient_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(29)
    for _ in range(40):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 12))
        r = int(rng.integers(1, min(m, n) + 1))
        L = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        y = L @ rng.standard_normal(n)
        alpha = basis_pursuit(L, y)
        _check_vertex(L, y, alpha)
        assert np.count_nonzero(alpha) <= r
        ref = linprog(np.ones(2 * n), A_eq=np.hstack([L, -L]), b_eq=y,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        assert float(np.sum(np.abs(alpha))) == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


def test_basis_pursuit_reports_missing_rows(monkeypatch):
    # a row QR that finds one row fewer than the column QR found columns
    real = optim_mod._pivoted_qr
    shapes = []

    def short_rows(a, tol):
        shapes.append(a.shape)
        rank, order = real(a, tol)
        return (rank if len(shapes) == 1 else rank - 1), order

    monkeypatch.setattr(optim_mod, "_pivoted_qr", short_rows)
    with pytest.raises(ConvergenceError, match="1 independent rows for 2"):
        basis_pursuit(np.array([[1.0, 0.5], [1.0, -0.5]]), np.array([1.0, 1.0]))
    assert shapes == [(2, 2), (2, 2)]


def test_basis_pursuit_midpoint_of_perturbed_optima():
    # non-unique instance: objective perturbation exposes two vertices of
    # the split basis-pursuit LP over [alpha+, alpha-]
    L = np.array([[1.0, 1.0]])
    y = np.array([1.0])

    def perturbed(w):
        u, status = revised_simplex(np.hstack([L, -L]), y, np.concatenate([w, w]), 0, 1e-9)
        assert status == OPTIMAL
        return u[:2] - u[2:]

    first = perturbed(np.array([1.0, 1.0 + 1e-6]))
    second = perturbed(np.array([1.0 + 1e-6, 1.0]))
    assert first == pytest.approx([1.0, 0.0], abs=1e-9)
    assert second == pytest.approx([0.0, 1.0], abs=1e-9)
    mid = 0.5 * (first + second)
    assert float(np.max(np.abs(L @ mid - y))) <= 1e-12
    assert float(np.sum(np.abs(mid))) == pytest.approx(1.0, abs=1e-12)


def test_prox_soft_threshold_identity():
    alpha = lasso_solve(np.eye(2), np.array([1.0, 1.0]), 0.5, tol=1e-10)
    assert alpha == pytest.approx([0.5, 0.5], abs=1e-9)


def test_prox_zero_above_lambda_max():
    alpha = lasso_solve(np.eye(2), np.array([1.0, 1.0]), 1.5, tol=1e-10)
    assert alpha == pytest.approx([0.0, 0.0], abs=0.0)


def test_prox_small_lambda_limits_to_least_squares():
    L = np.array([[2.0, 0.3], [-0.4, 1.1]])
    y = np.array([1.0, -0.7])
    tol = 1e-10
    alpha = lasso_solve(L, y, 1e-12, tol=tol)
    assert alpha == pytest.approx(np.linalg.solve(L, y), abs=10 * tol)


def test_prox_output_passes_lambda_certificate():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = 3, 5
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        lam = float(rng.uniform(0.05, 1.0))
        alpha = lasso_solve(L, y, lam, tol=1e-10)
        cert = rk.lambda_certificate(L, alpha, y, lam, tol=1e-9)
        assert cert.verdict
        assert lasso_residual(L, alpha, y, lam) <= 1e-10


def test_lasso_breakpoint_cap_raises_with_residual(monkeypatch):
    monkeypatch.setattr(optim_mod, "_BREAKPOINTS_PER_COLUMN", 0)
    L = np.array([[1.0, 0.5], [0.0, 1.0]])
    y = np.array([1.0, 1.0])  # column 1 is active first, column 0 joins at lambda = 2/3
    with pytest.raises(ConvergenceError, match="breakpoints") as err:
        lasso_solve(L, y, 1e-8, tol=1e-10)
    assert math.isfinite(err.value.residual)


def test_prox_rejects_nonpositive_lambda():
    with pytest.raises(DomainError):
        lasso_solve(np.eye(2), np.array([1.0, 1.0]), 0.0)


def test_lasso_rejects_non_finite_data():
    with pytest.raises(DomainError):
        lasso_solve(np.array([[1.0, math.nan]]), np.array([1.0]), 0.1)
    with pytest.raises(DomainError):
        lasso_solve(np.eye(2), np.array([1.0, math.inf]), 0.1)


def _lasso_by_enumeration(L, y, lam, tol=1e-9):
    """(objective, alpha) of the LASSO from its KKT conditions, by enumeration.

    Some solution has linearly independent support columns, so trying every
    support of size <= rank with every sign pattern, solving
    L_S^T L_S alpha_S = L_S^T y - lam s, and keeping a solution whose signs
    are s and whose correlations all satisfy |L^T (y - L alpha)| <= lam finds
    one.
    """
    m, n = L.shape
    rank = matrix_rank(L, 1e-12)
    for size in range(rank + 1):
        for support in itertools.combinations(range(n), size):
            S = list(support)
            G = L[:, S].T @ L[:, S]
            if size and matrix_rank(L[:, S], 1e-12) < size:
                continue
            for signs in itertools.product((1.0, -1.0), repeat=size):
                s = np.array(signs)
                alpha = np.zeros(n)
                if size:
                    alpha[S] = np.linalg.solve(G, L[:, S].T @ y - lam * s)
                    if np.any(alpha[S] * s <= 0.0):
                        continue
                if np.max(np.abs(L.T @ (y - L @ alpha))) <= lam + tol:
                    misfit = L @ alpha - y
                    return 0.5 * float(misfit @ misfit) + lam * float(np.sum(np.abs(alpha))), alpha
    raise AssertionError("no support passes the KKT check")


def _assert_matches_enumeration(L, y, lam):
    ref_obj, ref = _lasso_by_enumeration(L, y, lam)
    alpha = lasso_solve(L, y, lam, tol=1e-10)
    misfit = L @ alpha - y
    objective = 0.5 * float(misfit @ misfit) + lam * float(np.sum(np.abs(alpha)))
    assert objective == pytest.approx(ref_obj, rel=1e-12, abs=1e-14)
    # the fitted vector and the l1 norm are the same for every solution
    assert L @ alpha == pytest.approx(L @ ref, abs=1e-9)
    assert float(np.sum(np.abs(alpha))) == pytest.approx(float(np.sum(np.abs(ref))), abs=1e-9)
    assert lasso_residual(L, alpha, y, lam) <= 1e-10


def test_lasso_matches_enumeration_on_random_problems():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        lam = float(rng.uniform(0.02, 1.0)) * float(np.max(np.abs(L.T @ y)))
        _assert_matches_enumeration(L, y, lam)


def test_lasso_matches_enumeration_with_duplicate_and_proportional_columns():
    rng = np.random.default_rng(23)
    for _ in range(20):
        base = rng.normal(size=(3, 3))
        # a duplicate, a negated and a scaled copy of the base columns
        L = np.column_stack((base, base[:, 0], -base[:, 1], 2.0 * base[:, 2], 0.5 * base[:, 0]))
        y = rng.normal(size=3)
        for frac in (0.05, 0.3, 0.8):
            _assert_matches_enumeration(L, y, frac * float(np.max(np.abs(L.T @ y))))


_DEGENERATE_TIES = [
    # two columns tie at lambda_max; one must leave the moment the walk starts
    ([[0, -1], [1, -2], [1, -1]], [2, -2, -1]),
    # five columns of a rank-4 L stay equicorrelated over a stretch of lambda
    ([[-2, -1, 1, 0, 0, 2, 2], [-2, -1, -2, 2, 1, -1, 0], [2, 2, 2, 1, 0, 2, 0],
      [0, -2, 1, -2, 2, -1, 0]], [0, -1, -3, 1]),
    # a column tied at lambda_max whose direction is zero up to rounding
    ([[2, -1, 2, 1, -1, 0, 2], [2, 2, -1, 2, 0, 2, 1], [0, -1, 2, 2, -2, -1, -1],
      [1, 1, 2, 1, -2, 1, 0]], [3, 0, -2, 2]),
    # three columns tie at one breakpoint of a rank-3 L
    ([[-2, 1, -2, 1, 2, 2, 2], [2, 2, 2, 2, -1, 2, 1], [-1, 2, 1, 2, 1, 2, 0]], [3, 1, 2]),
]


@pytest.mark.parametrize("L, y", _DEGENERATE_TIES)
def test_lasso_matches_enumeration_through_degenerate_ties(L, y):
    L, y = np.array(L, dtype=float), np.array(y, dtype=float)
    for frac in (0.001, 0.1, 0.5, 0.9):
        _assert_matches_enumeration(L, y, frac * float(np.max(np.abs(L.T @ y))))


def test_lasso_matches_enumeration_on_small_integer_problems():
    rng = np.random.default_rng(41)  # integer entries make ties common
    for _ in range(40):
        m, n = int(rng.integers(2, 4)), int(rng.integers(3, 7))
        L = rng.integers(-2, 3, size=(m, n)).astype(float)
        y = rng.integers(-3, 4, size=m).astype(float)
        lam_max = float(np.max(np.abs(L.T @ y)))
        if lam_max == 0.0:
            continue
        for frac in (0.01, 0.3, 0.7):
            _assert_matches_enumeration(L, y, frac * lam_max)


def test_lasso_single_row():
    rng = np.random.default_rng(29)
    for _ in range(10):
        L = rng.normal(size=(1, 5))
        y = rng.normal(size=1)
        for frac in (1e-6, 0.4, 0.99):
            _assert_matches_enumeration(L, y, frac * float(np.max(np.abs(L.T @ y))))


def test_lasso_identity_tie_moves_both_columns_together():
    # criterion 7: e1, e2 truncated to 8 coordinates, y = [1, 1], lambda_max = 1
    L = np.eye(2, 8)
    y = np.array([1.0, 1.0])
    counts = []
    for lam, value in ((0.5, 0.5), (0.9, 0.1), (1.5, 0.0)):
        alpha = lasso_solve(L, y, lam, tol=1e-12)
        assert alpha[:2] == pytest.approx([value, value], abs=1e-15)
        assert not np.any(alpha[2:])
        counts.append(int(np.count_nonzero(alpha)))
    assert counts == [2, 2, 0]


def test_lasso_at_or_above_lambda_max_returns_exact_zeros():
    rng = np.random.default_rng(31)
    L = rng.normal(size=(3, 6))
    y = rng.normal(size=3)
    lam_max = float(np.max(np.abs(L.T @ y)))
    for lam in (lam_max, 1.5 * lam_max):
        alpha = lasso_solve(L, y, lam)
        assert np.array_equal(alpha, np.zeros(6))


def test_lasso_tiny_lambda_reaches_the_basis_pursuit_norm():
    rng = np.random.default_rng(37)
    for _ in range(10):
        L = rng.normal(size=(3, 7))
        y = rng.normal(size=3)
        alpha = lasso_solve(L, y, 1e-10, tol=1e-10)
        bp = basis_pursuit(L, y, 1e-12)
        assert float(np.sum(np.abs(alpha))) == pytest.approx(float(np.sum(np.abs(bp))), abs=1e-8)
        assert float(np.max(np.abs(L @ alpha - y))) <= 1e-8


def _lasso_enumeration_instances():
    """(L, y) of the test_lasso_matches_enumeration_* tests, drawn from the same seeds."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        L, y = rng.normal(size=(m, n)), rng.normal(size=m)
        rng.uniform(0.02, 1.0)  # that test's lambda draw
        yield L, y
    rng = np.random.default_rng(23)
    for _ in range(20):
        base = rng.normal(size=(3, 3))
        copies = (base[:, 0], -base[:, 1], 2.0 * base[:, 2], 0.5 * base[:, 0])
        yield np.column_stack((base,) + copies), rng.normal(size=3)
    rng = np.random.default_rng(41)
    for _ in range(40):
        m, n = int(rng.integers(2, 4)), int(rng.integers(3, 7))
        L = rng.integers(-2, 3, size=(m, n)).astype(float)
        y = rng.integers(-3, 4, size=m).astype(float)
        if np.any(L.T @ y):
            yield L, y
    for L, y in _DEGENERATE_TIES:
        yield np.array(L, dtype=float), np.array(y, dtype=float)


def _lone_outcome(L, y, lam, tol):
    try:
        return lasso_solve(L, y, lam, tol=tol)
    except ConvergenceError as exc:
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, ConvergenceError):
        assert isinstance(got, ConvergenceError)
        assert (str(got), got.residual) == (str(want), want.residual)
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


def test_lasso_path_matches_lone_solves_on_the_enumeration_instances():
    order = np.random.default_rng(43).permutation(12)
    fracs = np.concatenate(([1.5, 1.0], np.geomspace(0.9, 1e-6, 10)))[order]
    count = 0
    for L, y in _lasso_enumeration_instances():
        lams = fracs * float(np.max(np.abs(L.T @ y)))
        outcomes = lasso_path(L, y, lams, tol=1e-10)
        assert len(outcomes) == lams.size
        for lam, got in zip(lams, outcomes):
            _assert_same_outcome(got, _lone_outcome(L, y, lam, 1e-10))
        count += 1
    assert count == 40 + 20 + 39 + 4  # one integer instance has lambda_max = 0


def test_lasso_path_breakpoint_cap_fails_each_lambda_as_a_lone_call(monkeypatch):
    monkeypatch.setattr(optim_mod, "_BREAKPOINTS_PER_COLUMN", 0)
    L = np.array([[1.0, 0.5], [0.0, 1.0]])
    y = np.array([1.0, 1.0])  # lambda_max = 1.5; column 0 joins at lambda = 2/3
    lams = [1e-8, 2.0, 0.5, 1.0, 0.7, 0.6]
    outcomes = lasso_path(L, y, lams, tol=1e-10)
    assert [isinstance(o, ConvergenceError) for o in outcomes] == [True, False, True, False,
                                                                     False, True]
    for lam, got in zip(lams, outcomes):
        _assert_same_outcome(got, _lone_outcome(L, y, lam, 1e-10))


def test_lasso_path_rejects_nonpositive_lambda():
    for lams in ([0.5, 0.0], [-1.0], [math.nan]):
        with pytest.raises(DomainError):
            lasso_path(np.eye(2), np.array([1.0, 1.0]), lams)
