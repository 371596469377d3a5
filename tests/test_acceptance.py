"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import functools
import math
import time

import numpy as np
import pytest

import rkbs_sparse as rk
from rkbs_sparse.regpath import RegProblem, lambda_max, solution_certificate
from conftest import ACCEPTANCE_SEED, random_seq_instances

SQRT_E = math.sqrt(math.e)


def _criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] {description}: FAIL", flush=True)
                raise
            print(f"[criterion {num}] {description}: PASS", flush=True)
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def batch():
    """The 200 seeded instances shared by criteria 2, 3 and 4."""
    problems = random_seq_instances(200, max_n=4, seed=ACCEPTANCE_SEED)
    t0 = time.perf_counter()
    solved = []
    for problem in problems:
        cert = rk.dual_solve_l1(problem)
        sol = rk.mni_solve_l1(problem)
        solved.append((problem, cert, sol))
    elapsed = time.perf_counter() - t0
    return solved, elapsed


@_criterion(1, "worked example: dual segment, both selections, unique atom")
def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    problem = rk.seq_problem([rk.harmonic(), rk.geometric(-0.5)], [1.0, 1.0])

    cert = rk.dual_solve_l1(problem)
    assert abs(cert.value - 1.0) <= 1e-8
    c = cert.coefficient_vector()
    assert abs(c[0] + c[1] - 1.0) <= 1e-8
    assert -0.5 - 1e-8 <= c[0] <= 1.5 + 1e-8

    vertex = rk.certificate_from_coefficients(problem, [-0.5, 1.5])
    assert vertex.attainment == (1, 2)
    V2 = rk.truncation_matrix(problem.functionals, vertex.attainment)
    assert np.max(np.abs(V2.array - np.array([[1.0, 0.5], [1.0, -0.5]]))) <= 1e-15
    assert V2.rank == 2

    alt = rk.certificate_from_coefficients(problem, [0.0, 1.0])
    assert alt.attainment == (1,)
    V1 = rk.truncation_matrix(problem.functionals, alt.attainment)
    assert np.max(np.abs(V1.array - np.array([[1.0], [1.0]]))) <= 1e-15
    assert V1.rank == 1

    sol = rk.mni_solve_l1(problem)
    assert len(sol.atoms) == 1
    assert sol.atoms[0][0] == 1.0
    assert abs(sol.atoms[0][1] - 1.0) <= 1e-8

    assert time.perf_counter() - t0 < 1.0


@_criterion(2, "strong duality and interpolation on 200 seeded instances")
def test_criterion_2_strong_duality(batch):
    solved, elapsed = batch
    assert len(solved) == 200
    for problem, cert, sol in solved:
        assert abs(sol.norm - cert.value) <= 1e-8
        y_scale = 1.0 + float(np.max(np.abs(problem.y_vector())))
        assert sol.residual <= 1e-8 * y_scale
    assert elapsed < 30.0


@_criterion(3, "rank-sparsity bound on the same 200 instances")
def test_criterion_3_rank_sparsity(batch):
    solved, _ = batch
    violations = 0
    for problem, cert, sol in solved:
        V = rk.truncation_matrix(problem.functionals, cert.attainment)
        if not (len(sol.atoms) <= V.rank <= problem.n):
            violations += 1
    assert violations == 0


@_criterion(4, "the MNI norm equals vertex enumeration on small instances")
def test_criterion_4_oracle_equivalence(batch):
    solved, _ = batch
    checked = 0
    for problem, cert, sol in solved:
        if problem.n > 3 or len(cert.attainment) > 6:
            continue
        V = rk.truncation_matrix(problem.functionals, cert.attainment)
        report = rk.vertex_enumerate_l1(V.array, problem.y_vector())
        assert report.value is not None
        assert abs(sol.norm - report.value) <= 1e-9
        checked += 1
    assert checked > 0


@_criterion(5, "l2 contrast: oracle match, dense support, independent tails")
def test_criterion_5_lp_contrast():
    problem = rk.seq_problem([rk.harmonic(), rk.geometric(-0.5)], [1.0, 1.0])
    truncation = 1 << 14
    sol = rk.mni_solve_lp(problem, 2.0, truncation=truncation)
    oracle = rk.l2_min_norm(problem, truncation)
    gap = float(np.max(np.abs(sol.coordinates(50)
                              - oracle.witness["coordinates"][:50])))
    assert gap <= 1e-6

    coords = sol.coordinates(100)
    assert int(np.sum(np.abs(coords) > 1e-12)) >= 99

    for after in (5, 10, 20):
        assert rk.support_dependency_check(problem.functionals, after) \
            == "independent"


@_criterion(6, "Gaussian measure space: borderline and separated pairs")
def test_criterion_6_gaussian():
    t0 = time.perf_counter()
    p1 = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    m1 = rk.mni_solve_measure(p1)
    assert len(m1.atoms) == 1
    loc, w = m1.atoms[0]
    assert abs(loc) <= 1e-6
    assert abs(w - SQRT_E) <= 1e-6
    assert abs(m1.tv_norm - SQRT_E) <= 1e-6
    assert m1.residual <= 1e-6
    assert m1.certificate.exchange_iters <= 100
    assert time.perf_counter() - t0 < 5.0

    t0 = time.perf_counter()
    p2 = rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0])
    m2 = rk.mni_solve_measure(p2)
    assert len(m2.atoms) == 2
    assert m2.residual <= 1e-6
    assert m2.certificate.exchange_iters <= 100
    assert time.perf_counter() - t0 < 5.0


@_criterion(7, "lambda conditions: certificates, lambda_max, path counts")
def test_criterion_7_lambda_conditions():
    base = rk.seq_problem([rk.finite([1.0]), rk.finite([0.0, 1.0])],
                          [1.0, 1.0])
    rows = rk.sparsity_path(base, [0.5, 0.9, 1.5])
    assert [r.atom_count for r in rows] == [2, 2, 0]
    norms = [r.l1_norm for r in rows]
    assert abs(norms[0] - 1.0) <= 1e-8
    assert abs(norms[1] - 0.2) <= 1e-8
    assert norms[2] == 0.0

    # every reg_solve output passes the certificate at 1e-7
    for lam in (0.5, 0.9, 1.5):
        reg = RegProblem(base=base, lam=lam)
        sol = rk.reg_solve(reg)
        assert solution_certificate(reg, sol, tol=1e-7).verdict
    for problem in random_seq_instances(20, seed=ACCEPTANCE_SEED + 7):
        V = problem.coordinate_matrix(problem.options.truncation_start)
        lmax = lambda_max(V, problem.y_vector())
        for frac in (0.2, 0.7):
            reg = RegProblem(base=problem, lam=frac * lmax)
            sol = rk.reg_solve(reg)
            assert solution_certificate(reg, sol, tol=1e-7).verdict
        # at and above lambda_max the solution is exactly zero
        sol = rk.reg_solve(RegProblem(base=problem, lam=lmax * 1.0001))
        assert sol.atoms == ()
        assert sol.norm == 0.0


@_criterion(8, "regularization-MNI consistency on 50 seeded instances")
def test_criterion_8_reg_mni_consistency():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 8)
    problems = random_seq_instances(120, max_n=3, seed=ACCEPTANCE_SEED + 8)
    checked = 0
    for problem in problems:
        if checked >= 50:
            break
        V = problem.coordinate_matrix(problem.options.truncation_start)
        lmax = lambda_max(V, problem.y_vector())
        lam = float(rng.uniform(0.05, 0.8)) * lmax
        if lam <= 0:
            continue
        report = rk.reg_mni_consistency(RegProblem(base=problem, lam=lam),
                                        tol=1e-7)
        if report.zero_regime:
            continue
        assert report.mni_norm <= report.reg_norm + 1e-7
        assert abs(report.objective_change) <= 1e-7
        checked += 1
    assert checked == 50
