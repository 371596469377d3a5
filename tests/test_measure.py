import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rkbs_sparse as rk
from rkbs_sparse.core import DomainError
from rkbs_sparse.measure import (dual_solve_semiinfinite,
                                 find_attainment_points, gauss_eval,
                                 gauss_eval_deriv, kernel_matrix,
                                 mni_solve_measure)

SQRT_E = math.sqrt(math.e)


def test_gauss_eval_at_center():
    p = rk.gauss_problem([0.0], 1.0, [1.0])
    assert gauss_eval([1.0], p, 0.0) == 1.0


def test_gauss_eval_two_centers():
    p = rk.gauss_problem([-0.5, 0.5], 1.0, [1.0, 1.0])
    assert gauss_eval([1.0, 1.0], p, 0.0) == pytest.approx(2.0 * math.exp(-0.125))


def test_gauss_eval_antisymmetric():
    p = rk.gauss_problem([-0.7, 0.7], 1.0, [1.0, 1.0])
    assert gauss_eval([1.0, -1.0], p, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_gauss_eval_derivative_matches_finite_differences():
    p = rk.gauss_problem([-1.0, 0.3], 1.0, [1.0, 1.0])
    c = [0.7, -0.4]
    h = 1e-6
    for x in (-1.5, 0.0, 0.9):
        fd = (gauss_eval(c, p, x + h) - gauss_eval(c, p, x - h)) / (2 * h)
        assert gauss_eval_deriv(c, p, x) == pytest.approx(fd, abs=1e-8)


def test_attainment_single_center():
    p = rk.gauss_problem([0.0], 1.0, [1.0])
    points = find_attainment_points([1.0], p)
    assert len(points) == 1
    assert abs(points[0]) <= 1e-9


def test_attainment_close_centers_unimodal():
    p = rk.gauss_problem([-0.5, 0.5], 1.0, [1.0, 1.0])
    points = find_attainment_points([1.0, 1.0], p)
    assert len(points) == 1
    assert abs(points[0]) <= 1e-9


def test_attainment_far_centers_bimodal():
    p = rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0])
    points = find_attainment_points([1.0, 1.0], p)
    assert len(points) == 2
    assert abs(points[0] + 2.0) <= 0.05
    assert abs(points[1] - 2.0) <= 0.05
    # stationarity at each reported point
    for t in points:
        assert abs(gauss_eval_deriv([1.0, 1.0], p, t)) <= 1e-6


def test_attainment_borderline_separation_collapses_to_one_point():
    # separation exactly twice the bandwidth: the maximum is quartically flat
    p = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    points = find_attainment_points([1.0, 1.0], p)
    assert len(points) == 1
    assert abs(points[0]) <= 1e-6


def test_attainment_respects_grid_supremum_bound():
    p = rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0])
    step = 1e-3
    scan = rk.grid_supremum([1.0, 1.0], p, step)
    refined = find_attainment_points([1.0, 1.0], p)
    best = max(abs(gauss_eval([1.0, 1.0], p, t)) for t in refined)
    assert best >= scan.value - 1e-6
    assert abs(best - scan.value) <= scan.witness["error_bound"] + 1e-12


def test_attainment_boundary_guard():
    # a scan too coarse to certify an interior supremum must refuse
    p = rk.gauss_problem([0.0], 1.0, [1.0], domain=(-5.0, 5.0))
    with pytest.raises(DomainError):
        find_attainment_points([1.0], p, grid_step=6.0)


def test_dual_single_center():
    p = rk.gauss_problem([0.0], 1.0, [1.0])
    cert = dual_solve_semiinfinite(p)
    assert cert.value == pytest.approx(1.0, abs=1e-9)
    assert cert.coefficients == pytest.approx([1.0], abs=1e-9)
    assert len(cert.attain_points) == 1
    assert abs(cert.attain_points[0]) <= 1e-8


def test_dual_borderline_pair_value_sqrt_e():
    p = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    cert = dual_solve_semiinfinite(p)
    assert cert.value == pytest.approx(SQRT_E, abs=1e-6)
    c = cert.coefficient_vector()
    # the exchange endgame leaves a small asymmetry on this quartically
    # flat instance; the stationarity polish in the full pipeline removes it
    assert c[0] == pytest.approx(c[1], abs=1e-4)
    assert cert.exchange_iters <= 100
    assert cert.final_violation <= 1e-7
    assert cert.refinement_stable


def test_dual_far_pair_two_attainment_points():
    p = rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0])
    cert = dual_solve_semiinfinite(p)
    assert len(cert.attain_points) == 2
    # dual feasibility on a fine grid
    scan = rk.grid_supremum(cert.coefficients, p, 1e-3)
    assert scan.value <= 1.0 + 2e-7


def test_dual_rejects_zero_y():
    with pytest.raises(DomainError):
        dual_solve_semiinfinite(rk.gauss_problem([0.0], 1.0, [0.0]))


def test_kernel_matrix_values():
    p = rk.gauss_problem([0.0], 1.0, [1.0])
    V = kernel_matrix(p, [0.0])
    assert V.array == pytest.approx(np.array([[1.0]]))
    p2 = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    V2 = kernel_matrix(p2, [0.0])
    assert V2.array == pytest.approx(np.full((2, 1), math.exp(-0.5)))
    assert V2.rank == 1
    p3 = rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0])
    V3 = kernel_matrix(p3, [-1.9986, 1.9986])
    assert V3.rank == 2
    assert V3.array[0, 0] > V3.array[0, 1]


def test_kernel_matrix_rejects_duplicates():
    p = rk.gauss_problem([0.0], 1.0, [1.0])
    with pytest.raises(DomainError):
        kernel_matrix(p, [0.0, 0.0])


def test_mni_single_center():
    sol = mni_solve_measure(rk.gauss_problem([0.0], 1.0, [1.0]))
    assert len(sol.atoms) == 1
    loc, w = sol.atoms[0]
    assert abs(loc) <= 1e-9
    assert w == pytest.approx(1.0, abs=1e-9)
    assert sol.tv_norm == pytest.approx(1.0, abs=1e-9)


def test_mni_borderline_pair_single_midpoint_atom():
    p = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    sol = mni_solve_measure(p)
    assert len(sol.atoms) == 1
    loc, w = sol.atoms[0]
    assert abs(loc) <= 1e-6
    assert w == pytest.approx(SQRT_E, abs=1e-6)
    assert sol.tv_norm == pytest.approx(SQRT_E, abs=1e-6)
    # the single kernel session reproduces both measurements
    assert SQRT_E * math.exp(-0.5) == pytest.approx(1.0, abs=1e-12)
    assert sol.residual <= 1e-6


def test_mni_far_pair_two_symmetric_atoms():
    p = rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0])
    sol = mni_solve_measure(p)
    assert len(sol.atoms) == 2
    (l1, w1), (l2, w2) = sol.atoms
    assert l1 == pytest.approx(-l2, abs=1e-6)
    assert w1 == pytest.approx(w2, abs=1e-6)
    assert sol.residual <= 1e-6


def test_mni_measure_invariants_on_asymmetric_instance():
    p = rk.gauss_problem([-0.4, 0.9, 2.5], 1.0, [1.0, -0.5, 0.75])
    sol = mni_solve_measure(p)
    cert = sol.certificate
    # strong duality
    assert abs(sol.tv_norm - cert.value) <= 1e-6
    # attainment count bounds the sparsity
    assert len(sol.atoms) <= sol.rank_bound <= p.n
    # interpolation
    assert sol.residual <= 1e-6 * (1.0 + 1.0)
    # certified sup norm of the unit combination
    scan = rk.grid_supremum(cert.coefficients, p, 1e-3)
    assert abs(scan.value - 1.0) <= 1e-6 + scan.witness["error_bound"]
    # sign consistency: each atom weight matches the sign of the dual
    c = cert.coefficient_vector()
    for loc, w in sol.atoms:
        assert np.sign(w) == np.sign(gauss_eval(c, p, loc))
    # norming pairing
    pairing = rk.norming_check_measure(cert, sol, p, tol=1e-6)
    assert pairing.agreement
    # the represented function interpolates through eval too
    for x, yv in zip(p.centers, p.y):
        assert sol.eval(x) == pytest.approx(yv, abs=1e-6)


def test_mni_negative_data_flips_signs():
    sol = mni_solve_measure(rk.gauss_problem([0.0], 1.0, [-1.0]))
    assert len(sol.atoms) == 1
    loc, w = sol.atoms[0]
    assert abs(loc) <= 1e-9
    assert w == pytest.approx(-1.0, abs=1e-9)
    assert sol.tv_norm == pytest.approx(1.0, abs=1e-9)
    assert sol.certificate.value == pytest.approx(1.0, abs=1e-9)


def test_mni_far_pair_survives_polish_fallback(monkeypatch):
    # separated maxima are well conditioned, so the unpolished pipeline
    # must already deliver the two atoms if the polish is unavailable
    import rkbs_sparse.measure as measure_mod
    monkeypatch.setattr(measure_mod, "_polish", lambda *a, **k: None)
    sol = measure_mod.mni_solve_measure(
        rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0]))
    assert len(sol.atoms) == 2
    assert sol.residual <= 1e-6


def test_mni_measure_strong_duality_batch():
    rng = np.random.default_rng(17)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        centers = np.sort(rng.uniform(-2.5, 2.5, n))
        while n > 1 and np.min(np.diff(centers)) < 0.3:
            centers = np.sort(rng.uniform(-2.5, 2.5, n))
        y = np.round(rng.uniform(-1.5, 1.5, n), 3)
        if float(np.max(np.abs(y))) < 0.2:
            y[0] = 1.0
        p = rk.gauss_problem(centers, 1.0, y)
        sol = mni_solve_measure(p)
        assert abs(sol.tv_norm - sol.certificate.value) <= 1e-6
        assert len(sol.atoms) <= sol.rank_bound <= p.n
        assert sol.residual <= 1e-6 * (1.0 + float(np.max(np.abs(y))))


_DENSIFY_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import rkbs_sparse as rk
from rkbs_sparse.core import ConvergenceError
problem = rk.gauss_problem([0.214, 4.176], 1.0, [-0.859, 0.357])
try:
    rk.mni_solve_measure(problem)
    print("certified")
except ConvergenceError as exc:
    print("ConvergenceError", exc.residual)
"""


def test_exchange_densify_is_bounded():
    # the exchange LP leaves a violation at a point already in the working
    # set, so only densifying the scan grid is left; it must stop at a
    # bounded grid with a typed error instead of exhausting memory
    src = os.path.dirname(os.path.dirname(os.path.abspath(rk.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _DENSIFY_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    verdict = done.stdout.split()
    assert verdict[0] in ("certified", "ConvergenceError")
    if verdict[0] == "ConvergenceError":
        assert 0.0 < float(verdict[1]) < 1e-3
