import json
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


def test_mirror_atom_pair_merges_into_one_atom():
    from rkbs_sparse.measure import _merge_atoms
    problem = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    sites, w, order = _merge_atoms(problem, np.array([2e-6, 0.5, -2e-6]),
                                   np.array([0.75, -0.2, 0.5]))
    assert sites.tolist() == [-2e-6, 0.5]
    assert w.tolist() == [1.25, -0.2]
    assert order.tolist() == [2, 0, 1]


def test_polish_folds_a_mirror_pair_into_the_midpoint_atom():
    # centers +-1 and y = 1 have one optimal atom at 0 of weight sqrt(e)
    from rkbs_sparse.measure import _polish
    problem = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    c0 = np.full(2, 1.01 * math.sqrt(math.e) / 2.0)
    c, sites, w = _polish(problem, c0, np.array([-1e-7, 1e-7]),
                          np.array([0.8, 0.85]))
    assert sites.shape == (1,)
    assert abs(sites[0]) <= 1e-12
    assert w[0] == pytest.approx(math.sqrt(math.e), rel=1e-12)
    assert c == pytest.approx(np.full(2, math.sqrt(math.e) / 2.0), rel=1e-12)


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
    # an instance whose tableau-solved exchange LPs left a violation at a
    # point already in the working set, so only densifying the scan grid
    # was left; it must end certified or in a typed error, within the
    # memory and time bounds (the cap itself: the stalled-scan test below)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rk.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _DENSIFY_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    verdict = done.stdout.split()
    assert verdict[0] in ("certified", "ConvergenceError")
    if verdict[0] == "ConvergenceError":
        assert 0.0 < float(verdict[1]) < 1e-3


def test_exchange_densify_stops_at_the_scan_cap(monkeypatch):
    # a stall: every scan reports a violation between grid knots but no new
    # point, so only densifying is left, up to _MAX_SCAN_POINTS and no further
    import rkbs_sparse.measure as measure_mod
    p = rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0])
    lo, hi = p.domain
    steps = []

    def stalled(c, problem, step, keep_above, scan):
        assert np.array_equal(scan[0], measure_mod._grid(problem, step))  # the densified grid
        steps.append(step)
        return 1.0 + 1e-3, []

    monkeypatch.setattr(measure_mod, "_scan_maxima", stalled)
    with pytest.raises(rk.ConvergenceError) as err:
        measure_mod.dual_solve_semiinfinite(p)
    assert err.value.residual == pytest.approx(1e-3)
    assert len(steps) < p.options.max_exchange_iters
    assert max((hi - lo) / s + 1.0 for s in steps) <= measure_mod._MAX_SCAN_POINTS
    assert (hi - lo) / (steps[-1] / 2.0) + 1.0 > measure_mod._MAX_SCAN_POINTS


_FAMILY_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
import rkbs_sparse as rk
index = int(sys.argv[1])
rng = np.random.default_rng([20240607, index])
n = (8, 12, 16)[index % 3]
centers = np.sort(np.linspace(-8.0, 8.0, n) + rng.uniform(-0.1, 0.1, n))
y = rng.uniform(-1.0, 1.0, n)
problem = rk.gauss_problem(centers, 1.0, y)
sol = rk.mni_solve_measure(problem)
print(rk.grid_supremum(sol.certificate.coefficients, problem, 1e-3).value)
"""


@pytest.mark.parametrize("index", [66, 344, 431])
def test_exchange_certifies_jittered_linspace_entries(index):
    # entries of the jittered-linspace family (centers linspace(-8, 8, n)
    # plus U(+-0.1), y ~ U(-1, 1)) whose cold-started dual LPs once ended in
    # a stalled exchange or ran for minutes
    src = os.path.dirname(os.path.dirname(os.path.abspath(rk.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FAMILY_CHILD, str(index)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    assert float(done.stdout.split()[-1]) <= 1.0 + 2e-7


def _plateau_midpoint_reference(c, problem, t_hat):
    """One seed at a time: double out to each plateau edge, then bisect."""
    lo, hi = problem.domain
    base = abs(gauss_eval(c, problem, t_hat))
    if base == 0.0:
        return t_hat
    theta = base * (1.0 - 1e-12)
    edges = []
    for direction in (-1.0, 1.0):
        h, t_in, t_out = problem.sigma * 1e-7, t_hat, None
        while h <= problem.sigma:
            t_try = t_hat + direction * h
            if t_try <= lo or t_try >= hi:
                break
            if abs(gauss_eval(c, problem, t_try)) < theta:
                t_out = t_try
                break
            t_in, h = t_try, 2.0 * h
        if t_out is None:
            return t_hat
        for _ in range(80):
            mid = 0.5 * (t_in + t_out)
            if abs(gauss_eval(c, problem, mid)) >= theta:
                t_in = mid
            else:
                t_out = mid
            if abs(t_out - t_in) <= problem.sigma * 1e-13:
                break
        edges.append(0.5 * (t_in + t_out))
    mid = 0.5 * (edges[0] + edges[1])
    return mid if abs(gauss_eval(c, problem, mid)) >= base else t_hat


def _family_problem(index):
    # entry ``index`` of the jittered-linspace family used above
    rng = np.random.default_rng([20240607, index])
    n = (8, 12, 16)[index % 3]
    centers = np.sort(np.linspace(-8.0, 8.0, n) + rng.uniform(-0.1, 0.1, n))
    return rk.gauss_problem(centers, 1.0, rng.uniform(-1.0, 1.0, n))


@pytest.mark.parametrize("index", [0, 4, 8])
def test_plateau_search_matches_scalar_reference(monkeypatch, index):
    # the plateau search on the refined maxima of every scan of a full
    # solve, exchange rounds included, seed by seed against the
    # doubling-plus-bisection reference
    import rkbs_sparse.measure as measure_mod
    problem = _family_problem(index)
    scanned = []
    scan = measure_mod._scan_maxima

    def recording(c, problem, *args, **kwargs):
        sup, refined = scan(c, problem, *args, **kwargs)
        scanned.append((np.array(c), list(refined)))
        return sup, refined

    monkeypatch.setattr(measure_mod, "_scan_maxima", recording)
    mni_solve_measure(problem)
    batched = measure_mod._plateau_midpoints
    searched = [(c, ts, batched(c, problem, ts)) for c, ts in scanned]
    assert sum(len(ts) for _, ts, _ in searched) >= 50
    eps = np.finfo(float).eps
    for c, ts, out in searched:
        assert len(out) == len(ts)
        for t_hat, t in zip(ts, out):
            ref = _plateau_midpoint_reference(c, problem, t_hat)
            g_ref = abs(gauss_eval(c, problem, ref))
            # rounding of g, eps * sum |c_j K_j|, blurs each plateau edge
            # by that over the slope of |g| at the level, sqrt(2e-12 g g'')
            # near a quadratic maximum: the two searches sample different
            # points of that band
            noise = eps * float(measure_mod._kernel(problem, ref) @ np.abs(c))
            curv = abs(float(measure_mod._kernel_dtt(problem, ref) @ c))
            band = noise / math.sqrt(2e-12 * g_ref * curv)
            assert abs(t - ref) <= problem.sigma * 1e-12 + 2.0 * band
            assert abs(gauss_eval(c, problem, t)) >= g_ref - 4.0 * noise
        # a seed a quarter sigma down a slope has steep plateau edges, so
        # both searches must agree to the bisection tolerance
        slopes = np.r_[np.asarray(ts) - 0.25, np.asarray(ts) + 0.25]
        for t_hat, t in zip(slopes, batched(c, problem, slopes)):
            ref = _plateau_midpoint_reference(c, problem, float(t_hat))
            assert t != t_hat
            assert abs(t - ref) <= problem.sigma * 1e-12


def test_plateau_search_runs_once_per_attainment_scan(monkeypatch):
    # the exchange rounds test and add their violators at the Newton
    # points, so a solve searches plateaus only in its three attainment
    # scans (the certificate's two and the one after the polish), however
    # many exchange rounds it runs
    import rkbs_sparse.measure as measure_mod
    scans, searches, iters = [], [], set()
    attainment, plateau = measure_mod.find_attainment_points, measure_mod._plateau_midpoints

    def scanning(*args, **kwargs):
        scans.append(1)
        return attainment(*args, **kwargs)

    def searching(*args):
        searches.append(1)
        return plateau(*args)

    monkeypatch.setattr(measure_mod, "find_attainment_points", scanning)
    monkeypatch.setattr(measure_mod, "_plateau_midpoints", searching)
    for index in range(6):
        scans.clear()
        searches.clear()
        sol = mni_solve_measure(_family_problem(index))
        iters.add(sol.certificate.exchange_iters)
        assert len(scans) == 3
        assert len(searches) == 3
    assert len(iters) > 1


def test_plateau_search_keeps_seed_where_g_vanishes():
    from rkbs_sparse.measure import _plateau_midpoints
    p = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    c = np.array([1.0, -1.0])  # odd combination: g(0) = 0 exactly
    alone = _plateau_midpoints(c, p, [-1.2])[0]
    assert alone != -1.2
    together = _plateau_midpoints(c, p, [0.0, -1.2])
    assert together[0] == 0.0
    assert together[1] == pytest.approx(alone, abs=1e-12)


def test_plateau_search_keeps_seed_whose_plateau_reaches_the_domain_edge():
    from rkbs_sparse.measure import _plateau_midpoints
    # g = K(0, .) - e^5.4 K(1, .) vanishes at -4.9, and |g| rises from there
    # toward t = -5, so left of the seed it stays above |g(seed)| out to
    # the domain edge at -5 (and beyond, to a maximum near -5.1)
    c = np.array([1.0, -math.exp(5.4)])
    seed = -4.99
    narrow = rk.gauss_problem([0.0, 1.0], 1.0, [1.0, 1.0])
    assert narrow.domain[0] == -5.0
    assert _plateau_midpoints(c, narrow, [seed]) == [seed]
    wide = rk.gauss_problem([0.0, 1.0], 1.0, [1.0, 1.0], domain=(-7.0, 6.0))
    moved = _plateau_midpoints(c, wide, [seed])[0]
    assert moved < seed - 0.05
    assert abs(gauss_eval(c, wide, moved)) > abs(gauss_eval(c, wide, seed))


def _refine_maximum_reference(c, problem, t0, step, s):
    """One seed at a time: safeguarded Newton on g' with a bisection fallback."""
    import rkbs_sparse.measure as measure_mod
    lo, hi = problem.domain

    def d1(t):
        return s * gauss_eval_deriv(c, problem, t)

    a = max(lo, t0 - step)
    b = min(hi, t0 + step)
    t = t0
    for _ in range(100):
        g1 = d1(t)
        if abs(g1) <= measure_mod._DERIV_TOL:
            break
        g2 = s * float(measure_mod._kernel_dtt(problem, t) @ c)
        t_new = t - g1 / g2 if g2 < 0 else math.nan
        if not (a < t_new < b):
            # bisection fallback keeps the bracket around the sign change
            if d1(a) > 0 > d1(b):
                t_new = 0.5 * (a + b)
                if d1(t_new) > 0:
                    a = t_new
                else:
                    b = t_new
                t = 0.5 * (a + b)
                continue
            break
        t = t_new
    return t


def _refinement_bound(c, problem, ref):
    # both stop once |g'| <= _DERIV_TOL, which pins t to that over |g''|;
    # sums in another order move g' in its last bits
    import rkbs_sparse.measure as measure_mod
    curv = abs(float(measure_mod._kernel_dtt(problem, ref) @ c))
    return 2.0 * measure_mod._DERIV_TOL / curv + problem.sigma * 1e-13


@pytest.mark.parametrize("index", [0, 4, 8])
def test_refinement_matches_scalar_reference(monkeypatch, index):
    # every seed of every scan of a full solve against the scalar loop
    import rkbs_sparse.measure as measure_mod
    problem = _family_problem(index)
    refined = []
    batched = measure_mod._refine_maxima

    def recording(c, problem, t0, step, s):
        out = batched(c, problem, t0, step, s)
        refined.append((np.array(c), np.array(t0), step, np.array(s), out))
        return out

    monkeypatch.setattr(measure_mod, "_refine_maxima", recording)
    mni_solve_measure(problem)
    assert sum(t0.size for _, t0, _, _, _ in refined) >= 50
    for c, t0, step, s, out in refined:
        assert out.shape == t0.shape
        for t_seed, sign, t in zip(t0, s, out):
            ref = _refine_maximum_reference(c, problem, float(t_seed), step, float(sign))
            assert abs(t - ref) <= _refinement_bound(c, problem, ref)


def test_refinement_branches_match_scalar_reference():
    from rkbs_sparse.measure import _refine_maxima
    # g = K(-6, .) - K(6, .): a maximum of g at -6 and of -g at 6
    p = rk.gauss_problem([-6.0, 6.0], 1.0, [1.0, -1.0])
    c = np.array([1.0, -1.0])
    t0 = np.array([
        -6.0,  # already stationary: |g'| is about 1e-30
        6.9,   # Newton lands near 2.2, outside [5.9, 7.9]: bisect toward 6
        -3.0,  # g'' > 0, and g' < 0 at both ends of [-4, -2]: stop
    ])
    s = np.array([1.0, -1.0, 1.0])
    refs = [_refine_maximum_reference(c, p, t, 1.0, sign) for t, sign in zip(t0, s)]
    assert refs[0] == -6.0
    assert abs(refs[1] - 6.0) < 1e-9
    assert refs[2] == -3.0
    together = _refine_maxima(c, p, t0, 1.0, s)
    assert together.shape == (3,)
    for i, ref in enumerate(refs):
        alone = _refine_maxima(c, p, t0[i:i + 1], 1.0, s[i:i + 1])
        assert alone[0] == together[i]
        assert abs(together[i] - ref) <= _refinement_bound(c, p, ref)


def test_certificate_names_the_first_non_stationary_point(monkeypatch):
    import rkbs_sparse.measure as measure_mod
    # g = K(-2, .) + K(2, .) is stationary at 0 and not at +-1
    p = rk.gauss_problem([-2.0, 2.0], 1.0, [1.0, 1.0])
    monkeypatch.setattr(measure_mod, "find_attainment_points",
                        lambda c, problem, grid_step=None: [0.0, 1.0, -1.0])
    with pytest.raises(rk.ConvergenceError, match="attainment point 1 is not stationary") as err:
        measure_mod._certificate(p, np.ones(2), 3, 2.5e-8)
    assert err.value.residual == 2.5e-8


def test_merge_collapses_plateau_twins_into_one_point():
    from rkbs_sparse.measure import _merge_points
    # separation twice the bandwidth: |g| is quartically flat around 0, so
    # points 1e-4 apart never see it dip and merge into one; which of them
    # is kept depends on the rounding of |g| there
    p = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    c = np.full(2, SQRT_E / 2.0)
    merged = _merge_points(c, p, [3e-4, -2e-4, 1e-4, 1e-4 + 1e-8])
    assert len(merged) == 1
    assert -2e-4 <= merged[0] <= 3e-4
    far = rk.gauss_problem([-3.0, 3.0], 1.0, [1.0, 1.0])
    assert _merge_points(np.ones(2), far, [3.0, -3.0]) == [-3.0, 3.0]


def test_scan_kernel_calls_do_not_grow_with_seeds(monkeypatch):
    # one grid evaluation plus a fixed number of batched plateau stages,
    # however many local maxima the scan refines and the plateau search
    # then moves, as in an attainment scan
    import rkbs_sparse.measure as measure_mod
    calls = []
    evaluate = measure_mod.gauss_eval

    def counting(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(measure_mod, "gauss_eval", counting)
    counts = {}
    for n in (3, 31):
        centers = np.linspace(-3.0 * (n - 1), 3.0 * (n - 1), n)
        p = rk.gauss_problem(centers, 1.0, np.ones(n))
        c = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        calls.clear()
        _, refined = measure_mod._scan_maxima(c, p, p.grid_step(), keep_above=0.5)
        refined = measure_mod._plateau_midpoints(c, p, refined)
        assert len(refined) == n
        counts[n] = len(calls)
    assert counts[31] <= counts[3] + 2
    assert counts[31] <= 18


def test_scan_refinement_kernel_calls_do_not_grow_with_seeds(monkeypatch):
    # the Newton refinement of a scan shares its derivative kernel calls
    # among all seeds, on the instances of the test above
    import rkbs_sparse.measure as measure_mod
    calls = []
    for name in ("_kernel_dt", "_kernel_dtt"):
        def counting(*args, kernel=getattr(measure_mod, name)):
            calls.append(1)
            return kernel(*args)
        monkeypatch.setattr(measure_mod, name, counting)
    counts = {}
    for n in (3, 31):
        centers = np.linspace(-3.0 * (n - 1), 3.0 * (n - 1), n)
        p = rk.gauss_problem(centers, 1.0, np.ones(n))
        c = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        calls.clear()
        _, refined = measure_mod._scan_maxima(c, p, p.grid_step(), keep_above=0.5)
        assert len(refined) == n
        counts[n] = len(calls)
    assert 0 < counts[31] <= counts[3]


def test_attainment_scan_evaluates_its_grid_once(monkeypatch):
    # an attainment scan builds the kernel rows of its grid once: the
    # boundary check, the grid supremum and the local maxima all read them.
    # A dual solve builds its exchange grid once for all its rounds, and
    # each of the certificate's two attainment scans, at that step and at
    # half of it, builds its own
    import rkbs_sparse.measure as measure_mod
    shapes = []
    kernel = measure_mod._kernel

    def recording(problem, t):
        shapes.append(np.shape(t))
        return kernel(problem, t)

    monkeypatch.setattr(measure_mod, "_kernel", recording)
    p = rk.gauss_problem([-1.0, 0.0, 1.5], 1.0, [1.0, -0.5, 0.8])
    c = np.array([1.0, -0.6, 0.9])
    for step in (p.grid_step(), p.grid_step() / 2.0):
        shapes.clear()
        assert measure_mod.find_attainment_points(c, p, grid_step=step)
        assert shapes.count(measure_mod._grid(p, step).shape) == 1
    problem = _family_problem(1)
    shapes.clear()
    cert = dual_solve_semiinfinite(problem)
    assert cert.exchange_iters > 2
    step = problem.grid_step()
    assert shapes.count(measure_mod._grid(problem, step).shape) == 2
    assert shapes.count(measure_mod._grid(problem, step / 2.0).shape) == 1


def _count_reruns(monkeypatch):
    """A counter of the column-simplex calls that factor their start basis
    twice: those that drop the update path and rerun from the crash."""
    import rkbs_sparse.measure as measure_mod
    import rkbs_sparse.optim as optim_mod
    calls = []
    simplex, factor = optim_mod.l1_column_simplex, optim_mod._factor

    def simplex_spy(*args, **kwargs):
        calls.append([])
        return simplex(*args, **kwargs)

    def factor_spy(V_B, signs, y):
        calls[-1].append((V_B.tobytes(), None if signs is None else np.asarray(signs).tobytes()))
        return factor(V_B, signs, y)

    for module in (optim_mod, measure_mod):
        monkeypatch.setattr(module, "l1_column_simplex", simplex_spy)
    monkeypatch.setattr(optim_mod, "_factor", factor_spy)
    return lambda: sum(bases[0] in bases[1:] for bases in calls)


def test_exchange_rerun_keeps_entry_263(monkeypatch):
    # on its updated prices one column simplex of this entry's exchange
    # cycles back to a basis it left; that drops the update path at once
    # (a key per update pivot: without the revisit test the cycle would
    # run to the attempt cap), and the rerun, refactoring every
    # basis, ends where the exact path always did
    import rkbs_sparse.optim as optim_mod
    reruns = _count_reruns(monkeypatch)
    keys, key = [], optim_mod._basis_key
    monkeypatch.setattr(optim_mod, "_basis_key",
                        lambda cols, signs: keys.append(1) or key(cols, signs))
    sol = mni_solve_measure(_family_problem(263))
    assert reruns() == 1
    assert len(keys) < 400
    assert sol.certificate.exchange_iters == 17
    assert len(sol.atoms) == 13
    assert sol.tv_norm == pytest.approx(21.739520063801635, rel=1e-12)


def test_reg_gaussian_rerun_matches_the_exact_path(monkeypatch):
    # a Gaussian reg_solve whose column simplex calls rerun equals the one
    # run with the update path disabled: a constant _basis_key makes every
    # pivot a revisit, so every call that pivots reruns
    import rkbs_sparse.optim as optim_mod
    from rkbs_sparse.regpath import RegProblem, certified_lambda_max, reg_solve
    base = _family_problem(0)
    problem = RegProblem(base, 0.3 * certified_lambda_max(base))
    with monkeypatch.context() as patch:
        reruns = _count_reruns(patch)
        sol = reg_solve(problem)
        assert reruns() > 0
    monkeypatch.setattr(optim_mod, "_basis_key", lambda cols, signs: None)
    exact = reg_solve(problem)
    assert sol == exact


def test_gauss_panel_keeps_its_results():
    # family entries 0-23, the gauss-mni benchmark panel: exchange rounds
    # and atom counts exactly, TV norms to 1e-12 relative, as recorded in
    # tests/data/gauss-panel.json before the column simplex pivoted on
    # rank-one updates
    path = os.path.join(os.path.dirname(__file__), "data", "gauss-panel.json")
    with open(path) as f:
        panel = json.load(f)
    assert [row["entry"] for row in panel] == list(range(24))
    for row in panel:
        sol = mni_solve_measure(_family_problem(row["entry"]))
        assert sol.certificate.exchange_iters == row["exchange_iters"]
        assert len(sol.atoms) == row["atoms"]
        assert sol.tv_norm == pytest.approx(row["tv_norm"], rel=1e-12)
