import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rkbs_sparse as rk
from rkbs_sparse import regpath
from rkbs_sparse.core import ConvergenceError, DomainError
from rkbs_sparse.regpath import (RegProblem, lambda_certificate, lambda_max,
                                 reg_mni_consistency, reg_solve,
                                 solution_certificate, sparsity_path)
from conftest import random_seq_instances


# ---------------------------------------------------------------------------
# certificate checker
# ---------------------------------------------------------------------------

def test_certificate_identity_pass():
    cert = lambda_certificate(np.eye(2), [0.5, 0.5], [1.0, 1.0], 0.5, tol=1e-12)
    assert cert.a == pytest.approx([-0.5, -0.5])
    assert cert.equality_residuals == pytest.approx([0.0, 0.0], abs=1e-15)
    assert cert.verdict


def test_certificate_identity_fail():
    cert = lambda_certificate(np.eye(2), [0.5, 0.5], [1.0, 1.0], 0.3, tol=1e-12)
    assert max(cert.equality_residuals) == pytest.approx(0.2)
    assert not cert.verdict


def test_certificate_zero_solution():
    cert = lambda_certificate(np.eye(2), [0.0, 0.0], [1.0, 1.0], 2.0, tol=1e-12)
    assert cert.a == pytest.approx([-1.0, -1.0])
    assert cert.inequality_slacks == pytest.approx([1.0, 1.0])
    assert cert.verdict


def test_certificate_accepts_external_subgradient():
    cert = lambda_certificate(np.eye(2), [0.0, 0.0], [1.0, 1.0], 0.75,
                              tol=1e-12, a=[-0.5, -0.5])
    assert cert.inequality_slacks == pytest.approx([0.25, 0.25])
    assert cert.verdict


def test_certificate_sharpness():
    # on the support the conditions are equalities: nudging lambda past
    # them breaks the verdict for the fixed coefficients
    L = np.eye(2)
    alpha = [0.5, 0.5]
    y = [1.0, 1.0]
    assert lambda_certificate(L, alpha, y, 0.5, tol=1e-7).verdict
    assert not lambda_certificate(L, alpha, y, 0.5 + 1e-3, tol=1e-7).verdict
    assert not lambda_certificate(L, alpha, y, 0.5 - 1e-3, tol=1e-7).verdict


def test_lambda_max_examples():
    assert lambda_max(np.eye(2), [1.0, 1.0]) == pytest.approx(1.0)
    assert lambda_max(np.array([[1.0, 0.5], [1.0, -0.5]]), [1.0, 1.0]) \
        == pytest.approx(2.0)
    assert lambda_max(np.eye(2), [0.0, 0.0]) == 0.0


def test_lambda_max_certifies_zero_solution():
    rng = np.random.default_rng(2)
    for _ in range(10):
        L = rng.normal(size=(3, 4))
        y = rng.normal(size=3)
        lmax = lambda_max(L, y)
        cert = lambda_certificate(L, np.zeros(4), y, lmax * 1.0001, tol=1e-12)
        assert cert.verdict


# ---------------------------------------------------------------------------
# regularized solves
# ---------------------------------------------------------------------------

def test_reg_identity_soft_threshold(unit_pair_problem):
    sol = reg_solve(RegProblem(base=unit_pair_problem, lam=0.5))
    assert sol.sites() == (1.0, 2.0)
    assert sol.coefficients() == pytest.approx([0.5, 0.5], abs=1e-8)


def test_reg_identity_above_lambda_max(unit_pair_problem):
    sol = reg_solve(RegProblem(base=unit_pair_problem, lam=1.5))
    assert sol.atoms == ()
    assert sol.norm == 0.0


def test_reg_worked_functionals_certificate(worked_example):
    problem = RegProblem(base=worked_example, lam=0.1)
    sol = reg_solve(problem)
    cert = solution_certificate(problem, sol, tol=1e-7)
    assert cert.verdict
    assert len(sol.atoms) <= sol.rank_bound <= worked_example.n


def test_reg_rejects_nonpositive_lambda(unit_pair_problem):
    with pytest.raises(DomainError):
        RegProblem(base=unit_pair_problem, lam=0.0)


def test_reg_outputs_pass_certificates_on_random_instances():
    for problem in random_seq_instances(15, seed=31415):
        V = problem.coordinate_matrix(problem.options.truncation_start)
        lmax = lambda_max(V, problem.y_vector())
        for frac in (0.15, 0.6):
            reg = RegProblem(base=problem, lam=frac * lmax)
            sol = reg_solve(reg)
            cert = solution_certificate(reg, sol, tol=1e-7)
            assert cert.verdict
            assert len(sol.atoms) <= max(sol.rank_bound, 0) or not sol.atoms


def test_reg_gaussian_single_site():
    base = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    sol = reg_solve(RegProblem(base=base, lam=0.2))
    assert len(sol.atoms) == 1
    loc, w = sol.atoms[0]
    assert abs(loc) <= 1e-4
    # one kernel column: soft threshold of the least-squares fit
    k = math.exp(-0.5)
    expected = (2.0 * k - 0.2) / (2.0 * k * k)
    assert w == pytest.approx(expected, rel=1e-4)


def test_reg_polish_folds_a_mirror_pair_into_the_midpoint_atom():
    from rkbs_sparse.regpath import _polish_reg_atoms
    base = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    sites, w = _polish_reg_atoms(base, np.array([-1e-7, 1e-7]),
                                 np.array([0.8, 0.8]), 0.1)
    assert sites.shape == (1,)
    assert abs(sites[0]) <= 1e-12
    # 2 k (w k - 1) = -lam with k = exp(-1/2)
    k = math.exp(-0.5)
    assert w[0] == pytest.approx((2.0 * k - 0.1) / (2.0 * k * k), rel=1e-12)


_CYCLE_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
import rkbs_sparse as rk
from rkbs_sparse.regpath import RegProblem, reg_solve, solution_certificate
rng = np.random.default_rng(1)
rng.uniform(-8, 8, 4); rng.uniform(-1, 1, 4); rng.uniform(-8, 8, 8); rng.uniform(-1, 1, 8)
centers = np.sort(np.linspace(-8.0, 8.0, 16) + rng.uniform(-0.1, 0.1, 16))
y = rng.uniform(-1.0, 1.0, 16)
reg = RegProblem(rk.gauss_problem(centers, 1.0, y), 0.2)
sol = reg_solve(reg)
print(len(sol.atoms), repr(sol.dual_value), solution_certificate(reg, sol, 1e-9).verdict)
"""


def test_reg_gaussian_support_cycle_settles():
    # the support rounds of this instance alternate between two 10-point
    # supports whose fits differ by 1.4e-5; the solve settles on its best
    # round instead of running out of rounds, with the 7 atoms and no worse
    # an objective than the tableau-LP exchange once reached (1.8043489802)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rk.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _CYCLE_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    atoms, objective, verdict = done.stdout.split()
    assert int(atoms) == 7
    assert float(objective) <= 1.8043489802460588
    assert verdict == "True"


def test_reg_gaussian_zero_regime():
    base = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    # continuous lambda_max is sup of the y-weighted kernel combination
    sol = reg_solve(RegProblem(base=base, lam=2.0))
    assert sol.atoms == ()


# ---------------------------------------------------------------------------
# consistency with MNI
# ---------------------------------------------------------------------------

def test_consistency_identity(unit_pair_problem):
    report = reg_mni_consistency(RegProblem(base=unit_pair_problem, lam=0.5))
    assert not report.zero_regime
    assert report.fitted == pytest.approx([0.5, 0.5], abs=1e-8)
    assert report.mni_norm == pytest.approx(report.reg_norm, abs=1e-8)
    assert abs(report.objective_change) <= 1e-8
    assert report.consistent


def test_consistency_zero_regime(unit_pair_problem):
    report = reg_mni_consistency(RegProblem(base=unit_pair_problem, lam=1.5))
    assert report.zero_regime
    assert report.consistent


def test_consistency_worked_functionals(worked_example):
    report = reg_mni_consistency(RegProblem(base=worked_example, lam=0.1),
                                 tol=1e-8)
    assert report.consistent
    assert abs(report.objective_change) <= 1e-8


def test_consistency_gaussian():
    base = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    report = reg_mni_consistency(RegProblem(base=base, lam=0.2), tol=1e-6)
    assert not report.zero_regime
    assert report.consistent
    assert abs(report.objective_change) <= 1e-6


# ---------------------------------------------------------------------------
# sparsity path
# ---------------------------------------------------------------------------

def test_path_identity_counts_and_norms(unit_pair_problem):
    rows = sparsity_path(unit_pair_problem, [0.5, 0.9, 1.5])
    assert [r.atom_count for r in rows] == [2, 2, 0]
    assert [r.l1_norm for r in rows] == pytest.approx([1.0, 0.2, 0.0], abs=1e-8)
    assert all(r.error is None for r in rows)


def test_path_exactly_at_lambda_max(unit_pair_problem):
    rows = sparsity_path(unit_pair_problem, [1.0])
    assert rows[0].atom_count == 0


def test_path_small_lambda_matches_mni_sparsity(worked_example):
    rows = sparsity_path(worked_example, [1e-6])
    mni = rk.mni_solve_l1(worked_example)
    assert rows[0].atom_count == len(mni.atoms)


def test_path_norm_monotone_in_lambda(worked_example):
    lams = [0.02, 0.05, 0.1, 0.3, 0.6, 1.0, 1.6, 2.1]
    rows = sparsity_path(worked_example, lams)
    norms = [r.l1_norm for r in rows]
    assert all(b <= a + 1e-8 for a, b in zip(norms, norms[1:]))
    assert rows[-1].atom_count == 0  # beyond lambda_max = 2


def _assert_records_solver_errors_and_raises_others(base, monkeypatch, solver):
    def fail(exc):
        def solve(*args, **kwargs):
            raise exc
        return solve

    monkeypatch.setattr(regpath, solver, fail(ConvergenceError("no fit")))
    row, = sparsity_path(base, [0.5])
    assert (row.error, row.atom_count) == ("no fit", -1)
    assert math.isnan(row.l1_norm) and math.isnan(row.objective)
    monkeypatch.setattr(regpath, solver, fail(TypeError("bug")))
    with pytest.raises(TypeError):
        sparsity_path(base, [0.5])


def test_path_records_solver_errors_and_raises_others(unit_pair_problem, monkeypatch):
    # an l1 path runs lasso_path once per truncation level, not reg_solve per row
    _assert_records_solver_errors_and_raises_others(unit_pair_problem, monkeypatch, "lasso_path")


def test_gaussian_path_records_solver_errors_and_raises_others(monkeypatch):
    base = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    _assert_records_solver_errors_and_raises_others(base, monkeypatch, "reg_solve")


def test_path_rejects_unsorted(unit_pair_problem):
    with pytest.raises(DomainError):
        sparsity_path(unit_pair_problem, [0.9, 0.5])


@pytest.mark.parametrize("lams", [[0.0], [-1.0, 0.5], [math.nan], [0.5, math.nan]])
def test_path_rejects_nonpositive_and_nan_lambdas(unit_pair_problem, lams):
    # NaN fails every comparison, so it must not slip past "l <= 0"
    with pytest.raises(DomainError):
        sparsity_path(unit_pair_problem, lams)


def _lone_rows(base, lams):
    """The rows of sparsity_path built from one reg_solve per lambda."""
    rows = []
    for lam in lams:
        try:
            sol = reg_solve(RegProblem(base=base, lam=lam))
            rows.append(regpath.PathRow(lam=lam, atom_count=len(sol.atoms),
                                        l1_norm=sol.norm, objective=sol.dual_value))
        except rk.RkbsError as exc:
            rows.append(regpath.PathRow(lam=lam, atom_count=-1, l1_norm=math.nan,
                                        objective=math.nan, error=str(exc)))
    return rows


def _level_512_problem():
    # the harmonic sequence against its own first 256 terms: at lambda = 1e-3
    # the misfit is about (-0.5, 0.5), so the harmonic row's tail bound at
    # K = 256 is about 0.5/257 > lambda
    return rk.seq_problem([rk.harmonic(), rk.finite([1.0 / k for k in range(1, 257)])],
                          [1.0, 0.0])


def _path_l1_case():
    # bench/problems/path-l1.json
    return (rk.seq_problem([rk.harmonic(), rk.geometric(-0.5), rk.finite([0.8, -1.2, 0.4])],
                           [1.0, 0.6, -0.7]), [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2])


def test_path_rows_equal_lone_reg_solves():
    # repr prints every float exactly, and nan equal to nan
    cases = [(_level_512_problem(), [1e-3, 0.5]), _path_l1_case()]
    for problem in random_seq_instances(30, seed=2718):
        lmax = lambda_max(problem.coordinate_matrix(problem.options.truncation_start),
                          problem.y_vector())
        cases.append((problem, [f * lmax for f in (0.01, 0.05, 0.2, 0.5, 0.9, 1.2)]))
    for base, lams in cases:
        assert repr(sparsity_path(base, lams)) == repr(_lone_rows(base, lams))


def test_path_runs_one_walk_per_truncation_level(monkeypatch):
    levels = []
    walk = regpath.lasso_path

    def counting(V, y, lams, tol):
        levels.append(V.shape[1])
        return walk(V, y, lams, tol=tol)

    monkeypatch.setattr(regpath, "lasso_path", counting)
    reg_solve(RegProblem(base=_level_512_problem(), lam=0.5))
    assert levels == [256]
    levels.clear()
    reg_solve(RegProblem(base=_level_512_problem(), lam=1e-3))
    assert levels == [256, 512]
    levels.clear()
    sparsity_path(_level_512_problem(), [1e-3, 0.5])
    assert levels == [256, 512]
    levels.clear()
    sparsity_path(*_path_l1_case())
    assert levels == [256]
