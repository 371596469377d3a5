import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rkbs_sparse as rk
from rkbs_sparse.core import (DomainError, SolverOptions, SparseSolution, _pivoted_qr,
                              make_solution, matrix_rank)


def test_harmonic_first_coordinate():
    assert rk.functional_eval(rk.harmonic(), 1) == 1.0


def test_geometric_second_coordinate():
    assert rk.functional_eval(rk.geometric(-0.5), 2) == -0.5


def test_finite_beyond_list_is_zero():
    assert rk.functional_eval(rk.finite([1.0, 0.5]), 3) == 0.0


def test_eval_rejects_zero_index():
    with pytest.raises(DomainError):
        rk.functional_eval(rk.harmonic(), 0)


def test_tail_bounds_examples():
    assert rk.functional_tail_bound(rk.harmonic(), 9) == pytest.approx(0.1)
    assert rk.functional_tail_bound(rk.geometric(-0.5), 3) == pytest.approx(0.125)
    assert rk.functional_tail_bound(rk.finite([1.0, 0.5]), 2) == 0.0


def _sample_functionals():
    return [
        rk.harmonic(),
        rk.geometric(-0.5),
        rk.geometric(0.85),
        rk.finite([1.0, -2.0, 0.25]),
        rk.scaled_sum([0.5, -1.5], [rk.harmonic(), rk.geometric(-0.5)]),
        rk.scaled_sum([2.0], [rk.finite([0.0, 3.0])]),
    ]


def test_tail_bound_dominates_next_coordinate():
    for f in _sample_functionals():
        for K in (1, 2, 5, 17, 64):
            bound = f.tail_bound(K)
            for k in range(K + 1, K + 40):
                assert abs(f.eval(k)) <= bound + 1e-15


def test_tail_bound_monotone():
    for f in _sample_functionals():
        bounds = [f.tail_bound(K) for K in range(1, 80)]
        assert all(b >= a - 1e-15 for a, b in zip(bounds[1:], bounds))


def test_lq_tail_dominates_partial_sums():
    for f in _sample_functionals():
        for q in (1.5, 2.0, 3.0):
            for K in (4, 16, 64):
                bound = f.lq_tail(K, q)
                partial = sum(abs(f.eval(k)) ** q for k in range(K + 1, K + 500))
                assert partial ** (1.0 / q) <= bound + 1e-12


def test_lq_tail_at_infinity_is_the_sup_tail_bound():
    # the harmonic closed form (after^(1-q) / (q-1))^(1/q) reads 1.0 at q = inf
    for f in _sample_functionals():
        for K in (1, 4, 16, 64):
            assert f.lq_tail(K, math.inf) == f.tail_bound(K)
    for q in (1.0, 0.5, math.nan):
        with pytest.raises(DomainError):
            rk.harmonic().lq_tail(4, q)


def test_scaled_sum_is_linear():
    rng = np.random.default_rng(7)
    f, g = rk.harmonic(), rk.geometric(0.3)
    for _ in range(25):
        a, b = rng.uniform(-3, 3, 2)
        combo = rk.scaled_sum([a, b], [f, g])
        k = int(rng.integers(1, 200))
        assert combo.eval(k) == pytest.approx(a * f.eval(k) + b * g.eval(k),
                                              abs=1e-15, rel=1e-14)


def test_coordinates_matches_eval():
    for f in _sample_functionals():
        coords = f.coordinates(30)
        assert coords == pytest.approx([f.eval(k) for k in range(1, 31)])


def test_geometric_rejects_unit_ratio():
    with pytest.raises(DomainError):
        rk.geometric(1.0)


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_scaled_sum_rejects_non_finite_weights(weight):
    with pytest.raises(DomainError):
        rk.scaled_sum([1.0, weight], [rk.harmonic(), rk.geometric(0.5)])


def test_options_validation():
    with pytest.raises(DomainError):
        SolverOptions(tol=-1.0)
    with pytest.raises(DomainError):
        SolverOptions(tol=1e-6, attain_tol=1e-9)
    with pytest.raises(DomainError):
        SolverOptions(truncation_start=0)


def test_seq_problem_rejects_duplicates():
    with pytest.raises(DomainError):
        rk.seq_problem([rk.harmonic(), rk.harmonic()], [1.0, 2.0])


def test_seq_problem_rejects_length_mismatch():
    with pytest.raises(DomainError):
        rk.seq_problem([rk.harmonic()], [1.0, 2.0])


def test_gauss_problem_defaults_and_validation():
    p = rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0])
    assert p.domain == (-6.0, 6.0)
    assert p.grid_step() == pytest.approx(0.02)
    with pytest.raises(DomainError):
        rk.gauss_problem([1.0, -1.0], 1.0, [1.0, 1.0])
    with pytest.raises(DomainError):
        rk.gauss_problem([-1.0, 1.0], 1.0, [1.0, 1.0], domain=(-2.0, 2.0))
    with pytest.raises(DomainError):
        rk.gauss_problem([0.0], -1.0, [1.0])


@pytest.mark.parametrize("centers, sigma, y, domain", [
    ([0.0, math.nan], 1.0, [1.0, 1.0], (-10.0, 10.0)),
    ([0.0, math.inf], 1.0, [1.0, 1.0], (-10.0, 10.0)),
    ([0.0, 1.0], 1.0, [1.0, math.nan], (-10.0, 10.0)),
    ([0.0, 1.0], 1.0, [1.0, 1.0], (-10.0, math.nan)),
    ([0.0, 1.0], 1.0, [1.0, 1.0], (-math.inf, 10.0)),
    ([0.0, 1.0], math.inf, [1.0, 1.0], (-math.inf, math.inf)),
])
def test_gauss_problem_rejects_non_finite_data(centers, sigma, y, domain):
    with pytest.raises(DomainError):
        rk.gauss_problem(centers, sigma, y, domain=domain)


def test_matrix_rank_thresholding():
    assert matrix_rank(np.array([[1.0, 0.5], [1.0, -0.5]]), 1e-9) == 2
    assert matrix_rank(np.array([[1.0], [1.0]]), 1e-9) == 1
    assert matrix_rank(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), 1e-9) == 1
    assert matrix_rank(np.zeros((2, 2)), 1e-9) == 0


def _scipy_rank(a, tol):
    """The rank rule on LAPACK's column-pivoted QR (geqp3), as a reference."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale == 0.0:
        return 0
    r = pytest.importorskip("scipy.linalg").qr(a, mode="r", pivoting=True)[0]
    return int(np.sum(np.abs(np.diag(r)) > tol * max(a.shape) * scale))


def _rank_cases():
    rng = np.random.default_rng(20261018)
    for n in (1, 2, 3, 4):
        yield rng.standard_normal((n, 256))                         # wide, like V_K
        yield rng.standard_normal((n, n))                           # square
        yield rng.standard_normal((256, n))                         # tall
        yield 1.0 / np.arange(1, 257)[None, :] ** np.arange(1, n + 1)[:, None]
    for m, n, r in ((4, 256, 2), (4, 4, 3), (8, 8, 5), (30, 12, 7), (3, 3, 1)):
        yield rng.standard_normal((m, r)) @ rng.standard_normal((r, n))  # U V^T
    for m, n in ((4, 256), (6, 6), (40, 5)):
        yield rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-14, 4, n)  # scaled columns
        yield rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-14, 4, (m, 1))
    yield np.zeros((3, 5))
    yield np.zeros((1, 1))
    yield np.array([[2.5]])
    yield np.array([[-1e-300]])
    yield np.array([[1e-170, 2e-170], [3e-170, -1e-170]])  # squares underflow
    yield np.array([[1e170, 2e170], [3e170, -1e170]])      # squares overflow


def test_matrix_rank_matches_pivoted_qr_reference():
    for a in _rank_cases():
        for tol in (1e-9, 1e-6):
            assert matrix_rank(a, tol) == _scipy_rank(a, tol), a.shape


def test_pivoted_qr_leads_with_independent_columns():
    for a in _rank_cases():
        for tol in (1e-9, 1e-6):
            rank, order = _pivoted_qr(a, tol)
            assert rank == matrix_rank(a, tol)
            assert sorted(order) == list(range(a.shape[1]))
            if rank:
                assert _scipy_rank(a[:, order[:rank]], tol) == rank, a.shape


def test_matrix_rank_leaves_its_input_alone_and_rejects_non_finite():
    a = np.random.default_rng(3).standard_normal((3, 7))
    before = a.copy()
    assert matrix_rank(a, 1e-9) == 3
    assert np.array_equal(a, before)
    for bad in (math.nan, math.inf):
        a[1, 2] = bad
        with pytest.raises(DomainError):
            matrix_rank(a, 1e-9)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, rkbs_sparse.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout.strip() == "[]"


def test_sparse_solution_invariants():
    sol = make_solution([(1, -1.5)], 0.0, 2, 1.5, n=2, tol=1e-9)
    assert sol.sites() == (1.0,)
    assert sol.norm == 1.5
    with pytest.raises(DomainError):
        make_solution([(2, 1.0), (1, 1.0)], 0.0, 2, 2.0, n=2, tol=1e-9)
    with pytest.raises(DomainError):
        make_solution([(1, 1.0), (2, 1.0)], 0.0, 1, 2.0, n=2, tol=1e-9)
    with pytest.raises(DomainError):
        SparseSolution(atoms=((1.0, 1.0),), norm=5.0, residual=0.0, rank_bound=2,
                       dual_value=1.0).validate(n=2, tol=1e-9)
