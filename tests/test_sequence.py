import dataclasses
import math

import numpy as np
import pytest

import rkbs_sparse as rk
from rkbs_sparse.core import DomainError
from rkbs_sparse.sequence import (DEPENDENT, INDEPENDENT, attainment_set,
                                  certificate_from_coefficients, dual_solve_l1,
                                  linf_subdiff_extreme_points, mni_solve_l1,
                                  mni_solve_lp, support_dependency_check,
                                  truncation_matrix)
from conftest import random_seq_instances


# ---------------------------------------------------------------------------
# dual solve
# ---------------------------------------------------------------------------

def test_dual_worked_example(worked_example):
    cert = dual_solve_l1(worked_example)
    c = cert.coefficient_vector()
    assert cert.value == pytest.approx(1.0, abs=1e-9)
    # optimal set is the segment c1 + c2 = 1, -1/2 <= c1 <= 3/2
    assert c[0] + c[1] == pytest.approx(1.0, abs=1e-9)
    assert -0.5 - 1e-9 <= c[0] <= 1.5 + 1e-9


def test_dual_worked_example_returns_the_split_form_vertex(worked_example):
    # the demo prints this c as "c = [1, 0]", and bench/selftest.py perturbs
    # that exact string.  [1, 0] attains |V^T c| = 1 at k = 1 only, so it is
    # not a vertex of the unsplit dual polytope {c : |V^T c| <= 1} (a column
    # simplex over n = 2 tight rows cannot return it); over c = c+ - c-,
    # with c2+ = c1- = c2- = 0 tight, it is a vertex of the split LP.
    assert dual_solve_l1(worked_example).coefficients == (1.0, 0.0)
    minimal = dual_solve_l1(worked_example, minimal_attainment=True)
    assert minimal.coefficients == (0.0, 1.0)


def test_dual_single_atom_functional():
    problem = rk.seq_problem([rk.finite([1.0])], [2.0])
    cert = dual_solve_l1(problem)
    assert cert.value == pytest.approx(2.0)
    assert cert.coefficients == pytest.approx([1.0])
    assert cert.attainment == (1,)


def test_dual_finite_pair():
    problem = rk.seq_problem([rk.finite([1.0, 0.5]), rk.finite([0.0, 1.0])],
                             [1.0, 1.0])
    cert = dual_solve_l1(problem)
    assert cert.value == pytest.approx(1.5, abs=1e-9)


def test_dual_rejects_zero_y():
    with pytest.raises(DomainError):
        dual_solve_l1(rk.seq_problem([rk.harmonic()], [0.0]))


def test_dual_margin_and_norm_invariants(worked_example):
    cert = dual_solve_l1(worked_example)
    assert cert.margin > 0
    coords = worked_example.coordinate_matrix(cert.truncation_used).T \
        @ cert.coefficient_vector()
    assert float(np.max(np.abs(coords))) == pytest.approx(1.0, abs=1e-9)
    assert len(cert.attainment) >= 1


def test_minimal_attainment_selects_sparser_dual(worked_example):
    cert = dual_solve_l1(worked_example, minimal_attainment=True)
    assert cert.coefficients == pytest.approx([0.0, 1.0], abs=1e-9)
    assert cert.attainment == (1,)


def test_minimal_attainment_passes_over_a_rounding_cycle():
    # in phase 1 of a face LP of this instance the basis reaches
    # cond(M) ~ 2e8, where reduced costs that are exactly 0 read 4.6e-11 and
    # 9.3e-10, so Bland's rule would swap two columns back and forth for
    # ever; the pivot that returns to a basis is refused instead
    problem = rk.seq_problem([rk.finite([-0.458, 0.242, 0.481, -1.0]), rk.harmonic(),
                              rk.geometric(0.804611), rk.geometric(0.267931)],
                             [0.34, -1.739, -1.791, -1.154])
    plain = dual_solve_l1(problem)
    minimal = dual_solve_l1(problem, minimal_attainment=True)
    assert minimal.value == pytest.approx(plain.value, rel=1e-12)
    assert minimal.attainment == plain.attainment == (1, 3, 13, 14)


def test_minimal_attainment_agrees_on_value_and_solution():
    for problem in random_seq_instances(15, seed=777):
        plain = mni_solve_l1(problem)
        minimal = mni_solve_l1(problem, minimal_attainment=True)
        assert minimal.norm == pytest.approx(plain.norm, abs=1e-8)
        assert minimal.dual_value == pytest.approx(plain.dual_value, abs=1e-8)
        assert len(minimal.atoms) <= minimal.rank_bound <= problem.n


def test_certificate_from_coefficients_rejects_wrong_scale(worked_example):
    with pytest.raises(DomainError):
        certificate_from_coefficients(worked_example, [2.0, 0.0])


# ---------------------------------------------------------------------------
# attainment sets and truncation matrices
# ---------------------------------------------------------------------------

def test_attainment_of_pinned_selections(worked_example):
    vertex = certificate_from_coefficients(worked_example, [-0.5, 1.5])
    assert vertex.attainment == (1, 2)
    alt = certificate_from_coefficients(worked_example, [0.0, 1.0])
    assert alt.attainment == (1,)


def test_attainment_threshold_is_relative(worked_example):
    cert = certificate_from_coefficients(worked_example, [-0.5, 1.5])
    assert attainment_set(cert, 1e-7) == [1, 2]
    # coordinate 3 of the combined functional is 5/24; widening the
    # tolerance enough pulls it in
    assert 3 in attainment_set(cert, 0.8)


def test_attainment_of_coordinate_atom():
    problem = rk.seq_problem([rk.finite([0.0, 0.0, 1.0])], [1.0])
    cert = dual_solve_l1(problem)
    assert cert.attainment == (3,)


def test_truncation_doubling_raises_with_the_tail_at_the_cap(monkeypatch):
    from rkbs_sparse import sequence
    monkeypatch.setattr(sequence, "MAX_TRUNCATION", 1024)
    problem = rk.seq_problem([rk.harmonic()], [1.0])
    levels = []

    def level(K, V):
        levels.append((K, V.shape))
        return np.array([2.0]), 1e-12, None

    with pytest.raises(rk.TruncationError) as info:
        sequence._certified_truncation(problem, 256, level)
    assert levels == [(256, (1, 256)), (512, (1, 512)), (1024, (1, 1024))]
    # the harmonic tail beyond K is 1/(K+1), weighted by |w| = 2
    assert info.value.residual == pytest.approx(2.0 / 1025, rel=1e-15)


def test_truncation_doubling_stops_at_the_first_certified_level():
    from rkbs_sparse import sequence
    problem = rk.seq_problem([rk.harmonic()], [1.0])
    K, result, tail = sequence._certified_truncation(
        problem, 256, lambda K, V: (np.array([1.0]), 1.0 / 1500, K))
    assert (K, result) == (2048, 2048)
    assert tail == pytest.approx(1.0 / 2049, rel=1e-15)


def test_truncation_matrix_worked_example_values(worked_example):
    V = truncation_matrix(worked_example.functionals, [1, 2])
    assert V.array == pytest.approx(np.array([[1.0, 0.5], [1.0, -0.5]]))
    assert V.rank == 2
    V1 = truncation_matrix(worked_example.functionals, [1])
    assert V1.array == pytest.approx(np.array([[1.0], [1.0]]))
    assert V1.rank == 1


def test_truncation_matrix_single_atom_functional():
    V = truncation_matrix([rk.finite([1.0])], [1])
    assert V.array == pytest.approx(np.array([[1.0]]))
    assert V.rank == 1


def test_truncation_matrix_rejects_unsorted():
    with pytest.raises(DomainError):
        truncation_matrix([rk.harmonic()], [2, 1])


# ---------------------------------------------------------------------------
# minimum-norm interpolation
# ---------------------------------------------------------------------------

def test_mni_worked_example(worked_example):
    sol = mni_solve_l1(worked_example)
    assert len(sol.atoms) == 1
    site, coeff = sol.atoms[0]
    assert site == 1.0
    assert coeff == pytest.approx(1.0, abs=1e-9)
    assert sol.norm == pytest.approx(1.0, abs=1e-9)
    assert len(sol.atoms) <= sol.rank_bound <= 2


def test_mni_carries_its_dual_certificate(worked_example):
    sol = mni_solve_l1(worked_example)
    assert sol.certificate == dual_solve_l1(worked_example)
    assert "certificate" not in repr(sol)
    assert sol == dataclasses.replace(sol, certificate=None)


def test_mni_worked_example_under_pinned_dual_selections(worked_example):
    # the two dual selections bound the sparsity differently but recover
    # the same unique solution
    for coeffs, want_rank in (([-0.5, 1.5], 2), ([0.0, 1.0], 1)):
        cert = certificate_from_coefficients(worked_example, coeffs)
        V = truncation_matrix(worked_example.functionals, cert.attainment)
        assert V.rank == want_rank
        from rkbs_sparse.optim import basis_pursuit
        alpha = basis_pursuit(V.array, worked_example.y_vector())
        sites = [k for k, a in zip(cert.attainment, alpha) if abs(a) > 1e-12]
        coeffs_kept = [a for a in alpha if abs(a) > 1e-12]
        assert sites == [1]
        assert coeffs_kept == pytest.approx([1.0], abs=1e-9)


def test_mni_single_functional():
    sol = mni_solve_l1(rk.seq_problem([rk.finite([1.0])], [2.0]))
    assert sol.atoms == ((1.0, 2.0),)


def test_mni_finite_pair():
    problem = rk.seq_problem([rk.finite([1.0, 0.5]), rk.finite([0.0, 1.0])],
                             [1.0, 1.0])
    sol = mni_solve_l1(problem)
    assert sol.sites() == (1.0, 2.0)
    assert sol.coefficients() == pytest.approx([0.5, 1.0], abs=1e-9)
    assert sol.norm == pytest.approx(1.5, abs=1e-9)


def test_mni_strong_duality_and_rank_bound_on_random_instances():
    for problem in random_seq_instances(40, seed=99):
        sol = mni_solve_l1(problem)
        cert = dual_solve_l1(problem)
        assert abs(sol.norm - cert.value) <= 1e-8
        assert len(sol.atoms) <= sol.rank_bound <= problem.n
        y = problem.y_vector()
        assert sol.residual <= 1e-9 * (1.0 + float(np.max(np.abs(y))))


def test_mni_homogeneity(worked_example):
    sol = mni_solve_l1(worked_example)
    for t in (2.0, 0.25, 7.5):
        scaled = rk.seq_problem(worked_example.functionals,
                                [t * v for v in worked_example.y])
        sol_t = mni_solve_l1(scaled)
        assert sol_t.sites() == sol.sites()
        assert sol_t.coefficients() == pytest.approx(t * sol.coefficients(),
                                                     rel=1e-9)


def test_mni_norming_membership_on_random_instances():
    # computable form of solution membership in the scaled subdifferential
    for problem in random_seq_instances(25, seed=4242):
        cert = dual_solve_l1(problem)
        sol = mni_solve_l1(problem)
        report = rk.norming_check(cert, sol, tol=1e-8)
        assert report.agreement


def test_certificate_universality_validates_alternative_vertices():
    # non-unique primal: x = e1 and x = e2 are both optimal
    problem = rk.seq_problem([rk.finite([1.0, 1.0])], [1.0])
    cert = dual_solve_l1(problem)
    for atoms in (((1, 1.0),), ((2, 1.0),)):
        report = rk.norming_check(cert, atoms, tol=1e-9)
        assert report.agreement


def test_subdiff_atoms_examples():
    atoms = linf_subdiff_extreme_points(rk.finite([1.0]), 4)
    assert atoms == [(1, 1.0)]
    atoms = linf_subdiff_extreme_points(rk.finite([1.0, -1.0, 0.5]), 8)
    assert atoms == [(1, 1.0), (2, -1.0)]


def test_subdiff_atoms_of_worked_combination(worked_example):
    combined = rk.scaled_sum([-0.5, 1.5], list(worked_example.functionals))
    assert combined.eval(3) == pytest.approx(5.0 / 24.0)
    atoms = linf_subdiff_extreme_points(combined, 64)
    assert atoms == [(1, 1.0), (2, -1.0)]
    # each atom is a unit-norm extreme point pairing to the sup norm
    coords = combined.coordinates(64)
    sup = float(np.max(np.abs(coords)))
    for site, sign in atoms:
        assert abs(sign) == 1.0
        assert sign * combined.eval(site) == pytest.approx(sup)


def test_subdiff_atoms_reject_zero():
    with pytest.raises(DomainError):
        linf_subdiff_extreme_points(rk.finite([0.0]), 4)


# ---------------------------------------------------------------------------
# lp contrast
# ---------------------------------------------------------------------------

def test_lp_solver_coordinate_functionals():
    problem = rk.seq_problem([rk.finite([1.0]), rk.finite([0.0, 1.0])],
                             [3.0, 4.0])
    sol = mni_solve_lp(problem, 2.0)
    assert sol.coordinates(3) == pytest.approx([3.0, 4.0, 0.0], abs=1e-9)
    assert sol.norm_p == pytest.approx(5.0, abs=1e-9)


def test_lp_solver_single_functional_any_p():
    for p in (1.5, 2.0, 4.0):
        sol = mni_solve_lp(rk.seq_problem([rk.finite([1.0])], [5.0]), p)
        assert sol.eval(1) == pytest.approx(5.0, abs=1e-8)
        assert sol.eval(2) == 0.0


def test_lp_solver_matches_l2_oracle(worked_example):
    sol = mni_solve_lp(worked_example, 2.0, truncation=1 << 14)
    oracle = rk.l2_min_norm(worked_example, 1 << 14)
    gap = np.max(np.abs(sol.coordinates(50) - oracle.witness["coordinates"][:50]))
    assert gap <= 1e-6
    assert sol.interp_residual <= 1e-6


def test_lp_solution_is_dense(worked_example):
    sol = mni_solve_lp(worked_example, 2.0)
    coords = sol.coordinates(100)
    assert int(np.sum(np.abs(coords) > 1e-12)) >= 99


def test_lp_solver_extreme_exponents_meet_interpolation_contract(worked_example):
    for p in (1.2, 5.0, 10.0):
        sol = mni_solve_lp(worked_example, p)
        assert sol.interp_residual <= 1e-6
        assert sol.value > 0


def _three_functionals():
    return rk.seq_problem([rk.harmonic(), rk.geometric(0.7), rk.finite([1.0, -2.0, 0.5])],
                          [0.3, -1.0, 2.0])


def test_lp_solver_reaches_the_normal_equations_at_its_own_level(worked_example):
    sol = mni_solve_lp(worked_example, 2.0)
    oracle = rk.l2_min_norm(worked_example, sol.truncation_used)
    assert sol.norm_p == pytest.approx(oracle.value["norm"], rel=1e-13)
    assert sol.coordinates(50) == pytest.approx(oracle.witness["coordinates"][:50],
                                                rel=1e-12, abs=1e-15)


def test_lp_solver_three_functionals_at_p10():
    # slow geometric(0.7) and harmonic tails with q = 10/9 close to 1
    sol = mni_solve_lp(_three_functionals(), 10.0)
    assert sol.interp_residual <= 1e-6
    assert sol.tail_bound <= 0.02
    assert sol.value > 0


@pytest.mark.parametrize("p", [1.2, 2.0, 4.0])
def test_lp_solver_reports_the_tail_of_its_reported_c(p):
    # tail_bound is the lq tail of the printed dual c, which has unit
    # q-norm on the coordinates, not of the slice-normalized c.y = 1
    problem = _three_functionals()
    sol = mni_solve_lp(problem, p)
    tail = sum(abs(c) * f.lq_tail(sol.truncation_used, sol.q)
               for c, f in zip(sol.dual_coefficients, problem.functionals))
    assert sol.tail_bound == pytest.approx(tail, rel=1e-13)
    coords = sum(c * f.coordinates(sol.truncation_used)
                 for c, f in zip(sol.dual_coefficients, problem.functionals))
    assert float(np.linalg.norm(coords, sol.q)) == pytest.approx(1.0, rel=1e-12)


def test_lp_solver_newton_cap_raises_with_its_decrement(monkeypatch):
    from rkbs_sparse import sequence
    monkeypatch.setattr(sequence, "_LP_NEWTON_ROUNDS", 0)
    with pytest.raises(rk.ConvergenceError) as err:
        mni_solve_lp(_three_functionals(), 4.0)
    assert math.isfinite(err.value.residual) and err.value.residual > 0


def test_lp_solver_warm_start_keeps_each_level_stationary(worked_example):
    # a fixed level solved cold equals the default doubling's last level
    sol = mni_solve_lp(worked_example, 4.0)
    cold = mni_solve_lp(worked_example, 4.0, truncation=sol.truncation_used)
    assert cold.dual_coefficients == pytest.approx(sol.dual_coefficients, rel=1e-12)
    assert cold.tail_bound == pytest.approx(sol.tail_bound, rel=1e-12)


def test_lp_solver_dependent_functionals():
    # along y's complement the Hessian is rounding: no Newton step is taken
    pair = [rk.finite([1.0, 1.0]), rk.finite([2.0, 2.0])]
    for p in (1.5, 2.0, 4.0):
        sol = mni_solve_lp(rk.seq_problem(pair, [1.0, 2.0]), p)
        assert sol.coordinates(3) == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    # y off the functionals' span: c.y = 1 reaches V^T c = 0
    with pytest.raises(DomainError):
        mni_solve_lp(rk.seq_problem(pair, [1.0, 1.0]), 2.0)


@pytest.mark.parametrize("truncation", [-4, 0, 2.5, 64.0, True, "64", 2 ** 21])
def test_lp_solver_rejects_a_truncation_that_is_not_a_whole_level(worked_example, truncation):
    with pytest.raises(DomainError):
        mni_solve_lp(worked_example, 2.0, truncation=truncation)


def test_support_dependency_examples(worked_example):
    for after in (5, 10, 20):
        assert support_dependency_check(worked_example.functionals, after) \
            == INDEPENDENT
    assert support_dependency_check(
        [rk.finite([1.0, 1.0]), rk.finite([2.0, 1.0])], 1) == DEPENDENT
    assert support_dependency_check(
        [rk.finite([1.0]), rk.finite([0.0, 1.0])], 2) == DEPENDENT


def test_support_dependency_rejects_bad_cutoff(worked_example):
    with pytest.raises(DomainError):
        support_dependency_check(worked_example.functionals, 0)
