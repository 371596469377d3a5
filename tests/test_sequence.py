import dataclasses

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
        bp = basis_pursuit(V.array, worked_example.y_vector())
        sites = [k for k, a in zip(cert.attainment, bp.x) if abs(a) > 1e-12]
        coeffs_kept = [a for a in bp.x if abs(a) > 1e-12]
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
    # ill-conditioned q floors the reachable gradient norm; the solver
    # must still honor the 1e-6 interpolation post-condition
    for p in (1.2, 5.0, 10.0):
        sol = mni_solve_lp(worked_example, p)
        assert sol.interp_residual <= 1e-6
        assert sol.value > 0


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
