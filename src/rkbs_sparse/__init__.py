"""Sparse minimum-norm interpolation and regularization in
sparsity-promoting hypothesis spaces.

Two concrete pipelines are implemented: l1(N) sequence problems (dual
linear program with certified truncation, attainment set, basis pursuit
on the column simplex) and the Gaussian measure space (semi-infinite
dual via an exchange method, continuous attainment sets, atomic measure
recovery), together with an lp contrast solver, square-loss l1
regularization with sparsity certificates, and brute-force oracles for
independent verification.  All three pipelines recover their sparse
solution as a basis-pursuit vertex (``optim.vertex_atoms``).
"""

from .core import (ConvergenceError, DomainError, GaussProblem, KernelMatrix,
                   OracleRefusal, RkbsError, SeqProblem, SequenceFunctional,
                   SolverOptions, SparseSolution, TruncationError, finite,
                   functional_eval, functional_tail_bound, gauss_problem,
                   geometric, harmonic, scaled_sum, seq_problem)
from .optim import basis_pursuit, lasso_solve
from .sequence import (DualCertificate, LpSolution, attainment_set,
                       certificate_from_coefficients, dual_solve_l1,
                       linf_subdiff_extreme_points, mni_solve_l1,
                       mni_solve_lp, support_dependency_check,
                       truncation_matrix)
from .measure import (ContinuousDualCertificate, SparseMeasure,
                      dual_solve_semiinfinite, find_attainment_points,
                      gauss_eval, gauss_eval_deriv, kernel_matrix,
                      mni_solve_measure)
from .regpath import (ConsistencyReport, LambdaCertificate, PathRow,
                      RegProblem, lambda_certificate, lambda_max,
                      reg_mni_consistency, reg_solve, solution_certificate,
                      sparsity_path)
from .oracle import (OracleReport, grid_supremum, l2_min_norm, norming_check,
                     norming_check_measure, solution_set_convexity_check,
                     vertex_enumerate_l1)

__version__ = "0.1.0"
