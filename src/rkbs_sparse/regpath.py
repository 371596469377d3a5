"""Square-loss l1 regularization: solvers, the lambda-sparsity
certificate, lambda_max, and consistency checks against minimum-norm
interpolation.

The optimality conditions for min Q(L alpha) + lam ||alpha||_1 with
square loss Q_y(z) = 0.5 ||z - y||^2 split into equalities on the support
(lam = -(L^T a)_k sign(alpha_k) with a = L alpha - y) and inequalities
off the support (lam >= |(L^T a)_j|).  The certificate checker evaluates
both families for an externally supplied subgradient vector, so losses
other than square can be audited without a solver.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (ConvergenceError, DomainError, GaussProblem, KernelMatrix,
                   RkbsError, SeqProblem, SparseSolution, make_solution)
from .optim import lasso_path, lasso_solve, vertex_atoms
from . import measure as _measure
from . import sequence as _sequence

_SUPPORT_ROUNDS = 20


@dataclass(frozen=True)
class RegProblem:
    """An interpolation problem plus a positive regularization weight."""

    base: Union[SeqProblem, GaussProblem]
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError("lambda must be strictly positive")


@dataclass(frozen=True)
class LambdaCertificate:
    """Residuals of the lambda-sparsity optimality conditions.

    ``equality_residuals`` hold |lam + (L^T a)_k sign(alpha_k)| per
    support index, ``inequality_slacks`` hold lam - |(L^T a)_j| per
    off-support index; the verdict passes when every equality residual is
    at most tol and every slack is at least -tol.
    """

    support: Tuple[float, ...]
    equality_residuals: Tuple[float, ...]
    inequality_slacks: Tuple[float, ...]
    a: Tuple[float, ...]
    lam: float
    tol: float
    verdict: bool


def _as_array(L) -> Tuple[np.ndarray, Tuple[float, ...]]:
    if isinstance(L, KernelMatrix):
        return L.array, L.labels
    a = np.atleast_2d(np.asarray(L, dtype=float))
    return a, tuple(range(a.shape[1]))


def lambda_certificate(L, alpha: Sequence[float], y: Sequence[float],
                       lam: float, tol: float,
                       a: Optional[Sequence[float]] = None) -> LambdaCertificate:
    """Evaluate the support equalities and off-support inequalities.

    ``a`` defaults to the square-loss subgradient L alpha - y (a
    singleton); pass another subgradient to audit a different convex
    loss.
    """
    mat, labels = _as_array(L)
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    if alpha.size != mat.shape[1] or y.size != mat.shape[0]:
        raise DomainError("inconsistent certificate dimensions")
    a_vec = mat @ alpha - y if a is None else np.asarray(a, dtype=float)
    g = mat.T @ a_vec
    on = alpha != 0.0
    eq = np.abs(lam + g[on] * np.sign(alpha[on]))
    slack = lam - np.abs(g[~on])
    verdict = bool(np.all(eq <= tol)) and bool(np.all(slack >= -tol))
    return LambdaCertificate(
        support=tuple(lab for lab, flag in zip(labels, on) if flag),
        equality_residuals=tuple(float(v) for v in eq),
        inequality_slacks=tuple(float(v) for v in slack),
        a=tuple(float(v) for v in a_vec), lam=float(lam), tol=float(tol),
        verdict=verdict)


def lambda_max(L, y: Sequence[float]) -> float:
    """Smallest lambda for which the zero solution is optimal: ||L^T y||_inf."""
    mat, _ = _as_array(L)
    y = np.asarray(y, dtype=float)
    g = mat.T @ y
    return float(np.max(np.abs(g), initial=0.0))


def _zero_solution(y: np.ndarray, n: int, tol: float) -> SparseSolution:
    objective = 0.5 * float(y @ y)
    return make_solution([], float(np.max(np.abs(y))), 0, objective, n, tol)


def _vertexify(mat: np.ndarray, labels: Sequence[float], alpha: np.ndarray,
               y: np.ndarray, lam: float, tol: float, attain_tol: float,
               n: int) -> SparseSolution:
    """Map a LASSO minimizer to an extreme point of the solution set.

    All minimizers share the fitted vector L alpha and the l1 norm, so
    basis pursuit restricted to the active columns (those with
    |(L^T a)_j| = lam) returns a vertex with at most rank-many atoms and
    the same objective.
    """
    a = mat @ alpha - y
    g = mat.T @ a
    scale = max(lam, float(np.max(np.abs(g), initial=0.0)), 1.0)
    active = (np.abs(g) >= lam - 10.0 * tol * scale) | (alpha != 0.0)
    if not np.any(active) or float(np.sum(np.abs(alpha))) == 0.0:
        return _zero_solution(y, n, tol)
    cols = np.nonzero(active)[0]
    V = KernelMatrix.build(mat[:, cols], [labels[j] for j in cols], tol)
    atoms, vertex = vertex_atoms(V, mat @ alpha, tol, attain_tol)
    alpha_v = np.zeros(mat.shape[1])
    alpha_v[cols] = vertex
    misfit = mat @ alpha_v - y
    return _reg_solution(atoms, misfit, lam, V.rank, n, tol)


def _reg_solution(atoms, misfit: np.ndarray, lam: float, rank: int, n: int,
                  tol: float) -> SparseSolution:
    """The solution with these atoms and data misfit; its objective charges lam ||atoms||_1."""
    sol = make_solution(sorted(atoms), float(np.max(np.abs(misfit))), rank,
                        math.nan, n, tol)
    return dataclasses.replace(sol, dual_value=0.5 * float(misfit @ misfit) + lam * sol.norm)


def _reg_solve_seq(problem: SeqProblem, lam: float, lams: Sequence[float],
                   walks: dict) -> SparseSolution:
    """The l1(N) LASSO at lam, one of the path ``lams``: one homotopy walk per truncation level.

    At each level K, ``lasso_path`` walks the path on the first K
    coordinates once for every lambda of lams, on first use of K, and
    ``walks`` keeps its outcomes by K for the other lambdas; the level is
    certified once the tail bound of the misfit a = V alpha - y proves the
    off-range inequalities, and the vertex step then picks an extreme point
    of that level's solution set.
    """
    opts = problem.options
    y = problem.y_vector()

    def level(K, V):
        if K not in walks:
            walks[K] = dict(zip(lams, lasso_path(V, y, lams, tol=opts.tol)))
        alpha = walks[K][lam]
        if isinstance(alpha, ConvergenceError):
            raise alpha
        # |<a, column k>| <= sum_i |a_i| tail_i(K) for every k > K, so once
        # that bound sits below lambda the off-range inequalities hold
        return V @ alpha - y, lam * (1.0 - 1e-6), (V, alpha)

    K, (V, alpha), _ = _sequence._certified_truncation(
        problem, opts.truncation_start, level)
    labels = list(range(1, K + 1))
    return _vertexify(V, labels, alpha, y, lam, opts.tol, opts.attain_tol,
                      problem.n)


def certified_lambda_max(base: Union[SeqProblem, GaussProblem]) -> float:
    """Smallest lambda for which the zero solution is optimal, over the
    whole space: sup |sum_i y_i v_i| for sequence problems, with the
    truncation certified by the tail bounds, and sup_t |sum_i y_i K(x_i, t)|
    for Gaussian problems, from the refined attainment points.
    """
    y = base.y_vector()
    if isinstance(base, GaussProblem):
        pts = _measure.find_attainment_points(y, base, attain_tol=1e-9)
        return max(abs(_measure.gauss_eval(y, base, t)) for t in pts)

    def level(K, V):
        value = float(np.max(np.abs(V.T @ y)))
        return y, value * (1.0 - 1e-12), value

    return _sequence._certified_truncation(
        base, base.options.truncation_start, level)[1]


def _polish_reg_atoms(problem: GaussProblem, sites: np.ndarray, w: np.ndarray,
                      lam: float):
    """Newton polish of the regularized stationarity system.

    At an optimal atom the misfit correlation sum_i a_i K(x_i, t_k) equals
    -lam sign(w_k) and is stationary in t_k (a = fitted - y).  Borderline
    center separations make |correlation| quartically flat, so the
    atom locations coming out of the attainment machinery carry a large
    error that this polish removes.  The signs are those of the input
    weights, re-read only when atoms merge.  Returns (sites, w) or None.
    """
    y = problem.y_vector()

    def signs_of(_, t, wt, signs, order):
        return np.sign(wt) if signs is None or t.size < order.size else signs[order]

    def residual(_, t, wt, signs):
        phi = _measure._kernel(problem, t)      # m x n
        a = phi.T @ wt - y
        return np.concatenate([phi @ a + lam * signs,
                               _measure._kernel_dt(problem, t) @ a])

    def jacobian(_, t, wt, signs):
        phi = _measure._kernel(problem, t)
        phid = _measure._kernel_dt(problem, t)
        a = phi.T @ wt - y
        Dw = np.diag(wt)
        return np.block([
            [phi @ phi.T, phi @ phid.T @ Dw + np.diag(phid @ a)],
            [phid @ phi.T, phid @ phid.T @ Dw
             + np.diag(_measure._kernel_dtt(problem, t) @ a)],
        ])

    polished = _measure._newton_polish(problem, np.zeros(0), sites, w, signs_of,
                                       residual, jacobian, 1e-12 * max(1.0, lam))
    return None if polished is None else polished[1:]


def _reg_solve_gauss(problem: GaussProblem, lam: float) -> SparseSolution:
    opts = problem.options
    y = problem.y_vector()
    if certified_lambda_max(problem) <= lam * (1.0 + 1e-12):
        return _zero_solution(y, problem.n, opts.tol)

    cert = _measure.dual_solve_semiinfinite(problem)
    sites = list(cert.attain_points)
    prev_fit: Optional[np.ndarray] = None
    rounds = []  # (support, objective, V, alpha) of each round
    for _ in range(_SUPPORT_ROUNDS):
        V = _measure.kernel_matrix(problem, sites, opts.tol)
        alpha = lasso_solve(V.array, y, lam, tol=opts.tol)
        fitted = V.array @ alpha
        if float(np.sum(np.abs(alpha))) == 0.0:
            return _zero_solution(y, problem.n, opts.tol)
        misfit = fitted - y
        rounds.append((tuple(sites), 0.5 * float(misfit @ misfit)
                       + lam * float(np.sum(np.abs(alpha))), V, alpha))
        if prev_fit is not None and (
                float(np.max(np.abs(fitted - prev_fit)))
                <= opts.tol * (1.0 + float(np.max(np.abs(y))))):
            return _polish_gauss_solution(problem, V, alpha, lam)
        prev_fit = fitted
        sub = dataclasses.replace(problem, y=tuple(float(v) for v in fitted))
        sites = list(_measure.dual_solve_semiinfinite(sub).attain_points)
        # the rounds are deterministic, so a support met before the last
        # round starts a cycle: settle on the round with the least objective
        if tuple(sites) in [r[0] for r in rounds[:-1]]:
            _, _, V, alpha = min(rounds, key=lambda r: r[1])
            return _polish_gauss_solution(problem, V, alpha, lam)
    raise ConvergenceError(
        f"support fixed point not reached in {_SUPPORT_ROUNDS} rounds "
        f"(last support {sites})")


def _polish_gauss_solution(problem: GaussProblem, V: KernelMatrix,
                           alpha: np.ndarray, lam: float) -> SparseSolution:
    sol = _vertexify(V.array, V.labels, alpha, problem.y_vector(), lam,
                     problem.options.tol, problem.options.attain_tol, problem.n)
    if not sol.atoms:
        return sol
    polished = _polish_reg_atoms(problem, np.array(sol.sites()),
                                 sol.coefficients(), lam)
    if polished is None:
        return sol
    sites, w = polished
    keep = np.abs(w) > problem.options.attain_tol * float(np.sum(np.abs(w)))
    sites, w = sites[keep], w[keep]
    if sites.size == 0:
        return _zero_solution(problem.y_vector(), problem.n,
                              problem.options.tol)
    misfit = _measure._kernel(problem, sites).T @ w - problem.y_vector()
    rank = _measure.kernel_matrix(problem, sites, problem.options.tol).rank
    return _reg_solution(zip(sites, w), misfit, lam, rank, problem.n,
                         problem.options.tol)


def reg_solve(problem: RegProblem) -> SparseSolution:
    """Solve the square-loss l1-regularized problem.

    Sequence problems solve the finite LASSO exactly by homotopy in lambda
    on a certified truncation range (the tail bound proves the off-range
    optimality inequalities); Gaussian problems iterate the attainment-set
    machinery, with one homotopy solve over the current sites per round,
    to a support fixed point, or, when the supports cycle, settle on the
    round with the least objective.  Outputs pass ``lambda_certificate``.
    """
    if isinstance(problem.base, SeqProblem):
        return _reg_solve_seq(problem.base, problem.lam, [problem.lam], {})
    return _reg_solve_gauss(problem.base, problem.lam)


def atom_certificate(problem: RegProblem, atoms, tol: float) -> LambdaCertificate:
    """Run lambda_certificate for (site, coeff) atoms on their candidate matrix.

    Sequence sites are 1-based coordinates, audited on the columns
    1..max(truncation_start, largest site) and reported 1-based; Gaussian
    sites are locations, audited on their kernel columns or, with no
    atoms, on the attainment points of y.
    """
    base = problem.base
    y = base.y_vector()
    if isinstance(base, SeqProblem):
        K = max([base.options.truncation_start] + [int(s) for s, _ in atoms])
        alpha = np.zeros(K)
        for site, coeff in atoms:
            alpha[int(site) - 1] = coeff
        cert = lambda_certificate(base.coordinate_matrix(K), alpha, y,
                                  problem.lam, tol)
        return dataclasses.replace(cert, support=tuple(k + 1 for k in cert.support))
    if not atoms:
        atoms = [(t, 0.0) for t in _measure.find_attainment_points(y, base)]
    V = _measure.kernel_matrix(base, [s for s, _ in atoms], base.options.tol)
    return lambda_certificate(V, [c for _, c in atoms], y, problem.lam, tol)


def solution_certificate(problem: RegProblem, sol: SparseSolution,
                         tol: float) -> LambdaCertificate:
    """Run lambda_certificate for a solver output on its candidate matrix."""
    return atom_certificate(problem, sol.atoms, tol)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the regularization-vs-MNI substitution check."""

    fitted: Tuple[float, ...]
    reg_norm: float
    mni_norm: float
    objective_change: float
    zero_regime: bool
    consistent: bool


def reg_mni_consistency(problem: RegProblem, tol: float = 1e-8) -> ConsistencyReport:
    """Check that minimum-norm interpolation of the fitted values leaves
    the regularized objective unchanged.

    Solves the regularized problem, interpolates its fitted vector by the
    matching MNI solver, and verifies that the interpolant's norm does
    not drop below the regularized solution's norm (it cannot rise above
    it either, so the objective is invariant).  A zero fitted vector is
    reported as the degenerate regime rather than an error.
    """
    sol = reg_solve(problem)
    base = problem.base
    y = base.y_vector()
    if not sol.atoms:
        return ConsistencyReport(fitted=tuple(0.0 for _ in y), reg_norm=0.0,
                                 mni_norm=0.0, objective_change=0.0,
                                 zero_regime=True, consistent=True)
    if isinstance(base, SeqProblem):
        V = _sequence.truncation_matrix(base.functionals,
                                        [int(s) for s in sol.sites()],
                                        base.options.tol)
        fitted = V.array @ sol.coefficients()
        sub = dataclasses.replace(base, y=tuple(float(v) for v in fitted))
        mni = _sequence.mni_solve_l1(sub)
        mni_fit = _sequence.truncation_matrix(
            base.functionals, [int(s) for s in mni.sites()],
            base.options.tol).array @ mni.coefficients()
    else:
        V = _measure.kernel_matrix(base, list(sol.sites()), base.options.tol)
        fitted = V.array @ sol.coefficients()
        sub = dataclasses.replace(base, y=tuple(float(v) for v in fitted))
        mni_sol = _measure.mni_solve_measure(sub)
        mni = mni_sol
        mni_fit = _measure.kernel_matrix(
            base, list(mni_sol.locations()),
            base.options.tol).array @ mni_sol.weights()
    reg_norm = sol.norm
    mni_norm = mni.norm if isinstance(mni, SparseSolution) else mni.tv_norm
    obj_reg = 0.5 * float((fitted - y) @ (fitted - y)) + problem.lam * reg_norm
    obj_mni = 0.5 * float((mni_fit - y) @ (mni_fit - y)) + problem.lam * mni_norm
    change = obj_mni - obj_reg
    consistent = (mni_norm <= reg_norm + tol) and (abs(change) <= tol)
    return ConsistencyReport(fitted=tuple(float(v) for v in fitted),
                             reg_norm=reg_norm, mni_norm=mni_norm,
                             objective_change=change, zero_regime=False,
                             consistent=consistent)


@dataclass(frozen=True)
class PathRow:
    lam: float
    atom_count: int
    l1_norm: float
    objective: float
    error: Optional[str] = None


def sparsity_path(base: Union[SeqProblem, GaussProblem],
                  lambdas: Sequence[float]) -> List[PathRow]:
    """One regularized solution per lambda; rows in input order.

    Lambdas must be positive and ascending.  The rows of a sequence
    problem share one homotopy walk per truncation level, and each equals
    the lone ``reg_solve`` at its lambda; Gaussian rows run ``reg_solve``
    one by one.  Per-row solver failures
    (``RkbsError``) are recorded in the row's ``error`` field instead of
    aborting the path; any other exception propagates.
    """
    lams = [float(v) for v in lambdas]
    if any(not l > 0 for l in lams):
        raise DomainError("lambdas must be strictly positive")
    if any(b < a for a, b in zip(lams, lams[1:])):
        raise DomainError("lambdas must be sorted ascending")
    rows: List[PathRow] = []
    walks: dict = {}
    for lam in lams:
        try:
            if isinstance(base, SeqProblem):
                sol = _reg_solve_seq(base, lam, lams, walks)
            else:
                sol = reg_solve(RegProblem(base=base, lam=lam))
            rows.append(PathRow(lam=lam, atom_count=len(sol.atoms),
                                l1_norm=sol.norm, objective=sol.dual_value))
        except RkbsError as exc:  # recorded, not fatal
            rows.append(PathRow(lam=lam, atom_count=-1, l1_norm=math.nan,
                                objective=math.nan, error=str(exc)))
    return rows
