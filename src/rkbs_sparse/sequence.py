"""Sparse minimum-norm interpolation in l1(N).

The dual of the l1 interpolation problem maximizes c.y over combinations
of the measurement functionals with sup norm one.  Because c0 tails are
certified by the functional contract, the semi-infinite constraint set
can be truncated at a level K with a post-hoc certificate: no coordinate
beyond K can be active, and the attainment set of the optimal combined
functional is provably contained in 1..K.  Basis pursuit on the columns
picked out by the attainment set then recovers an extreme-point solution
whose support size is bounded by the rank of the truncated matrix.

An lp-norm solver (1 < p < inf) is included as a contrast: its solution
is given by a smooth closed form and is generically not sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConvergenceError, DomainError, KernelMatrix, SeqProblem,
                   SequenceFunctional, SparseSolution, TruncationError,
                   make_solution, prune_atoms, scaled_sum)
from .optim import OPTIMAL, UNBOUNDED, basis_pursuit, linear_program, lp_solve

_MAX_TRUNCATION = 2 ** 20


@dataclass(frozen=True)
class DualCertificate:
    """Optimal dual data for an l1 interpolation problem.

    ``coefficients`` c normalize the combined functional to sup norm one,
    ``value`` is the shared optimal value m0 of primal and dual, and
    ``combined`` is the scaled combination m0 * sum_j c_j v_j whose
    attainment set (1-based indices, within the certified truncation)
    localizes every solution atom.  ``margin`` is the certified gap
    between the sup norm and everything outside the attainment set.
    """

    coefficients: Tuple[float, ...]
    value: float
    combined: SequenceFunctional
    attainment: Tuple[int, ...]
    truncation_used: int
    margin: float

    def coefficient_vector(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)


def _certify(problem: SeqProblem, c: np.ndarray, start: int):
    """Find a truncation K whose tail certificate covers the combination c.

    Returns (K, coords of sum_j c_j v_j on 1..K, sup, tail bound).  The
    certificate requires the tail bound to sit below (1 - attain_tol)
    times the sup, which simultaneously proves feasibility of c for the
    untruncated constraints and confines the attainment set to 1..K.
    """
    attain_tol = problem.options.attain_tol
    K = start
    while True:
        V = problem.coordinate_matrix(K)
        coords = V.T @ c
        sup = float(np.max(np.abs(coords)))
        tail = float(sum(abs(cj) * f.tail_bound(K)
                         for cj, f in zip(c, problem.functionals)))
        if tail <= (1.0 - attain_tol) * sup:
            return K, coords, sup, tail
        if K >= _MAX_TRUNCATION:
            raise TruncationError(
                f"tail certificate unreachable at K={K}: certified tail {tail:.3e} "
                f"exceeds (1 - attain_tol) * sup = {(1.0 - attain_tol) * sup:.3e}",
                residual=tail)
        K *= 2


def _build_certificate(problem: SeqProblem, c: np.ndarray, start: int) -> DualCertificate:
    attain_tol = problem.options.attain_tol
    K, coords, sup, tail = _certify(problem, c, start)
    m0 = float(problem.y_vector() @ c)
    attaining = np.abs(coords) >= sup * (1.0 - attain_tol)
    attain = tuple(int(k) for k in np.nonzero(attaining)[0] + 1)
    outside = np.abs(coords)[~attaining]
    worst_outside = float(np.max(outside)) if outside.size else 0.0
    margin = sup - max(worst_outside, tail)
    combined = scaled_sum(m0 * c, problem.functionals)
    return DualCertificate(coefficients=tuple(float(v) for v in c), value=m0,
                           combined=combined, attainment=attain,
                           truncation_used=K, margin=margin)


def _solve_working_lp(problem: SeqProblem, columns: np.ndarray) -> np.ndarray:
    """max c.y s.t. |sum_j c_j v_{j,k}| <= 1 for the working coordinates."""
    A = np.vstack([columns.T, -columns.T])
    b = np.ones(A.shape[0])
    lp = linear_program(problem.y_vector(), A, b, ["<="] * A.shape[0],
                        [(None, None)] * problem.n, maximize=True)
    sol = lp_solve(lp, problem.options.tol)
    if sol.status == UNBOUNDED:
        raise DomainError("dual problem unbounded; functionals do not separate y")
    if sol.status != OPTIMAL:
        raise ConvergenceError(f"dual LP failed with status {sol.status}")
    return sol.x


def _new_violations(g: np.ndarray, work: np.ndarray, limit: int = 64) -> np.ndarray:
    """Constraint indices (1-based) violated by the current combination."""
    viol = np.nonzero(np.abs(g) > 1.0 + 1e-9)[0] + 1
    fresh = np.setdiff1d(viol, work)
    if fresh.size > limit:
        order = np.argsort(-np.abs(g[fresh - 1]))
        fresh = fresh[order[:limit]]
    return fresh


def _dual_solve_generated(problem: SeqProblem):
    """Dual LP by constraint generation under a growing tail certificate.

    The LP only ever carries the working coordinate set (initially
    1..truncation_start); the certificate range doubles independently and
    is checked by evaluation, so constraints never materialize beyond the
    working set.  Returns (c, K, coords on 1..K).
    """
    opts = problem.options
    from .core import matrix_rank
    K = opts.truncation_start
    coords_all = problem.coordinate_matrix(K)
    if matrix_rank(coords_all, opts.tol) < problem.n:
        raise DomainError("functionals are linearly dependent on the truncated range")
    work = np.arange(1, K + 1)
    for _ in range(200):
        c = _solve_working_lp(problem, coords_all[:, work - 1])
        g = coords_all.T @ c
        fresh = _new_violations(g, work)
        if fresh.size:
            work = np.union1d(work, fresh)
            continue
        sup = float(np.max(np.abs(g)))
        tail = float(sum(abs(cj) * f.tail_bound(K)
                         for cj, f in zip(c, problem.functionals)))
        if tail <= (1.0 - opts.attain_tol) * sup:
            return c, K, g
        if K >= _MAX_TRUNCATION:
            raise TruncationError(
                f"tail certificate unreachable at K={K}: certified tail "
                f"{tail:.3e} exceeds (1 - attain_tol) * sup = "
                f"{(1.0 - opts.attain_tol) * sup:.3e}", residual=tail)
        K *= 2
        coords_all = problem.coordinate_matrix(K)
    raise ConvergenceError("dual constraint generation did not settle")


def _lex_min_l1_on_face(problem: SeqProblem, columns: np.ndarray,
                        m0: float) -> np.ndarray:
    """Lexicographic l1 minimization over the optimal dual face.

    Split variables u = [c+, c-] >= 0; first minimize sum(c+ + c-) subject
    to the working sup-norm constraints and c.y = m0, then pin each
    coordinate in turn.
    """
    n = problem.n
    y = problem.y_vector()
    rows: List[np.ndarray] = []
    rhs: List[float] = []
    senses: List[str] = []
    for block in (columns.T, -columns.T):
        for r in block:
            rows.append(np.concatenate([r, -r]))
            rhs.append(1.0)
            senses.append("<=")
    rows.append(np.concatenate([y, -y]))
    rhs.append(m0)
    senses.append("==")

    bounds = [(0.0, None)] * (2 * n)
    lp = linear_program(np.ones(2 * n), np.vstack(rows), np.array(rhs), senses,
                        bounds)
    sol = lp_solve(lp, problem.options.tol)
    if sol.status != OPTIMAL:
        raise ConvergenceError("minimal-attainment pass infeasible")
    rows.append(np.ones(2 * n))
    rhs.append(sol.objective_value)
    senses.append("==")

    u = sol.x
    for j in range(n):
        obj = np.zeros(2 * n)
        obj[j] = 1.0
        obj[n + j] = -1.0
        lp = linear_program(obj, np.vstack(rows), np.array(rhs), senses, bounds)
        sol = lp_solve(lp, problem.options.tol)
        if sol.status != OPTIMAL:
            break
        u = sol.x
        rows.append(obj)
        rhs.append(sol.objective_value)
        senses.append("==")
    return u[:n] - u[n:]


def _minimal_attainment_pass(problem: SeqProblem, K: int, m0: float) -> np.ndarray:
    """Sparsity-seeking reselection over the dual optimal face.

    Sparse dual combinations tend to attain their sup norm at fewer
    coordinates, which shrinks the truncation matrix and its rank.  Runs
    with the same constraint generation as the primary solve.
    """
    coords_all = problem.coordinate_matrix(K)
    work = np.arange(1, min(K, problem.options.truncation_start) + 1)
    for _ in range(200):
        c = _lex_min_l1_on_face(problem, coords_all[:, work - 1], m0)
        fresh = _new_violations(coords_all.T @ c, work)
        if fresh.size == 0:
            return c
        work = np.union1d(work, fresh)
    raise ConvergenceError("minimal-attainment generation did not settle")


def dual_solve_l1(problem: SeqProblem, minimal_attainment: bool = False) -> DualCertificate:
    """Solve the dual problem sup { c.y : ||sum_j c_j v_j||_inf = 1 }.

    The norm-one equality is relaxed to <= 1; for y != 0 the optimum lies
    on the boundary by homogeneity.  The truncation level starts at
    ``options.truncation_start`` and doubles until the tail certificate
    holds for the returned coefficients (constraints beyond the working
    set are enforced by evaluation and generated on demand).  With
    ``minimal_attainment`` a secondary LP pass picks, among the optimal
    dual solutions, one whose attainment set is typically smallest (the
    vertex solution is returned otherwise).
    """
    y = problem.y_vector()
    if float(np.max(np.abs(y))) == 0.0:
        raise DomainError("y must be nonzero")
    c, K, _ = _dual_solve_generated(problem)
    cert = _build_certificate(problem, c, K)
    if minimal_attainment:
        c = _minimal_attainment_pass(problem, cert.truncation_used, cert.value)
        cert = _build_certificate(problem, c, cert.truncation_used)
    # the <= 1 relaxation of the norm-one constraint must be tight at the
    # optimum (homogeneity, y != 0)
    coords = problem.coordinate_matrix(cert.truncation_used).T \
        @ cert.coefficient_vector()
    sup = float(np.max(np.abs(coords)))
    if abs(sup - 1.0) > 100.0 * problem.options.tol:
        raise ConvergenceError(
            f"dual optimum is not on the norm-one boundary (sup {sup:.12g})",
            residual=abs(sup - 1.0))
    return cert


def certificate_from_coefficients(problem: SeqProblem, c: Sequence[float]) -> DualCertificate:
    """Build the certificate induced by explicitly chosen dual coefficients.

    Validates that the combination has sup norm one on the certified
    range; the caller is responsible for optimality (norming_check in the
    oracle module provides an independent test).
    """
    c = np.asarray(c, dtype=float)
    if c.size != problem.n:
        raise DomainError("coefficient length must match the number of functionals")
    cert = _build_certificate(problem, c, problem.options.truncation_start)
    coords = problem.coordinate_matrix(cert.truncation_used).T @ c
    sup = float(np.max(np.abs(coords)))
    if abs(sup - 1.0) > problem.options.tol * 10.0:
        raise DomainError(f"combination has sup norm {sup:.12g}, expected 1")
    return cert


def attainment_set(cert: DualCertificate, attain_tol: float) -> List[int]:
    """Indices k <= truncation with |combined_k| >= sup * (1 - attain_tol).

    Finite by construction: the certificate's tail bound excludes every
    coordinate beyond the truncation level.
    """
    coords = cert.combined.coordinates(cert.truncation_used)
    sup = float(np.max(np.abs(coords)))
    if sup == 0.0:
        raise DomainError("combined functional is zero")
    return [int(k) for k in np.nonzero(np.abs(coords) >= sup * (1.0 - attain_tol))[0] + 1]


def truncation_matrix(functionals: Sequence[SequenceFunctional],
                      indices: Sequence[int], tol: float = 1e-9) -> KernelMatrix:
    """Measurement matrix restricted to the given coordinate indices.

    Entry (i, j) = v_i at index k_j; indices must be sorted and distinct.
    """
    idx = list(indices)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise DomainError("indices must be sorted and distinct")
    if any(k < 1 for k in idx):
        raise DomainError("indices are 1-based and must be >= 1")
    array = np.array([[f.eval(k) for k in idx] for f in functionals], dtype=float)
    return KernelMatrix.build(array, idx, tol)


def mni_solve_l1(problem: SeqProblem, minimal_attainment: bool = False) -> SparseSolution:
    """Minimum l1-norm interpolation: dual certificate, attainment set,
    truncated basis pursuit.

    The returned atoms (k_j, alpha_j) satisfy sum_j |alpha_j| = dual value,
    the atom count is bounded by the rank of the truncation matrix, and
    the interpolation residual is at most tol * (1 + ||y||_inf).  The
    solution carries the DualCertificate it was built from.
    """
    cert = dual_solve_l1(problem, minimal_attainment=minimal_attainment)
    tol = problem.options.tol
    V = truncation_matrix(problem.functionals, cert.attainment, tol)
    y = problem.y_vector()
    bp = basis_pursuit(V.array, y, tol)
    if bp.status != OPTIMAL:
        raise ConvergenceError(
            f"basis pursuit on the attainment columns returned {bp.status}; "
            "the dual certificate is inconsistent with the data")
    atoms = prune_atoms(cert.attainment, bp.x, problem.options.attain_tol)
    alpha = np.zeros(len(cert.attainment))
    site_pos = {site: i for i, site in enumerate(cert.attainment)}
    for site, coeff in atoms:
        alpha[site_pos[site]] = coeff
    residual = float(np.max(np.abs(V.array @ alpha - y)))
    norm = float(np.sum(np.abs(alpha)))
    return make_solution(atoms, norm, residual, V.rank, cert.value, problem.n, tol,
                         certificate=cert)


def linf_subdiff_extreme_points(v: SequenceFunctional, upto: int,
                                attain_tol: float = 1e-12) -> List[Tuple[int, float]]:
    """Signed coordinate atoms (k, sign(v_k)) at which v attains its sup norm.

    Each atom, read as sign * e_k, is an extreme point of the l1 unit
    ball, has unit l1 norm, and pairs with v to exactly ||v||_inf: the
    norming-functional property.  Requires the tail beyond ``upto`` to be
    certified below the sup norm.
    """
    coords = v.coordinates(upto)
    sup = float(np.max(np.abs(coords)))
    if sup == 0.0:
        raise DomainError("zero functional has no norming atoms")
    if v.tail_bound(upto) >= sup:
        raise DomainError("tail bound not certified below the sup norm; increase upto")
    out = []
    for k in np.nonzero(np.abs(coords) >= sup * (1.0 - attain_tol))[0]:
        out.append((int(k) + 1, 1.0 if coords[k] > 0 else -1.0))
    return out


# ---------------------------------------------------------------------------
# lp-norm contrast solver (1 < p < inf)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LpSolution:
    """Closed-form lp interpolation solution driven by its dual coefficients.

    The solution coordinates are x_k = w_k |w_k|^(q-2) / ||w||_q^(q-2)
    where w is the scaled dual combination; generically every coordinate
    is nonzero, which is the point of the contrast with l1.
    """

    p: float
    q: float
    dual_coefficients: Tuple[float, ...]
    value: float
    combined: SequenceFunctional
    truncation_used: int
    tail_bound: float
    interp_residual: float

    def eval(self, k: int) -> float:
        w = self.combined.eval(k)
        if w == 0.0:
            return 0.0
        return w * abs(w) ** (self.q - 2.0) / self.value ** (self.q - 2.0)

    def coordinates(self, upto: int) -> np.ndarray:
        w = self.combined.coordinates(upto)
        out = np.zeros(upto)
        nz = w != 0.0
        out[nz] = w[nz] * np.abs(w[nz]) ** (self.q - 2.0) / self.value ** (self.q - 2.0)
        return out

    @property
    def norm_p(self) -> float:
        return self.value


def _dual_norm_value(problem: SeqProblem, c: np.ndarray, K: int, q: float) -> float:
    u = problem.coordinate_matrix(K).T @ c
    return float(np.sum(np.abs(u) ** q) ** (1.0 / q))


def mni_solve_lp(problem: SeqProblem, p: float,
                 truncation: Optional[int] = None,
                 grad_tol: float = 1e-12, max_iters: int = 100_000) -> LpSolution:
    """Minimum lp-norm interpolation via the smooth reciprocal dual.

    Minimizes ||sum_j c_j v_j||_q over the affine slice c.y = 1 by
    projected gradient with backtracking, then rescales to the unit-norm
    dual form and returns the closed-form solution evaluator.

    The series is truncated: with ``truncation`` unset, the level doubles
    until the certified lq tail is below 2% of the dual norm (slowly
    decaying tails such as the harmonic one make much tighter gates
    unreachable).  The certified ``tail_bound`` is reported on the
    solution so callers can judge the truncation bias; comparisons
    against the normal-equations oracle should run both at the same
    level.
    """
    if not 1.0 < p < math.inf:
        raise DomainError("p must lie in (1, inf)")
    y = problem.y_vector()
    if float(np.max(np.abs(y))) == 0.0:
        raise DomainError("y must be nonzero")
    q = p / (p - 1.0)
    K = truncation if truncation is not None else problem.options.truncation_start
    c = y / float(y @ y)
    yy = float(y @ y)

    # rounding in |u|^(q-1) floors the reachable gradient norm for
    # ill-conditioned q; stalls are accepted and the interpolation
    # post-condition is enforced on the result instead
    stall_tol = 1e-6

    while True:
        V = problem.coordinate_matrix(K)
        converged = False
        grad_norm = math.inf
        J = math.inf
        for _ in range(max_iters):
            u = V.T @ c
            J = float(np.sum(np.abs(u) ** q) ** (1.0 / q))
            gu = np.sign(u) * np.abs(u) ** (q - 1.0) / J ** (q - 1.0)
            grad = V @ gu
            grad -= y * (float(y @ grad) / yy)  # project onto {c.y = 1}
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm <= grad_tol * max(1.0, J):
                converged = True
                break
            step = 1.0
            improved = False
            J_try = J
            for _ in range(60):
                c_try = c - step * grad
                J_try = _dual_norm_value(problem, c_try, K, q)
                if J_try <= J - 0.5 * step * grad_norm ** 2:
                    c = c_try
                    improved = True
                    break
                step *= 0.5
            if not improved or J - J_try <= 1e-16 * max(1.0, J):
                converged = grad_norm <= stall_tol * max(1.0, J)
                break
        else:
            converged = grad_norm <= stall_tol * max(1.0, J)
        if not converged:
            raise ConvergenceError(
                f"lp dual solver stalled with projected gradient norm {grad_norm:.3e}",
                residual=grad_norm)
        J = _dual_norm_value(problem, c, K, q)
        tail = float(sum(abs(cj) * f.lq_tail(K, q)
                         for cj, f in zip(c, problem.functionals)))
        if truncation is not None or tail <= 0.02 * J or K >= 2 ** 17:
            break
        K *= 2

    c_hat = c / J
    m0 = 1.0 / J
    combined = scaled_sum(m0 * c_hat, problem.functionals)
    sol = LpSolution(p=p, q=q, dual_coefficients=tuple(float(v) for v in c_hat),
                     value=m0, combined=combined, truncation_used=K,
                     tail_bound=tail, interp_residual=0.0)
    xs = sol.coordinates(K)
    residual = float(np.max(np.abs(problem.coordinate_matrix(K) @ xs - y)))
    if residual > 1e-6 * (1.0 + float(np.max(np.abs(y)))):
        raise ConvergenceError(
            f"lp solution violates interpolation beyond 1e-6 "
            f"(residual {residual:.3e}, gradient {grad_norm:.3e})",
            residual=residual)
    return LpSolution(p=p, q=q, dual_coefficients=sol.dual_coefficients,
                      value=m0, combined=combined, truncation_used=K,
                      tail_bound=tail, interp_residual=residual)


INDEPENDENT = "independent"
DEPENDENT = "dependent"
INCONCLUSIVE = "inconclusive"


def support_dependency_check(functionals: Sequence[SequenceFunctional],
                             after: int, tol: float = 1e-9,
                             max_window: int = 2 ** 15) -> str:
    """Decide whether the tails of the functionals beyond ``after`` are
    linearly dependent.

    Full numerical rank on a sampled window certifies independence (and
    hence that no lp solution can be supported inside 1..after); rank
    deficiency certifies dependence only once the tail bounds vanish
    beyond the window.  Otherwise the window doubles, and the check
    reports ``inconclusive`` if the cap is reached.
    """
    if after < 1:
        raise DomainError("after must be >= 1")
    n = len(functionals)
    window = max(16, 2 * n)
    from .core import matrix_rank
    while True:
        block = np.vstack([f.coordinates(after + window)[after:] for f in functionals])
        if matrix_rank(block, tol) == n:
            return INDEPENDENT
        if all(f.tail_bound(after + window) == 0.0 for f in functionals):
            return DEPENDENT
        if window >= max_window:
            return INCONCLUSIVE
        window *= 2
