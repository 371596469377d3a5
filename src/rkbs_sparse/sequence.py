"""Sparse minimum-norm interpolation in l1(N).

The dual of the l1 interpolation problem maximizes c.y over combinations
of the measurement functionals with sup norm one.  Because c0 tails are
certified by the functional contract, the semi-infinite constraint set
can be truncated at a level K with a post-hoc certificate: no coordinate
beyond K can be active, and the attainment set of the optimal combined
functional is provably contained in 1..K.  Basis pursuit on the columns
picked out by the attainment set then recovers an extreme-point solution
whose support size is bounded by the rank of the truncated matrix.

Both dual LPs (the working-set LP of the constraint generation and the
lexicographic face LP of the minimal-attainment pass) split c into
c+ - c- >= 0 and hand their 2n dense columns to ``optim.revised_simplex``;
one constraint-generation loop grows the working coordinates of both.

An lp-norm solver (1 < p < inf) is included as a contrast: its solution
is given by a smooth closed form and is generically not sparse.  Damped
Newton solves its dual, under the same ``_certified_truncation`` on lq tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConvergenceError, DomainError, KernelMatrix, SeqProblem,
                   SequenceFunctional, SparseSolution, TruncationError,
                   make_solution, matrix_rank, scaled_sum)
from .optim import OPTIMAL, UNBOUNDED, revised_simplex, vertex_atoms

MAX_TRUNCATION = 2 ** 20
_LP_NEWTON_ROUNDS = 100  # lp dual: Newton rounds per truncation level
_MAX_DEPENDENCY_WINDOW = 2 ** 15  # support_dependency_check: widest window


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


def _certified_truncation(problem: SeqProblem, start: int, level, q: float = math.inf):
    """Double the truncation level K from ``start`` until a tail certificate holds.

    ``level(K, V)``, with V the n x K coordinate matrix, returns
    (weights w, gate, result) for that level.  The lq norm of the
    coordinates beyond K of sum_j w_j v_j is bounded by the tail
    sum_j |w_j| ``lq_tail(K, q)``; the default q = inf bounds their sup.
    The certificate holds once that tail is at most the gate.  Returns
    (K, result, tail); raises TruncationError carrying the tail when K
    reaches MAX_TRUNCATION without it.
    """
    K = start
    while True:
        weights, gate, result = level(K, problem.coordinate_matrix(K))
        tail = float(sum(abs(w) * f.lq_tail(K, q)
                         for w, f in zip(weights, problem.functionals)))
        if tail <= gate:
            return K, result, tail
        if K >= MAX_TRUNCATION:
            raise TruncationError(
                f"tail certificate unreachable at K={K}: certified tail "
                f"{tail:.3e} exceeds its gate {gate:.3e}", residual=tail)
        K *= 2


def _build_certificate(problem: SeqProblem, c: np.ndarray,
                       start: int) -> Tuple[DualCertificate, float]:
    """Certify the combination c and read off its attainment set.

    The tail bound must sit below (1 - attain_tol) times the sup, which
    proves feasibility of c for the untruncated constraints and confines
    the attainment set to 1..K.  Returns (certificate, sup_k<=K |V^T c|).
    """
    attain_tol = problem.options.attain_tol

    def level(K, V):
        coords = V.T @ c
        sup = float(np.max(np.abs(coords)))
        return c, (1.0 - attain_tol) * sup, (coords, sup)

    K, (coords, sup), tail = _certified_truncation(problem, start, level)
    m0 = float(problem.y_vector() @ c)
    attaining = np.abs(coords) >= sup * (1.0 - attain_tol)
    attain = tuple(int(k) for k in np.nonzero(attaining)[0] + 1)
    outside = np.abs(coords)[~attaining]
    worst_outside = float(np.max(outside)) if outside.size else 0.0
    margin = sup - max(worst_outside, tail)
    combined = scaled_sum(m0 * c, problem.functionals)
    return DualCertificate(coefficients=tuple(float(v) for v in c), value=m0,
                           combined=combined, attainment=attain,
                           truncation_used=K, margin=margin), sup


def _generate_constraints(V: np.ndarray, work: np.ndarray, solve, what: str):
    """Constraint generation over the coordinate columns of V.

    ``solve(columns)`` returns the dual combination c for the working
    coordinates ``work`` (1-based); each round adds the coordinates where
    |V^T c| exceeds 1 + 1e-9, at most 64 of them, the most violated
    first.  Returns (c, V^T c, work) once no coordinate of V is violated.
    """
    for _ in range(200):
        c = solve(V[:, work - 1])
        g = V.T @ c
        viol = np.nonzero(np.abs(g) > 1.0 + 1e-9)[0] + 1
        fresh = np.setdiff1d(viol, work)
        if fresh.size == 0:
            return c, g, work
        if fresh.size > 64:
            fresh = fresh[np.argsort(-np.abs(g[fresh - 1]))[:64]]
        work = np.union1d(work, fresh)
    raise ConvergenceError(f"{what} did not settle")


def _solve_working_lp(problem: SeqProblem, columns: np.ndarray) -> np.ndarray:
    """max c.y s.t. |sum_j c_j v_{j,k}| <= 1 for the working coordinates.

    Over c = c+ - c-, with each coordinate's c+ and c- columns side by
    side and cost (-y_j, +y_j) on them, the rows (columns^T, -columns^T)
    are 2W inequalities u-row <= 1.
    """
    rows = np.vstack([columns.T, -columns.T])
    A = np.stack([rows, -rows], axis=2).reshape(rows.shape[0], -1)
    cost = np.stack([-problem.y_vector(), problem.y_vector()], axis=1).ravel()
    u, status = revised_simplex(A, np.ones(A.shape[0]), cost, A.shape[0], problem.options.tol)
    if status == UNBOUNDED:
        raise DomainError("dual problem unbounded; functionals do not separate y")
    if status != OPTIMAL:
        raise ConvergenceError(f"dual LP failed with status {status}")
    return (u[::2] + 0.0) - u[1::2]  # + 0.0 keeps zeros unsigned


def _dual_solve_generated(problem: SeqProblem):
    """Dual LP by constraint generation under a growing tail certificate.

    The LP only ever carries the working coordinate set (initially
    1..truncation_start); the certificate range doubles independently and
    is checked by evaluation, so constraints never materialize beyond the
    working set.  Returns (c, K).
    """
    opts = problem.options
    work = np.arange(1, opts.truncation_start + 1)

    def level(K, V):
        nonlocal work
        if K == opts.truncation_start and matrix_rank(V, opts.tol) < problem.n:
            raise DomainError("functionals are linearly dependent on the truncated range")
        c, g, work = _generate_constraints(
            V, work, lambda columns: _solve_working_lp(problem, columns),
            "dual constraint generation")
        return c, (1.0 - opts.attain_tol) * float(np.max(np.abs(g))), c

    K, c, _ = _certified_truncation(problem, opts.truncation_start, level)
    return c, K


def _lex_min_l1_on_face(problem: SeqProblem, columns: np.ndarray,
                        m0: float) -> np.ndarray:
    """Lexicographic l1 minimization over the optimal dual face.

    Split variables u = [c+, c-] >= 0; first minimize sum(c+ + c-) subject
    to the working sup-norm constraints and c.y = m0, then pin each
    coordinate in turn.  Every LP has the 2W sup-norm rows
    (columns^T, -columns^T) as u-rows (r, -r) <= 1, then the equality
    rows, each pinning a value it reached.
    """
    n, W = columns.shape
    y = problem.y_vector()
    tol = problem.options.tol
    ineq = np.block([[columns.T, -columns.T], [-columns.T, columns.T]])
    eq_rows: List[np.ndarray] = [np.concatenate([y, -y])]
    eq_rhs: List[float] = [m0]

    def solve(obj):
        u, status = revised_simplex(np.vstack([ineq] + eq_rows),
                                    np.concatenate((np.ones(2 * W), eq_rhs)),
                                    obj, 2 * W, tol)
        return u + 0.0, status  # + 0.0 keeps zeros unsigned

    obj = np.ones(2 * n)
    u, status = solve(obj)
    if status != OPTIMAL:
        raise ConvergenceError("minimal-attainment pass infeasible")
    for j in range(n):
        eq_rows.append(obj)
        eq_rhs.append(float(obj @ u))
        obj = np.zeros(2 * n)
        obj[j] = 1.0
        obj[n + j] = -1.0
        pinned, status = solve(obj)
        if status != OPTIMAL:
            break
        u = pinned
    return u[:n] - u[n:]


def _minimal_attainment_pass(problem: SeqProblem, K: int, m0: float) -> np.ndarray:
    """Sparsity-seeking reselection over the dual optimal face.

    Sparse dual combinations tend to attain their sup norm at fewer
    coordinates, which shrinks the truncation matrix and its rank.  Runs
    with the same constraint generation as the primary solve.
    """
    work = np.arange(1, min(K, problem.options.truncation_start) + 1)
    c, _, _ = _generate_constraints(
        problem.coordinate_matrix(K), work,
        lambda columns: _lex_min_l1_on_face(problem, columns, m0),
        "minimal-attainment generation")
    return c


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
    c, K = _dual_solve_generated(problem)
    cert, sup = _build_certificate(problem, c, K)
    if minimal_attainment:
        c = _minimal_attainment_pass(problem, cert.truncation_used, cert.value)
        cert, sup = _build_certificate(problem, c, cert.truncation_used)
    # the <= 1 relaxation of the norm-one constraint must be tight at the
    # optimum (homogeneity, y != 0)
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
    cert, sup = _build_certificate(problem, c, problem.options.truncation_start)
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
    atoms, alpha = vertex_atoms(V, y, tol, problem.options.attain_tol)
    residual = float(np.max(np.abs(V.array @ alpha - y)))
    return make_solution(atoms, residual, V.rank, cert.value, problem.n, tol,
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

def _closed_form(w: np.ndarray, q: float, value: float) -> np.ndarray:
    """x_k = w_k |w_k|^(q-2) / value^(q-2), and 0 where w_k = 0."""
    out = np.zeros(w.size)
    nz = w != 0.0
    out[nz] = w[nz] * np.abs(w[nz]) ** (q - 2.0) / value ** (q - 2.0)
    return out


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
        return float(_closed_form(np.array([self.combined.eval(k)]), self.q, self.value)[0])

    def coordinates(self, upto: int) -> np.ndarray:
        return _closed_form(self.combined.coordinates(upto), self.q, self.value)

    @property
    def norm_p(self) -> float:
        return self.value


def _lp_newton(V: np.ndarray, c: np.ndarray, basis: np.ndarray, q: float) -> np.ndarray:
    """Minimize phi = sum_k |u_k|^q / q, u = V^T c, over c + span(basis).

    Damped Newton with Armijo backtracking (Boyd & Vandenberghe 2004,
    sec. 9.5), on u / max|u| so that |u|^q cannot overflow.  Hessian
    weights |u_k|^(q-2) are 0 where u_k = 0, and curvature at rounding
    level (dependent functionals) takes no step.  Stops at a decrement of
    16 eps phi, after one more full step unless it raises phi by more than
    that (phi alone cannot resolve the last digits of c); raises
    ConvergenceError with the decrement after _LP_NEWTON_ROUNDS rounds or
    a failed line search.  ``measure._newton_polish`` merges atoms and
    rereads signs every round, and lp has no atoms, so it is not reused.
    """
    eps = np.finfo(float).eps
    Vb = basis.T @ V
    floor = eps * len(c) * (q - 1.0) * np.einsum("ik,ik->k", V, V)
    for rounds in range(_LP_NEWTON_ROUNDS + 1):
        u = V.T @ c
        scale = float(np.max(np.abs(u)))
        if not scale > 0.0:
            raise DomainError("functionals vanish on the dual slice; y is not interpolable")
        w = u / scale
        a = np.abs(w)
        weight = np.where(a > 0.0, a, 1.0) ** (q - 2.0) * (a > 0.0)
        grad = Vb @ (np.sign(w) * a ** (q - 1.0))
        lam, Q = np.linalg.eigh((q - 1.0) * (Vb * weight) @ Vb.T)
        keep = lam > float(weight @ floor)
        z = Q[:, keep] @ ((Q[:, keep].T @ -grad) / lam[keep])
        decrement, value = -float(grad @ z), float(np.sum(a ** q)) / q
        rounding = 16.0 * eps * value

        def phi(t, dw=Vb.T @ z):
            return float(np.sum(np.abs(w + t * dw) ** q)) / q

        if decrement <= rounding:
            return c + scale * (basis @ z) if phi(1.0) <= value + rounding else c
        t = 1.0
        while rounds < _LP_NEWTON_ROUNDS and t >= eps and phi(t) > value - 0.25 * t * decrement:
            t *= 0.5
        if rounds == _LP_NEWTON_ROUNDS or t < eps:
            raise ConvergenceError(f"lp dual Newton stopped after {rounds} rounds at "
                                   f"decrement {decrement:.3e}", residual=decrement)
        c = c + t * scale * (basis @ z)


def mni_solve_lp(problem: SeqProblem, p: float,
                 truncation: Optional[int] = None) -> LpSolution:
    """Minimum lp-norm interpolation via the smooth reciprocal dual.

    Minimizes ||sum_j c_j v_j||_q over the slice c.y = 1 by ``_lp_newton``
    on an orthonormal basis of y's complement, and returns the closed-form
    solution of the rescaled dual.  Its V x = y holds exactly when c is
    stationary on the slice, so the 1e-6 interpolation check certifies it.

    K doubles through ``_certified_truncation`` on the lq tail, each level
    warm-started from the last: from ``options.truncation_start`` until
    the tail is below 2% of the dual norm or K reaches 2**17 (slow tails
    such as the harmonic one make tighter gates unreachable), or fixed at
    a whole-number ``truncation``.  Compare with the normal-equations
    oracle at the same K; the reported ``tail_bound``, the lq tail
    sum_j |c_j| lq_tail(K, q) of the reported c, bounds the bias.
    """
    if not 1.0 < p < math.inf:
        raise DomainError("p must lie in (1, inf)")
    whole = isinstance(truncation, (int, np.integer)) and not isinstance(truncation, bool)
    if truncation is not None and not (whole and 1 <= truncation <= MAX_TRUNCATION):
        raise DomainError(f"truncation must be a whole number in 1..{MAX_TRUNCATION}")
    y = problem.y_vector()
    if float(np.max(np.abs(y))) == 0.0:
        raise DomainError("y must be nonzero")
    q = p / (p - 1.0)
    basis = np.linalg.qr(y[:, None], mode="complete")[0][:, 1:]
    c = y / float(y @ y)

    def level(K, V):
        nonlocal c
        c = _lp_newton(V, c, basis, q)
        u = np.abs(V.T @ c)
        J = float(u.max() * np.linalg.norm(u / u.max(), q))
        return c, math.inf if truncation or K >= 2 ** 17 else 0.02 * J, (J, V)

    K, (J, V), tail = _certified_truncation(
        problem, truncation or problem.options.truncation_start, level, q)
    m0, c_hat = 1.0 / J, c / J
    combined = scaled_sum(m0 * c_hat, problem.functionals)
    residual = float(np.max(np.abs(V @ _closed_form(combined.coordinates(K), q, m0) - y)))
    if residual > 1e-6 * (1.0 + float(np.max(np.abs(y)))):
        raise ConvergenceError(f"lp solution violates interpolation beyond 1e-6 "
                               f"(residual {residual:.3e})", residual=residual)
    return LpSolution(p=p, q=q, dual_coefficients=tuple(float(v) for v in c_hat),
                      value=m0, combined=combined, truncation_used=K,
                      tail_bound=m0 * tail, interp_residual=residual)


INDEPENDENT = "independent"
DEPENDENT = "dependent"
INCONCLUSIVE = "inconclusive"


def support_dependency_check(functionals: Sequence[SequenceFunctional],
                             after: int, tol: float = 1e-9) -> str:
    """Decide whether the tails of the functionals beyond ``after`` are
    linearly dependent.

    Full numerical rank on a sampled window certifies independence (and
    hence that no lp solution can be supported inside 1..after); rank
    deficiency certifies dependence only once the tail bounds vanish
    beyond the window.  Otherwise the window doubles, and the check
    reports ``inconclusive`` once it reaches ``_MAX_DEPENDENCY_WINDOW``.
    """
    if after < 1:
        raise DomainError("after must be >= 1")
    n = len(functionals)
    window = max(16, 2 * n)
    while True:
        block = np.vstack([f.coordinates(after + window)[after:] for f in functionals])
        if matrix_rank(block, tol) == n:
            return INDEPENDENT
        if all(f.tail_bound(after + window) == 0.0 for f in functionals):
            return DEPENDENT
        if window >= _MAX_DEPENDENCY_WINDOW:
            return INCONCLUSIVE
        window *= 2
