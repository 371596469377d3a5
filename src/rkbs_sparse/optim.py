"""Finite-dimensional optimization kernels.

A dense two-phase tableau simplex with Bland's anti-cycling rule
(deterministic, vertex-returning), an exact l1 basis-pursuit solver built
on it, and a restarted accelerated proximal-gradient solver for the
square-loss l1-regularized subproblem.  Desk scale throughout: a few
hundred rows at most.  Each tableau is allocated once and filled by
vectorized indexing, so assembly costs little next to the pivots; the
pivot rule is plain Bland, so every LP follows one fixed pivot sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import ConvergenceError, DomainError, matrix_rank

_PIVOT_TOL = 1e-11
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0, "==": 0.0}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min/max objective . x subject to row constraints and variable bounds.

    ``senses`` holds one of '<=', '==', '>=' per row; ``bounds`` one
    (lower, upper) pair per variable with None meaning unbounded.
    """

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: Tuple[str, ...]
    bounds: Tuple[Tuple[Optional[float], Optional[float]], ...]
    maximize: bool = False

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float)
        if a.shape != (b.size, c.size):
            raise DomainError("inconsistent LP dimensions")
        if len(self.senses) != b.size or len(self.bounds) != c.size:
            raise DomainError("senses/bounds lengths do not match")
        if any(s not in ("<=", "==", ">=") for s in self.senses):
            raise DomainError("row sense must be one of <=, ==, >=")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DomainError("LP data must be finite")


def linear_program(objective, A, b, senses, bounds, maximize=False) -> LinearProgram:
    return LinearProgram(objective=np.asarray(objective, dtype=float),
                         A=np.atleast_2d(np.asarray(A, dtype=float)),
                         b=np.asarray(b, dtype=float),
                         senses=tuple(senses), bounds=tuple(bounds),
                         maximize=maximize)


@dataclass(frozen=True)
class VertexSolution:
    """A basic (vertex) solution: point, value, basis column set, status."""

    x: np.ndarray
    objective_value: float
    basis: Tuple[int, ...]
    status: str


def _bland_phase(T: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                 piv_tol: float) -> str:
    """Run simplex iterations in place on tableau T = [A | b].

    ``basis`` maps rows to basic columns; entering and leaving variables
    follow Bland's smallest-index rule, which guarantees termination.
    """
    m, ncols1 = T.shape
    ncols = ncols1 - 1
    while True:
        # z_j = c_B^T B^-1 A_j - c_j; improving columns have z_j > 0
        z = cost[basis] @ T[:, :ncols] - cost[:ncols]
        z[basis] = 0.0
        improving = np.nonzero(z > piv_tol)[0]
        if improving.size == 0:
            return OPTIMAL
        j = int(improving[0])
        col = T[:, j]
        rows = np.nonzero(col > piv_tol)[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, ncols] / col[rows]
        best = np.min(ratios)
        tied = rows[ratios <= best + piv_tol * (1.0 + abs(best))]
        r = int(tied[np.argmin(basis[tied])])
        T[r] /= T[r, j]
        piv_row = T[r]
        factors = T[:, j].copy()
        factors[r] = 0.0
        T -= np.outer(factors, piv_row)
        T[:, j] = 0.0
        T[r, j] = 1.0
        basis[r] = j


def _crash_basis(A: np.ndarray) -> np.ndarray:
    """Per row, the first column whose only nonzero is a +1 in that row, or -1."""
    m, n = A.shape
    basis = np.full(m, -1, dtype=int)
    rows, cols = np.divmod(np.flatnonzero(A != 0), n)
    single = (np.bincount(cols, minlength=n)[cols] == 1) & (A[rows, cols] == 1.0)
    rows, cols = rows[single], cols[single]
    # the hits run row by row, so the first hit of a row is its smallest column
    crash_rows, first = np.unique(rows, return_index=True)
    basis[crash_rows] = cols[first]
    return basis


def _solve_standard(T: np.ndarray, cost: np.ndarray,
                    tol: float) -> Tuple[np.ndarray, np.ndarray, str]:
    """Two-phase simplex for min cost.x s.t. Ax = b, x >= 0, on T = [A | b].

    Takes ownership of T and overwrites it.  Returns (x, basis, status).
    Rows with negative b are flipped.  A crash basis is read off
    structural singleton +1 columns (the slacks of inequality rows); only
    rows without one receive an artificial variable, so pure inequality
    problems skip phase 1 entirely.
    """
    m, n = T.shape[0], T.shape[1] - 1
    T[T[:, -1] < 0] *= -1.0
    A = T[:, :n]
    b = T[:, -1]

    basis = _crash_basis(A)
    need = np.nonzero(basis == -1)[0]

    if need.size:
        k = need.size
        T = np.zeros((m, n + k + 1))  # A and b still view the original tableau
        T[:, :n] = A
        T[need, n + np.arange(k)] = 1.0
        T[:, -1] = b
        basis[need] = n + np.arange(k)
        phase1_cost = np.zeros(n + k)
        phase1_cost[n:] = 1.0
        status = _bland_phase(T, basis, phase1_cost, _PIVOT_TOL)
        if status != OPTIMAL:  # phase 1 is always bounded below by 0
            return np.zeros(n), basis, INFEASIBLE
        feas = float(phase1_cost[basis] @ T[:, -1])
        if feas > tol * (1.0 + float(np.max(np.abs(b), initial=0.0))):
            return np.zeros(n), basis, INFEASIBLE

        # pivot remaining artificials out of the basis, dropping redundant rows
        keep_rows: List[int] = []
        for r in range(m):
            if basis[r] < n:
                keep_rows.append(r)
                continue
            pivots = np.nonzero(np.abs(T[r, :n]) > _PIVOT_TOL)[0]
            if pivots.size == 0:
                continue  # redundant row
            j = int(pivots[0])
            T[r] /= T[r, j]
            piv_row = T[r]
            factors = T[:, j].copy()
            factors[r] = 0.0
            T -= np.outer(factors, piv_row)
            T[:, j] = 0.0
            T[r, j] = 1.0
            basis[r] = j
            keep_rows.append(r)
        T = T[np.ix_(keep_rows, np.r_[0:n, n + k])]
        basis = basis[keep_rows]

    status = _bland_phase(T, basis, cost, _PIVOT_TOL)
    x = np.zeros(n)
    x[basis] = T[:, -1]
    return x, basis, status


def lp_solve(lp: LinearProgram, tol: float = 1e-9) -> VertexSolution:
    """Solve a general-form LP, returning a vertex of the feasible set.

    Free variables are split into positive and negative parts, finite
    lower bounds are shifted out, and finite upper bounds become extra
    rows, after which the two-phase standard-form simplex runs.
    Infeasibility and unboundedness are reported through ``status``.
    """
    c = np.asarray(lp.objective, dtype=float)
    if lp.maximize:
        c = -c
    A = np.atleast_2d(np.asarray(lp.A, dtype=float))
    b = np.asarray(lp.b, dtype=float)

    # variable substitutions: standard column k is sign[k] * (x[src[k]] - shift)
    src: List[int] = []
    sign: List[float] = []
    shift = np.zeros(c.size)
    boxed: List[int] = []
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is None and hi is None:
            src += [j, j]
            sign += [1.0, -1.0]
        elif lo is None:  # x <= hi: substitute x = hi - x', x' >= 0
            shift[j] = hi
            src.append(j)
            sign.append(-1.0)
        else:
            shift[j] = lo
            src.append(j)
            sign.append(1.0)
            if hi is not None:
                boxed.append(j)
    slack = [_SLACK_SIGN[s] for s in lp.senses]
    if boxed:  # finite upper bounds of lower-bounded variables become <= rows
        A = np.vstack([A, np.eye(c.size)[boxed]])
        b = np.concatenate([b, [lp.bounds[j][1] for j in boxed]])
        slack += [1.0] * len(boxed)
    b = b - A @ shift

    # T = [A_std | slacks | b]: slack +1 for a <= row, surplus -1 for >=
    src, sign, slack = np.array(src, dtype=int), np.array(sign), np.array(slack)
    ineq = np.nonzero(slack)[0]
    n_std = src.size
    T = np.zeros((A.shape[0], n_std + ineq.size + 1))
    np.multiply(A[:, src], sign, out=T[:, :n_std])
    T[ineq, n_std + np.arange(ineq.size)] = slack[ineq]
    T[:, -1] = b
    std_cost = np.zeros(n_std + ineq.size)
    std_cost[:n_std] = sign * c[src]

    x_std, basis, status = _solve_standard(T, std_cost, tol)
    x = shift.copy()
    np.add.at(x, src, sign * x_std[:n_std])
    if status != OPTIMAL:
        return VertexSolution(x=x, objective_value=math.nan,
                              basis=tuple(basis.tolist()), status=status)
    value = float(np.asarray(lp.objective, dtype=float) @ x)
    return VertexSolution(x=x, objective_value=value,
                          basis=tuple(basis.tolist()), status=OPTIMAL)


def basis_pursuit(L: np.ndarray, y: np.ndarray, tol: float = 1e-9,
                  weights: Optional[np.ndarray] = None) -> VertexSolution:
    """min ||alpha||_1 subject to L alpha = y, solved exactly as an LP.

    The split alpha = alpha+ - alpha- (both nonnegative) makes the
    objective linear; a basis can never contain both halves of one
    variable, so the returned vertex has at most rank(L) nonzeros and its
    objective equals the l1 norm exactly.  ``weights`` optionally perturbs
    the per-coordinate objective (used to explore alternative optima).
    status is ``infeasible`` when y is outside the column space of L.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = L.shape
    if y.size != m:
        raise DomainError("y length must match the number of rows of L")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    T = np.empty((m, 2 * n + 1))
    T[:, :n] = L
    np.negative(L, out=T[:, n:2 * n])
    T[:, -1] = y
    x_std, basis, status = _solve_standard(T, np.concatenate([w, w]), tol)
    alpha = x_std[:n] - x_std[n:]
    if status != OPTIMAL:
        return VertexSolution(x=alpha, objective_value=math.nan,
                              basis=tuple(basis.tolist()), status=status)
    return VertexSolution(x=alpha, objective_value=float(np.sum(np.abs(alpha))),
                          basis=tuple(basis.tolist()), status=OPTIMAL)


def _soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def lasso_residual(L: np.ndarray, alpha: np.ndarray, y: np.ndarray,
                   lam: float) -> float:
    """Worst violation of the subgradient optimality conditions.

    On the support the condition is (L^T(L alpha - y))_k = -lam sign(alpha_k);
    off the support |(L^T(L alpha - y))_k| <= lam.
    """
    g = L.T @ (L @ alpha - y)
    on = alpha != 0.0
    viol = np.where(on, np.abs(g + lam * np.sign(alpha)),
                    np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(viol, initial=0.0))


def prox_l1_solve(L: np.ndarray, y: np.ndarray, lam: float,
                  tol: float = 1e-9, max_iters: int = 200_000) -> np.ndarray:
    """Minimize 0.5||L alpha - y||_2^2 + lam ||alpha||_1.

    Accelerated proximal gradient with step 1/||L^T L||_2 and gradient
    restarts; stops when the subgradient-condition residual drops below
    ``tol``.  Raises ConvergenceError carrying the last residual if the
    iteration cap is hit.
    """
    if not lam > 0:
        raise DomainError("lam must be strictly positive")
    L = np.atleast_2d(np.asarray(L, dtype=float))
    y = np.asarray(y, dtype=float)
    n = L.shape[1]
    lip = float(np.linalg.norm(L, 2)) ** 2
    if lip == 0.0:
        return np.zeros(n)
    step = 1.0 / lip

    alpha = np.zeros(n)
    z = alpha.copy()
    t_acc = 1.0
    residual = lasso_residual(L, alpha, y, lam)
    if residual <= tol:
        return alpha
    for _ in range(max_iters):
        grad = L.T @ (L @ z - y)
        alpha_next = _soft_threshold(z - step * grad, step * lam)
        if float((z - alpha_next) @ (alpha_next - alpha)) > 0.0:
            t_acc = 1.0  # gradient restart
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = alpha_next + ((t_acc - 1.0) / t_next) * (alpha_next - alpha)
        alpha = alpha_next
        t_acc = t_next
        residual = lasso_residual(L, alpha, y, lam)
        if residual <= tol:
            return alpha
    raise ConvergenceError(
        f"proximal solver did not reach residual {tol:g} in {max_iters} iterations "
        f"(last residual {residual:.3e})", residual=residual)


def l1_rank(L: np.ndarray, tol: float = 1e-9) -> int:
    """Numerical rank used by the basis-pursuit sparsity bound."""
    return matrix_rank(L, tol)
