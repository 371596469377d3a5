"""Finite-dimensional optimization kernels.

A revised primal simplex for min ||alpha||_1 s.t. V alpha = y started
from a given feasible basis of n (column, sign) pairs
(``l1_column_simplex``).  It runs the Gaussian exchange rounds and basis
pursuit, whose crash basis comes from the column-pivoted QR behind
``core.matrix_rank``; ``vertex_atoms`` turns a basis-pursuit vertex into
the atoms of the three pipelines.  It keeps no tableau and solves with
its n x n basis matrix at every pivot.  Beside it, a dense two-phase
tableau simplex (``_solve_standard``) for standard form only: min
cost.x s.t. Ax = b, x >= 0, handed over as the tableau T = [A | b]; it
serves only the two l1(N) dual LPs in ``sequence``, which lay out their
own tableau.  Both simplices pivot by Bland's rule, so every LP follows
one fixed pivot sequence.  Last, a restarted accelerated
proximal-gradient solver for the square-loss l1-regularized subproblem.
Desk scale throughout: a few hundred rows at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import ConvergenceError, DomainError, KernelMatrix, _pivoted_qr

_PIVOT_TOL = 1e-11
_FEAS_ULPS = 64  # rounding allowance of the column simplex, in ulps of ||x_B||_1
_PIVOTS_PER_COLUMN = 20  # column simplex attempts per row and column
_PROX_MAX_ITERS = 200_000  # proximal-gradient iteration cap
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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
                    tol: float) -> Tuple[np.ndarray, str]:
    """Two-phase simplex for min cost.x s.t. Ax = b, x >= 0, on T = [A | b].

    Takes ownership of T and overwrites it.  Returns (x, status), x a
    vertex when status is ``optimal``.
    Rows with negative b are flipped.  A crash basis is read off
    structural singleton +1 columns (the slacks of inequality rows); only
    rows without one receive an artificial variable, so pure inequality
    problems skip phase 1 entirely.  An ``optimal`` x is rechecked
    against the unpivoted constraints; ConvergenceError carrying
    max(||Ax - b||_inf, -min x) is raised unless
    ||Ax - b||_inf <= tol (1 + ||b||_inf) and x >= -tol.
    """
    m, n = T.shape[0], T.shape[1] - 1
    T[T[:, -1] < 0] *= -1.0
    A = T[:, :n]
    b = T[:, -1]

    basis = _crash_basis(A)
    need = np.nonzero(basis == -1)[0]
    # the recheck keeps a copy of the unpivoted constraints: b and every
    # column but the crash columns, which are unit vectors
    crash_rows = np.nonzero(basis >= 0)[0]
    crash_cols = basis[crash_rows]
    dense = np.ones(n, dtype=bool)
    dense[crash_cols] = False
    A_dense, b_orig = A[:, dense], b.copy()

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
            return np.zeros(n), INFEASIBLE
        feas = float(phase1_cost[basis] @ T[:, -1])
        if feas > tol * (1.0 + float(np.max(np.abs(b), initial=0.0))):
            return np.zeros(n), INFEASIBLE

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
    if status == OPTIMAL:
        fitted = A_dense @ x[dense]
        fitted[crash_rows] += x[crash_cols]
        gap = float(np.max(np.abs(fitted - b_orig)))
        low = float(-np.min(x))
        if gap > tol * (1.0 + float(np.max(np.abs(b_orig)))) or low > tol:
            residual = max(gap, low)
            raise ConvergenceError(
                f"tableau simplex vertex misses Ax = b, x >= 0 by {residual:.3e}",
                residual=residual)
    return x, status


def basis_pursuit(L: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """A vertex alpha of min ||alpha||_1 subject to L alpha = y.

    The first r = rank(L) pivot columns of a column-pivoted QR of L are
    independent, and a pivoted QR of their transpose picks r independent
    rows; ``l1_column_simplex`` on those rows then starts from these
    columns as a feasible crash, with no phase 1, even when L is rank
    deficient or has redundant rows.  The vertex has at most rank(L)
    nonzeros.  It is rechecked on every row: ConvergenceError carrying
    ||L alpha - y||_inf is raised unless that is at most
    tol (1 + ||y||_inf), which is how an infeasible y shows.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = L.shape
    if y.size != m:
        raise DomainError("y length must match the number of rows of L")
    rank, order = _pivoted_qr(L, tol)
    cols = order[:rank]
    alpha = np.zeros(n)
    if rank:
        found, row_order = _pivoted_qr(L[:, cols].T, tol)
        if found < rank:
            raise ConvergenceError(f"basis pursuit found {found} independent rows "
                                   f"for {rank} independent columns")
        rows = row_order[:rank]
        basis = l1_column_simplex(L[rows], y[rows], cols, tol=tol)
        alpha[basis.cols] = basis.signs * basis.weights
    residual = float(np.max(np.abs(L @ alpha - y), initial=0.0))
    if residual > tol * (1.0 + float(np.max(np.abs(y), initial=0.0))):
        raise ConvergenceError(f"basis pursuit vertex misses L alpha = y by {residual:.3e}",
                               residual=residual)
    return alpha


def vertex_atoms(V: KernelMatrix, y: np.ndarray, tol: float,
                 attain_tol: float) -> Tuple[List[Tuple[float, float]], np.ndarray]:
    """(atoms, alpha): the basis-pursuit vertex on V's columns, pruned.

    Coefficients of magnitude at most attain_tol times the vertex's l1
    norm are set to zero in alpha; atoms are the (label, coefficient)
    pairs of the rest, in column order.
    """
    alpha = basis_pursuit(V.array, y, tol)
    keep = np.abs(alpha) > attain_tol * float(np.sum(np.abs(alpha)))
    alpha[~keep] = 0.0
    return [(V.labels[j], float(alpha[j])) for j in np.flatnonzero(keep)], alpha


@dataclass(frozen=True)
class ColumnBasis:
    """An optimal basis of min ||alpha||_1 s.t. V alpha = y: n (column, sign) pairs.

    alpha is zero off the basis and alpha[cols] = signs * weights with
    weights >= 0; ``dual`` holds the simplex multipliers c = B^-T 1, so
    c.y equals the optimum sum(weights) and max_j |V_j . c| <= 1 + tol.
    """

    cols: np.ndarray
    signs: np.ndarray
    weights: np.ndarray
    dual: np.ndarray


def l1_column_simplex(V: np.ndarray, y: np.ndarray, cols, signs=None,
                      tol: float = 1e-9) -> ColumnBasis:
    """min ||alpha||_1 s.t. V alpha = y by revised primal simplex from a given basis.

    The basis is n (column, sign) pairs whose signed columns B must give
    x_B = B^-1 y >= 0; with ``signs`` None they are read off
    sign(V[:, cols]^-1 y), which makes any nonsingular column choice a
    feasible crash.  Every basis is solved afresh with its n x n matrix
    (x_B = B^-1 y, c = B^-T 1, g = V^T c, each refined once against an
    exactly rounded residual), so no tableau is carried and no rounding
    drift builds up.  The basis is optimal once max|g| <= 1 + tol.

    Pivots follow Bland's rule: the first column with |g_j| > 1 + tol
    enters with sign(g_j), and ratio-test ties leave by the smallest index
    2j (+1 for a negative sign).  Rows tie when stepping to their ratio
    keeps x_B above a rounding-level -feas (Harris' two passes).  On the
    near-singular bases that clustered working points give, a tiny pivot
    element can still turn a rounding residue in a degenerate row into a
    negative weight, so a pivot whose new basis puts min x_B below both
    -tol (1 + ||y||_inf) / 10 and the old min x_B is undone and the next
    violating column tried.

    Raises ConvergenceError carrying max|g| - 1 once
    ``_PIVOTS_PER_COLUMN`` (n + columns) pivot attempts are spent or no
    violating column admits a pivot, and carrying the primal residual if
    the returned basis fails its recheck
    ||B x_B - y||_inf <= tol (1 + ||y||_inf), min x_B >= -that.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    y = np.asarray(y, dtype=float)
    n, ncols = V.shape
    cols = np.array(cols, dtype=int)
    if y.size != n or cols.shape != (n,):
        raise DomainError("need one basic column per row of V")
    if signs is None:
        signs = np.where(_basis_solve(V[:, cols], y) < 0.0, -1.0, 1.0)
    signs = np.array(signs, dtype=float)
    max_attempts = _PIVOTS_PER_COLUMN * (n + ncols)
    scale = 1.0 + float(np.max(np.abs(y)))
    ones = np.ones(n)

    B = V[:, cols] * signs
    x = _basis_solve(B, y)
    c = _basis_solve(B.T, ones)
    g = c @ V
    untried = np.ones(ncols, dtype=bool)  # columns not yet refused at this basis
    attempts = 0
    while True:
        entering = np.flatnonzero((np.abs(g) > 1.0 + tol) & untried)
        if entering.size == 0 or attempts == max_attempts:
            break
        attempts += 1
        j = int(entering[0])
        untried[j] = False
        s = 1.0 if g[j] > 0 else -1.0
        d = _basis_solve(B, s * V[:, j])
        rows = np.flatnonzero(d > _PIVOT_TOL)
        if rows.size == 0:  # a descent direction below 0 is rounding
            continue
        feas = _FEAS_ULPS * np.finfo(float).eps * (1.0 + float(np.sum(np.abs(x))))
        limit = max(float(np.min((x[rows] + feas) / d[rows])), 0.0)
        tied = rows[np.maximum(x[rows], 0.0) / d[rows] <= limit]
        r = int(tied[np.argmin(2 * cols[tied] + (signs[tied] < 0))])
        new_cols, new_signs = cols.copy(), signs.copy()
        new_cols[r], new_signs[r] = j, s
        new_B = V[:, new_cols] * new_signs
        new_x = _basis_solve(new_B, y)
        if float(np.min(new_x)) < min(float(np.min(x)), -0.1 * tol * scale) - feas:
            continue
        cols, signs, B, x = new_cols, new_signs, new_B, new_x
        c = _basis_solve(B.T, ones)
        g = c @ V
        untried[:] = True

    dual_residual = float(np.max(np.abs(g))) - 1.0
    if dual_residual > tol:
        why = (f"exceeded {max_attempts} pivot attempts"
               if attempts == max_attempts
               else "found no pivot that keeps x_B >= 0")
        raise ConvergenceError(f"column simplex {why} (max |V^T c| - 1 = "
                               f"{dual_residual:.3e})", residual=dual_residual)
    residual = max(float(np.max(np.abs(B @ x - y))), float(-np.min(x)))
    if residual > tol * scale:
        raise ConvergenceError(
            f"column simplex basis misses V alpha = y, alpha >= 0 by "
            f"{residual:.3e}", residual=residual)
    return ColumnBasis(cols=cols, signs=signs, weights=x, dual=c)


def _basis_solve(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """B^-1 rhs, refined once against the exactly rounded residual.

    Bases of nearby kernel columns reach condition numbers near 1e10,
    where a plain solve leaves x_B wrong from its seventh digit; the
    refinement recovers it to about double rounding while cond(B) eps < 1.
    """
    try:
        x = np.linalg.solve(B, rhs)
        return x + np.linalg.solve(B, _exact_residual(B, x, rhs))
    except np.linalg.LinAlgError:
        raise ConvergenceError("column simplex basis is singular") from None


def _exact_residual(B: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - B x rounded once per entry, in float64 on any platform.

    Each product B_ij x_j is carried as its double p and its exact
    rounding error (Dekker's product over Veltkamp splits), and each row
    of p + error - rhs_i is summed exactly by math.fsum.
    """
    p = B * x
    B_hi, B_lo = _split(B)
    x_hi, x_lo = _split(x)
    err = B_lo * x_lo - (((p - B_hi * x_hi) - B_lo * x_hi) - B_hi * x_lo)
    terms = np.concatenate((p, err, -rhs[:, None]), axis=1).tolist()
    return -np.array([math.fsum(row) for row in terms])


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


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
                  tol: float = 1e-9) -> np.ndarray:
    """Minimize 0.5||L alpha - y||_2^2 + lam ||alpha||_1.

    Accelerated proximal gradient with step 1/||L^T L||_2 and gradient
    restarts; stops when the subgradient-condition residual drops below
    ``tol``.  Raises ConvergenceError carrying the last residual once
    ``_PROX_MAX_ITERS`` iterations are spent.
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
    for _ in range(_PROX_MAX_ITERS):
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
        f"proximal solver did not reach residual {tol:g} in {_PROX_MAX_ITERS} iterations "
        f"(last residual {residual:.3e})", residual=residual)
