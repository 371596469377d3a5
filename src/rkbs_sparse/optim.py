"""Finite-dimensional optimization kernels.

Two revised simplex methods, both pivoting by Bland's rule, so that every
LP follows one fixed pivot sequence, and neither carrying a tableau:
``l1_column_simplex`` for min ||alpha||_1 s.t. V alpha = y from a given
feasible basis of n (column, sign) pairs, pivoting on rank-one updates of
its inverse and refactoring at each candidate optimum; it runs the
Gaussian exchange rounds and basis pursuit (``vertex_atoms`` turns its
vertex into the atoms of the three pipelines); and the
two-phase ``revised_simplex`` for min cost.u s.t. A u <= b or = b, u >= 0
over a dense block of a few columns, for the two l1(N) dual LPs.  Last, an
exact LASSO solver for the square-loss l1-regularized subproblem, which
walks the piecewise-linear solution path down in lambda once for a whole
grid of lambdas (``lasso_path``; ``lasso_solve`` is its one-lambda call).
Desk scale: a few hundred rows at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ConvergenceError, DomainError, KernelMatrix, _pivoted_qr

_PIVOT_TOL = 1e-11
_FEAS_ULPS = 64  # rounding allowance of the column simplex, in ulps of ||x_B||_1
_PIVOTS_PER_COLUMN = 20  # column simplex attempts per row and column
_BREAKPOINTS_PER_COLUMN = 4  # LASSO homotopy breakpoints per row and column of L
_TIE_RTOL = 1e-12  # LASSO homotopy events this close, relative to lambda_max, coincide
_TIE_GAIN = 1e-10  # a tied column joins when its correlation outruns lambda by this rate
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _SplitLP:
    """The rows of ``revised_simplex``, those with b < 0 flipped.

    Variable j < p is column j of A and variable p + i the unit column
    unit_sign[i] e_(unit_row[i]): the slacks of the <= rows, then the
    artificials of the rows in ``need``.  ``live`` marks the rows not
    dropped as redundant; twin[j] = t where A[:, t] = -A[:, j] exactly
    (the c+ and c- columns of one split variable), else j.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, m_le: int):
        flip = np.where(b < 0, -1.0, 1.0)
        self.need = np.flatnonzero((np.arange(b.size) >= m_le) | (b < 0))
        self.A, self.b = A * flip[:, None], b * flip
        self.unit_row = np.concatenate((np.arange(m_le), self.need))
        self.unit_sign = np.concatenate((flip[:m_le], np.ones(self.need.size)))
        self.live = np.ones(b.size, dtype=bool)
        sums = self.A.sum(axis=0)  # exact negatives have exactly negated sums
        j, t = np.nonzero(sums[:, None] == -sums)
        exact = np.all(self.A[:, j] == -self.A[:, t], axis=0)
        self.twin = np.arange(A.shape[1])
        self.twin[j[exact]] = t[exact]

    def factor(self, basis: np.ndarray):
        """(dense mask, S, C, signs, R, M, A[C, S]) of a basis given by position.

        S are its dense columns and C the rows its unit columns cover, so
        B^-1 needs only the k x k block M = A[R, S], R the other live rows.
        """
        p = self.A.shape[1]
        dense = basis < p
        S, units = basis[dense], basis[~dense] - p
        C = self.unit_row[units]
        free = self.live.copy()
        free[C] = False
        R, A_S = np.flatnonzero(free), self.A[:, S]
        return dense, S, C, self.unit_sign[units], R, A_S[R], A_S[C]

    def solve(self, fac, a: np.ndarray) -> np.ndarray:
        """B^-1 a by basis position, for a column a over all rows."""
        dense, S, C, sign, R, M, A_CS = fac
        d = np.empty(dense.size)
        d[dense] = d_S = np.linalg.solve(M, a[R])
        d[~dense] = sign * (a[C] - A_CS @ d_S)
        return d

    def priced(self, y: np.ndarray, nvar: int) -> np.ndarray:
        """y.a_j for the first nvar variables j."""
        units = slice(0, nvar - self.A.shape[1])
        return np.concatenate((y @ self.A, y[self.unit_row[units]] * self.unit_sign[units]))


def _bland_revised(lp: _SplitLP, basis: np.ndarray,
                   cost: np.ndarray) -> Tuple[str, np.ndarray]:
    """Pivot ``basis`` (ids by position, updated in place) to optimality.

    Prices the variables that ``cost`` covers.  The smallest id with
    z_j = pi.a_j - cost_j > _PIVOT_TOL enters, ratio ties within
    _PIVOT_TOL leave by the smallest basic id (Bland's rule), and a
    column with no entry of B^-1 a_j above _PIVOT_TOL is a ray.  A column
    whose twin is basic has B^-1 a_j = -e and z_j = -cost_twin - cost_j
    exactly, which is used in place of the rounded z_j.  In exact
    arithmetic no pivot returns to an earlier basis; a rounding-level z_j
    on an ill-conditioned basis can, so that pivot is refused and the
    next candidate tried.  Returns (status, x_B by position).
    """
    p = lp.A.shape[1]
    on = np.zeros(cost.size, dtype=bool)
    on[basis] = True
    now = int.from_bytes(np.packbits(on, bitorder="little").tobytes(), "little")
    seen = {now}  # bases as bit masks of their ids
    while True:
        fac = lp.factor(basis)
        dense, S, C, sign, R, M, A_CS = fac
        x = lp.solve(fac, lp.b)
        pi = np.zeros(lp.b.size)
        pi[C] = sign * cost[basis[~dense]]
        pi[R] = np.linalg.solve(M.T, cost[S] - A_CS.T @ pi[C])
        z = lp.priced(pi, cost.size) - cost
        z[basis] = 0.0
        for j in np.flatnonzero(z > _PIVOT_TOL):
            if j < p and on[lp.twin[j]]:  # B^-1 a_j = -e, z_j = -cost_twin - cost_j
                if cost[lp.twin[j]] + cost[j] < -_PIVOT_TOL:
                    return UNBOUNDED, x
                continue
            a = lp.A[:, j] if j < p else np.where(lp.unit_row[j - p] == np.arange(lp.b.size),
                                                   lp.unit_sign[j - p], 0.0)
            d = lp.solve(fac, a)
            rows = np.flatnonzero(d > _PIVOT_TOL)
            if rows.size == 0:
                return UNBOUNDED, x
            ratios = x[rows] / d[rows]
            best = float(np.min(ratios))
            tied = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
            r = int(tied[np.argmin(basis[tied])])
            after = now ^ (1 << int(basis[r])) ^ (1 << int(j))
            if after not in seen:
                break
        else:
            return OPTIMAL, x
        seen.add(after)
        on[basis[r]], on[j] = False, True
        now, basis[r] = after, j


def revised_simplex(A: np.ndarray, b: np.ndarray, cost: np.ndarray, m_le: int,
                    tol: float) -> Tuple[np.ndarray, str]:
    """min cost.u s.t. A[:m_le] u <= b[:m_le], A[m_le:] u = b[m_le:], u >= 0.

    Two-phase revised simplex over the dense m x p block A, from the unit
    columns: a slack per <= row and an artificial per row without a
    feasible one (the = rows, and the <= rows with b < 0, flipped).  A
    basis is kept as its ids; B^-1 needs only the k x k block of its k
    dense columns on the rows whose unit column is nonbasic, so x_B,
    B^-1 a and the prices each take one k x k solve and O(mk) products.
    After phase 1, a leftover artificial is pivoted out by the first
    column with a nonzero in its row of B^-1 A, or its row is dropped as
    redundant.  Returns (u, status); an ``optimal`` u is rechecked, and
    ConvergenceError carrying max(||Au + s - b||_inf, -min(u, s)), s the
    slacks, is raised unless the first is <= tol (1 + ||b||_inf) and the
    second <= tol.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    m, p = A.shape
    n_real = p + m_le
    lp = _SplitLP(A, b, m_le)
    basis = p + np.arange(m)
    basis[lp.need] = n_real + np.arange(lp.need.size)
    try:
        if lp.need.size:
            status, x_B = _bland_revised(lp, basis, np.r_[np.zeros(n_real), np.ones(lp.need.size)])
            if (status != OPTIMAL  # phase 1 is always bounded below by 0
                    or float(np.sum(x_B[basis >= n_real]))
                    > tol * (1.0 + float(np.max(np.abs(b))))):
                return np.zeros(p), INFEASIBLE
            kept = np.ones(m, dtype=bool)
            for r in np.flatnonzero(basis >= n_real):
                # the artificial's row of B^-1 A is y.A, y = e_q - M^-T A[q, S] on R
                dense, S, C, sign, R, M, _ = lp.factor(basis[kept])
                q = lp.unit_row[basis[r] - p]
                y = np.zeros(m)
                y[R] = -np.linalg.solve(M.T, lp.A[q, S])
                y[q] = 1.0
                hits = np.flatnonzero(np.abs(lp.priced(y, n_real)) > _PIVOT_TOL)
                if hits.size:
                    basis[r] = hits[0]
                else:
                    kept[r] = lp.live[q] = False
            basis = basis[kept]
        status, x_B = _bland_revised(lp, basis, np.r_[cost, np.zeros(m_le)])
    except np.linalg.LinAlgError:
        raise ConvergenceError("revised simplex basis is singular") from None
    x = np.zeros(n_real)
    x[basis] = x_B
    if status == OPTIMAL:
        fitted = A @ x[:p]
        fitted[:m_le] += x[p:]
        gap, low = float(np.max(np.abs(fitted - b))), float(-np.min(x))
        if gap > tol * (1.0 + float(np.max(np.abs(b)))) or low > tol:
            raise ConvergenceError(f"revised simplex vertex misses Au + s = b, u, s >= 0 by "
                                   f"{max(gap, low):.3e}", residual=max(gap, low))
    return x[:p], status


def basis_pursuit(L: np.ndarray, y: np.ndarray, tol: float = 1e-9,
                  qr: Optional[Tuple[int, np.ndarray]] = None) -> np.ndarray:
    """A vertex alpha of min ||alpha||_1 subject to L alpha = y.

    The first r = rank(L) pivot columns of a column-pivoted QR of L are
    independent (``qr`` is its (rank, column order) at this tol, when the
    caller has it), and a pivoted QR of their transpose picks r
    independent rows; ``l1_column_simplex`` on those rows then starts from
    these columns as a feasible crash, with no phase 1, even when L is
    rank deficient or has redundant rows.  The vertex has at most rank(L)
    nonzeros.  It is rechecked on every row: ConvergenceError carrying
    ||L alpha - y||_inf is raised unless that is at most
    tol (1 + ||y||_inf), which is how an infeasible y shows.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = L.shape
    if y.size != m:
        raise DomainError("y length must match the number of rows of L")
    rank, order = _pivoted_qr(L, tol) if qr is None else qr
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
    alpha = basis_pursuit(V.array, y, tol, (V.rank, V.order))
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
    feasible crash.  The crash is inverted afresh (``_factor``) for
    x_B = B^-1 y and c = B^-T 1, both refined once against exactly rounded
    residuals.  A pivot updates B^-1 by the rank-one eta step, x_B by
    x_B - theta d (x_r = theta) and c = B^-T 1 from the updated inverse;
    each entering direction d = B^-1 a is refined once against the exact
    residual of the current B.  Once no column violates on the updated
    prices, the basis is refactored and priced again, so the basis
    returned is always a refined one: no tableau, no rounding drift.  The
    basis is optimal once g = V^T c has max|g| <= 1 + tol.

    Pivots follow Bland's rule: the first column with |g_j| > 1 + tol
    enters with sign(g_j), and ratio-test ties leave by the smallest index
    2j (+1 for a negative sign).  Rows tie when stepping to their ratio
    keeps x_B above a rounding-level -feas (Harris' two passes).  On the
    near-singular bases that clustered working points give, a tiny pivot
    element can still turn a rounding residue in a degenerate row into a
    negative weight, so a pivot whose new basis puts min x_B below both
    -tol (1 + ||y||_inf) / 10 and the old min x_B is undone and the next
    violating column tried.

    The updates are dropped when they revisit a basis (Bland's rule never
    does in exact arithmetic; updated prices can), spend the attempt
    budget, or refactor to an x_B below the undo threshold; the call then
    reruns from its start basis with a fresh budget and a refined factor
    of every basis it pivots to.  Raises ConvergenceError carrying
    max|g| - 1 once the rerun spends ``_PIVOTS_PER_COLUMN`` (n + columns)
    pivot attempts or no violating column admits a pivot at a refined
    basis, and carrying the primal residual if the returned basis fails
    its recheck ||B x_B - y||_inf <= tol (1 + ||y||_inf), min x_B >= -that.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    y = np.asarray(y, dtype=float)
    n, ncols = V.shape
    cols = np.array(cols, dtype=int)
    if y.size != n or cols.shape != (n,):
        raise DomainError("need one basic column per row of V")
    max_attempts = _PIVOTS_PER_COLUMN * (n + ncols)
    scale = 1.0 + float(np.max(np.abs(y)))
    start = cols, signs
    for update in (True, False):  # the update path, then, if it is dropped, a rerun
        cols, signs = start
        x, c, signs, B, inv = _factor(V[:, cols], signs, y)
        g = c @ V
        untried = np.ones(ncols, dtype=bool)  # columns not yet refused at this basis
        attempts, refined, dropped = 0, True, False
        seen = None  # the bases of the update path, from its first pivot on
        while True:
            entering = np.flatnonzero((np.abs(g) > 1.0 + tol) & untried)
            if entering.size == 0 and refined:
                break
            feas = _FEAS_ULPS * np.finfo(float).eps * (1.0 + float(np.sum(np.abs(x))))
            floor = min(float(np.min(x)), -0.1 * tol * scale) - feas  # the undo threshold
            if entering.size == 0:  # a candidate optimum: refactor and price again
                x, c, signs, B, inv = _factor(V[:, cols], signs, y)
                dropped = float(np.min(x)) < floor
                if dropped:
                    break
                g = c @ V
                untried[:] = True
                refined = True
                continue
            if attempts == max_attempts:
                dropped = update
                break
            attempts += 1
            j = int(entering[0])
            untried[j] = False
            s = 1.0 if g[j] > 0 else -1.0
            a = s * V[:, j]
            d = inv @ a
            d += inv @ _exact_residual(B, d, a)  # refined once, as in _factor
            rows = np.flatnonzero(d > _PIVOT_TOL)
            if rows.size == 0:  # a descent direction below 0 is rounding
                continue
            limit = max(float(np.min((x[rows] + feas) / d[rows])), 0.0)
            tied = rows[np.maximum(x[rows], 0.0) / d[rows] <= limit]
            r = int(tied[np.argmin(2 * cols[tied] + (signs[tied] < 0))])
            new_cols, new_signs = cols.copy(), signs.copy()
            new_cols[r], new_signs[r] = j, s
            if update:  # the eta step: row r over d_r, each other row i less d_i times that
                theta = x[r] / d[r]
                new_x = x - theta * d
                new_x[r] = theta
                new_inv = inv - np.outer(d / d[r], inv[r])
                new_inv[r] = inv[r] / d[r]
                new_B = B.copy()
                new_B[:, r] = a
                new = new_x, new_inv.sum(axis=0), new_signs, new_B, new_inv
            else:
                new = _factor(V[:, new_cols], new_signs, y)
            if float(np.min(new[0])) < floor:
                continue
            if update:
                if seen is None:
                    seen = {_basis_key(cols, signs)}
                key = _basis_key(new_cols, new_signs)
                dropped = key in seen
                if dropped:
                    break
                seen.add(key)
            cols, (x, c, signs, B, inv) = new_cols, new
            g = c @ V
            untried[:] = True
            refined = not update
        if not dropped:
            break

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


def _basis_key(cols: np.ndarray, signs: np.ndarray) -> frozenset:
    """A basis as the set of its (column, sign) pairs, 2 col + 1 for a negative sign."""
    return frozenset((2 * cols + (signs < 0)).tolist())


def _factor(V_B: np.ndarray, signs, y: np.ndarray):
    """(x_B, c, signs, B, B^-1) of the basis B = V_B diag(signs), from one inverse.

    A column flip flips its weight and its row of B^-1 exactly, so signs
    None are read off sign(V_B^-1 y).  x_B = B^-1 y and c = B^-T 1 are
    refined once against exactly rounded residuals, in one call, to about
    double rounding while cond(B) eps < 1 (nearby kernel columns: 1e10).
    """
    try:
        inv = np.linalg.inv(V_B)
    except np.linalg.LinAlgError:
        raise ConvergenceError("column simplex basis is singular") from None
    if signs is None:
        x = inv @ y
        signs = np.where(x + inv @ _exact_residual(V_B, x, y) < 0.0, -1.0, 1.0)
    signs = np.array(signs, dtype=float)
    B, inv, ones = V_B * signs, inv * signs[:, None], np.ones(y.size)
    x, c = inv @ y, ones @ inv
    r = _exact_residual(np.vstack((B, B.T)), np.repeat([x, c], y.size, axis=0),
                        np.concatenate((y, ones)))
    return x + inv @ r[:y.size], c + r[y.size:] @ inv, signs, B, inv


def _exact_residual(B: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - B x rounded once per entry, in float64 on any platform.

    x is one vector, or one row per row of B.  Each product B_ij x_ij is
    carried as its double p and its exact rounding error (Dekker's product
    over Veltkamp splits), and each row of p + error - rhs_i is summed
    exactly by math.fsum.
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


def lasso_path(L: np.ndarray, y: np.ndarray, lams: Sequence[float],
               tol: float = 1e-9) -> List[Union[np.ndarray, ConvergenceError]]:
    """Minimize 0.5||L alpha - y||_2^2 + lam ||alpha||_1 exactly for every lam in lams.

    The solution path is piecewise linear in lambda (Osborne, Presnell &
    Turlach 2000), so one walk down it serves every lambda.  The walk
    starts at lambda_max = ||L^T y||_inf with alpha = 0 and carries the
    equicorrelation set E, columns with |L_j^T (y - L alpha)| = lambda that
    carry the path, and their signs s.  On each segment
    alpha_E(lambda) = L_E^+ y - lambda (L_E^T L_E)^+ s (Tibshirani 2013,
    "The lasso problem and uniqueness", section 3.1), re-derived from one
    SVD of L_E at every breakpoint.  The next breakpoint is the largest
    lambda below the current one at which a column outside E reaches
    |correlation| = lambda or a coefficient in E crosses zero.  Every event
    within _TIE_RTOL lambda_max of it happens there too, and so do the
    columns whose correlation rides on +-lambda; ``_carrying_columns``
    picks which of these tied columns carry the next segment, which keeps
    the columns of E linearly independent even where columns of L tie or
    repeat.  The walk ends at the first breakpoint at or below min(lams),
    and each lambda's alpha is read off the segment that contains it, the
    first one whose lower breakpoint is at or below it.

    Returns one outcome per lambda, in input order: alpha, or the
    ConvergenceError of that lambda, which carries ``lasso_residual`` of
    its alpha once _BREAKPOINTS_PER_COLUMN (rows + columns) breakpoints are
    spent above it, or when that residual exceeds ``tol``.
    """
    lams = [float(lam) for lam in lams]
    if not all(lam > 0 for lam in lams):
        raise DomainError("lam must be strictly positive")
    L = np.atleast_2d(np.asarray(L, dtype=float))
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(y))):
        raise DomainError("L and y must be finite")
    m, n = L.shape
    corr = L.T @ y
    lam_k = float(np.max(np.abs(corr), initial=0.0))
    out: List[Union[np.ndarray, ConvergenceError]] = [np.zeros(n) for _ in lams]
    todo = sorted((i for i, lam in enumerate(lams) if lam < lam_k), key=lams.__getitem__)
    window = _TIE_RTOL * lam_k
    E = np.flatnonzero(np.abs(corr) >= lam_k - window)
    s = np.sign(corr[E])
    free = np.zeros(E.size, dtype=bool)
    max_breakpoints = _BREAKPOINTS_PER_COLUMN * (m + n)
    breakpoints = 0
    while todo:
        try:
            keep, (U, sv, Vt) = _carrying_columns(L[:, E], s, free)
        except ConvergenceError as exc:
            for i in todo:
                out[i] = exc
            break
        E, s = E[keep], s[keep]
        c, d = Vt.T @ ((U.T @ y) / sv), Vt.T @ ((Vt @ s) / (sv * sv))
        # correlations on the segment are a + lambda b; alpha_E is c - lambda d
        a = L.T @ (y - L[:, E] @ c)
        b = L.T @ (L[:, E] @ d)
        below = lam_k - window
        with np.errstate(divide="ignore", invalid="ignore"):
            up, down, crossing = a / (1.0 - b), a / (-1.0 - b), c / d
        # the event times below lam_k: the first |correlation| = lambda outside E
        # and the zero crossings in E (nan compares false and drops out)
        join = np.maximum(np.where(up < below, up, -np.inf), np.where(down < below, down, -np.inf))
        join[E] = -np.inf
        crossing = np.where(crossing < below, crossing, -np.inf)
        lam_next = max(float(np.max(join)), float(np.max(crossing, initial=-np.inf)))
        while todo and lams[todo[-1]] >= lam_next:  # this segment contains lams[i]
            i = todo.pop()
            alpha_E = c - lams[i] * d
            # a coefficient crossing zero within rounding of lam may show the wrong sign
            out[i][E] = np.where(s * alpha_E > 0.0, alpha_E, 0.0)
            residual = lasso_residual(L, out[i], y, lams[i])
            if residual > tol:
                out[i] = ConvergenceError(f"LASSO homotopy solution misses the optimality "
                                          f"conditions by {residual:.3e}", residual=residual)
        if todo and breakpoints == max_breakpoints:
            for i in todo:
                out[i][E] = c - lams[i] * d
                residual = lasso_residual(L, out[i], y, lams[i])
                out[i] = ConvergenceError(
                    f"LASSO homotopy exceeded {max_breakpoints} breakpoints above lambda = "
                    f"{lams[i]:g} (residual {residual:.3e})", residual=residual)
            break
        breakpoints += 1
        # the tied columns: those that reach lambda here and those riding on it
        rho = a + lam_next * b
        tied = (join >= lam_next - window) | (np.abs(rho) >= lam_next - window)
        tied[E] = False
        joins = np.flatnonzero(tied)
        free = np.concatenate((crossing < lam_next - window, np.zeros(joins.size, dtype=bool)))
        E = np.concatenate((E, joins))
        s = np.concatenate((s, np.sign(rho[joins])))
        lam_k = lam_next
    return out


def lasso_solve(L: np.ndarray, y: np.ndarray, lam: float,
                tol: float = 1e-9) -> np.ndarray:
    """Minimize 0.5||L alpha - y||_2^2 + lam ||alpha||_1 exactly: ``lasso_path`` at lam.

    Raises the ConvergenceError that ``lasso_path`` returns for lam.
    """
    alpha, = lasso_path(L, y, [lam], tol)
    if isinstance(alpha, ConvergenceError):
        raise alpha
    return alpha


def _carrying_columns(L_T: np.ndarray, s: np.ndarray, free: np.ndarray):
    """(mask, SVD of its columns): the tied columns that carry the LASSO path on.

    Below a breakpoint alpha_T moves by (lambda_k - lambda) d, where
    z = s d minimizes 0.5 ||L_T d||^2 - s.d subject to z_j >= 0 wherever
    alpha_j is zero at the breakpoint (not ``free``): a zero column with
    z_j > 0 joins, and the rest keep |correlation| <= lambda, since
    1 - s_j L_j^T L_T d <= 0 for them.  With one event this is the usual
    rule (a column reaching lambda joins, a coefficient reaching zero
    leaves); on ties it decides which tied columns move.  Solved by Lawson
    & Hanson's active-set method from the free columns, each step the
    minimum-norm d on the passive columns (``_pinv_svd``).  A column in the
    span of the passive ones has gain 0, so it is never added, and the
    columns that carry the path stay linearly independent: the segment's
    minimum-norm alpha_E then is the path itself, signs included.
    """
    k = s.size
    passive = free.copy()
    z = np.zeros(k)
    for _ in range(4 * k + 2):  # each pass drops a column or ends with one added
        svd = _pinv_svd(L_T[:, passive])
        _, sv, Vt = svd
        z_p = np.zeros(k)
        z_p[passive] = s[passive] * (Vt.T @ ((Vt @ s[passive]) / (sv * sv)))
        blocked = passive & ~free & (z_p <= _TIE_RTOL * float(np.max(np.abs(z_p), initial=0.0)))
        if blocked.any():  # step from z toward z_p until the first blocked column hits 0
            ratio = np.full(k, np.inf)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio[blocked] = np.clip(np.nan_to_num(z[blocked] / (z[blocked] - z_p[blocked])),
                                         0.0, 1.0)
            j = int(np.argmin(ratio))
            z += ratio[j] * (z_p - z)
            z[j] = 0.0
            passive &= free | (z > 0.0)
            continue
        z = z_p
        gain = np.where(passive, -np.inf, 1.0 - s * (L_T.T @ (L_T @ (s * z))))
        j = int(np.argmax(gain))
        if not gain[j] > _TIE_GAIN:
            return passive, svd
        passive[j] = True
    raise ConvergenceError(f"LASSO homotopy found no direction at a tie of {k} columns")


def _pinv_svd(L_E: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (U, sv, Vt) of L_E without its zero singular values.

    Singular values at or below max(shape) eps times the largest count as
    zero, the cutoff of numpy's matrix_rank, so L_E^+ = Vt^T diag(1/sv) U^T.
    """
    U, sv, Vt = np.linalg.svd(L_E, full_matrices=False)
    keep = sv > np.max(sv, initial=0.0) * max(L_E.shape) * np.finfo(float).eps
    return U[:, keep], sv[keep], Vt[keep]
