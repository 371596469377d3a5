"""Correctness checks that share no code with the program they check.

The references are computed here, outside the timed loop, from the
instances' plain data:

* l1 MNI: HiGHS (``scipy.optimize.linprog``) on min ||a||_1 s.t. V_K a = y
  finds the optimal support, on which primal and dual are re-solved
  exactly; K doubles from 4096 until the dual passes the tail-bound
  test, which proves the truncated optimum is the optimum over l1(N).
* Square-loss l1 regularization: an exact active-set projection of y onto
  the dual polytope {theta : |v_k . theta| <= lam}, on a truncation that
  the tail bounds certify, whose duality gap is computed and bounded.
* Gaussian MNI: a chunked dense-grid scan of the returned dual
  combination plus weak duality; no reference solve is needed.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import coordinates, spec_tail

L1_REF_START = 4096
L1_REF_CAP = 1 << 17
# check tolerances
L1_VALUE_RTOL = 1e-9         # optimum vs HiGHS
L1_RESIDUAL_RTOL = 1e-9      # interpolation residual, relative to 1 + ||y||_inf
GAUSS_ATTAIN_TOL = 1e-7      # the package's default attain_tol
GAUSS_VALUE_ATOL = 1e-6      # TV norm vs c.y
GAUSS_RESIDUAL_ATOL = 1e-6
REG_OBJECTIVE_RTOL = 1e-8
REG_NORM_RTOL = 1e-6
PROJECT_MAX_ITERS = 500       # active-set steps of the LASSO reference
EPS = float(np.finfo(float).eps)


def _fails(**conditions):
    return [name for name, ok in conditions.items() if not ok]


# -- l1 MNI -------------------------------------------------------------------

def l1_reference(instance):
    """Certified l1 MNI optimum of ``instance`` = (specs, y): (value, K, gap).

    HiGHS finds the optimal support S; the primal is then solved exactly
    on S (V_S a = y), and HiGHS's equality multipliers are corrected so
    that they norm the support columns exactly (V_S^T c = sign(a)).  The
    value is sum|a|; c / max(1, sup_k |v_k . c|, tail bound) is feasible
    for the dual over all of N, so ``gap`` = value - its dual value bounds
    the distance to the optimum over l1(N), with the support system's
    rounding residual added.  K doubles from 4096 until the tail bound of
    c is at most 1.
    """
    from scipy.optimize import linprog

    specs, y = instance
    y = np.asarray(y, dtype=float)
    K = L1_REF_START
    while True:
        V = coordinates(specs, K)
        res = linprog(np.ones(2 * K), A_eq=np.hstack([V, -V]), b_eq=y,
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
        x = res.x[:K] - res.x[K:]
        S = np.nonzero(np.abs(x) > 1e-12 * float(np.max(np.abs(x))))[0]
        VS = V[:, S]
        a = np.linalg.lstsq(VS, y, rcond=None)[0]
        c = np.asarray(res.eqlin.marginals, dtype=float)
        c = c + np.linalg.lstsq(VS.T, np.sign(a) - VS.T @ c, rcond=None)[0]
        head = float(np.max(np.abs(V.T @ c)))
        tail = sum(abs(ci) * spec_tail(s, K) for ci, s in zip(c, specs))
        if tail <= 1.0:
            value = float(np.sum(np.abs(a)))
            lower = float(c @ y) / max(1.0, head)
            # a interpolates y up to its rounding residual rho; the optimum
            # moves by at most |c|_1 rho when y does
            rho = float(np.max(np.abs(VS @ a - y)))
            if rho > 1e-9 * (1.0 + float(np.max(np.abs(y)))):
                raise RuntimeError(f"support system residual {rho:.3e}")
            return value, K, max(value - lower, 0.0) + float(np.sum(np.abs(c))) * rho
        if K >= L1_REF_CAP:
            raise RuntimeError(f"tail certificate not reached at K={K}")
        K *= 2


def l1_dual_sup(specs, c) -> float:
    """sup_k |sum_i c_i v_i(k)| over N: the first L1_REF_START coordinates, or the tail bound."""
    head = float(np.max(np.abs(coordinates(specs, L1_REF_START).T @ np.asarray(c, dtype=float))))
    tail = sum(abs(ci) * spec_tail(s, L1_REF_START) for ci, s in zip(c, specs))
    return max(head, tail)


def l1_residual(instance, atoms) -> float:
    """max_i |sum_atoms coeff * v_i(site) - y_i|, from the functionals' definitions."""
    specs, y = instance
    if not atoms:
        return float(np.max(np.abs(y)))
    sites = np.array([int(s) for s, _ in atoms])
    coeffs = np.array([c for _, c in atoms], dtype=float)
    fitted = coordinates(specs, int(sites.max()))[:, sites - 1] @ coeffs
    return float(np.max(np.abs(fitted - np.asarray(y))))


def check_l1(instance, norm, atoms, ref) -> list:
    """One l1 MNI output (reported norm, [(site, coeff)]) against the reference."""
    specs, y = instance
    value, _, gap = ref
    total = sum(abs(c) for _, c in atoms)
    sites = [s for s, _ in atoms]
    scale = 1.0 + max(abs(v) for v in y)
    return _fails(
        optimum_matches_highs=abs(norm - value) <= L1_VALUE_RTOL * (1.0 + value) + gap,
        norm_is_sum_of_coefficients=abs(norm - total) <= 1e-12 * (1.0 + total),
        interpolates=l1_residual(instance, atoms) <= L1_RESIDUAL_RTOL * scale,
        atoms_at_most_n=len(atoms) <= len(y),
        sites_distinct_positive_integers=(len(set(sites)) == len(sites)
                                          and all(s >= 1 and s == int(s) for s in sites)),
        nonzero_coefficients=all(c != 0.0 for _, c in atoms),
    )


# -- Gaussian MNI -------------------------------------------------------------

def _kernel_sum(coeffs, centers, sigma, t):
    d = t[:, None] - np.asarray(centers)[None, :]
    return np.exp(-d * d / (2.0 * sigma * sigma)) @ np.asarray(coeffs)


def grid_sup(c, centers, sigma):
    """Grid sup of |sum_j c_j K(x_j, .)| on [min - 8 sigma, max + 8 sigma].

    The step is chosen so that the scan's error bound
    step^2 * sum|c| / (2 sigma^2) equals GAUSS_ATTAIN_TOL, so the true sup
    is at most the grid sup plus GAUSS_ATTAIN_TOL; beyond 8 sigma the combination is
    below sum|c| * exp(-32).
    """
    c = np.asarray(c, dtype=float)
    total = float(np.sum(np.abs(c)))
    step = sigma * math.sqrt(2.0 * GAUSS_ATTAIN_TOL / total)
    lo, hi = min(centers) - 8.0 * sigma, max(centers) + 8.0 * sigma
    count = int(math.ceil((hi - lo) / step)) + 1
    best = 0.0
    chunk = 1 << 15
    for start in range(0, count, chunk):
        t = lo + step * np.arange(start, min(count, start + chunk))
        best = max(best, float(np.max(np.abs(_kernel_sum(c, centers, sigma, t)))))
    return best


def check_gauss(instance, c, tv_norm, atoms) -> list:
    """One Gaussian MNI output: dual combination c, reported TV norm, [(location, weight)].

    Grid feasibility of c, TV = c.y and interpolation together prove
    optimality by weak duality: TV >= optimum >= c.y / (1 + 3 GAUSS_ATTAIN_TOL).
    """
    centers, sigma, y = instance
    y = np.asarray(y, dtype=float)
    sup = grid_sup(c, centers, sigma)
    weights = np.array([w for _, w in atoms], dtype=float)
    locs = np.array([t for t, _ in atoms], dtype=float)
    fitted = (_kernel_sum(weights, locs, sigma, np.asarray(centers, dtype=float))
              if atoms else np.zeros(len(y)))
    total = float(np.sum(np.abs(weights)))
    return _fails(
        dual_feasible_on_grid=sup <= 1.0 + 2.0 * GAUSS_ATTAIN_TOL,
        tv_equals_dual_value=abs(tv_norm - float(np.asarray(c) @ y)) <= GAUSS_VALUE_ATOL,
        tv_is_sum_of_weights=abs(tv_norm - total) <= 1e-12 * (1.0 + total),
        interpolates=float(np.max(np.abs(fitted - y))) <= GAUSS_RESIDUAL_ATOL,
        atoms_at_most_n=len(atoms) <= len(y),
    )


def check_gauss_closed_form(atoms) -> list:
    """Centers +-1, y = 1, sigma 1: one atom at 0 of weight sqrt(e)."""
    return _fails(
        one_atom=len(atoms) == 1,
        atom_at_zero=len(atoms) == 1 and abs(atoms[0][0]) <= 1e-6,
        weight_sqrt_e=len(atoms) == 1 and abs(atoms[0][1] - math.sqrt(math.e)) <= 1e-6,
    )


# -- square-loss l1 regularization -------------------------------------------

def _project_dual(V, y, lam):
    """Exact projection of y onto {theta : |V^T theta| <= lam} (primal active set).

    Returns (theta, [(column, sign)], multipliers).  The LASSO solution is
    alpha_k = sign * multiplier on the active columns, theta = y - V alpha.
    """
    n = V.shape[0]
    theta = np.zeros(n)
    work = []  # (column, sign)
    for _ in range(PROJECT_MAX_ITERS):
        A = np.array([s * V[:, k] for k, s in work]).reshape(len(work), n)
        r = y - theta
        # step to the projection onto the working face; an orthonormal basis
        # of the active rows keeps p at rounding level once the face is reached
        if work:
            Q = np.linalg.qr(A.T)[0]
            p = r - Q @ (Q.T @ r)
        else:
            p = r
        if float(np.max(np.abs(p))) <= 1e-12 * (1.0 + float(np.max(np.abs(r)))):
            mu = np.linalg.lstsq(A.T, r, rcond=None)[0] if work else np.zeros(0)
            if mu.size == 0 or float(np.min(mu)) >= 0.0:
                return theta, work, mu
            work.pop(int(np.argmin(mu)))
            continue
        g_theta = V.T @ theta
        g_p = V.T @ p
        best, block = 1.0, None
        active = set(work)
        for sign in (1.0, -1.0):
            rate = sign * g_p
            slack = lam - sign * g_theta
            cand = np.nonzero(rate > 1e-14 * float(np.linalg.norm(p)))[0]
            if cand.size:
                steps = slack[cand] / rate[cand]
                order = np.argsort(steps, kind="stable")
                for j in order:
                    if (int(cand[j]), sign) in active:
                        continue
                    if steps[j] < best:
                        best, block = max(float(steps[j]), 0.0), (int(cand[j]), sign)
                    break
        theta = theta + best * p
        if block is not None:
            work.append(block)
    raise RuntimeError("dual projection did not settle")


def lasso_reference(instance, lam):
    """Certified optimum of 0.5||L a - y||^2 + lam ||a||_1 over l1(N).

    Returns (objective, l1 norm, gap): the objective is exact within
    ``gap``; the l1 norm is unique because the fitted vector is, and its
    uncertainty is folded into the check's tolerance.
    """
    specs, y = instance
    y = np.asarray(y, dtype=float)
    K = 256
    while True:
        V = coordinates(specs, K)
        theta, work, mu = _project_dual(V, y, lam)
        tail = sum(abs(t) * spec_tail(s, K) for t, s in zip(theta, specs))
        if tail <= lam:
            break
        if K >= 1 << 20:
            raise RuntimeError(f"off-range certificate not reached at K={K}")
        K *= 2
    alpha = np.zeros(K)
    for (k, s), m in zip(work, mu):
        alpha[k] += s * m
    misfit = V @ alpha - y
    norm = float(np.sum(np.abs(alpha)))
    primal = 0.5 * float(misfit @ misfit) + lam * norm
    scale = max(1.0, float(np.max(np.abs(V.T @ theta))) / lam, tail / lam)
    th = theta / scale
    dual = float(th @ y) - 0.5 * float(th @ th)
    return primal, norm, max(primal - dual, 0.0)


def check_path_rows(instance, lambdas, rows, refs, lam_max) -> list:
    """Rows (lam, atoms, l1_norm, objective, error) of one path against references.

    The objective must match the certified optimum.  The l1 norm is unique
    too, but a point whose objective exceeds the optimum by eps has a
    fitted vector within sqrt(2 eps) of the optimal one, so its norm can
    differ by up to (2 eps + ||y|| sqrt(2 eps)) / lam; eps is the row's
    objective excess over the reference plus the reference's gap plus
    rounding.  At small lam on ill-conditioned instances this allows a
    few 1e-6 even when the objective agrees to 1e-15.
    """
    n = len(instance[1])
    y_norm = float(np.linalg.norm(instance[1]))
    out = []
    if len(rows) != len(lambdas):
        return ["row_count"]
    for (lam, atoms, norm, objective, error), (ref_obj, ref_norm, gap), want in \
            zip(rows, refs, lambdas):
        ok = error is None
        eps = (max(objective - ref_obj, 0.0) + gap + 8 * EPS * (1.0 + ref_obj)) if ok else 0.0
        bad = _fails(
            no_error=ok,
            lambda_echoed=lam == want,
            objective_matches=ok and abs(objective - ref_obj) <= REG_OBJECTIVE_RTOL * (1.0 + ref_obj) + gap,
            l1_norm_matches=ok and (abs(norm - ref_norm) <= REG_NORM_RTOL * (1.0 + ref_norm)
                                    + (2.0 * eps + y_norm * math.sqrt(2.0 * eps)) / lam),
            atoms_at_most_n=0 <= atoms <= n,
            zero_above_lambda_max=lam < lam_max or atoms == 0,
        )
        out.extend(f"lam={lam:g}: {b}" for b in bad)
    return out


def lambda_max_reference(instance):
    """||L^T y||_inf over N, with its truncation certified by the tail bounds."""
    specs, y = instance
    K = 256
    while True:
        lam_max = float(np.max(np.abs(coordinates(specs, K).T @ np.asarray(y))))
        tail = sum(abs(yi) * spec_tail(s, K) for yi, s in zip(y, specs))
        if tail < lam_max:
            return lam_max
        K *= 2
