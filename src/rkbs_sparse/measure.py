"""Sparse recovery in the Gaussian measure-space hypothesis space.

Functions here are combinations g(t) = sum_j c_j K(x_j, t) of Gaussian
kernel sessions.  The dual of minimum total-variation interpolation
maximizes c.y subject to ||g||_inf <= 1, a semi-infinite constraint
handled by an exchange method: solve the LP on a finite working set,
locate the worst constraint violation over the whole domain, add it, and
repeat until the violation is below the attainment tolerance.

Borderline center separations (around twice the bandwidth) produce
critical points of g where the second derivative also vanishes, so the
sup is quartically flat and neither function values nor Newton steps can
localize it accurately.  Two safeguards deal with this: refined maxima
are replaced by the midpoint of a tiny level-set plateau (exact for the
symmetric flat case), and the final primal-dual pair is polished by a
Newton iteration on the joint stationarity system, whose interpolation
rows pin the atom locations with full quadratic convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConvergenceError, DomainError, GaussProblem, KernelMatrix,
                   prune_atoms)
from .optim import OPTIMAL, UNBOUNDED, basis_pursuit, linear_program, lp_solve

_DERIV_TOL = 1e-10
_FLAT_EPS = 1e-12
_MAX_SCAN_POINTS = 2 ** 20  # the exchange method densifies its scan grid up to this


def _kernel(problem: GaussProblem, t) -> np.ndarray:
    """K(x_j, t) for all centers j; rows follow t when t is an array."""
    t = np.asarray(t, dtype=float)
    centers = np.asarray(problem.centers)
    d = t[..., None] - centers
    return np.exp(-d * d / (2.0 * problem.sigma ** 2))


def _kernel_dt(problem: GaussProblem, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    centers = np.asarray(problem.centers)
    d = t[..., None] - centers
    s2 = problem.sigma ** 2
    return np.exp(-d * d / (2.0 * s2)) * (-d / s2)


def _kernel_dtt(problem: GaussProblem, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    centers = np.asarray(problem.centers)
    d = t[..., None] - centers
    s2 = problem.sigma ** 2
    return np.exp(-d * d / (2.0 * s2)) * (d * d / s2 - 1.0) / s2


def gauss_eval(c: Sequence[float], problem: GaussProblem, x) -> float | np.ndarray:
    """Evaluate sum_j c_j K(x_j, x) at a point or an array of points."""
    out = _kernel(problem, x) @ np.asarray(c, dtype=float)
    return float(out) if np.ndim(x) == 0 else out


def gauss_eval_deriv(c: Sequence[float], problem: GaussProblem, x) -> float | np.ndarray:
    """First derivative of the kernel combination at x."""
    out = _kernel_dt(problem, x) @ np.asarray(c, dtype=float)
    return float(out) if np.ndim(x) == 0 else out


def _eval_second(c: np.ndarray, problem: GaussProblem, x: float) -> float:
    return float(_kernel_dtt(problem, x) @ c)


def _refine_maximum(c: np.ndarray, problem: GaussProblem, t0: float,
                    step: float) -> float:
    """Polish a local maximum of |g| by safeguarded Newton on g'."""
    lo, hi = problem.domain
    s = 1.0 if gauss_eval(c, problem, t0) >= 0 else -1.0

    def d1(t):
        return s * gauss_eval_deriv(c, problem, t)

    a = max(lo, t0 - step)
    b = min(hi, t0 + step)
    t = t0
    for _ in range(100):
        g1 = d1(t)
        if abs(g1) <= _DERIV_TOL:
            break
        g2 = s * _eval_second(c, problem, t)
        t_new = t - g1 / g2 if g2 < 0 else math.nan
        if not (a < t_new < b):
            # bisection fallback keeps the bracket around the sign change
            if d1(a) > 0 > d1(b):
                t_new = 0.5 * (a + b)
                if d1(t_new) > 0:
                    a = t_new
                else:
                    b = t_new
                t = 0.5 * (a + b)
                continue
            break
        t = t_new
    return t


def _plateau_midpoint(c: np.ndarray, problem: GaussProblem, t_hat: float) -> float:
    """Replace t_hat by the midpoint of the level-set plateau around it.

    The plateau is where |g| stays within a relative 1e-12 of |g(t_hat)|.
    For a symmetric flat maximum the two crossings mirror each other, so
    the midpoint lands on the true maximizer even when derivative
    information is below the noise floor.
    """
    lo, hi = problem.domain
    base = abs(gauss_eval(c, problem, t_hat))
    if base == 0.0:
        return t_hat
    theta = base * (1.0 - _FLAT_EPS)

    def above(t):
        return abs(gauss_eval(c, problem, t)) >= theta

    edges = []
    for direction in (-1.0, 1.0):
        h = problem.sigma * 1e-7
        t_in = t_hat
        t_out = None
        while h <= problem.sigma:
            t_try = t_hat + direction * h
            if t_try <= lo or t_try >= hi:
                break
            if above(t_try):
                t_in = t_try
                h *= 2.0
            else:
                t_out = t_try
                break
        if t_out is None:
            return t_hat  # plateau runs into the domain edge; keep the seed
        for _ in range(80):
            mid = 0.5 * (t_in + t_out)
            if above(mid):
                t_in = mid
            else:
                t_out = mid
            if abs(t_out - t_in) <= problem.sigma * 1e-13:
                break
        edges.append(0.5 * (t_in + t_out))
    mid = 0.5 * (edges[0] + edges[1])
    if abs(gauss_eval(c, problem, mid)) >= base:
        return mid
    return t_hat


def _grid(problem: GaussProblem, step: float) -> np.ndarray:
    lo, hi = problem.domain
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, max(count, 9))


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    left = np.r_[True, vals[1:] >= vals[:-1]]
    right = np.r_[vals[:-1] >= vals[1:], True]
    idx = np.nonzero(left & right)[0]
    return idx[(idx > 0) & (idx < vals.size - 1)]


def _scan_maxima(c: np.ndarray, problem: GaussProblem, step: float,
                 keep_above: float) -> Tuple[float, List[float]]:
    """Grid supremum of |g| and refined local maxima above ``keep_above``."""
    grid = _grid(problem, step)
    vals = np.abs(gauss_eval(c, problem, grid))
    sup = float(np.max(vals))
    curv = float(np.sum(np.abs(c))) / problem.sigma ** 2
    slack = 0.5 * step * step * curv
    seeds = [float(grid[i]) for i in _local_maxima(vals)
             if vals[i] >= keep_above - slack]
    refined = []
    for t0 in seeds:
        t = _refine_maximum(c, problem, t0, step)
        t = _plateau_midpoint(c, problem, t)
        refined.append(t)
    return sup, refined


def _merge_points(c: np.ndarray, problem: GaussProblem,
                  points: List[float]) -> List[float]:
    """Dedup within sigma*1e-6, then merge plateau-connected neighbours."""
    if not points:
        return []
    pts = sorted(points)
    radius = problem.sigma * 1e-6

    def absg(t):
        return abs(gauss_eval(c, problem, t))

    merged = [pts[0]]
    for t in pts[1:]:
        if t - merged[-1] < radius:
            if absg(t) > absg(merged[-1]):
                merged[-1] = t
        else:
            merged.append(t)

    # flat tops can leave mirror twins: if |g| never dips between two
    # points they share one maximum, so collapse them through the plateau
    changed = True
    while changed and len(merged) > 1:
        changed = False
        out = [merged[0]]
        for t in merged[1:]:
            prev = out[-1]
            samples = np.linspace(prev, t, 9)[1:-1]
            level = min(absg(prev), absg(t)) * (1.0 - 1e-9)
            if np.all(np.abs(gauss_eval(c, problem, samples)) >= level):
                rep = _plateau_midpoint(c, problem, 0.5 * (prev + t))
                out[-1] = max((prev, t, rep), key=absg)
                changed = True
            else:
                out.append(t)
        merged = out
    return merged


def find_attainment_points(c: Sequence[float], problem: GaussProblem,
                           attain_tol: Optional[float] = None,
                           grid_step: Optional[float] = None) -> List[float]:
    """Points where |sum_j c_j K(x_j, .)| attains its supremum.

    Dense grid scan at ``grid_step``, Newton refinement of every local
    maximum within ``attain_tol`` of the supremum, plateau-midpoint
    symmetrization, and dedup within sigma*1e-6.  Raises DomainError if
    the supremum sits within one grid step of the domain boundary, which
    signals that the domain needs widening.
    """
    c = np.asarray(c, dtype=float)
    if float(np.max(np.abs(c))) == 0.0:
        raise DomainError("coefficients must be nonzero")
    step = grid_step if grid_step is not None else problem.grid_step()
    attain = attain_tol if attain_tol is not None else problem.options.attain_tol

    grid = _grid(problem, step)
    vals = np.abs(gauss_eval(c, problem, grid))
    imax = int(np.argmax(vals))
    lo, hi = problem.domain
    if grid[imax] <= lo + step or grid[imax] >= hi - step:
        raise DomainError(
            "supremum attained at the domain boundary; enlarge the domain "
            f"(currently [{lo:g}, {hi:g}])")
    sup = float(vals[imax])
    _, refined = _scan_maxima(c, problem, step, keep_above=sup * (1.0 - attain))
    refined = _merge_points(c, problem, refined)
    sup_ref = max([abs(gauss_eval(c, problem, t)) for t in refined] + [sup])
    out = [t for t in refined
           if abs(gauss_eval(c, problem, t)) >= sup_ref * (1.0 - attain)]
    return sorted(out)


@dataclass(frozen=True)
class ContinuousDualCertificate:
    """Dual data for measure-space interpolation.

    ``coefficients`` normalize the kernel combination to sup norm one,
    ``value`` is the optimal value, ``attain_points`` the finite set where
    the combination attains its sup norm, and ``sup_norm`` the sup norm of
    the scaled combination (value times the unit-norm one).
    ``refinement_stable`` records that the attainment set is unchanged
    under a 2x finer scan grid.
    """

    coefficients: Tuple[float, ...]
    value: float
    attain_points: Tuple[float, ...]
    sup_norm: float
    exchange_iters: int
    final_violation: float
    refinement_stable: bool

    def coefficient_vector(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)


def _certificate(problem: GaussProblem, c: np.ndarray, iters: int,
                 violation: float) -> ContinuousDualCertificate:
    points = find_attainment_points(c, problem)
    step = problem.grid_step()
    points_fine = find_attainment_points(c, problem, grid_step=step / 2.0)
    stable = (len(points) == len(points_fine)
              and all(abs(a - b) <= problem.sigma * 1e-5
                      for a, b in zip(points, points_fine)))
    for t in points:
        if abs(gauss_eval_deriv(c, problem, t)) > 1e-6:
            raise ConvergenceError(
                f"attainment point {t:g} is not stationary", residual=violation)
    sup = max(abs(gauss_eval(c, problem, t)) for t in points)
    m0 = float(problem.y_vector() @ c)
    return ContinuousDualCertificate(
        coefficients=tuple(float(v) for v in c), value=m0,
        attain_points=tuple(points), sup_norm=m0 * sup,
        exchange_iters=iters, final_violation=violation,
        refinement_stable=stable)


def dual_solve_semiinfinite(problem: GaussProblem) -> ContinuousDualCertificate:
    """Exchange method for sup { c.y : ||sum_j c_j K(x_j, .)||_inf <= 1 }.

    The working set starts with the centers plus uniform domain knots;
    each round solves the finite LP, locates the worst violation of the
    sup-norm constraint by grid scan plus Newton refinement, and adds the
    violating points.  Terminates when the violation is at most
    ``attain_tol``; hitting ``max_exchange_iters``, or a stall that would
    need a scan grid of more than ``_MAX_SCAN_POINTS`` points, raises
    ConvergenceError with the last violation.
    """
    y = problem.y_vector()
    if float(np.max(np.abs(y))) == 0.0:
        raise DomainError("y must be nonzero")
    lo, hi = problem.domain
    step = problem.grid_step()
    working = sorted(set(np.linspace(lo, hi, 33)) | set(problem.centers))
    n = problem.n
    violation = math.inf

    for it in range(1, problem.options.max_exchange_iters + 1):
        rows = _kernel(problem, np.asarray(working))
        A = np.vstack([rows, -rows])
        b = np.ones(2 * len(working))
        lp = linear_program(y, A, b, ["<="] * b.size, [(None, None)] * n,
                            maximize=True)
        sol = lp_solve(lp, problem.options.tol)
        if sol.status == UNBOUNDED:
            extra = np.linspace(lo, hi, 2 * len(working))
            working = sorted(set(working) | set(extra))
            continue
        if sol.status != OPTIMAL:
            raise ConvergenceError(f"exchange LP failed with status {sol.status}")
        c = sol.x
        sup, refined = _scan_maxima(c, problem, step, keep_above=1.0)
        cand = [(abs(gauss_eval(c, problem, t)), t) for t in refined]
        cand = [tc for tc in cand if tc[0] > 1.0]
        cand.sort(reverse=True)
        violation = max(sup - 1.0, cand[0][0] - 1.0 if cand else -math.inf)
        if violation <= problem.options.attain_tol:
            return _certificate(problem, c, it, max(violation, 0.0))
        added = False
        for _, t in cand[:5]:
            if all(abs(t - w) > problem.sigma * 1e-12 for w in working):
                working.append(t)
                added = True
        if not added:
            # violation between grid knots but refinement collapsed onto
            # existing points: densify the scan, within a bounded grid
            step /= 2.0
            if (hi - lo) / step + 1.0 > _MAX_SCAN_POINTS:
                raise ConvergenceError(f"exchange method stalled at violation "
                                       f"{violation:.3e} on a full scan grid",
                                       residual=violation)
        working = sorted(working)
    raise ConvergenceError(
        f"exchange method exceeded {problem.options.max_exchange_iters} "
        f"iterations (last violation {violation:.3e})", residual=violation)


def kernel_matrix(problem: GaussProblem, points: Sequence[float],
                  tol: float = 1e-9) -> KernelMatrix:
    """Matrix K(x_i, p_j) over the given candidate atom locations."""
    pts = [float(p) for p in points]
    if len(set(pts)) != len(pts):
        raise DomainError("points must be distinct")
    array = _kernel(problem, np.asarray(pts)).T  # rows follow centers
    return KernelMatrix.build(array, pts, tol)


def _polish(problem: GaussProblem, c: np.ndarray, sites: np.ndarray,
            w: np.ndarray, max_rounds: int = 40):
    """Newton iteration on the joint primal-dual stationarity system.

    Unknowns are the dual coefficients, atom weights and atom locations;
    equations are interpolation at the centers, |g| = 1 with the correct
    sign at each atom, and g' = 0 at each atom.  Returns the polished
    triple or None when the iteration fails (caller falls back to the
    unpolished pipeline).  Colliding atoms are merged on the fly, which
    resolves the flat-maximum case where the exchange method seeds two
    mirror copies of one atom.
    """
    y = problem.y_vector()
    n = problem.n
    scale = 1.0 + float(np.max(np.abs(y)))
    c = c.copy()
    sites = sites.copy()
    w = w.copy()

    for _ in range(max_rounds):
        # merge collided atoms before assembling the system
        if sites.size > 1:
            order = np.argsort(sites)
            sites, w = sites[order], w[order]
            keep_sites: List[float] = [sites[0]]
            keep_w: List[float] = [w[0]]
            for t, wt in zip(sites[1:], w[1:]):
                if t - keep_sites[-1] < problem.sigma * 1e-5:
                    keep_w[-1] += wt
                else:
                    keep_sites.append(t)
                    keep_w.append(wt)
            sites = np.array(keep_sites)
            w = np.array(keep_w)
        m = sites.size
        signs = np.sign(gauss_eval(c, problem, sites))
        signs[signs == 0.0] = 1.0

        k = _kernel(problem, sites)        # m x n
        kd = _kernel_dt(problem, sites)    # m x n
        kdd = _kernel_dtt(problem, sites)  # m x n
        g = k @ c
        gd = kd @ c
        gdd = kdd @ c
        F = np.concatenate([k.T @ w - y, g - signs, gd])
        if float(np.max(np.abs(F))) <= 1e-13 * scale:
            return c, sites, w
        J = np.zeros((n + 2 * m, n + 2 * m))
        J[:n, n:n + m] = k.T
        J[:n, n + m:] = kd.T * w
        J[n:n + m, :n] = k
        J[n:n + m, n + m:] = np.diag(gd)
        J[n + m:, :n] = kd
        J[n + m:, n + m:] = np.diag(gdd)
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        norm0 = float(np.linalg.norm(F))
        damp = 1.0
        for _ in range(30):
            c_try = c + damp * delta[:n]
            w_try = w + damp * delta[n:n + m]
            t_try = sites + damp * delta[n + m:]
            k_t = _kernel(problem, t_try)
            F_try = np.concatenate([
                k_t.T @ w_try - y,
                k_t @ c_try - signs,
                _kernel_dt(problem, t_try) @ c_try,
            ])
            if float(np.linalg.norm(F_try)) < norm0:
                c, w, sites = c_try, w_try, t_try
                break
            damp *= 0.5
        else:
            return None
    return None


@dataclass(frozen=True)
class SparseMeasure:
    """A sparse atomic measure and the function it represents.

    ``atoms`` are (location, weight) pairs; ``tv_norm`` equals the sum of
    absolute weights, which is also the hypothesis-space norm of the
    represented function sum_j w_j K(., x_j').
    """

    atoms: Tuple[Tuple[float, float], ...]
    tv_norm: float
    sigma: float
    residual: float
    rank_bound: int
    certificate: ContinuousDualCertificate

    def locations(self) -> Tuple[float, ...]:
        return tuple(loc for loc, _ in self.atoms)

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def eval(self, x) -> float | np.ndarray:
        """The represented function: sum of weighted kernel sessions."""
        x = np.asarray(x, dtype=float)
        locs = np.array(self.locations())
        if locs.size == 0:
            out = np.zeros_like(x, dtype=float)
            return float(out) if out.ndim == 0 else out
        d = x[..., None] - locs
        vals = np.exp(-d * d / (2.0 * self.sigma ** 2)) @ self.weights()
        return float(vals) if np.ndim(x) == 0 else vals


def mni_solve_measure(problem: GaussProblem) -> SparseMeasure:
    """Minimum total-variation interpolation by Gaussian kernel atoms.

    Pipeline: semi-infinite dual solve, attainment set, stationarity
    polish, kernel matrix over the attainment points, basis pursuit.
    The recovered atoms satisfy sum |w_j| = dual value, the atom count is
    bounded by the rank of the kernel matrix, and the represented
    function interpolates the data within tol * (1 + ||y||_inf).
    """
    cert = dual_solve_semiinfinite(problem)
    tol = problem.options.tol
    y = problem.y_vector()
    c = cert.coefficient_vector()
    sites = np.array(cert.attain_points)

    V0 = _kernel(problem, sites).T
    w0 = np.linalg.lstsq(V0, y, rcond=None)[0]
    keep = np.abs(w0) > problem.options.attain_tol * max(float(np.sum(np.abs(w0))), 1e-300)
    polished = None
    if np.any(keep):
        polished = _polish(problem, c, sites[keep], w0[keep])
    if polished is not None:
        c, psites, _ = polished
        scan = find_attainment_points(c, problem)
        snap = problem.grid_step()
        final_sites: List[float] = list(psites)
        for t in scan:
            if all(abs(t - s) > snap for s in psites):
                final_sites.append(t)
        final_sites = sorted(final_sites)
        m0 = float(y @ c)
        sup = max(abs(gauss_eval(c, problem, t)) for t in final_sites)
        cert = ContinuousDualCertificate(
            coefficients=tuple(float(v) for v in c), value=m0,
            attain_points=tuple(final_sites), sup_norm=m0 * sup,
            exchange_iters=cert.exchange_iters,
            final_violation=max(sup - 1.0, 0.0),
            refinement_stable=cert.refinement_stable)
    else:
        final_sites = list(sites)

    V = kernel_matrix(problem, final_sites, tol)
    bp = basis_pursuit(V.array, y, tol)
    if bp.status != OPTIMAL:
        raise ConvergenceError(
            f"basis pursuit over the attainment points returned {bp.status}; "
            "dual certificate inconsistent with the data")
    atoms = prune_atoms(final_sites, bp.x, problem.options.attain_tol)
    alpha = np.array([coeff for _, coeff in atoms])
    locs = np.array([loc for loc, _ in atoms])
    fitted = _kernel(problem, locs).T @ alpha if atoms else np.zeros(problem.n)
    residual = float(np.max(np.abs(fitted - y)))
    tv = float(np.sum(np.abs(alpha))) if atoms else 0.0
    measure = SparseMeasure(atoms=tuple((float(l), float(a)) for l, a in atoms),
                            tv_norm=tv, sigma=problem.sigma, residual=residual,
                            rank_bound=V.rank, certificate=cert)
    if len(measure.atoms) > V.rank:
        raise ConvergenceError("atom count exceeds the kernel matrix rank")
    return measure
