"""Sparse recovery in the Gaussian measure-space hypothesis space.

Functions here are combinations g(t) = sum_j c_j K(x_j, t) of Gaussian
kernel sessions.  The dual of minimum total-variation interpolation
maximizes c.y subject to ||g||_inf <= 1, a semi-infinite constraint
handled by an exchange method: solve the LP on a finite working set,
locate the worst constraint violation over the whole domain, add it, and
repeat until the violation is below the attainment tolerance.  The
finite LP is solved through its primal, min ||alpha||_1 subject to
sum_j alpha_j K(., t_j) = y over the working points: n rows, a feasible
start from the center columns, and the dual c as its simplex
multipliers.  A new working point only adds a column, so each round
warm-starts from the previous optimal basis (column generation).

Borderline center separations (around twice the bandwidth) produce
critical points of g where the second derivative also vanishes, so the
sup is quartically flat and neither function values nor Newton steps can
localize it accurately.  Two safeguards deal with this: the refined
maxima of an attainment set are replaced by the midpoint of a tiny
level-set plateau (exact for the symmetric flat case), and the final
primal-dual pair is polished by a Newton iteration on the joint
stationarity system, whose interpolation rows pin the atom locations
with full quadratic convergence; exchange rounds use the Newton maxima
as they are.  A scan's Newton rounds share one kernel call per
derivative, and its plateau search one per stage (a doubling stage, then
31 points per bracket per bisection stage), however many maxima.  The
exchange rounds of a solve share one kernel matrix of their scan grid,
built again only when the grid is densified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import ConvergenceError, DomainError, GaussProblem, KernelMatrix
from .optim import l1_column_simplex, vertex_atoms

_DERIV_TOL = 1e-10
_FLAT_EPS = 1e-12
_MAX_SCAN_POINTS = 2 ** 20  # the exchange method densifies its scan grid up to this
_STAGE_POINTS = 31  # points per bracket in one bisection stage of the plateau search


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


def _refine_maxima(c: np.ndarray, problem: GaussProblem, t0, step: float,
                   s) -> np.ndarray:
    """Polish local maxima of |g| = s*g by safeguarded Newton on g'.

    Every seed t0[i] (with sign s[i]) iterates on its own in the bracket
    [t0 - step, t0 + step] clipped to the domain, at most 100 rounds, and
    stops once |g'| <= ``_DERIV_TOL``.  A Newton step that leaves the
    bracket, or meets g'' >= 0, falls back to one bisection of the bracket
    while s*g' changes sign from + to - across it, and stops the seed when
    it does not.  The live seeds share one ``_kernel_dt`` and one
    ``_kernel_dtt`` call per round, plus one ``_kernel_dt`` call at the
    bracket ends and midpoints of the seeds that fall back.
    """
    lo, hi = problem.domain
    t = np.array(t0, dtype=float)
    s = np.asarray(s, dtype=float)
    a = np.maximum(lo, t - step)
    b = np.minimum(hi, t + step)
    live = np.arange(t.size)
    for _ in range(100):
        g1 = s[live] * (_kernel_dt(problem, t[live]) @ c)
        moving = np.abs(g1) > _DERIV_TOL
        live, g1 = live[moving], g1[moving]
        if live.size == 0:
            break
        g2 = s[live] * (_kernel_dtt(problem, t[live]) @ c)
        t_new = t[live] - np.divide(g1, g2, out=np.full(live.size, math.nan), where=g2 < 0)
        newton = (a[live] < t_new) & (t_new < b[live])
        t[live[newton]] = t_new[newton]
        # bisection fallback keeps the bracket around the sign change
        out = live[~newton]
        if out.size:
            mid = 0.5 * (a[out] + b[out])
            d1 = s[out, None] * (_kernel_dt(problem, np.stack([a[out], b[out], mid], 1)) @ c)
            bisect = (d1[:, 0] > 0) & (0 > d1[:, 1])
            up = d1[:, 2] > 0
            a[out[bisect & up]] = mid[bisect & up]
            b[out[bisect & ~up]] = mid[bisect & ~up]
            t[out[bisect]] = 0.5 * (a[out[bisect]] + b[out[bisect]])
            live = np.concatenate([live[newton], out[bisect]])
    return t


def _plateau_midpoints(c: np.ndarray, problem: GaussProblem, ts) -> List[float]:
    """Replace each seed t by the midpoint of the level-set plateau around it.

    The plateau is where |g| stays within a relative 1e-12 of |g(t)|.
    For a symmetric flat maximum the two crossings mirror each other, so
    the midpoint lands on the true maximizer even when derivative
    information is below the noise floor.  Both edges of every seed are
    searched together, one kernel call per stage: the doubling stage
    steps out to t -+ sigma*1e-7*2^k (k = 0..23) and brackets each edge
    by the first point below the level; each bisection stage then
    evaluates ``_STAGE_POINTS`` evenly spaced points inside every bracket
    wider than sigma*1e-13 and keeps the first point below the level and
    the point before it.  A seed stays where |g| is zero, where its
    plateau reaches the domain edge or runs a full sigma, and where |g|
    at the midpoint is below |g| at the seed.
    """
    ts = np.asarray(ts, dtype=float)
    lo, hi = problem.domain
    base = np.abs(gauss_eval(c, problem, ts))
    theta = base * (1.0 - _FLAT_EPS)

    # doubling stage, shape (seed, edge, k); each edge closes at its first
    # point outside the domain or below the level
    steps = problem.sigma * 1e-7 * 2.0 ** np.arange(24)
    probes = ts[:, None, None] + np.array([-1.0, 1.0])[:, None] * steps
    inside = (probes > lo) & (probes < hi)
    above = inside & (np.abs(gauss_eval(c, problem, probes)) >= theta[:, None, None])
    k = np.argmin(above, axis=2)[..., None]
    closed = ~np.take_along_axis(above, k, 2) & np.take_along_axis(inside, k, 2)
    ok = np.all(closed[..., 0], axis=1) & (base > 0.0)
    t_out = np.take_along_axis(probes, k, 2)[ok].ravel()
    t_in = np.where(k > 0, np.take_along_axis(probes, np.maximum(k - 1, 0), 2),
                    ts[:, None, None])[ok].ravel()

    # bisection stages over every bracket still wider than sigma*1e-13
    levels = np.repeat(theta[ok], 2)
    frac = np.arange(_STAGE_POINTS + 2) / (_STAGE_POINTS + 1.0)
    for _ in range(16):  # as fine as the 80 halvings of plain bisection
        rows = np.nonzero(np.abs(t_out - t_in) > problem.sigma * 1e-13)[0]
        if rows.size == 0:
            break
        pts = t_in[rows, None] + (t_out - t_in)[rows, None] * frac
        pts[:, -1] = t_out[rows]
        below = np.abs(gauss_eval(c, problem, pts[:, 1:-1])) < levels[rows, None]
        j = np.where(below.any(axis=1), np.argmax(below, axis=1) + 1,
                     _STAGE_POINTS + 1)
        t_in[rows] = pts[np.arange(rows.size), j - 1]
        t_out[rows] = pts[np.arange(rows.size), j]

    edges = (0.5 * (t_in + t_out)).reshape(-1, 2)
    mids = 0.5 * (edges[:, 0] + edges[:, 1])
    out = ts.copy()
    out[ok] = np.where(np.abs(gauss_eval(c, problem, mids)) >= base[ok], mids, ts[ok])
    return out.tolist()


def _grid(problem: GaussProblem, step: float) -> np.ndarray:
    lo, hi = problem.domain
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, max(count, 9))


def _scan_grid(problem: GaussProblem, step: float) -> Tuple[np.ndarray, np.ndarray]:
    """The scan grid at ``step`` and its kernel rows K(x_j, grid), for one solve to share."""
    grid = _grid(problem, step)
    return grid, _kernel(problem, grid)


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    left = np.r_[True, vals[1:] >= vals[:-1]]
    right = np.r_[vals[:-1] >= vals[1:], True]
    idx = np.nonzero(left & right)[0]
    return idx[(idx > 0) & (idx < vals.size - 1)]


def _scan_maxima(c: np.ndarray, problem: GaussProblem, step: float,
                 keep_above: float, relative: bool = False,
                 scan: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> Tuple[float, np.ndarray]:
    """Grid supremum of |g| and the Newton-refined local maxima above ``keep_above``.

    ``scan`` is the ``_scan_grid`` of this step, when the caller has it.
    With ``relative`` the level is ``keep_above`` times the grid supremum,
    and a supremum within one grid step of the domain boundary raises
    DomainError, which signals that the domain needs widening.
    """
    grid, K = _scan_grid(problem, step) if scan is None else scan
    g = K @ c
    vals = np.abs(g)
    imax = int(np.argmax(vals))
    sup = float(vals[imax])
    if relative:
        lo, hi = problem.domain
        if grid[imax] <= lo + step or grid[imax] >= hi - step:
            raise DomainError(
                "supremum attained at the domain boundary; enlarge the domain "
                f"(currently [{lo:g}, {hi:g}])")
        keep_above *= sup
    curv = float(np.sum(np.abs(c))) / problem.sigma ** 2
    slack = 0.5 * step * step * curv
    seeds = _local_maxima(vals)
    seeds = seeds[vals[seeds] >= keep_above - slack]
    return sup, _refine_maxima(c, problem, grid[seeds], step, np.where(g[seeds] >= 0, 1.0, -1.0))


def _merge_points(c: np.ndarray, problem: GaussProblem,
                  points: List[float]) -> List[float]:
    """Dedup within sigma*1e-6, then merge plateau-connected neighbours."""
    if not points:
        return []
    pts = np.sort(np.asarray(points, dtype=float))
    vals = np.abs(gauss_eval(c, problem, pts))
    radius = problem.sigma * 1e-6
    keep = [0]
    for i in range(1, pts.size):
        if pts[i] - pts[keep[-1]] < radius:
            if vals[i] > vals[keep[-1]]:
                keep[-1] = i
        else:
            keep.append(i)
    merged, vals = pts[keep], vals[keep]

    # flat tops can leave mirror twins: if |g| never dips between two
    # neighbours they share one maximum, so collapse the leftmost such
    # pair through the plateau and test every pair again
    while merged.size > 1:
        samples = np.linspace(merged[:-1], merged[1:], 9, axis=1)[:, 1:-1]
        level = np.minimum(vals[:-1], vals[1:]) * (1.0 - 1e-9)
        twin = np.all(np.abs(gauss_eval(c, problem, samples)) >= level[:, None], axis=1)
        if not twin.any():
            break
        i = int(np.argmax(twin))
        rep = _plateau_midpoints(c, problem, [0.5 * (merged[i] + merged[i + 1])])[0]
        cands = np.array([merged[i], merged[i + 1], rep])
        cvals = np.r_[vals[i:i + 2], abs(gauss_eval(c, problem, rep))]
        best = int(np.argmax(cvals))
        merged[i], vals[i] = cands[best], cvals[best]
        merged, vals = np.delete(merged, i + 1), np.delete(vals, i + 1)
    return merged.tolist()


def find_attainment_points(c: Sequence[float], problem: GaussProblem,
                           attain_tol: Optional[float] = None,
                           grid_step: Optional[float] = None) -> List[float]:
    """Points where |sum_j c_j K(x_j, .)| attains its supremum.

    Dense grid scan at ``grid_step``, Newton refinement of every local
    maximum within ``attain_tol`` of the supremum (``_scan_maxima``), the
    scan's one plateau-midpoint search, and dedup within sigma*1e-6.
    Raises DomainError if the supremum sits within one grid step of the
    domain boundary, which signals that the domain needs widening.
    """
    c = np.asarray(c, dtype=float)
    if float(np.max(np.abs(c))) == 0.0:
        raise DomainError("coefficients must be nonzero")
    step = grid_step if grid_step is not None else problem.grid_step()
    attain = attain_tol if attain_tol is not None else problem.options.attain_tol

    sup, refined = _scan_maxima(c, problem, step, 1.0 - attain, relative=True)
    refined = _merge_points(c, problem, _plateau_midpoints(c, problem, refined))
    vals = np.abs(gauss_eval(c, problem, np.asarray(refined)))
    sup_ref = float(np.max(vals, initial=sup))
    return sorted(t for t, v in zip(refined, vals) if v >= sup_ref * (1.0 - attain))


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
    moving = np.abs(gauss_eval_deriv(c, problem, np.asarray(points))) > 1e-6
    if moving.any():
        raise ConvergenceError(f"attainment point {points[int(np.argmax(moving))]:g} "
                               "is not stationary", residual=violation)
    sup = float(np.max(np.abs(gauss_eval(c, problem, np.asarray(points)))))
    m0 = float(problem.y_vector() @ c)
    return ContinuousDualCertificate(
        coefficients=tuple(float(v) for v in c), value=m0,
        attain_points=tuple(points), sup_norm=m0 * sup,
        exchange_iters=iters, final_violation=violation,
        refinement_stable=stable)


def dual_solve_semiinfinite(problem: GaussProblem) -> ContinuousDualCertificate:
    """Exchange method for sup { c.y : ||sum_j c_j K(x_j, .)||_inf <= 1 }.

    The working set starts with the centers plus uniform domain knots.
    Each round solves the finite problem through its primal,
    min ||alpha||_1 s.t. sum_j alpha_j K(., t_j) = y over the working
    points t_j, whose simplex multipliers are the dual c
    (``optim.l1_column_simplex``).  It then locates the worst violation of
    the sup-norm constraint by grid scan plus Newton refinement and adds
    the violating Newton points; every round scans the one kernel matrix
    of its grid (``_scan_grid``).  A new point only adds a column, so the
    previous optimal basis stays feasible and warm-starts the next round;
    the first round starts from the n center columns.  Terminates when the
    violation is at most ``attain_tol``; hitting ``max_exchange_iters``, or
    a stall that would need a scan grid of more than ``_MAX_SCAN_POINTS``
    points, raises ConvergenceError with the last violation.
    """
    y = problem.y_vector()
    if float(np.max(np.abs(y))) == 0.0:
        raise DomainError("y must be nonzero")
    lo, hi = problem.domain
    step = problem.grid_step()
    working = sorted(set(np.linspace(lo, hi, 33)) | set(problem.centers))
    basic, signs = list(problem.centers), None
    violation = math.inf
    scan = _scan_grid(problem, step)

    for it in range(1, problem.options.max_exchange_iters + 1):
        index = {t: i for i, t in enumerate(working)}
        lp = l1_column_simplex(_kernel(problem, np.asarray(working)).T, y,
                               [index[t] for t in basic], signs,
                               problem.options.tol)
        basic, signs = [working[j] for j in lp.cols], lp.signs
        c = lp.dual
        sup, refined = _scan_maxima(c, problem, step, keep_above=1.0, scan=scan)
        vals = np.abs(gauss_eval(c, problem, refined))
        cand = sorted(((float(v), float(t)) for v, t in zip(vals, refined) if v > 1.0),
                      reverse=True)
        violation = max(sup - 1.0, cand[0][0] - 1.0 if cand else -math.inf)
        if violation <= problem.options.attain_tol:
            del scan  # free the grid kernel before the certificate scans a finer grid
            return _certificate(problem, c, it, max(violation, 0.0))
        added = False
        for _, t in cand[:5]:
            if np.min(np.abs(np.asarray(working) - t)) > problem.sigma * 1e-12:
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
            scan = _scan_grid(problem, step)
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


def _merge_atoms(problem: GaussProblem, sites: np.ndarray, w: np.ndarray):
    """Sort atoms by location and fold each atom closer than sigma*1e-5 to
    the first atom of its run into that atom, adding the weights.

    Returns (sites, w, order) with ``order`` the sorting permutation of
    the input; fewer sites than ``order`` entries means atoms merged.
    """
    order = np.argsort(sites)
    keep_sites: List[float] = [sites[order[0]]]
    keep_w: List[float] = [w[order[0]]]
    for t, wt in zip(sites[order[1:]], w[order[1:]]):
        if t - keep_sites[-1] < problem.sigma * 1e-5:
            keep_w[-1] += wt
        else:
            keep_sites.append(t)
            keep_w.append(wt)
    return np.array(keep_sites), np.array(keep_w), order


def _newton_polish(problem: GaussProblem, extra: np.ndarray, sites: np.ndarray,
                   w: np.ndarray, signs_of, residual, jacobian, tol: float):
    """Damped Newton iteration on a stationarity system over atoms.

    The unknowns are ``extra`` (the dual coefficients, or none), the atom
    weights w and the atom locations.  Each round merges colliding atoms
    (``_merge_atoms``), takes the signs from
    ``signs_of(extra, sites, w, previous signs or None, order)`` and stops
    once max |residual(extra, sites, w, signs)| <= tol.  The Newton step
    solves against ``jacobian`` (same arguments) and is halved, at most 30
    times, until the residual norm drops.  Returns (extra, sites, w), or
    None when the Jacobian is singular, no halving helps or 40 rounds run
    out.
    """
    signs = None
    p = extra.size
    for _ in range(40):
        sites, w, order = _merge_atoms(problem, sites, w)
        signs = signs_of(extra, sites, w, signs, order)
        F = residual(extra, sites, w, signs)
        if float(np.max(np.abs(F))) <= tol:
            return extra, sites, w
        try:
            delta = np.linalg.solve(jacobian(extra, sites, w, signs), -F)
        except np.linalg.LinAlgError:
            return None
        m = sites.size
        norm0 = float(np.linalg.norm(F))
        damp = 1.0
        for _ in range(30):
            e_try = extra + damp * delta[:p]
            w_try = w + damp * delta[p:p + m]
            t_try = sites + damp * delta[p + m:]
            if float(np.linalg.norm(residual(e_try, t_try, w_try, signs))) < norm0:
                extra, w, sites = e_try, w_try, t_try
                break
            damp *= 0.5
        else:
            return None
    return None


def _polish(problem: GaussProblem, c: np.ndarray, sites: np.ndarray,
            w: np.ndarray):
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

    def signs_of(c, t, w, signs, order):
        signs = np.sign(gauss_eval(c, problem, t))
        signs[signs == 0.0] = 1.0
        return signs

    def residual(c, t, w, signs):
        k = _kernel(problem, t)
        return np.concatenate([k.T @ w - y, k @ c - signs,
                               _kernel_dt(problem, t) @ c])

    def jacobian(c, t, w, signs):
        m = t.size
        k = _kernel(problem, t)        # m x n
        kd = _kernel_dt(problem, t)    # m x n
        J = np.zeros((n + 2 * m, n + 2 * m))
        J[:n, n:n + m] = k.T
        J[:n, n + m:] = kd.T * w
        J[n:n + m, :n] = k
        J[n:n + m, n + m:] = np.diag(kd @ c)
        J[n + m:, :n] = kd
        J[n + m:, n + m:] = np.diag(_kernel_dtt(problem, t) @ c)
        return J

    return _newton_polish(problem, c, sites, w, signs_of, residual, jacobian,
                          1e-13 * (1.0 + float(np.max(np.abs(y)))))


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
        sup = float(np.max(np.abs(gauss_eval(c, problem, np.asarray(final_sites)))))
        cert = ContinuousDualCertificate(
            coefficients=tuple(float(v) for v in c), value=m0,
            attain_points=tuple(final_sites), sup_norm=m0 * sup,
            exchange_iters=cert.exchange_iters,
            final_violation=max(sup - 1.0, 0.0),
            refinement_stable=cert.refinement_stable)
    else:
        final_sites = list(sites)

    V = kernel_matrix(problem, final_sites, tol)
    atoms, _ = vertex_atoms(V, y, tol, problem.options.attain_tol)
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
