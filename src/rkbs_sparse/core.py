"""Domain types shared by all solvers.

The toolkit works with two families of interpolation problems:

* sequence problems, where the measurement functionals are elements of
  c0(N) given by exact coordinate evaluators plus certified tail bounds,
  and solutions live in l1(N);
* Gaussian problems, where the measurements are point evaluations
  represented by Gaussian kernel sessions and solutions are sparse
  atomic measures.

Every type is an immutable dataclass: instances are safe to share
between threads and to reuse across solver calls.  Coordinates of
sequence functionals are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np


class RkbsError(Exception):
    """Base class for all toolkit errors."""


class DomainError(RkbsError, ValueError):
    """Invalid input: violated precondition or malformed problem data."""


class ConvergenceError(RkbsError, RuntimeError):
    """An iterative solver hit its cap; carries the last residual."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class TruncationError(ConvergenceError):
    """The truncation certificate could not be established; names the slack."""


class OracleRefusal(RkbsError):
    """A brute-force oracle refused an instance outside its safe range."""


# ---------------------------------------------------------------------------
# sequence functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceFunctional:
    """An element of c0(N): coordinate evaluator plus certified tail bound.

    Supported kinds:

    * ``harmonic``          v_k = 1/k
    * ``geometric``         v_k = ratio**(k-1), |ratio| < 1
    * ``finite``            v_k = values[k-1], zero beyond the list
    * ``scaled-sum``        weighted combination of child functionals

    The tail bound is part of the contract, not an estimate: solvers use
    it to certify their truncation levels.
    """

    kind: str
    ratio: float = 0.0
    values: Tuple[float, ...] = ()
    weights: Tuple[float, ...] = ()
    children: Tuple["SequenceFunctional", ...] = ()

    def __post_init__(self):
        if self.kind not in ("harmonic", "geometric", "finite", "scaled-sum"):
            raise DomainError(f"unknown functional kind {self.kind!r}")
        if self.kind == "geometric" and not abs(self.ratio) < 1.0:
            raise DomainError("geometric ratio must satisfy |ratio| < 1")
        if self.kind == "finite" and not all(math.isfinite(v) for v in self.values):
            raise DomainError("finite functional values must be finite")
        if self.kind == "scaled-sum":
            if len(self.weights) != len(self.children) or not self.children:
                raise DomainError("scaled-sum needs matching weights and children")
            if not all(math.isfinite(w) for w in self.weights):
                raise DomainError("scaled-sum weights must be finite")

    def eval(self, k: int) -> float:
        """Exact coordinate value v_k, k >= 1."""
        if k < 1:
            raise DomainError(f"coordinate index must be >= 1, got {k}")
        if self.kind == "harmonic":
            return 1.0 / k
        if self.kind == "geometric":
            return self.ratio ** (k - 1)
        if self.kind == "finite":
            return self.values[k - 1] if k <= len(self.values) else 0.0
        return sum(w * f.eval(k) for w, f in zip(self.weights, self.children))

    def coordinates(self, upto: int) -> np.ndarray:
        """Vector of the first ``upto`` coordinates v_1..v_upto."""
        if self.kind == "harmonic":
            return 1.0 / np.arange(1, upto + 1, dtype=float)
        if self.kind == "geometric":
            return self.ratio ** np.arange(upto, dtype=float)
        if self.kind == "finite":
            out = np.zeros(upto)
            m = min(upto, len(self.values))
            out[:m] = self.values[:m]
            return out
        out = np.zeros(upto)
        for w, f in zip(self.weights, self.children):
            out += w * f.coordinates(upto)
        return out

    def tail_bound(self, after: int) -> float:
        """Certified bound b with sup_{k>after} |v_k| <= b, non-increasing in ``after``."""
        if after < 1:
            raise DomainError(f"tail bound requires after >= 1, got {after}")
        if self.kind == "harmonic":
            return 1.0 / (after + 1)
        if self.kind == "geometric":
            return abs(self.ratio) ** after
        if self.kind == "finite":
            rest = self.values[after:]
            return max((abs(v) for v in rest), default=0.0)
        return sum(abs(w) * f.tail_bound(after) for w, f in zip(self.weights, self.children))

    def lq_tail(self, after: int, q: float) -> float:
        """Certified bound on (sum_{k>after} |v_k|^q)^(1/q) for q > 1.

        harmonic uses the integral test, geometric the closed-form
        geometric sum, finite is exact; scaled sums combine children by
        the triangle inequality in lq; q = inf gives ``tail_bound(after)``.
        """
        if not q > 1.0:
            raise DomainError("lq tail bounds require q > 1")
        if q == math.inf:
            return self.tail_bound(after)
        if self.kind == "harmonic":
            return (after ** (1.0 - q) / (q - 1.0)) ** (1.0 / q)
        if self.kind == "geometric":
            r = abs(self.ratio)
            if r == 0.0:
                return 0.0
            return r ** after / (1.0 - r ** q) ** (1.0 / q)
        if self.kind == "finite":
            rest = np.asarray(self.values[after:], dtype=float)
            return float(np.sum(np.abs(rest) ** q) ** (1.0 / q)) if rest.size else 0.0
        return sum(abs(w) * f.lq_tail(after, q) for w, f in zip(self.weights, self.children))


def harmonic() -> SequenceFunctional:
    """The sequence [1/k : k in N]."""
    return SequenceFunctional(kind="harmonic")


def geometric(ratio: float) -> SequenceFunctional:
    """The sequence [ratio**(k-1) : k in N] with |ratio| < 1."""
    return SequenceFunctional(kind="geometric", ratio=float(ratio))


def finite(values: Sequence[float]) -> SequenceFunctional:
    """A finitely supported sequence; coordinates beyond the list are zero."""
    return SequenceFunctional(kind="finite", values=tuple(float(v) for v in values))


def scaled_sum(weights: Sequence[float],
               children: Sequence[SequenceFunctional]) -> SequenceFunctional:
    """The combination sum_j weights[j] * children[j]."""
    return SequenceFunctional(kind="scaled-sum",
                              weights=tuple(float(w) for w in weights),
                              children=tuple(children))


def functional_eval(f: SequenceFunctional, k: int) -> float:
    """Exact coordinate value v_k of ``f`` at the 1-based index ``k``."""
    return f.eval(k)


def functional_tail_bound(f: SequenceFunctional, after: int) -> float:
    """Certified sup-norm bound on the coordinates of ``f`` beyond ``after``."""
    return f.tail_bound(after)


# ---------------------------------------------------------------------------
# options and problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and caps shared by the solvers.

    ``tol`` is the numerical tolerance for linear algebra and stopping
    rules, ``attain_tol`` the relative threshold for membership in an
    attainment set.  ``grid_step`` of None means sigma/50 for Gaussian
    problems.
    """

    tol: float = 1e-9
    attain_tol: float = 1e-7
    truncation_start: int = 256
    grid_step: Optional[float] = None
    max_exchange_iters: int = 100

    def __post_init__(self):
        if not (self.tol > 0 and self.attain_tol > 0):
            raise DomainError("tolerances must be strictly positive")
        if self.attain_tol < self.tol:
            raise DomainError("attain_tol must be >= tol")
        if self.truncation_start < 1:
            raise DomainError("truncation_start must be a positive integer")
        if self.grid_step is not None and not self.grid_step > 0:
            raise DomainError("grid_step must be strictly positive")
        if self.max_exchange_iters < 1:
            raise DomainError("max_exchange_iters must be a positive integer")


@dataclass(frozen=True)
class SeqProblem:
    """Minimum-norm interpolation data in l1(N): functionals and values y."""

    functionals: Tuple[SequenceFunctional, ...]
    y: Tuple[float, ...]
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if len(self.functionals) < 1:
            raise DomainError("need at least one functional")
        if len(self.y) != len(self.functionals):
            raise DomainError("y must have one entry per functional")
        if not all(math.isfinite(v) for v in self.y):
            raise DomainError("y must be finite")
        for i in range(len(self.functionals)):
            for j in range(i + 1, len(self.functionals)):
                if self.functionals[i] == self.functionals[j]:
                    raise DomainError(f"functionals {i} and {j} are identical")

    @property
    def n(self) -> int:
        return len(self.functionals)

    def y_vector(self) -> np.ndarray:
        return np.asarray(self.y, dtype=float)

    def coordinate_matrix(self, upto: int) -> np.ndarray:
        """n x upto matrix of leading coordinates, row i = functional i."""
        return np.vstack([f.coordinates(upto) for f in self.functionals])


def seq_problem(functionals: Sequence[SequenceFunctional],
                y: Sequence[float],
                options: Optional[SolverOptions] = None) -> SeqProblem:
    return SeqProblem(functionals=tuple(functionals),
                      y=tuple(float(v) for v in y),
                      options=options or SolverOptions())


@dataclass(frozen=True)
class GaussProblem:
    """Point-evaluation data for the Gaussian measure-space solver.

    ``domain`` must pad the extreme centers by at least 5*sigma so that
    suprema of kernel combinations provably occur in the interior.
    """

    centers: Tuple[float, ...]
    sigma: float
    y: Tuple[float, ...]
    domain: Tuple[float, float]
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sigma, *self.centers, *self.y, *self.domain))):
            raise DomainError("sigma, centers, y and domain must be finite")
        if not self.sigma > 0:
            raise DomainError("sigma must be strictly positive")
        if len(self.centers) < 1:
            raise DomainError("need at least one center")
        if len(self.y) != len(self.centers):
            raise DomainError("y must have one entry per center")
        if any(b <= a for a, b in zip(self.centers, self.centers[1:])):
            raise DomainError("centers must be strictly increasing")
        lo, hi = self.domain
        pad = 5.0 * self.sigma
        if lo > self.centers[0] - pad + 1e-12 or hi < self.centers[-1] + pad - 1e-12:
            raise DomainError("domain must pad the extreme centers by >= 5*sigma")

    @property
    def n(self) -> int:
        return len(self.centers)

    def y_vector(self) -> np.ndarray:
        return np.asarray(self.y, dtype=float)

    def grid_step(self) -> float:
        return self.options.grid_step if self.options.grid_step is not None else self.sigma / 50.0


def gauss_problem(centers: Sequence[float],
                  sigma: float,
                  y: Sequence[float],
                  domain: Optional[Tuple[float, float]] = None,
                  options: Optional[SolverOptions] = None) -> GaussProblem:
    """Build a GaussProblem; ``domain`` defaults to the 5*sigma padding."""
    centers = tuple(float(c) for c in centers)
    if domain is None:
        domain = (min(centers) - 5.0 * sigma, max(centers) + 5.0 * sigma)
    return GaussProblem(centers=centers, sigma=float(sigma),
                        y=tuple(float(v) for v in y),
                        domain=(float(domain[0]), float(domain[1])),
                        options=options or SolverOptions())


# ---------------------------------------------------------------------------
# solver outputs
# ---------------------------------------------------------------------------

def matrix_rank(array: np.ndarray, tol: float) -> int:
    """Numerical rank: the |R_kk| of a column-pivoted QR above tol*max(m,n)*max|a_ij|."""
    return _pivoted_qr(array, tol)[0]


def _pivoted_qr(array: np.ndarray, tol: float) -> Tuple[int, np.ndarray]:
    """(rank, column order) of a column-pivoted QR, as counted by ``matrix_rank``.

    Householder QR with the column pivoting of Businger & Golub (1965):
    each step moves the remaining column of largest norm to the front,
    so |R_kk| is that norm, and reflects it onto the first axis.  The
    |R_kk| do not increase, so the count stops at the first one at or
    below tol*max(m,n)*max|a_ij|.  The first ``rank`` entries of the
    order are independent columns of the input.
    """
    a = np.atleast_2d(np.asarray(array, dtype=float))
    m, n = a.shape
    order = np.arange(n)
    if a.size == 0:
        return 0, order
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):
        raise DomainError("matrix_rank needs finite entries")
    if scale == 0.0:
        return 0, order
    # an exact power-of-two rescale keeps the squared norms clear of
    # under- and overflow; the copy is the one the steps overwrite
    mant, exp = math.frexp(scale)
    a = np.ldexp(a, -exp)
    thresh = tol * max(m, n) * mant
    for k in range(min(m, n)):
        rest = a[k:, k:]
        norms = np.einsum("ij,ij->j", rest, rest)
        p = int(norms.argmax())
        r_kk = math.sqrt(norms[p])
        if not r_kk > thresh:
            return k, order
        v = rest[:, p].copy()
        rest[:, p] = rest[:, 0]
        order[k], order[k + p] = order[k + p], order[k]
        # I - v v^T / (r_kk (r_kk + |x_0|)) with v = x + sign(x_0) r_kk e_1
        # maps the pivot column x to -sign(x_0) r_kk e_1
        x0 = v[0]
        v[0] += math.copysign(r_kk, x0)
        tail = rest[:, 1:]
        tail -= np.outer(v / (r_kk * (r_kk + abs(x0))), v @ tail)
    return min(m, n), order


@dataclass(frozen=True)
class KernelMatrix:
    """A measurement matrix restricted to candidate sites, with its rank.

    ``labels`` are 1-based coordinate indices for sequence problems and
    real locations for Gaussian problems.  ``order`` is the column order
    of the pivoted QR behind ``rank``, independent columns first.
    """

    array: np.ndarray
    labels: Tuple[float, ...]
    rank: int
    order: np.ndarray = field(repr=False, compare=False)

    @staticmethod
    def build(array: np.ndarray, labels: Sequence[float], tol: float) -> "KernelMatrix":
        a = np.atleast_2d(np.asarray(array, dtype=float))
        rank, order = _pivoted_qr(a, tol)
        return KernelMatrix(array=a, labels=tuple(labels), rank=rank, order=order)


@dataclass(frozen=True)
class SparseSolution:
    """A finite atomic solution: (site, coefficient) pairs plus diagnostics.

    ``norm`` is the l1 / total-variation norm of the coefficients,
    ``residual`` the sup-norm data misfit, ``rank_bound`` the rank of the
    measurement matrix over the candidate sites, and ``dual_value`` the
    certified optimal value (for regularization outputs, the objective).
    ``certificate`` is the dual certificate of the solve when it has one
    (l1 minimum-norm interpolation); printing and equality ignore it.
    """

    atoms: Tuple[Tuple[float, float], ...]
    norm: float
    residual: float
    rank_bound: int
    dual_value: float
    certificate: Optional[object] = field(default=None, repr=False, compare=False)

    def sites(self) -> Tuple[float, ...]:
        return tuple(site for site, _ in self.atoms)

    def coefficients(self) -> np.ndarray:
        return np.array([c for _, c in self.atoms], dtype=float)

    def validate(self, n: int, tol: float) -> None:
        """Assert the structural invariants; raises DomainError on violation."""
        sites = self.sites()
        if any(c == 0.0 for _, c in self.atoms):
            raise DomainError("solution atoms must have nonzero coefficients")
        if any(b <= a for a, b in zip(sites, sites[1:])):
            raise DomainError("atom sites must be strictly sorted")
        total = float(np.sum(np.abs(self.coefficients()))) if self.atoms else 0.0
        if abs(self.norm - total) > tol * (1.0 + total):
            raise DomainError("stored norm disagrees with the atom coefficients")
        if not (len(self.atoms) <= self.rank_bound <= n) and self.atoms:
            raise DomainError("atom count exceeds the rank bound")
        if self.rank_bound > n:
            raise DomainError("rank bound exceeds the number of measurements")


def make_solution(atoms, residual, rank_bound, dual_value,
                  n: int, tol: float, certificate=None) -> SparseSolution:
    """Construct a SparseSolution, its norm the l1 norm of the atoms, and assert its invariants."""
    atoms = tuple((float(s), float(c)) for s, c in atoms)
    norm = float(np.sum(np.abs([c for _, c in atoms])))
    sol = SparseSolution(atoms=atoms, norm=norm, residual=float(residual),
                         rank_bound=int(rank_bound), dual_value=float(dual_value),
                         certificate=certificate)
    sol.validate(n, tol)
    return sol
