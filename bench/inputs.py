"""Seeded inputs for the four workloads.

Every generator takes the run's seed and nothing else, so the same seed
always gives the same inputs.  Instances are plain data (tuples of
floats and functional specs) until ``build_*`` turns them into the
package's problem objects; the correctness checks read the plain data,
not the package's representation.
"""

from __future__ import annotations

import numpy as np

# -- l1-mni and reg-path: sequence instances ---------------------------------


SEQ_MAX_N = 4


def seq_specs(seed: int, count: int):
    """Random l1 instances drawn the way the acceptance batch draws them.

    n is uniform on 1..SEQ_MAX_N; each functional is harmonic (at most once),
    geometric with a ratio in (-0.9, 0.9), or finite with 1..6 values in
    [-2, 2]; y is uniform on [-2, 2] rounded to 3 decimals.  Instances with
    identical functionals or with rank < n on the first 64 coordinates are
    redrawn.  A functional spec is ("harmonic",), ("geometric", r) or
    ("finite", (v1, ...)).
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, SEQ_MAX_N + 1))
        specs = []
        used_harmonic = False
        for _ in range(n):
            pick = int(rng.integers(0, 3))
            if pick == 0 and not used_harmonic:
                specs.append(("harmonic",))
                used_harmonic = True
            elif pick == 1:
                ratio = float(rng.uniform(-0.9, 0.9))
                if abs(ratio) < 0.05:
                    ratio = 0.4
                specs.append(("geometric", round(ratio, 6)))
            else:
                length = int(rng.integers(1, 7))
                values = np.round(rng.uniform(-2.0, 2.0, length), 3)
                specs.append(("finite", tuple(float(v) for v in values)))
        y = tuple(float(v) for v in np.round(rng.uniform(-2.0, 2.0, n), 3))
        if max(abs(v) for v in y) < 0.1 or len(set(specs)) < n:
            continue
        if np.linalg.matrix_rank(coordinates(specs, 64)) < n:
            continue
        out.append((tuple(specs), y))
    return out


def spec_coordinates(spec, upto: int) -> np.ndarray:
    """v_1..v_upto of one functional spec, from its definition."""
    k = np.arange(1, upto + 1, dtype=float)
    if spec[0] == "harmonic":
        return 1.0 / k
    if spec[0] == "geometric":
        return spec[1] ** (k - 1.0)
    out = np.zeros(upto)
    values = spec[1][:upto]
    out[:len(values)] = values
    return out


def coordinates(specs, upto: int) -> np.ndarray:
    """n x upto matrix of leading coordinates, row i = functional i."""
    return np.vstack([spec_coordinates(s, upto) for s in specs])


def spec_tail(spec, after: int) -> float:
    """sup_{k > after} |v_k|, from the functional's definition."""
    if spec[0] == "harmonic":
        return 1.0 / (after + 1)
    if spec[0] == "geometric":
        return abs(spec[1]) ** after
    rest = spec[1][after:]
    return max((abs(v) for v in rest), default=0.0)


def build_seq(rk, instance):
    specs, y = instance
    functionals = []
    for s in specs:
        if s[0] == "harmonic":
            functionals.append(rk.harmonic())
        elif s[0] == "geometric":
            functionals.append(rk.geometric(s[1]))
        else:
            functionals.append(rk.finite(s[1]))
    return rk.seq_problem(functionals, y)


def lambda_grid(instance, fractions):
    """lam_max * fractions, with lam_max = ||L^T y||_inf certified by the tail bounds."""
    specs, y = instance
    K = 256
    while True:
        g = coordinates(specs, K).T @ np.asarray(y)
        lam_max = float(np.max(np.abs(g)))
        tail = sum(abs(yi) * spec_tail(s, K) for yi, s in zip(y, specs))
        if tail < lam_max:
            return tuple(float(lam_max * f) for f in fractions)
        K *= 2


# -- gauss-mni: Gaussian instances -------------------------------------------

GAUSS_SIZES = (8, 12, 16)
GAUSS_FAMILY_SEED = 20240607
GAUSS_PANEL = 24


def gauss_entry(index: int):
    """Entry ``index`` of the Gaussian family: n = GAUSS_SIZES[index % 3] centers at
    linspace(-8, 8, n) with U(-0.1, 0.1) jitter (sorted), y ~ U(-1, 1), sigma 1."""
    rng = np.random.default_rng([GAUSS_FAMILY_SEED, index])
    n = GAUSS_SIZES[index % len(GAUSS_SIZES)]
    centers = np.sort(np.linspace(-8.0, 8.0, n) + rng.uniform(-0.1, 0.1, n))
    y = rng.uniform(-1.0, 1.0, n)
    return (tuple(float(c) for c in centers), 1.0, tuple(float(v) for v in y))


def gauss_panel(seed: int):
    """Entries 0..GAUSS_PANEL-1 (8 of each size), in an order picked by the seed.

    The panel is the same for every seed, so that every run times the
    same instances: solve times within one size vary several-fold between
    entries, and a seed-drawn sample of a run's length moved ops_per_s by
    17% and op_p50_s by 27% (quartile spread over five seeds).
    """
    order = np.random.default_rng(seed).permutation(GAUSS_PANEL)
    return [gauss_entry(int(i)) for i in order]


# the closed-form instance: centers +-1, y = 1, one atom at 0 of weight sqrt(e)
GAUSS_CLOSED_FORM = ((-1.0, 1.0), 1.0, (1.0, 1.0))


def build_gauss(rk, instance):
    centers, sigma, y = instance
    return rk.gauss_problem(centers, sigma, y)
