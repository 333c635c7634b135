"""Independent oracles the test suite checks the library against.

Nothing here is part of the library surface.  The capacity oracle is a
classical Blahut-Arimoto iteration on a dense input grid with a quantized
output, deliberately sharing no code with the gradient-based solver; the
quadrature oracle is scipy's QUADPACK, independent of the library's own
Gauss-Kronrod implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as scipy_quad
from scipy.signal import find_peaks

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def phi(x):
    return INV_SQRT_2PI * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)


@dataclass(frozen=True)
class BAResult:
    capacity_nats: float
    duality_gap: float
    iterations: int
    grid: np.ndarray
    mass: np.ndarray
    support_points: np.ndarray
    support_weights: np.ndarray

    @property
    def support_count(self) -> int:
        return self.support_points.size


def blahut_arimoto_capacity(
    A: float,
    n_inputs: int = 2001,
    y_step: float = 0.01,
    rel_change_tol: float = 1e-9,
    max_iter: int = 200_000,
    mass_floor: float = 1e-18,
    mass_threshold: float = 1e-6,
) -> BAResult:
    """Amplitude-constrained capacity via Blahut-Arimoto on a dense grid.

    Inputs live on ``n_inputs`` equispaced points of [-A, A]; the output is
    quantized to bins of width ``y_step`` over [-A-10, A+10].  Iterates the
    multiplicative update until the capacity estimate's relative change per
    iteration drops below ``rel_change_tol``; the final duality gap
    max_x D(x) - I (a rigorous upper bound on the remaining suboptimality on
    the grid) is reported alongside.  Grid points whose mass decays below
    ``mass_floor`` are frozen out for speed -- mass only decays for points
    whose information density sits below the current I, so nothing prunable
    can return.  Support extraction thresholds the final mass at
    ``mass_threshold`` and clusters adjacent bins into atoms at their
    mass-weighted means.
    """
    x = np.linspace(-A, A, n_inputs)
    n_y = int(round((2 * A + 20.0) / y_step)) + 1
    y = np.linspace(-A - 10.0, A + 10.0, n_y)
    step = y[1] - y[0]

    # Quantized channel: rows sum to one exactly.
    P = phi(y[None, :] - x[:, None]) * step
    P /= P.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        logP = np.where(P > 0.0, np.log(np.where(P > 0.0, P, 1.0)), -np.inf)
    ent_rows = -(np.where(P > 0.0, P * logP, 0.0)).sum(axis=1)

    active = np.arange(n_inputs)
    Pa = P  # rows of the active inputs, re-sliced only when the set shrinks
    r = np.full(n_inputs, 1.0 / n_inputs)
    info = 0.0
    prev_info = -math.inf
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        ra = r[active]
        q = ra @ Pa
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0.0, np.log(np.where(q > 0.0, q, 1.0)), -np.inf)
        # D(x) = KL(P(.|x) || q) for active x
        d = -(Pa @ logq) - ent_rows[active]
        info = float(ra @ d)
        gap = float(d.max() - info)
        if gap <= 1e-12 or abs(info - prev_info) <= rel_change_tol * max(abs(info), 1e-12):
            break
        prev_info = info
        ra = ra * np.exp(d - d.max())
        ra = ra / ra.sum()
        r[:] = 0.0
        r[active] = ra
        keep = ra > mass_floor
        if not keep.all():
            active = active[keep]
            Pa = P[active]
            r[active] = r[active] / r[active].sum()

    # Support extraction: threshold at mass_threshold and cluster adjacent
    # bins.  A cluster still carrying two forming atoms (their in-between
    # mass decays only at the rate of the local information-density deficit,
    # so it can ride above the threshold at the stopping time) shows as twin
    # peaks separated by problem-scale distance; such clusters are split at
    # the minimum between consecutive peaks.  True atoms sit O(1) apart, so
    # a 0.3 separation floor cannot cut a single atom in two.
    dx = x[1] - x[0]

    def split_block(block):
        m = r[block]
        peaks, _ = find_peaks(m, height=0.05 * m.max(), distance=max(2, int(0.3 / dx)))
        if peaks.size <= 1:
            return [block]
        out = []
        start = 0
        for p1, p2 in zip(peaks[:-1], peaks[1:]):
            cut = p1 + 1 + int(np.argmin(m[p1 + 1:p2]))
            out.append(block[start:cut + 1])
            start = cut + 1
        out.append(block[start:])
        return out

    hot = np.nonzero(r > mass_threshold)[0]
    points, weights = [], []
    if hot.size:
        runs = np.split(hot, np.nonzero(np.diff(hot) > 1)[0] + 1)
        for run in runs:
            for block in split_block(run):
                m = r[block]
                points.append(float(np.dot(x[block], m) / m.sum()))
                weights.append(float(m.sum()))
    w = np.array(weights)
    return BAResult(
        capacity_nats=info,
        duality_gap=gap,
        iterations=it,
        grid=x,
        mass=r,
        support_points=np.array(points),
        support_weights=w / w.sum() if w.size else w,
    )


def quad_oracle(f, lo, hi, **kwargs) -> float:
    """scipy QUADPACK integral, used as the independent quadrature route."""
    val, _ = scipy_quad(f, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12, **kwargs)
    return val


def mc_mutual_information(locations, weights, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo I(X;Y) for a discrete input; returns (estimate, std_error).

    Samples (X, Z) and averages log(phi(Z) / f(X + Z)); the mixture density
    in the denominator is evaluated directly.
    """
    rng = np.random.default_rng(seed)
    locations = np.asarray(locations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    vals = np.empty(n_samples)
    chunk = 1_000_000
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        xi = rng.choice(locations.size, size=n, p=weights)
        z = rng.standard_normal(n)
        ys = locations[xi] + z
        log_num = -0.5 * z * z
        fy = (weights[None, :] * np.exp(-0.5 * (ys[:, None] - locations[None, :]) ** 2)).sum(axis=1)
        vals[done:done + n] = log_num - np.log(fy)
        done += n
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return est, se
