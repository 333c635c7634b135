"""Independent oracles the test suite checks the library against.

Nothing here is part of the library surface.  The capacity oracle is a
classical Blahut-Arimoto iteration on a dense input grid with a quantized
output, deliberately sharing no code with the gradient-based solver; the
quadrature oracles are scipy's QUADPACK (``quad``) and ``quad_vec``, with
log f by ``logsumexp``, independent of the library's trapezoid sums and of
its own Gauss-Kronrod implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as scipy_quad
from scipy.integrate import quad_vec
from scipy.optimize import brentq
from scipy.signal import find_peaks
from scipy.special import erfc, logsumexp

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# The library's KKT scan grid: equispaced points over [-A, A].
KKT_GRID_POINTS = 2001


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


def uniform_density(A: float, y):
    """Density of Unif[-A, A] + N(0, 1) at y, from erfc at |y| (both tails exact)."""
    t = np.abs(np.asarray(y, dtype=float)) / math.sqrt(2.0)
    return 0.5 * (erfc(t - A / math.sqrt(2.0)) - erfc(t + A / math.sqrt(2.0))) / (2.0 * A)


def mixture_pdf(locations, weights, y):
    """sum_j w_j phi(y - x_j), evaluated directly."""
    y = np.asarray(y, dtype=float)
    locations = np.asarray(locations, dtype=float)
    return (np.asarray(weights) * phi(y[..., None] - locations)).sum(axis=-1)


def log_mixture_pdf(locations, weights, y):
    """log sum_j w_j phi(y - x_j) by ``logsumexp``, stable far into the tails."""
    y = np.asarray(y, dtype=float)
    d = y[..., None] - np.asarray(locations, dtype=float)
    return logsumexp(-0.5 * d * d, b=np.asarray(weights, dtype=float), axis=-1) \
        - 0.5 * math.log(2.0 * math.pi)


def quadpack_tv(A: float, locations, weights, pitch: float = 1e-3) -> float:
    """TV between the mixture and the smoothed uniform law on [-A, A], by QUADPACK.

    The sign changes of g = p - q are bracketed on a grid of ``pitch`` over
    [-A'-12, A'+12], A' = max(A, max|x_j|), and refined by brentq; QUADPACK
    then integrates the smooth g between adjacent sign changes, so no
    integral sees a kink.
    """
    def g(y):
        return mixture_pdf(locations, weights, y) - uniform_density(A, y)

    span = max(A, float(np.max(np.abs(locations)))) + 12.0
    y = np.linspace(-span, span, int(math.ceil(2.0 * span / pitch)) + 1)
    positive = g(y) >= 0.0
    roots = [brentq(g, y[i], y[i + 1], xtol=1e-15, rtol=1e-15)
             for i in np.nonzero(positive[:-1] != positive[1:])[0]]
    edges = [-span, *roots, span]
    pieces = [scipy_quad(g, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
              for a, b in zip(edges, edges[1:])]
    return 0.5 * float(np.abs(pieces).sum())


def quadpack_uniform_information(A: float) -> float:
    """I(X;Y) in nats for X ~ Unif[-A, A]: h(f_unif) - log(2 pi e)/2 by QUADPACK."""
    def neg_f_log_f(y):
        f = float(uniform_density(A, y))
        return -f * math.log(f) if f > 0.0 else 0.0

    h = sum(scipy_quad(neg_f_log_f, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
            for a, b in ((-A - 12.0, -A), (-A, A), (A, A + 12.0)))
    return h - 0.5 * math.log(2.0 * math.pi * math.e)


def quadpack_divergence_from_uniform(A: float, locations, weights) -> float:
    """D(f_unif || f) in nats for the mixture f of the atoms, by QUADPACK."""
    locations = np.asarray(locations, dtype=float)
    log_w = np.log(np.asarray(weights, dtype=float))

    def integrand(y):
        q = float(uniform_density(A, y))
        if q <= 0.0:
            return 0.0
        log_f = logsumexp(log_w - 0.5 * (y - locations) ** 2) - 0.5 * math.log(2.0 * math.pi)
        return q * (math.log(q) - log_f)

    return sum(scipy_quad(integrand, a, b, points=[x for x in locations if a < x < b],
                          epsabs=1e-13, epsrel=1e-12, limit=800)[0]
               for a, b in ((-A - 12.0, -A), (-A, A), (A, A + 12.0)))


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


def central_differences(fun, z, h: float) -> np.ndarray:
    """(fun(z + h e_i) - fun(z - h e_i)) / (2h) for every coordinate i of ``z``."""
    out = np.empty(z.size)
    for i in range(z.size):
        step = np.zeros(z.size)
        step[i] = h
        out[i] = (fun(z + step) - fun(z - step)) / (2.0 * h)
    return out


def tangent_part(g, c) -> np.ndarray:
    """``g`` with its component along the constraint normal ``c`` removed."""
    return g - c * (c @ g) / (c @ c)


def random_param(rng, has_center: bool):
    """A random symmetric optimizer state (``acawgn.solver._Param``) at A in [0.8, 4].

    One or two pairs at least 0.05 apart from each other and from their
    mirror images, and weights with total probability one.
    """
    from acawgn.solver import _Param

    A = float(rng.uniform(0.8, 4.0))
    m = int(rng.integers(1, 3))
    x = np.sort(rng.uniform(0.05 * A, 0.9 * A, m))
    while np.min(np.diff(x), initial=1.0) < 0.05 or x[0] < 0.05:
        x = np.sort(rng.uniform(0.05 * A, 0.9 * A, m))
    c = np.full(m + has_center, 2.0)
    c[:has_center] = 1.0
    return _Param(A, has_center, x, rng.dirichlet(np.full(c.size, 2.0)) / c)


def quad_vec_kkt_residual(pi):
    """(r_support, r_global) of ``pi`` with every integral by ``scipy.integrate.quad_vec``.

    The library's KKT scan with its trapezoid sums replaced by one adaptive
    ``quad_vec`` integral over [-A-12, A+12] per set of points (tolerances
    1e-13 absolute and 1e-12 relative in the max norm), log f by
    ``logsumexp``: the same 2001-point grid and the same 21-point windows
    around every discrete local maximum of i(x).
    """
    locs, ws = pi.as_arrays()
    half_log_2pi_e = 0.5 * (math.log(2.0 * math.pi) + 1.0)
    lo, hi = -pi.A - 12.0, pi.A + 12.0

    def info_at(xs):
        vals, _ = quad_vec(lambda y: phi(y - xs) * log_mixture_pdf(locs, ws, y), lo, hi,
                           epsabs=1e-13, epsrel=1e-12, norm="max")
        return -half_log_2pi_e - vals

    i_vec = info_at(locs)
    info = float(ws @ i_vec)
    grid = np.linspace(-pi.A, pi.A, KKT_GRID_POINTS)
    i_grid = info_at(grid)
    padded = np.concatenate([[-np.inf], i_grid, [-np.inf]])
    peaks = np.nonzero((i_grid >= padded[:-2]) & (i_grid >= padded[2:]))[0]
    step = grid[1] - grid[0]
    refine = np.clip(np.concatenate(
        [np.linspace(grid[j] - step, grid[j] + step, 21) for j in peaks]), -pi.A, pi.A)
    best = max(float(i_grid.max()), float(info_at(refine).max()))
    return float(np.max(np.abs(i_vec - info))), max(0.0, best - info)


def every_window_kkt_scan(pi):
    """(r_support, r_global, x of the best value, x of the grid maximum) of ``pi``.

    The library's KKT scan with nothing pruned and no FFT: log f sampled once
    at the pitch ``_pitch(locs)``, i(x) by direct sums over those samples on
    the same grid, then the same 21-point window around *every* discrete
    local maximum of i.
    """
    from acawgn.inputs import _marginal_info_batch, _pitch, _samples

    locs, ws = pi.as_arrays()
    pitch = _pitch(locs)
    y, lf = _samples(pi.A, locs, ws, pitch)

    def info_at(xs):
        return _marginal_info_batch(y, lf, pitch, xs)[0]

    i_vec = info_at(locs)
    info = float(ws @ i_vec)
    grid = np.linspace(-pi.A, pi.A, KKT_GRID_POINTS)
    i_grid = info_at(grid)
    padded = np.concatenate([[-np.inf], i_grid, [-np.inf]])
    peaks = np.nonzero((i_grid >= padded[:-2]) & (i_grid >= padded[2:]))[0]
    step = grid[1] - grid[0]
    refine = np.clip(np.concatenate(
        [np.linspace(grid[j] - step, grid[j] + step, 21) for j in peaks]), -pi.A, pi.A)
    xs = np.concatenate([grid, refine])
    vals = np.concatenate([i_grid, info_at(refine)])
    j = int(np.argmax(vals))
    return (float(np.max(np.abs(i_vec - info))), max(0.0, float(vals[j]) - info),
            float(xs[j]), float(grid[np.argmax(i_grid)]))
