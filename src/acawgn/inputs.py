"""Discrete channel inputs and their Gaussian-mixture outputs.

A ``DiscreteInput`` is a probability mass function on finitely many points of
``[-A, A]``; pushing it through the unit-variance Gaussian channel gives the
Gaussian-mixture output density f.  On top of that type this module exposes
the information quantities the capacity machinery runs on:

- ``mutual_information``: I(X;Y) = h(f) - 0.5*log(2*pi*e);
- ``kkt_residual``: the pair (max_j |i(x_j) - I|, sup-positive-part of
  i(x) - I over [-A, A]) that certifies optimality when both are below a
  declared epsilon.  Here i(x) = KL(phi(.-x) || f) is the marginal
  information density, which satisfies I = sum_j w_j * i(x_j).

Every information integral here is a trapezoid sum over samples of log f on
one uniform grid over [-A-10, A+10], at pitch h = min(0.25, 0.5/max_gap)
(``max_gap`` is the largest gap between adjacent atoms).  The integrands are
analytic and decay like Gaussians, so the rule converges geometrically in
the pitch (Trefethen & Weideman, SIAM Review 56(3), 2014).  ``kkt_residual``
checks its pitch against the sum at twice it, and interpolates i(x) over
[-A, A] from one short FFT.  No adaptive quadrature runs here.

Inputs are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import (
    HALF_LOG_2PI_E,
    INV_SQRT_2PI,
    LOG_SQRT_2PI,
    TAIL_PAD,
    QuadratureNonConvergence,
)
# Unused here, but the benchmark's tracer patches acawgn.inputs' binding of
# it and its test expects the name to exist.
from .numerics import adaptive_quad_family  # noqa: F401

__all__ = [
    "DiscreteInput",
    "mutual_information",
    "kkt_residual",
    "MERGE_TOL",
    "PRUNE_TOL",
]

# Locations closer than this are identified (mixtures are not identifiable
# below it and gradients become ill-conditioned); weights below PRUNE_TOL are
# dropped outright.
MERGE_TOL = 1e-7
PRUNE_TOL = 1e-9

_WEIGHT_SUM_TOL = 1e-12

# Largest number of float64 values in one temporary of the sums over log f
# samples (128 KB), so that peak memory does not grow with the grids.  1 MB
# chunks measured no faster and raised peak RSS by about 2 MB.
_CHUNK = 1 << 14

# The KKT scan fails when I at its pitch and at twice that pitch differ by
# more than this.  Convergence is geometric in the pitch, so a gap of 1e-5
# at 2h still leaves an error near 1e-10 at h.
_PITCH_TOL = 1e-5

# The KKT scan interpolates i(x) by FFT unless its x-grid pitch is more than
# this many times finer than the trapezoid pitch h: the inverse FFT runs at
# the x-grid pitch, and past that direct sums at pitch h are cheaper.  On a
# 2-core x86 machine, with h = 0.25 and 2001 points, the FFT took 0.34-0.37
# ms at A = 1 (ratio 250) against 0.72-0.74 ms direct; between ratios 250
# and 500 (A = 0.5, a tie) it won or lost with the largest prime factor of
# the interpolation factor (1.0 against 0.73 ms at A = 0.9, factor 277).
_FFT_MAX_RATIO = 250

# Points of the KKT scan's equispaced x-grid over [-A, A].
_KKT_GRID_POINTS = 2001


@dataclass(frozen=True)
class DiscreteInput:
    """A K-point probability distribution on [-A, A].

    Locations are strictly increasing, weights are nonnegative and sum to one
    (within 1e-12).  Instances are immutable; use :meth:`normalized` to build
    one from raw, possibly degenerate data (unsorted / near-coincident points,
    weights needing renormalization).
    """

    A: float
    locations: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise ValueError(f"amplitude must be positive and finite, got {self.A}")
        locs = tuple(float(x) for x in self.locations)
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", ws)
        if len(locs) < 1:
            raise ValueError("need at least one mass point")
        if len(locs) != len(ws):
            raise ValueError("locations and weights must have equal length")
        if any(not math.isfinite(x) for x in locs):
            raise ValueError("locations must be finite")
        if any(x2 <= x1 for x1, x2 in zip(locs, locs[1:])):
            raise ValueError("locations must be strictly increasing")
        if abs(locs[0]) > self.A + 1e-12 or abs(locs[-1]) > self.A + 1e-12:
            raise ValueError("locations must lie in [-A, A]")
        if any(w < 0.0 or not math.isfinite(w) for w in ws):
            raise ValueError("weights must be nonnegative and finite")
        if abs(sum(ws) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(ws)!r}")

    @classmethod
    def normalized(
        cls,
        A: float,
        locations,
        weights,
        merge_tol: float = MERGE_TOL,
    ) -> "DiscreteInput":
        """Canonicalize raw atoms: sort, merge near-coincident, prune, renormalize.

        Points closer than ``merge_tol`` are merged into their weighted mean;
        weights below ``PRUNE_TOL`` (after merging) are dropped; the remaining
        weights are rescaled to sum to exactly one.
        """
        locs = np.asarray(locations, dtype=float)
        ws = np.asarray(weights, dtype=float)
        if locs.size == 0:
            raise ValueError("need at least one mass point")
        if np.any(ws < -1e-12):
            raise ValueError("weights must be nonnegative")
        ws = np.maximum(ws, 0.0)
        order = np.argsort(locs, kind="stable")
        locs, ws = locs[order], ws[order]
        out_x, out_w = [], []
        cur_x, cur_w = locs[0], ws[0]
        for x, w in zip(locs[1:], ws[1:]):
            if x - cur_x <= merge_tol:
                tot = cur_w + w
                cur_x = (cur_x * cur_w + x * w) / tot if tot > 0 else 0.5 * (cur_x + x)
                cur_w = tot
            else:
                out_x.append(cur_x)
                out_w.append(cur_w)
                cur_x, cur_w = x, w
        out_x.append(cur_x)
        out_w.append(cur_w)
        x_arr = np.array(out_x)
        w_arr = np.array(out_w)
        keep = w_arr > PRUNE_TOL
        if not keep.any():
            # Degenerate input (all mass pruned): keep the heaviest atom.
            keep = w_arr == w_arr.max()
        x_arr, w_arr = x_arr[keep], w_arr[keep]
        x_arr = np.clip(x_arr, -A, A)
        w_arr = w_arr / w_arr.sum()
        return cls(A=float(A), locations=tuple(x_arr), weights=tuple(w_arr))

    @property
    def k(self) -> int:
        """Support size."""
        return len(self.locations)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.locations), np.array(self.weights)

    def to_dict(self) -> dict:
        return {
            "A": self.A,
            "points": list(self.locations),
            "weights": list(self.weights),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteInput":
        return cls(A=float(d["A"]),
                   locations=tuple(float(x) for x in d["points"]),
                   weights=tuple(float(w) for w in d["weights"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "DiscreteInput":
        return cls.from_dict(json.loads(s))


def _log_mixture(locs: np.ndarray, logw: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log sum_j exp(logw_j) * phi(y - x_j), evaluated stably; y is (n,)."""
    # In place, so that one (K, n) temporary serves every step.
    z = y[None, :] - locs[:, None]
    z *= z
    z *= -0.5
    z += logw[:, None]
    zmax = z.max(axis=0)
    z -= zmax
    np.exp(z, out=z)
    return zmax + np.log(z.sum(axis=0)) - LOG_SQRT_2PI


def _pitch(locs: np.ndarray) -> float:
    """Trapezoid pitch min(0.25, 0.5/max_gap) for the sorted atoms ``locs``.

    Inside a gap between atoms, log f turns over within about 1/gap, so wide
    gaps need a finer pitch.
    """
    return 0.5 / max(2.0, float(np.max(np.diff(locs), initial=0.0)))


def _samples(A: float, locs: np.ndarray, ws: np.ndarray, pitch: float):
    """(y, log f(y)) on the grid y = -A + k*pitch (k integer) over [-A-10, A+10].

    Every integrand of this module carries a Gaussian factor below 1e-22 at
    both ends of the grid, so its trapezoid sum is the plain sum times the
    pitch.
    """
    k = np.arange(-math.ceil(TAIL_PAD / pitch), math.ceil((2.0 * A + TAIL_PAD) / pitch) + 1)
    y = -A + pitch * k
    logw = np.log(np.maximum(ws, 1e-300))
    step = max(1, _CHUNK // locs.size)
    lf = np.concatenate([_log_mixture(locs, logw, y[s:s + step])
                         for s in range(0, y.size, step)])
    return y, lf


def _marginal_info_batch(y, lf, pitch, xs, moment=False):
    """i(x) for every x in ``xs``, by direct trapezoid sums over log f samples.

    ``y`` and ``lf`` are samples from ``_samples`` at ``pitch``.  With
    ``moment``, the second result holds integral (y - x) phi(y - x) log f(y) dy
    for each x; otherwise it is None.  The sums run over chunks of ``xs`` so
    that no temporary holds more than _CHUNK values, or one row if that is
    longer.
    """
    xs = np.asarray(xs, dtype=float)
    g = (pitch * INV_SQRT_2PI) * lf
    s0 = np.empty(xs.size)
    s1 = np.empty(xs.size) if moment else None
    step = max(1, _CHUNK // y.size)
    # A threaded BLAS dot of one row waits on any busy core; einsum does not
    # thread.  On many rows the matrix product is 1.2-2x faster than einsum.
    dot = np.matmul if step > 1 else partial(np.einsum, "ij,j->i")
    for s in range(0, xs.size, step):
        d = y[None, :] - xs[s:s + step, None]
        phi = d * d
        phi *= -0.5
        np.exp(phi, out=phi)
        s0[s:s + step] = dot(phi, g)
        if moment:
            phi *= d
            s1[s:s + step] = dot(phi, g)
    return -HALF_LOG_2PI_E - s0, s1


def _info_stats(A: float, locs: np.ndarray, ws: np.ndarray, want_locations: bool = False):
    """I, every i(x_j) and, with ``want_locations``, every dI/dx_j, in one pass.

    All three come from one set of log f samples at pitch ``_pitch(locs)``:
    i(x_j) = -0.5*log(2*pi*e) - integral phi(y - x_j) log f(y) dy,
    I = sum_j w_j i(x_j) and dI/dx_j = -w_j * integral (y - x_j) phi(y - x_j) log f(y) dy.
    """
    locs = np.asarray(locs, dtype=float)
    ws = np.asarray(ws, dtype=float)
    pitch = _pitch(locs)
    y, lf = _samples(A, locs, ws, pitch)
    i_vec, m1 = _marginal_info_batch(y, lf, pitch, locs, want_locations)
    d_loc = -ws * m1 if want_locations else None
    return float(ws @ i_vec), i_vec, d_loc


def mutual_information(pi: DiscreteInput) -> float:
    """I(X;Y) in nats for X ~ pi through the unit-variance Gaussian channel.

    Equals h(f_pi) - 0.5*log(2*pi*e), computed by the trapezoid rule as
    sum_j w_j * i(x_j) (see ``_info_stats``).  Nonnegative up to rounding.
    """
    return _info_stats(pi.A, *pi.as_arrays())[0]


def _convolved_info(lf: np.ndarray, pitch: float, m: int, every: int, n: int) -> np.ndarray:
    """i(x) at x = -A + g*every*pitch/m, g < n, by Fourier interpolation.

    ``lf`` holds ``_samples`` at ``pitch``; sample ceil(10/pitch) sits at -A.
    One rfft at a length L >= lf.size (2^k or 3*2^k), times phi's spectrum
    exp(-omega^2/2), zero-padded to m*L and inverted, gives the trapezoid
    sums at pitch/m.
    """
    # As a function of x, pitch * sum_k phi(y_k - x) log f(y_k) is band-limited
    # to |omega| < pi/pitch up to exp(-(pi/pitch)^2/2) < 1e-34, so trigonometric
    # interpolation is exact; wrapped terms come from samples at least 10 away,
    # where phi is below 1e-22.
    size = 1 << (lf.size - 1).bit_length()
    if 3 * size // 4 >= lf.size:
        size = 3 * size // 4
    omega = (2.0 * math.pi / (size * pitch)) * np.arange(size // 2 + 1)
    conv = np.fft.irfft(np.fft.rfft(lf, size) * (m * np.exp(-0.5 * omega * omega)), m * size)
    return -HALF_LOG_2PI_E - conv[math.ceil(TAIL_PAD / pitch) * m + every * np.arange(n)]


def _kkt_scan(pi: DiscreteInput) -> tuple[float, float, float]:
    """(r_support, r_global, argmax x of the global violation).

    log f is sampled once, at the pitch P = m*step/every <= h (m, every
    integers, step the pitch of the _KKT_GRID_POINTS-point x-grid).  i(x) on
    the x-grid comes from Fourier interpolation of those samples, or from
    direct sums when the x-grid is more than _FFT_MAX_RATIO times finer than
    h.  I, i(x_j) and the refinement windows are direct sums on the same
    samples.  Raises QuadratureNonConvergence when I at P and at 2P differ
    by more than _PITCH_TOL.
    """
    A = pi.A
    locs, ws = pi.as_arrays()
    h = _pitch(locs)
    step = 2.0 * A / (_KKT_GRID_POINTS - 1)
    every = math.ceil(step / h)
    m = max(1, int(h * every / step))
    pitch = step / every * m
    y, lf = _samples(A, locs, ws, pitch)

    neg_f_log_f = -np.exp(lf) * lf
    gap = abs(pitch * neg_f_log_f.sum() - 2.0 * pitch * neg_f_log_f[::2].sum())
    i_vec, _ = _marginal_info_batch(y, lf, pitch, locs)
    info = float(ws @ i_vec)
    if not gap <= _PITCH_TOL:
        raise QuadratureNonConvergence(info, gap)
    r_support = float(np.max(np.abs(i_vec - info)))

    grid = np.linspace(-A, A, _KKT_GRID_POINTS)
    if _FFT_MAX_RATIO * step >= h:
        i_grid = _convolved_info(lf, pitch, m, every, _KKT_GRID_POINTS)
    else:
        i_grid, _ = _marginal_info_batch(y, lf, pitch, grid)
    j_best = int(np.argmax(i_grid))
    best = float(i_grid[j_best])
    x_best = float(grid[j_best])

    # Refine around the discrete local maxima (endpoints included) that can
    # still win.  (log f)'' = Var(X | Y) - 1 >= -1, so i'' <= 1, and within
    # one step of a grid local maximum j, i stays below i_grid[j] + step^2/8;
    # 1e-9 covers the trapezoid error that the pitch check allows.
    padded = np.concatenate([[-np.inf], i_grid, [-np.inf]])
    is_peak = (padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:])
    peaks = np.nonzero(is_peak & (i_grid + (step * step / 8.0 + 1e-9) >= best))[0]
    refine = np.concatenate(
        [np.linspace(grid[j] - step, grid[j] + step, 21) for j in peaks]
    )
    refine = np.clip(refine, -A, A)
    i_ref, _ = _marginal_info_batch(y, lf, pitch, refine)
    j_ref = int(np.argmax(i_ref))
    if float(i_ref[j_ref]) > best:
        best = float(i_ref[j_ref])
        x_best = float(refine[j_ref])

    return r_support, max(0.0, best - info), x_best


def kkt_residual(pi: DiscreteInput) -> tuple[float, float]:
    """Optimality residuals (r_support, r_global) of ``pi`` in nats.

    r_support = max_j |i(x_j) - I| measures equalization on the support;
    r_global = max over [-A, A] of (i(x) - I)_+ measures global dominance,
    evaluated on _KKT_GRID_POINTS equispaced points plus one refinement pass
    around each local maximum of i.  ``pi`` is epsilon-optimal when both are
    below epsilon.  Raises QuadratureNonConvergence when the trapezoid
    pitch check fails (see ``_kkt_scan``).
    """
    r_support, r_global, _ = _kkt_scan(pi)
    return r_support, r_global
