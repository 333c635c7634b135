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
checks its pitch against the sum at twice it, and maximizes i(x) by Newton's
method from the peaks of one FFT of the samples.  No adaptive quadrature.

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

# The KKT scan's Newton polish stops at a peak once the next step would
# raise i by less than _NEWTON_GAIN, or after _NEWTON_CAP steps.  From a
# sample within h/2 of the peak it took at most 4 direct-sum rounds on the
# scan-sweep solves and on 192 certify-batch inputs.
_NEWTON_GAIN = 1e-15
_NEWTON_CAP = 12


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
        # Clip before merging, so that atoms beyond A which land on the same
        # end point merge into one.
        locs = np.clip(locs, -A, A)
        order = np.argsort(locs, kind="stable")
        locs, ws = locs[order], ws[order]
        out = [[locs[0], ws[0]]]
        for x, w in zip(locs[1:], ws[1:]):
            cur = out[-1]
            if x - cur[0] <= merge_tol:
                tot = cur[1] + w
                cur[0] = (cur[0] * cur[1] + x * w) / tot if tot > 0 else 0.5 * (cur[0] + x)
                cur[1] = tot
            else:
                out.append([x, w])
        x_arr, w_arr = np.array(out).T
        keep = w_arr > PRUNE_TOL
        if not keep.any():
            # Degenerate input (all mass pruned): keep the heaviest atom.
            keep = w_arr == w_arr.max()
        x_arr, w_arr = x_arr[keep], w_arr[keep]
        return cls(A=float(A), locations=tuple(x_arr), weights=tuple(w_arr / w_arr.sum()))

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


def _marginal_info_batch(y, lf, pitch, xs, derivatives=0):
    """Rows i(x), i'(x), i''(x) (the first 1 + ``derivatives``) for every x in ``xs``.

    i(x) = -0.5*log(2*pi*e) - integral phi(y - x) log f(y) dy, by direct sums
    over the samples ``y``, ``lf`` that ``_samples`` took at ``pitch``.  Chunks
    of ``xs`` keep each temporary within _CHUNK values, or one row.
    """
    xs = np.asarray(xs, dtype=float)
    g = (-pitch * INV_SQRT_2PI) * lf
    out = np.empty((1 + derivatives, xs.size))
    step = max(1, _CHUNK // y.size)
    # A threaded BLAS dot of one row waits on any busy core; einsum does not
    # thread.  On many rows the matrix product is 1.2-2x faster than einsum.
    dot = np.matmul if step > 1 else partial(np.einsum, "ij,j->i")
    for s in range(0, xs.size, step):
        d = y[None, :] - xs[s:s + step, None]
        phi = d * d
        phi *= -0.5
        np.exp(phi, out=phi)
        out[0, s:s + step] = dot(phi, g)
        for row in range(1, 1 + derivatives):
            phi *= d
            out[row, s:s + step] = dot(phi, g)
    if derivatives == 2:
        out[2] -= out[0]
    out[0] -= HALF_LOG_2PI_E
    return out


def _sampled(A: float, locs, ws):
    """(y, log f(y), pitch): ``_samples`` of the atoms (locs, ws) at pitch ``_pitch(locs)``."""
    locs = np.asarray(locs, dtype=float)
    pitch = _pitch(locs)
    return *_samples(A, locs, np.asarray(ws, dtype=float), pitch), pitch


def _info_stats(A: float, locs: np.ndarray, ws: np.ndarray, xs, derivatives: int = 0):
    """The rows of ``_marginal_info_batch`` at the points ``xs`` for the atoms (locs, ws).

    They come from one set of log f samples (``_sampled``).  With
    ``xs = locs``, I = sum_j w_j i(x_j) and dI/dx_j = w_j i'(x_j).
    """
    return _marginal_info_batch(*_sampled(A, locs, ws), xs, derivatives)


def mutual_information(pi: DiscreteInput) -> float:
    """I(X;Y) in nats for X ~ pi through the unit-variance Gaussian channel.

    Equals h(f_pi) - 0.5*log(2*pi*e), computed by the trapezoid rule as
    sum_j w_j * i(x_j) (see ``_info_stats``).  Nonnegative up to rounding.
    """
    locs, ws = pi.as_arrays()
    return float(ws @ _info_stats(pi.A, locs, ws, locs)[0])


def _convolved_info(lf: np.ndarray, pitch: float, n: int) -> np.ndarray:
    """Rows i, i', i'' of ``_marginal_info_batch`` at the samples -A + g*pitch, g < n.

    One rfft of ``lf`` (from ``_samples``) at a length L >= lf.size (2^k or
    3*2^k), times phi's spectrum exp(-omega^2/2) and -1, -i*omega or omega^2,
    inverted at the same length.
    """
    # The circular convolution wraps in only terms from samples at least 10
    # away, where phi is below 1e-22.  The sampled phi's spectrum differs from
    # exp(-omega^2/2) by its aliases, below exp(-(pi/pitch)^2/2) < 1e-34.
    size = 1 << (lf.size - 1).bit_length()
    if 3 * size // 4 >= lf.size:
        size = 3 * size // 4
    omega = (2.0 * math.pi / (size * pitch)) * np.arange(size // 2 + 1)
    spectrum = np.fft.rfft(lf, size) * np.exp(-0.5 * omega * omega)
    factors = np.stack([np.full(omega.size, -1.0), -1j * omega, omega * omega])
    rows = np.fft.irfft(spectrum * factors, size)[:, math.ceil(TAIL_PAD / pitch) + np.arange(n)]
    rows[0] -= HALF_LOG_2PI_E
    return rows


def _kkt_scan(pi: DiscreteInput) -> tuple[float, float, float, float]:
    """(r_support, r_global, argmax x of the global violation, I).

    log f is sampled at the pitch h of ``_info_stats``, so I equals
    ``mutual_information(pi)`` bit for bit; a solve reports it as the level's I.
    i, i' and i'' come from ``_convolved_info`` at the samples below A and
    from direct sums at A and at the bracketed Newton iterates from every
    sampled peak that can still hold the supremum.  Raises
    QuadratureNonConvergence when I at h and at 2h differ by over _PITCH_TOL.
    """
    A = pi.A
    locs, ws = pi.as_arrays()
    y, lf, h = _sampled(A, locs, ws)

    neg_f_log_f = -np.exp(lf) * lf
    gap = abs(h * neg_f_log_f.sum() - 2.0 * h * neg_f_log_f[::2].sum())
    i_vec = _marginal_info_batch(y, lf, h, locs)[0]
    info = float(ws @ i_vec)
    if not gap <= _PITCH_TOL:
        raise QuadratureNonConvergence(info, gap)
    r_support = float(np.max(np.abs(i_vec - info)))

    n = max(1, math.ceil(2.0 * A / h - 1e-9))
    xs = np.append(-A + h * np.arange(n), A)
    i_x, d1_x, d2_x = np.hstack([_convolved_info(lf, h, n),
                                 _marginal_info_batch(y, lf, h, [A], 2)])
    j = int(np.argmax(i_x))
    best, x_best = float(i_x[j]), float(xs[j])

    # Polish the sampled local maxima (the ends included) that can still win.
    # A peak lies within h/2 of a sample, and rises above it by at most
    # max(-i'') * h^2/8.  i'' = 1 - E[Var(X | Y)] <= 1 varies on the scale of
    # phi, far above h, so its sampled minimum stands for its minimum; 1e-9
    # covers the trapezoid error that the pitch check allows.
    margin = max(1.0, -float(d2_x.min())) * h * h / 8.0 + 1e-9
    padded = np.concatenate([[-np.inf], i_x, [-np.inf]])
    peaks = np.nonzero((i_x >= padded[:-2]) & (i_x >= padded[2:]) & (i_x + margin >= best))[0]
    x, d1, d2 = xs[peaks].tolist(), d1_x[peaks].tolist(), d2_x[peaks].tolist()
    lo, hi = xs[np.clip(peaks + np.array([[-1], [1]]), 0, xs.size - 1)].tolist()
    for _ in range(_NEWTON_CAP):
        steps = []
        for xk, g1, g2, a, b in zip(x, d1, d2, lo, hi):
            # Keep the peak in [a, b] on the ascent side of xk.  Where i is
            # concave, step by Newton unless that would raise i by less than
            # _NEWTON_GAIN, and bisect when the step leaves the bracket;
            # elsewhere go to the bracket's end uphill.
            a, b = (xk, b) if g1 > 0.0 else (a, xk) if g1 < 0.0 else (xk, xk)
            if g2 < 0.0 and g1 * g1 <= -2.0 * _NEWTON_GAIN * g2:
                continue
            xn = xk - g1 / g2 if g2 < 0.0 else b if g1 > 0.0 else a
            if not a <= xn <= b:
                xn = 0.5 * (a + b)
            if xn != xk:
                steps.append((xn, a, b))
        if not steps:
            break
        x, lo, hi = zip(*steps)
        i_new, d1, d2 = _marginal_info_batch(y, lf, h, x, 2).tolist()
        top, x_top = max(zip(i_new, x))
        if top > best:
            best, x_best = top, x_top

    return r_support, max(0.0, best - info), x_best, info


def kkt_residual(pi: DiscreteInput) -> tuple[float, float]:
    """Optimality residuals (r_support, r_global) of ``pi`` in nats.

    r_support = max_j |i(x_j) - I| measures equalization on the support;
    r_global = max over [-A, A] of (i(x) - I)_+ measures global dominance,
    maximized by Newton's method from the peaks of i at the trapezoid
    samples.  ``pi`` is epsilon-optimal when both are below epsilon.  Raises
    QuadratureNonConvergence when the pitch check fails (see ``_kkt_scan``).
    """
    return _kkt_scan(pi)[:2]
