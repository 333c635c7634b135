"""Gaussian special functions, adaptive quadrature, and total-variation distance.

Everything else in the package reduces to the primitives collected here:

- the standard normal pdf and cdf (the cdf goes through ``scipy.special.ndtr``,
  an erfc-based routine, so the far tail keeps ~1e-15 relative accuracy --
  needed when squeezing flatness bounds at arguments like ``A - B`` ~ 10);
- the closed-form output density of a uniform input on ``[-A, A]`` pushed
  through the unit-variance Gaussian channel;
- an adaptive Gauss-Kronrod 7/15 quadrature that can integrate a whole
  *family* of integrands on one shared, jointly refined partition;
- total-variation distance between densities, and the sup-norm flatness
  ("bulk deviation") of a density against the uniform level ``1/(2A)``.

All functions are pure and hold no mutable state, so they are safe to call
concurrently from many threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import ndtr

__all__ = [
    "DensityFn",
    "QuadratureSpec",
    "QuadratureNonConvergence",
    "DEFAULT_QUAD",
    "TAIL_PAD",
    "HALF_LOG_2PI_E",
    "std_normal_pdf",
    "std_normal_cdf",
    "uniform_output_density",
    "uniform_output",
    "adaptive_quad",
    "adaptive_quad_family",
    "tv_distance",
    "bulk_sup_deviation",
]

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# h(N(0,1)) = 0.5*log(2*pi*e); the conditional output entropy of the channel.
HALF_LOG_2PI_E = 0.5 * (math.log(2.0 * math.pi) + 1.0)

# Unit-variance Gaussian tails are below 1e-23 beyond 10 sigma, so a mixture
# supported on [-A, A] is treated as supported on [-A-10, A+10].
TAIL_PAD = 10.0

ArrayLike = Union[float, np.ndarray]


def std_normal_pdf(x: ArrayLike) -> ArrayLike:
    """Standard Gaussian density phi(x) = exp(-x^2/2)/sqrt(2*pi).

    Accepts scalars or arrays; even in x.
    """
    x = np.asarray(x, dtype=float)
    out = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return out if out.ndim else float(out)


def std_normal_cdf(x: ArrayLike) -> ArrayLike:
    """Standard Gaussian cdf Phi(x), accurate to ~1e-15 relative in both tails."""
    out = ndtr(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def uniform_output_density(A: float, x: ArrayLike) -> ArrayLike:
    """Density at x of U + Z, U ~ Unif[-A, A], Z ~ N(0,1).

    Closed form (Phi(A-x) - Phi(-A-x)) / (2A); no quadrature involved.
    Even in x and bounded above by 1/(2A).
    """
    if not (A > 0.0) or not math.isfinite(A):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    x = np.asarray(x, dtype=float)
    out = (ndtr(A - x) - ndtr(-A - x)) / (2.0 * A)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DensityFn:
    """A probability density with a declared effective support [lo, hi].

    ``pdf`` must be vectorized (ndarray in, ndarray out), deterministic, and
    finite for all finite arguments.  Outside [lo, hi] the density is assumed
    negligible: the library's normalization contract is that quadrature of
    pdf over [lo, hi] lands in [1 - 1e-9, 1] at default tolerances.
    """

    pdf: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("support endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"empty support [{self.lo}, {self.hi}]")

    def __call__(self, y: ArrayLike) -> ArrayLike:
        return self.pdf(np.asarray(y, dtype=float))


def uniform_output(A: float) -> DensityFn:
    """The uniform-input output density as a DensityFn on [-A-10, A+10]."""
    if not (A > 0.0) or not math.isfinite(A):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    return DensityFn(
        pdf=lambda y: (ndtr(A - y) - ndtr(-A - y)) / (2.0 * A),
        lo=-A - TAIL_PAD,
        hi=A + TAIL_PAD,
    )


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive Gauss-Kronrod integrator."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_depth: int = 40

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


class QuadratureNonConvergence(RuntimeError):
    """Raised when the error target is unreachable within max_depth.

    Carries the best available estimate(s) and the corresponding error
    bound(s) so callers can degrade gracefully.
    """

    def __init__(self, estimate, error_bound):
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(
            f"quadrature did not converge: estimate={estimate}, error_bound={error_bound}"
        )


# Gauss-Kronrod 7/15 constants (QUADPACK dqk15 values).  The 15-point Kronrod
# rule is exact through degree 22, the embedded 7-point Gauss rule through
# degree 13; their difference drives panel refinement.
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full 15-node arrays with nodes ascending; Gauss nodes sit at odd indices.
_NODES = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF[:3], _WG_HALF[3:], _WG_HALF[:3][::-1]])

_MAX_PANELS = 200_000


def _eval_panels(f, a, b):
    """Gauss-Kronrod 7/15 on each panel [a_i, b_i]; f maps (n,) -> (m, n)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = (c[:, None] + h[:, None] * _NODES[None, :]).ravel()
    fx = np.asarray(f(x), dtype=float)
    if fx.ndim == 1:
        fx = fx[None, :]
    fx = fx.reshape(fx.shape[0], a.size, 15)
    v15 = (fx * _WK).sum(axis=-1) * h
    v7 = (fx[:, :, 1::2] * _WG).sum(axis=-1) * h
    return v15, np.abs(v15 - v7)


def adaptive_quad_family(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
    initial_panels: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a family of integrands over [lo, hi] on one shared partition.

    ``f`` takes a flat array of abscissae and returns a (m, n) array, one row
    per family member.  Panels are bisected wherever *any* not-yet-converged
    member still carries significant error, which automatically localizes
    kinks (e.g. sign changes inside absolute values).  Returns (integrals,
    error_bounds), both of shape (m,).

    Raises QuadratureNonConvergence once every offending panel has reached
    ``spec.max_depth`` (or on panel-count blowup), carrying the best
    estimates and error bounds.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    n0 = max(1, int(initial_panels))
    edges = np.linspace(lo, hi, n0 + 1)
    a, b = edges[:-1], edges[1:]
    depth = np.zeros(n0, dtype=int)
    vals, errs = _eval_panels(f, a, b)

    while True:
        totals = vals.sum(axis=1)
        tot_err = errs.sum(axis=1)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(totals))
        bad = tot_err > tol
        if not bad.any():
            return totals, tot_err
        # Normalized per-panel severity over the unconverged members only.
        score = (errs[bad] / tol[bad, None]).max(axis=0)
        score[depth >= spec.max_depth] = 0.0
        smax = score.max()
        if smax <= 0.0 or a.size > _MAX_PANELS:
            raise QuadratureNonConvergence(totals, tot_err)
        # Bisect the smallest set of panels covering 90% of the severity.
        order = np.argsort(score)[::-1]
        csum = np.cumsum(score[order])
        k = int(np.searchsorted(csum, 0.9 * csum[-1])) + 1
        split = order[:k]
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_depth = np.repeat(depth[split] + 1, 2)
        nv, ne = _eval_panels(f, new_a, new_b)
        keep = np.ones(a.size, dtype=bool)
        keep[split] = False
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        depth = np.concatenate([depth[keep], new_depth])
        vals = np.concatenate([vals[:, keep], nv], axis=1)
        errs = np.concatenate([errs[:, keep], ne], axis=1)


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
    initial_panels: int = 8,
) -> float:
    """Adaptive integral of a single vectorized integrand over [lo, hi]."""

    def fam(x):
        return np.asarray(f(x), dtype=float)[None, :]

    vals, _ = adaptive_quad_family(fam, lo, hi, spec, initial_panels)
    return float(vals[0])


def tv_distance(p, q, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Total-variation distance (1/2) * integral |p - q| between densities.

    Both arguments need a vectorized ``__call__`` plus ``lo``/``hi`` effective
    supports (DensityFn or MixtureDensity).  The integration domain is the
    union of the supports; the error-driven bisection refines around the sign
    changes of p - q where the integrand has kinks.  Result clipped to [0, 1].
    """
    lo = min(p.lo, q.lo)
    hi = max(p.hi, q.hi)

    def integrand(y):
        return np.abs(np.asarray(p(y), dtype=float) - np.asarray(q(y), dtype=float))

    val = 0.5 * adaptive_quad(integrand, lo, hi, spec)
    return min(max(val, 0.0), 1.0)


def bulk_sup_deviation(f, A: float, B: float, pitch: float | None = None) -> float:
    """Grid approximation of sup_{|x| <= B} |2*A*f(x) - 1| for 0 < B < A.

    Measures how flat f is against the uniform level 1/(2A) on the bulk
    [-B, B].  The sup is taken over a grid of pitch min(0.01, 1/(10A)) --
    adequate because unit noise variance makes the smoothness scale O(1) --
    followed by one local refinement pass around the grid argmax.
    """
    if not (B > 0.0):
        raise ValueError(f"bulk half-width must be positive, got B={B}")
    if not (B < A):
        raise ValueError(f"bulk must sit strictly inside the amplitude: B={B} >= A={A}")
    if pitch is None:
        pitch = min(0.01, 1.0 / (10.0 * A))
    n = max(3, int(math.ceil(2.0 * B / pitch)) + 1)
    grid = np.linspace(-B, B, n)
    dev = np.abs(2.0 * A * np.asarray(f(grid), dtype=float) - 1.0)
    j = int(np.argmax(dev))
    best = float(dev[j])
    # One refinement pass around the coarse argmax.
    step = grid[1] - grid[0]
    local = np.clip(np.linspace(grid[j] - step, grid[j] + step, 201), -B, B)
    dev_local = np.abs(2.0 * A * np.asarray(f(local), dtype=float) - 1.0)
    return max(best, float(dev_local.max()))
