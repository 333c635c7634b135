"""Gaussian special functions, total-variation distance, and adaptive quadrature.

Everything else in the package reduces to the primitives collected here:

- the closed-form output density of a uniform input on ``[-A, A]`` pushed
  through the unit-variance Gaussian channel.  Its normal cdf goes through
  ``scipy.special.ndtr``, an erfc-based routine, so the far tail keeps
  ~1e-15 relative accuracy -- needed when squeezing flatness bounds at
  arguments like ``A - B`` ~ 10;
- the exact total-variation distance between the output of a discrete input
  and that smoothed uniform law, from closed-form CDFs between the sign
  changes of their difference, and the flatness ("bulk deviation") of that
  output on ``[-B, B]``, ``B = A - sqrt(A)``; both read ``A`` off the input;
- an adaptive Gauss-Kronrod 7/15 quadrature that can integrate a whole
  *family* of integrands on one shared, jointly refined partition.  No
  command or library routine calls it any more, and the tests' oracles use
  scipy instead; only its own tests and the benchmark's tracer reach it.

All functions are pure and hold no mutable state, so they are safe to call
concurrently from many threads.
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np
from scipy.special import ndtr

__all__ = [
    "QuadratureNonConvergence",
    "TAIL_PAD",
    "HALF_LOG_2PI_E",
    "uniform_output_density",
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


def uniform_output_density(A: float, x: ArrayLike) -> ArrayLike:
    """Density at x of U + Z, U ~ Unif[-A, A], Z ~ N(0,1).

    Closed form (Phi(A-x) - Phi(-A-x)) / (2A), even in x, bounded above by
    1/(2A), and evaluated at |x|: for x << -A it would cancel 1 - 1.
    """
    if not (A > 0.0) or not math.isfinite(A):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    x = np.abs(np.asarray(x, dtype=float))
    out = (ndtr(A - x) - ndtr(-A - x)) / (2.0 * A)
    return out if out.ndim else float(out)


class QuadratureNonConvergence(RuntimeError):
    """Raised when an integral cannot be trusted to its error target.

    On the solve, scan and certify paths only the KKT scan's pitch check
    raises it (``inputs._kkt_scan``): ``estimate`` is I at the trapezoid
    pitch h and ``error_bound`` is |I(h) - I(2h)|.  ``adaptive_quad_family``
    raises it with per-integrand arrays when its panels reach _QUAD_MAX_DEPTH.
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

# adaptive_quad_family starts from _QUAD_PANELS equal panels.  A member has
# converged once its summed panel errors are below max(_QUAD_ABS_TOL,
# _QUAD_REL_TOL * |integral|); no panel is bisected more than _QUAD_MAX_DEPTH
# times.
_QUAD_ABS_TOL = 1e-10
_QUAD_REL_TOL = 1e-8
_QUAD_MAX_DEPTH = 40
_QUAD_PANELS = 8


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
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a family of integrands over [lo, hi] on one shared partition.

    ``f`` takes a flat array of abscissae and returns a (m, n) array, one row
    per family member.  Panels are bisected wherever *any* not-yet-converged
    member still carries significant error, which automatically localizes
    kinks (e.g. sign changes inside absolute values).  Returns (integrals,
    error_bounds), both of shape (m,).

    Raises QuadratureNonConvergence once every offending panel has reached
    ``_QUAD_MAX_DEPTH`` (or on panel-count blowup), carrying the best
    estimates and error bounds.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    edges = np.linspace(lo, hi, _QUAD_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    depth = np.zeros(_QUAD_PANELS, dtype=int)
    vals, errs = _eval_panels(f, a, b)

    while True:
        totals = vals.sum(axis=1)
        tot_err = errs.sum(axis=1)
        tol = np.maximum(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(totals))
        bad = tot_err > tol
        if not bad.any():
            return totals, tot_err
        # Normalized per-panel severity over the unconverged members only.
        score = (errs[bad] / tol[bad, None]).max(axis=0)
        score[depth >= _QUAD_MAX_DEPTH] = 0.0
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


# Exact TV against the smoothed uniform law (``tv_distance``).  The sign
# changes of g = p - q are bracketed on cells of pitch _TV_PITCH over
# [-A-_TV_PAD, A+_TV_PAD], outside which both densities are below 1e-31
# (every atom lies in [-A, A]).  A cell that cannot be shown to hold no
# root, or exactly one, is split _TV_SPLIT ways, until a pair of roots it
# might still hide would enclose less than _TV_MISSED_AREA of |g|.  Every
# piece keeps the curvature bound of its first-pass cell: a sup over a cell
# bounds every piece of it, and each bound costs a (K x cells) pass.
# Each bracket's root is then polished by safeguarded Newton ("rtsafe",
# Numerical Recipes, 3rd ed., section 9.4) from its secant point: a step
# that would leave the bracket, or would not halve the step before last,
# bisects instead, and every evaluation shrinks the bracket.  A root is done
# once its step is at most _TV_STEP; D' = g vanishes there, so a root off
# by delta moves D by O(delta^2) only.  A bracket proved to hold one simple
# root takes about three rounds; _TV_NEWTON_ROUNDS only bounds the time,
# and a root still moving when it is reached stays inside its bracket.
# Splitting stops early once the unsettled cells times K pass _TV_MAX_WORK,
# which bounds time and memory: that happens only where p - q stays at
# rounding level over long stretches (a dense equispaced input, say), and
# the cells are then taken as they stand.  The benchmark's certify-batch
# inputs stay below a thirtieth of it.
_TV_PITCH = 0.25
_TV_PAD = 12.0
_TV_SPLIT = 4
_TV_MISSED_AREA = 1e-17
_TV_STEP = 1e-9
_TV_NEWTON_ROUNDS = 50
_TV_MAX_WORK = 1 << 18


def _mixture_minus_uniform(A: float, locs, ws, y: np.ndarray) -> np.ndarray:
    """g(y) = p(y) - q(y): mixture density minus smoothed uniform density."""
    # q inline: this runs some 35 times per TV on short arrays, where the
    # checks of uniform_output_density would cost more than the arithmetic.
    d, ay = np.subtract.outer(locs, y), np.abs(y)
    return INV_SQRT_2PI * (ws @ np.exp(-0.5 * d * d)) - (ndtr(A - ay) - ndtr(-A - ay)) / (2.0 * A)


def _mixture_minus_uniform_slope(A: float, locs, ws, y: np.ndarray):
    """(g(y), g'(y)), g' = sum_j w_j phi'(y - x_j) - (phi(y + A) - phi(y - A))/(2A)."""
    d, ay = np.subtract.outer(locs, y), np.abs(y)
    e = np.exp(-0.5 * d * d)
    g = INV_SQRT_2PI * (ws @ e) - (ndtr(A - ay) - ndtr(-A - ay)) / (2.0 * A)
    dq = np.exp(-0.5 * (y + A) ** 2) - np.exp(-0.5 * (y - A) ** 2)
    return g, INV_SQRT_2PI * (ws @ (d * e) - dq / (2.0 * A))


def _cdf_difference(A: float, locs, ws, y: np.ndarray) -> np.ndarray:
    """D = P - Q, the antiderivative of g vanishing at -inf; G(t) = t Phi(t) + phi(t)."""
    def G(t):
        return t * ndtr(t) + INV_SQRT_2PI * np.exp(-0.5 * t * t)

    return ws @ ndtr(y[None, :] - locs[:, None]) - (G(y + A) - G(y - A)) / (2.0 * A)


# The sup over t >= u of |phi''(t)| = |t^2 - 1| phi(t) is the larger of its
# value at u and, when u < sqrt(3), its local peak at sqrt(3); likewise for
# |phi'(t)| = t phi(t), whose peak is at 1.
_D2PHI_PEAK = 2.0 * INV_SQRT_2PI * math.exp(-1.5)
_DPHI_PEAK = INV_SQRT_2PI * math.exp(-0.5)


def _curvature_bound(A: float, locs, ws, a, b) -> np.ndarray:
    """M >= sup |g''| on each cell [a, b], from the sup of each term of g''.

    g'' = sum_j w_j phi''(y - x_j) - (phi'(y + A) - phi'(y - A))/(2A); a
    term's sup is taken beyond the cell's nearest approach u to its center.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    u = np.maximum(np.abs(np.subtract.outer(locs, mid)) - half, 0.0)
    u2 = u * u
    d2 = np.abs(u2 - 1.0) * np.exp(-0.5 * u2) * INV_SQRT_2PI
    d2 = np.maximum(d2, np.where(u2 < 3.0, _D2PHI_PEAK, 0.0))
    e = np.maximum(np.abs(np.subtract.outer(np.array([-A, A]), mid)) - half, 0.0)
    d1 = np.where(e < 1.0, _DPHI_PEAK, e * np.exp(-0.5 * e * e) * INV_SQRT_2PI)
    return ws @ d2 + d1.sum(axis=0) / (2.0 * A)


def _tv_roots(A: float, locs, ws) -> np.ndarray:
    """The sign changes of g = p - q, ascending."""
    span = A + _TV_PAD
    y = np.linspace(-span, span, math.ceil(2.0 * span / _TV_PITCH) + 1)
    g = _mixture_minus_uniform(A, locs, ws, y)
    a, b, ga, gb = y[:-1], y[1:], g[:-1], g[1:]
    M = _curvature_bound(A, locs, ws, a, b)
    brackets = []
    while a.size:
        s = b - a
        change = (ga >= 0.0) != (gb >= 0.0)
        # Same signs: |g| >= min(|g(a)|, |g(b)|) - M s^2/8 > 0 on the cell.
        # A change: |g'| >= |g(b) - g(a)|/s - M s > 0, so exactly one root.
        settled = np.where(change, np.abs(gb - ga) > M * s * s,
                           np.minimum(np.abs(ga), np.abs(gb)) > M * s * s / 8.0)
        settled |= M * s ** 3 / 12.0 < _TV_MISSED_AREA
        if np.count_nonzero(~settled) * locs.size > _TV_MAX_WORK:
            settled[:] = True
        keep = settled & change
        brackets.append((a[keep], b[keep], ga[keep], gb[keep]))
        a, b, ga, gb = a[~settled], b[~settled], ga[~settled], gb[~settled]
        M = np.repeat(M[~settled], _TV_SPLIT)
        t = a[:, None] + (b - a)[:, None] * (np.arange(_TV_SPLIT + 1) / _TV_SPLIT)
        inner = _mixture_minus_uniform(A, locs, ws, t[:, 1:-1].ravel())
        gt = np.column_stack([ga, inner.reshape(a.size, _TV_SPLIT - 1), gb])
        a, b = t[:, :-1].ravel(), t[:, 1:].ravel()
        ga, gb = gt[:, :-1].ravel(), gt[:, 1:].ravel()
    a, b, ga, gb = (np.concatenate(col) for col in zip(*brackets))
    positive = ga >= 0.0
    y = a - ga * ((b - a) / (gb - ga))
    step = before = b - a
    roots = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_TV_NEWTON_ROUNDS):
            g, dg = _mixture_minus_uniform_slope(A, locs, ws, y)
            beyond = (g >= 0.0) == positive  # the root lies above y
            a, b = np.where(beyond, y, a), np.where(beyond, b, y)
            newton = y - g / dg
            bisect = ~((newton >= a) & (newton <= b)) | (np.abs(2.0 * g) > np.abs(before * dg))
            new = np.where(bisect, 0.5 * (a + b), newton)
            before, step = step, np.abs(new - y)
            y = new
            done = step <= _TV_STEP
            if done.all():
                break
            roots.append(y[done])
            a, b, y, positive, step, before = (
                v[~done] for v in (a, b, y, positive, step, before))
    return np.sort(np.concatenate([*roots, y]))


def _tv_parts(A: float, locs, ws, cuts=()) -> np.ndarray:
    """(1/2) integral |p - q| over the len(cuts) + 1 pieces the ascending ``cuts`` delimit.

    g keeps its sign between adjacent breakpoints (roots and cuts), so each
    contributes |D(right) - D(left)| exactly.
    """
    cuts = np.asarray(cuts, dtype=float)
    pts = np.sort(np.concatenate([_tv_roots(A, locs, ws), cuts]))
    D = np.concatenate([[0.0], _cdf_difference(A, locs, ws, pts), [0.0]])
    piece = np.searchsorted(cuts, np.concatenate([[-np.inf], pts]), side="right")
    return 0.5 * np.bincount(piece, np.abs(np.diff(D)), minlength=cuts.size + 1)


def tv_distance(pi) -> float:
    """TV(f_pi, f_unif_A) between the output of the DiscreteInput ``pi`` and U + Z.

    U ~ Unif[-A, A] with A = pi.A, and Z ~ N(0, 1).  Exact up to rounding,
    with no quadrature and no tolerance: (1/2) sum |D(r_{i+1}) - D(r_i)| over
    the sign changes r_i of g = p - q, D the antiderivative of g.
    """
    return float(_tv_parts(pi.A, *pi.as_arrays()).sum())


# Largest number of float64 values in one (atom, grid point) temporary of
# bulk_sup_deviation (512 KB); for A >= 10 its grid has about 20*A*B points.
_BULK_CHUNK = 1 << 16


def bulk_sup_deviation(pi) -> float:
    """Grid approximation of sup_{|x| <= B} |2*A*f(x) - 1|, B = A - sqrt(A).

    Measures how flat the output density f of the DiscreteInput ``pi`` is
    against the uniform level 1/(2A), A = pi.A, on the bulk [-B, B].  NaN
    for A <= 1, where B is not positive.  The sup is taken over a grid of
    pitch min(0.01, 1/(10A)) -- adequate because unit noise variance makes
    the smoothness scale O(1) -- followed by one local refinement pass
    around the grid argmax.
    """
    A = pi.A
    if not A > 1.0:
        return math.nan
    B = A - math.sqrt(A)
    locs, ws = pi.as_arrays()

    def dev(y):
        d = y[None, :] - locs[:, None]
        f = INV_SQRT_2PI * (ws[:, None] * np.exp(-0.5 * d * d)).sum(axis=0)
        return np.abs(2.0 * A * f - 1.0)

    pitch = min(0.01, 1.0 / (10.0 * A))
    n = max(3, int(math.ceil(2.0 * B / pitch)) + 1)
    grid = np.linspace(-B, B, n)
    step = max(1, _BULK_CHUNK // locs.size)
    coarse = np.concatenate([dev(grid[s:s + step]) for s in range(0, n, step)])
    j = int(np.argmax(coarse))
    # One refinement pass around the coarse argmax.
    step = grid[1] - grid[0]
    local = np.clip(np.linspace(grid[j] - step, grid[j] + step, 201), -B, B)
    return max(float(coarse[j]), float(dev(local).max()))
