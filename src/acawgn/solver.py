"""Capacity solver for the amplitude-constrained unit-variance Gaussian channel.

Computes, for an amplitude ``A``, the optimal discrete input, its support
size, and the channel capacity ``C(A) = sup I(X;Y)`` over inputs with
``|X| <= A``.  Strategy:

- fixed-support optimization (``solve_fixed_k``): one active-set Newton run
  with the exact Hessian (``_pg_maximize``) over the nonnegative half of a
  symmetric input, a centre weight and K // 2 pairs: locations in [0, A],
  nonnegative weights summing to one;
- support escalation (``solve_capacity``): starting at the odd ceiling of
  the square-root support lower bound, raise K by 2 until the
  equalization/dominance residuals of the KKT scan pass the declared
  epsilon.  Each level is one ``solve_fixed_k`` call warm-started from the
  previous level's input, with a zero-weight pair inserted where the scan
  found the largest violation of i(x) <= I (a cutting-plane step), and one
  KKT scan of its result, which also gives the level's I;
- continuation in A (``solve_capacity(..., start=...)``): the first level
  may instead be warm-started from an input solved at another amplitude,
  its atoms scaled to the new one, at the first odd K no smaller than that
  input's support (an even input starts with an empty centre).  A first
  level with more pairs than that input has starts cold.  Scans pass each
  certified row on to the next.

Every level is odd, and its centre's weight may go to 0 (an even support).
An even ``max_k`` below the first odd level runs with the centre held empty.

The objective with its derivatives, C and both KKT residuals
all come from the trapezoid rule of ``acawgn.inputs``.  No adaptive quadrature
runs in a solve, and no option sets a quadrature tolerance.  A solve draws
no random numbers, and it is deterministic at a fixed BLAS thread count:
OpenBLAS rounds the matrix products of ``acawgn.inputs`` differently when
it splits them over threads, and the optimizer can carry that rounding
along the flat directions of an eps-optimal input.  ``OPENBLAS_NUM_THREADS=1``
reproduces the benchmark's numbers.  ``SolveConfig`` holds only what the
CLI sets: ``max_k``, ``kkt_eps`` and ``seed``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .inputs import DiscreteInput, _kkt_scan, _marginal_info_batch, _sampled
from .numerics import HALF_LOG_2PI_E, LOG_SQRT_2PI
# Unused here, but the benchmark's tracer patches acawgn.solver's bindings of
# them and its tests expect the names to exist.
from .inputs import _info_stats, mutual_information  # noqa: F401
from .numerics import adaptive_quad_family  # noqa: F401

__all__ = [
    "SolveConfig",
    "SolveReport",
    "EscalationStep",
    "dytso_lower_bound",
    "solve_fixed_k",
    "solve_capacity",
]

# The fixed-K Newton method (``_pg_maximize``) has converged once every entry
# of the reduced gradient is at most _GRAD_TOL.  It cannot judge a gain of
# _GAIN_TOL: I is about 1 to 4 nats, and its rounding was measured to fail
# Armijo tests of gains near 1e-16.  It takes at most _MAX_STEPS steps, and
# its line search asks for _ARMIJO of the linear gain.  _TR_ROUNDS caps the
# rounds that fit a trust-region step to the radius.
_GRAD_TOL = 1e-12
_GAIN_TOL = 1e-15
_MAX_STEPS = 200
_ARMIJO = 1e-4
_TR_ROUNDS = 20


def dytso_lower_bound(A: float) -> float:
    """Support-size lower bound sqrt(1 + 2*A^2/(pi*e)); equals 1 at A = 0."""
    if A < 0.0 or not math.isfinite(A):
        raise ValueError(f"amplitude must be nonnegative and finite, got {A}")
    return math.sqrt(1.0 + 2.0 * A * A / (math.pi * math.e))


@dataclass(frozen=True)
class SolveConfig:
    """The solve's settings, one per CLI flag (--max-k, --eps, --seed)."""

    max_k: int | None = None          # default: see max_k_for
    kkt_eps: float = 1e-6
    # Recorded in the report (the CLI and JSON carry it); no solve reads it.
    seed: int = 0

    def __post_init__(self):
        if self.max_k is not None and self.max_k < 1:
            raise ValueError("max_k must be >= 1")
        if not (0.0 < self.kkt_eps < math.inf):
            raise ValueError(f"kkt_eps must be positive and finite, got {self.kkt_eps}")

    def max_k_for(self, A: float) -> int:
        """The cap on K at amplitude A: ``max_k``, or by default max(40, 2*ceil(A)).

        Dytso et al. (IEEE T-IT 66(4), 2020) prove K_A = O(A^2).  At large A
        the walk ends where the ripple of its bulk comb (spacing d) drops
        below eps: r_global is about 4 exp(-4 pi^2 / d^2), so K/A tends to
        sqrt(ln(4/eps))/pi, 1.241 at eps = 1e-6.  That K is an eps-optimal
        input's, not the optimum's (23 against 25 at A = 20).
        """
        if self.max_k is not None:
            return self.max_k
        return max(40, 2 * math.ceil(A))


@dataclass(frozen=True)
class EscalationStep:
    k_tried: int
    k_support: int
    info_nats: float
    kkt_support: float
    kkt_global: float
    converged: bool
    opt_iters: int                    # Newton steps at this level
    opt_status: str                   # the Newton run's stop cause
    opt_evals: int                    # its objective evaluations

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one capacity solve at amplitude A."""

    A: float
    input: DiscreteInput
    capacity_nats: float
    k: int
    kkt_support: float
    kkt_global: float
    converged: bool
    history: tuple[EscalationStep, ...]
    wall_time_s: float
    eps: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "A": self.A,
            "input": self.input.to_dict(),
            "capacity_nats": self.capacity_nats,
            "K": self.k,
            "kkt_support": self.kkt_support,
            "kkt_global": self.kkt_global,
            "converged": self.converged,
            "history": [h.to_dict() for h in self.history],
            "wall_time_s": self.wall_time_s,
            "eps": self.eps,
            "seed": self.seed,
            "dytso_lower_bound": dytso_lower_bound(self.A),
        }


# ----------------------------------------------------------------------------
# Internal parametrization: the nonnegative half of a symmetric input, a centre
# weight and m = K // 2 pairs (locations x in [0, A], weights).
# ----------------------------------------------------------------------------


@dataclass
class _Param:
    """Optimizer state: raw coordinate vector plus the centre weight's cap."""

    A: float
    x: np.ndarray                 # (m,) pair locations in [0, A]
    v: np.ndarray                 # (m + 1,) weights, centre first
    centre_max: float = math.inf  # 0 at even K, which holds the centre empty

    def expand(self) -> tuple[np.ndarray, np.ndarray]:
        """Full atom arrays: the pairs mirrored about the centre (possibly coincident near 0)."""
        x, v = self.x, self.v
        return np.concatenate([-x[::-1], [0.0], x]), np.concatenate([v[:0:-1], v])

    def weight_constraint(self) -> np.ndarray:
        """c such that c . v = 1 reflects total probability one."""
        return np.concatenate([[1.0], np.full(self.x.size, 2.0)])

    def upper(self) -> np.ndarray:
        """Upper bound of each coordinate of (x, v); every lower bound is 0."""
        m = self.x.size
        return np.concatenate([np.full(m, self.A), [self.centre_max], np.full(m, math.inf)])

    def with_coords(self, z: np.ndarray) -> "_Param":
        return replace(self, x=z[:self.x.size], v=z[self.x.size:])


def _initial_param(A: float, K: int) -> _Param:
    """Equispaced atoms on [-A, A] with uniform weights."""
    locs = np.linspace(-A, A, K) if K > 1 else np.zeros(1)
    return _param_from_atoms(A, K, locs, np.full(K, 1.0 / K))


def _param_from_atoms(A: float, K: int, locs, ws, prefer: float | None = None) -> _Param | None:
    """Symmetric atoms' nonnegative half as a start at level K; None if it does not fill K.

    Room for one more pair takes a zero-weight pair at +-``prefer``, where the
    previous level's KKT scan found i(x) > I, so the first step can ascend
    there.  Only an odd K lets the centre's weight leave 0.
    """
    x, vp = locs[locs > 1e-12], ws[locs > 1e-12]
    if prefer is not None and x.size < K // 2:
        x, vp = np.append(x, abs(prefer)), np.append(vp, 0.0)
    if x.size != K // 2:
        return None
    order = np.argsort(x)
    v = np.concatenate([[ws[np.abs(locs) <= 1e-12].sum()], vp[order]])
    return _Param(A, x[order], v, math.inf if K % 2 else 0.0)


def _objective(p: _Param) -> tuple[float, np.ndarray, np.ndarray]:
    """I with its gradient and Hessian in p's coordinates (x, v), from one trapezoid pass.

    The benchmark's tracer wraps this name.  i, i' and i'' are summed at the
    centre and the pairs x_j >= 0 only (i is even), so I = sum_j c_j v_j i(x_j)
    (c: ``weight_constraint``) and dI/dx_j = 2 v_j i'(x_j).  The weight
    entries c_j (i(x_j) - 1 + log(2 pi e)/2) are those of h(f), a multiple of
    c off I's.  The Hessian -pitch sum_y [f_ab (log f + 1) + f_a f_b / f] is
    2 v_j i'' and 2 i' on each pair's (x_j, v_j) block plus the Gram matrix
    of the f_a / sqrt(f).
    """
    m, xs = p.x.size, np.concatenate([[0.0], p.x])
    y, lf, pitch = _sampled(p.A, *p.expand())
    i, d1, d2 = _marginal_info_batch(y, lf, pitch, xs, 2)
    c, vp, d1p = p.weight_constraint(), p.v[1:], d1[1:]
    grad = np.concatenate([2.0 * vp * d1p, c * (i + HALF_LOG_2PI_E - 1.0)])

    # phi(y -+ x) / sqrt(f(y)) at the centre and the pairs; the centre's
    # weight row is phi(y) / sqrt(f), half the sum of the two.
    a, b = y - xs[:, None], y + xs[:, None]
    half_lf = 0.5 * lf + LOG_SQRT_2PI
    pa, pb = np.exp(-0.5 * a * a - half_lf), np.exp(-0.5 * b * b - half_lf)
    s = np.concatenate([vp[:, None] * (a * pa - b * pb)[1:], 0.5 * c[:, None] * (pa + pb)])
    hess = (-pitch) * (s @ s.T)
    j = np.arange(m)
    hess[j, j] += 2.0 * vp * d2[1:]
    hess[j, j + m + 1] += 2.0 * d1p
    hess[j + m + 1, j] += 2.0 * d1p
    return float((c * p.v) @ i), grad, hess


def _free_basis(free: np.ndarray, c: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal basis of the ``free`` coordinates' moves with c . dv = 0 (Householder)."""
    fx, fw = np.flatnonzero(free[:m]), np.flatnonzero(free[m:])
    basis = np.zeros((free.size, fx.size + max(fw.size - 1, 0)))
    basis[fx, np.arange(fx.size)] = 1.0
    if fw.size > 1:
        u = c[fw] / np.linalg.norm(c[fw])
        u[0] += 1.0
        basis[m + fw, fx.size:] = np.eye(fw.size)[:, 1:] - np.outer(u, u[1:]) / u[0]
    return basis


def _pg_maximize(param: _Param, status: list) -> tuple[_Param, float, bool, int]:
    """Maximize I over ``param``'s coordinates by an active-set Newton method.

    Weights are clipped to ``upper()`` and rescaled onto ``weight_constraint()
    . v = 1``.  Each step fixes the coordinates on a bound whose gradient (a
    weight's, less its least-squares multiple of c) points out and zero-weight
    pairs' locations, and reduces ``_objective``'s derivatives to
    ``_free_basis``: Newton with Armijo backtracking where the reduced Hessian
    is negative definite, else a trust-region step -(H - mu)^-1 g,
    mu > lambda_max (Nocedal & Wright, Numerical Optimization, 2006, ch. 4
    and 16).  Stops "converged" (reduced gradient within _GRAD_TOL), "model
    gain below rounding", "line search failed", "trust region failed" or
    "iteration cap", and appends (cause, evaluations) to ``status``.  Returns
    the tracer's (param, I, converged, steps).
    """
    m, c, hi = param.x.size, param.weight_constraint(), param.upper()
    v = np.minimum(param.v, hi[m:])
    z = np.clip(np.concatenate([param.x, v / (c @ v)]), 0.0, hi)
    info, g, hess = _objective(param.with_coords(z))
    evals, steps, radius, fresh, blind, key = 1, 0, 1.0, True, False, None
    cause = "iteration cap"
    while steps < _MAX_STEPS:
        # A pair on 0 joins the centre and stays there.  A pair on A, or a
        # weight on 0, is held while its gradient points out; so are the
        # location of a pair of weight 0, which has no curvature, and an
        # even level's centre weight, capped at 0.
        x, gx, gw, pos = z[:m], g[:m], g[m:], z[m:] > 0.0
        fixed = np.concatenate([(x <= 0.0) | (x >= param.A) & (gx >= 0.0) | ~pos[1:],
                                ~pos & (gw * (c[pos] @ c[pos]) <= c * (c[pos] @ gw[pos]))
                                | (hi[m:] <= 0.0)])
        if key != fixed.tobytes():
            key, basis = fixed.tobytes(), _free_basis(~fixed, c, m)
        gr = basis.T @ g
        if np.abs(gr).max(initial=0.0) <= _GRAD_TOL:
            cause = "converged"
            break
        while True:
            hr = basis.T @ hess @ basis
            lam, q = np.linalg.eigh(hr)
            qg = q.T @ gr
            newton = not lam.size or lam[-1] < 0.0
            shift = -lam
            if not newton:
                # mu = lam[-1] + sigma with |d| within 10% of the radius, by
                # Newton's method on 1/|d(sigma)| from a sigma with
                # |d| <= radius (Moré & Sorensen, SIAM J. Sci. Stat. Comput.
                # 4(3), 1983).  sigma + (lam[-1] - lam) >= sigma > 0 keeps d
                # finite however large lam[-1] is.
                sigma = math.sqrt(qg @ qg) / radius
                for _ in range(_TR_ROUNDS):
                    shift = sigma + (lam[-1] - lam)
                    coef = qg / shift
                    norm = math.sqrt(coef @ coef)
                    if abs(norm - radius) <= 0.1 * radius:
                        break
                    step = (norm / radius - 1.0) * norm * norm / (coef @ (coef / shift))
                    sigma = max(sigma + step, 0.5 * sigma)
            d = q @ (qg / shift)
            dz = basis @ d
            reach = np.divide(np.where(dz < 0.0, -z, hi - z), dz, out=np.full(z.size, np.inf),
                              where=dz != 0.0)
            rmin = float(reach.min())
            if rmin > 0.0:
                break
            # A coordinate that the step pushes out at once is fixed, never a
            # step cut to t = 0.
            fixed |= reach <= 0.0
            key, basis = fixed.tobytes(), _free_basis(~fixed, c, m)
            gr = basis.T @ g

        t, slope, curv = min(1.0, rmin), float(gr @ d), float(d @ hr @ d)
        while True:
            gain = t * slope + 0.5 * t * t * curv
            cut = t == rmin
            # I cannot judge a gain below rounding.  A cut step is still taken,
            # since it only puts a coordinate on its bound, and so is a full
            # Newton step, though not twice in a row: it takes a reduced
            # gradient of about 1e-9 to below _GRAD_TOL.
            unjudged = gain <= _GAIN_TOL
            if unjudged and not cut and not (newton and fresh and not blind):
                cause = ("model gain below rounding" if fresh else
                         "line search failed" if newton else "trust region failed")
                break
            z_new = z + t * dz
            if cut:
                hit = reach == t
                z_new[hit] = np.where(dz[hit] < 0.0, 0.0, hi[hit])
            trial, evals = _objective(param.with_coords(z_new)), evals + 1
            gained = trial[0] - info
            if not newton:
                length = t * math.sqrt(d @ d)
                if gained < 0.25 * gain:
                    radius = 0.25 * length
                elif gained > 0.75 * gain and length >= 0.99 * radius:
                    radius *= 2.0
                fresh = unjudged or gained >= 0.1 * gain
                break
            fresh = unjudged or gained >= _ARMIJO * t * slope
            if fresh:
                break
            t *= 0.5
        if cause != "iteration cap":
            break
        if fresh:
            blind = unjudged and not cut
            z = z_new
            info, g, hess = trial
            steps += 1
    status.append((cause, evals))
    return param.with_coords(z), info, cause == "converged", steps


def solve_fixed_k(
    A: float,
    K: int,
    init: DiscreteInput | None = None,
    violation: float | None = None,
) -> tuple[DiscreteInput, bool, int, str, int]:
    """Locally optimal symmetric input with at most K surviving atoms.

    One Newton run (see ``_pg_maximize``) over a centre weight and K // 2
    pairs, from ``init`` (an input at A) with a zero-weight pair at
    +-``violation`` (see ``_param_from_atoms``), or else from equispaced
    atoms.  Only an odd K lets the centre's weight leave 0.  Weights below
    1e-9, an emptied centre among them, are pruned.  Returns (input,
    converged, iterations, status, evaluations): whether the run converged,
    its steps, its stop cause and its objective evaluations; the input's I
    comes from the caller's ``_kkt_scan``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (A > 0.0 and math.isfinite(A)):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    if init is not None and init.A != A:
        raise ValueError(f"init is an input at A = {init.A}, not at {A}")
    param = None if init is None else _param_from_atoms(A, K, *init.as_arrays(), prefer=violation)
    if param is None:
        param = _initial_param(A, K)

    stop: list[tuple[str, int]] = []
    param, _, converged, iters = _pg_maximize(param, stop)
    return DiscreteInput.normalized(A, *param.expand()), converged, iters, *stop[0]


def solve_capacity(
    A: float,
    config: SolveConfig | None = None,
    *,
    start: DiscreteInput | None = None,
) -> SolveReport:
    """Capacity, optimal input, and support size at amplitude A.

    Runs one ``solve_fixed_k`` per level K = K0, K0+2, ... <= the cap
    (``SolveConfig.max_k_for``) until both KKT residuals pass
    ``config.kkt_eps``.  K0 is the first odd K at or above the ceiling of
    ``dytso_lower_bound(A)`` and ``start.k``, capped at the cap.  Without
    ``start`` the first level starts from equispaced atoms.  With ``start``,
    an input solved at another amplitude (continuation in A), the first
    level starts from ``start``'s atoms scaled by ``A / start.A`` when they
    fill it, and from equispaced atoms otherwise.  Each later level is
    warm-started from the previous level's input plus a zero-weight pair at
    +-x, where x is the previous level's worst violation of i(x) <= I.  A
    level's I and residuals come from one ``_kkt_scan``.  Reaching the cap
    without certification returns the best level flagged unconverged.
    """
    if not (A > 0.0 and math.isfinite(A)):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    cfg = config or SolveConfig()
    max_k = cfg.max_k_for(A)
    t0 = time.perf_counter()
    k0 = max(1, math.ceil(dytso_lower_bound(A) - 1e-12))
    history: list[EscalationStep] = []
    best = None   # (pi, info, r_s, r_g) of the level reported
    pi: DiscreteInput | None = None
    violation: float | None = None
    if start is not None:
        locs, ws = start.as_arrays()
        pi = DiscreteInput.normalized(A, locs * A / start.A, ws)
        k0 = max(k0, start.k)
    # Walk odd K only: a centre plus pairs expresses either parity (the
    # centre's weight goes to 0 when the optimum is even), whereas an even-K
    # run facing an odd optimum must crawl a pair of atoms together through
    # a nearly flat direction.
    k0 = min(k0 + 1 - k0 % 2, max_k)

    for K in range(k0, max_k + 1, 2):
        pi, _, iters, status, evals = solve_fixed_k(A, K, init=pi, violation=violation)
        r_s, r_g, x_viol, info = _kkt_scan(pi)
        passed = r_s <= cfg.kkt_eps and r_g <= cfg.kkt_eps
        history.append(
            EscalationStep(
                k_tried=K,
                k_support=pi.k,
                info_nats=info,
                kkt_support=r_s,
                kkt_global=r_g,
                converged=passed,
                opt_iters=iters,
                opt_status=status,
                opt_evals=evals,
            )
        )
        if passed or best is None or info > best[1]:
            best = (pi, info, r_s, r_g)
        if passed:
            break
        violation = x_viol

    pi, info, r_s, r_g = best
    return SolveReport(
        A=A,
        input=pi,
        capacity_nats=info,
        k=pi.k,
        kkt_support=r_s,
        kkt_global=r_g,
        converged=history[-1].converged,
        history=tuple(history),
        wall_time_s=time.perf_counter() - t0,
        eps=cfg.kkt_eps,
        seed=cfg.seed,
    )
