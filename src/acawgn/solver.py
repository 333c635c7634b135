"""Capacity solver for the amplitude-constrained unit-variance Gaussian channel.

Computes, for an amplitude ``A``, the optimal discrete input, its support
size, and the channel capacity ``C(A) = sup I(X;Y)`` over inputs with
``|X| <= A``.  Strategy:

- fixed-support optimization (``solve_fixed_k``): one SLSQP call (Kraft,
  DFVLR-FB 88-28, 1988) over the nonnegative half of a symmetric input (the
  objective is symmetric): pair locations boxed to [0, A], weights boxed to
  [0, 1], with total probability one as a linear equality.  SLSQP sees the
  locations in units of 1/K (diagonal scaling; Nocedal & Wright, Numerical
  Optimization, 2006);
- support escalation (``solve_capacity``): starting at the ceiling of the
  square-root support lower bound, raise K by 2 until the
  equalization/dominance residuals of the KKT scan pass the declared
  epsilon.  Each level is one ``solve_fixed_k`` call warm-started from the
  previous level's input, with a zero-weight pair inserted where the scan
  found the largest violation of i(x) <= I (a cutting-plane step), and one
  KKT scan of its result, which also gives the level's I;
- continuation in A (``solve_capacity(..., start=...)``): the first level
  may instead be warm-started from an input solved at another amplitude,
  its atoms scaled to the new one, at a K no smaller than that input's
  support.  A first level with more pairs than that input has starts cold.
  Scans pass each certified row on to the next.

The objective, its gradient, condensing, C and both KKT residuals all come
from the trapezoid rule of ``acawgn.inputs``; no adaptive quadrature runs in
a solve, and no option sets a quadrature tolerance.  A solve is
deterministic: it draws no random numbers.  ``SolveConfig`` holds only what
the CLI sets: ``max_k``, ``kkt_eps`` and ``seed``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .inputs import DiscreteInput, _info_stats, _kkt_scan, mutual_information
from .numerics import HALF_LOG_2PI_E
# Unused here, but the benchmark's tracer patches acawgn.solver's binding of
# it and its test expects the name to exist.
from .numerics import adaptive_quad_family  # noqa: F401

__all__ = [
    "SolveConfig",
    "SolveReport",
    "EscalationStep",
    "dytso_lower_bound",
    "solve_fixed_k",
    "solve_capacity",
]

# Atoms of a genuinely optimal input sit O(1) apart (unit noise), while an
# oversized-K run parks surplus atoms within optimizer dust of a true one.
# Clusters this tight are tried as a single merged atom and kept only when
# the achieved information is preserved, so the minimal support is reported.
_CONDENSE_TOL = 1e-2
_CONDENSE_INFO_TOL = 1e-9

# SLSQP's maxiter per fixed-K run.  No level has come near it: the largest
# measured took 300 iterations, over 928 levels of scans and cold solves up
# to A = 100.
_MAX_ITERS = 6000


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
        if not (self.kkt_eps > 0.0):
            raise ValueError("kkt_eps must be positive")

    def max_k_for(self, A: float) -> int:
        """The cap on K at amplitude A: ``max_k``, or by default max(40, 2*ceil(A)).

        Dytso et al. (IEEE T-IT 66(4), 2020) prove K_A = O(A^2); K_A/A has
        been measured at most 1.25 up to A = 100.
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
    opt_iters: int = 0                # SLSQP iterations at this level
    opt_status: str = ""              # SLSQP's stop message at this level

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
# Internal parametrization: the nonnegative half of a symmetric input (pair
# locations x in [0, A], pair weights, and a center atom at 0 when K is odd).
# ----------------------------------------------------------------------------


@dataclass
class _Param:
    """Optimizer state: raw coordinate vector plus the shape metadata."""

    A: float
    has_center: bool      # atom pinned at 0
    x: np.ndarray         # (m,) pair locations in [0, A]
    v: np.ndarray         # (m + has_center,) weights, center first

    def expand(self) -> tuple[np.ndarray, np.ndarray]:
        """Full atom arrays (possibly with coincident points near 0)."""
        pairs_w = self.v[1:] if self.has_center else self.v
        locs = np.concatenate([-self.x[::-1], [0.0] if self.has_center else [], self.x])
        ws = np.concatenate(
            [pairs_w[::-1], [self.v[0]] if self.has_center else [], pairs_w]
        )
        return locs, ws

    def weight_constraint(self) -> np.ndarray:
        """c such that c . v = 1 reflects total probability one."""
        c = np.full(self.v.size, 2.0)
        if self.has_center:
            c[0] = 1.0
        return c

    def fold_gradient(self, d_loc: np.ndarray, d_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map full-atom gradients onto the reduced coordinates."""
        m, hc = self.x.size, self.has_center
        neg = slice(0, m)          # full index i holds -x[m-1-i]
        pos = slice(m + hc, 2 * m + hc)
        gx = d_loc[pos] - d_loc[neg][::-1]
        return gx, np.concatenate([d_w[m:m + hc], d_w[pos] + d_w[neg][::-1]])

    def bounds(self) -> list[tuple[float, float]]:
        """Box of each coordinate of the vector (x, v), in order."""
        return [(0.0, self.A)] * self.x.size + [(0.0, 1.0)] * self.v.size

    def with_coords(self, z: np.ndarray) -> "_Param":
        return replace(self, x=z[:self.x.size], v=z[self.x.size:])


def _initial_param(A: float, K: int) -> _Param:
    """Equispaced atoms on [-A, A] with uniform weights."""
    full = np.linspace(-A, A, K) if K > 1 else np.array([0.0])
    x = full[full > 1e-12]
    return _Param(A, K % 2 == 1, x, np.full(x.size + K % 2, 1.0 / K))


def _param_from_input(pi: DiscreteInput, K: int, prefer: float | None = None) -> _Param | None:
    """Embed a solved symmetric input as a warm start at K; None if it does not fill K.

    At even K a centre mass becomes a coincident pair at 0.  Room for one
    more pair takes a zero-weight pair at +-``prefer``, where the previous
    level's KKT scan found i(x) > I, so SLSQP starts with an ascent direction.
    """
    locs, ws = pi.as_arrays()
    has_center = K % 2 == 1
    x, vp = locs[locs > 1e-12], ws[locs > 1e-12]
    w0 = float(ws[np.abs(locs) <= 1e-12].sum())
    if w0 > 0.0 and not has_center:
        # Fold the center mass into a coincident pair at 0.
        x, vp = np.append(x, 0.0), np.append(vp, 0.5 * w0)
    if prefer is not None and x.size < K // 2:
        x, vp = np.append(x, abs(prefer)), np.append(vp, 0.0)
    if x.size != K // 2:
        return None
    order = np.argsort(x)
    v = np.concatenate([[w0], vp[order]]) if has_center else vp[order]
    return _Param(pi.A, has_center, x[order], v)


def _objective(p: _Param) -> tuple[float, np.ndarray]:
    """I and its gradient in p's coordinates (x, v), from one trapezoid pass.

    I is returned as sum_j w_j i(x_j).  The gradient is that of
    h(f) - log(2 pi e)/2, which equals I only on the simplex: its weight
    entries are the raw partials i(x_j) - 1 + log(2 pi e)/2, folded onto the
    reduced coordinates, and differ from those of the returned I by
    log(2 pi e)/2 * c, a multiple of the normal of c . v = 1 that SLSQP's
    multiplier absorbs.  The name is kept because the benchmark's tracer
    wraps it.
    """
    locs, ws = p.expand()
    info, i_vec, d_loc = _info_stats(p.A, locs, ws, want_locations=True)
    gx, gv = p.fold_gradient(d_loc, i_vec + HALF_LOG_2PI_E - 1.0)
    return info, np.concatenate([gx, gv])


def _pg_maximize(param: _Param, status: list[str]) -> tuple[_Param, float, bool, int]:
    """Maximize I over ``param``'s coordinates with one SLSQP call.

    Locations and weights are boxed (see ``_Param.bounds``) and the weights
    satisfy ``weight_constraint() . v = 1``.  Returns (param, I, converged,
    iterations), with ``converged`` SLSQP's success flag, and appends its stop
    message to ``status``.  The name is kept because the benchmark's tracer
    wraps it and unpacks that 4-tuple.
    """
    # Imported here: at module level scipy.optimize adds about 40% to the
    # cold import of the CLI.
    from scipy.optimize import minimize

    m = param.x.size
    c = param.weight_constraint()
    lo, hi = np.array(param.bounds()).T
    # SLSQP works in u = z / s.  I's curvature in a location scales with its
    # atom's weight, about 1/K, while the weight block is O(1); measuring the
    # locations in units of 1/K balances the two for SLSQP's identity-started
    # BFGS model.  The weights (and so the equality constraint) are unscaled.
    s = np.concatenate([np.full(m, float(2 * m + param.has_center)), np.ones(param.v.size)])

    def neg_info(u):
        info, grad = _objective(param.with_coords(u * s))
        return -info, -grad * s

    total_one = {
        "type": "eq",
        "fun": lambda u: np.dot(c, u[m:]) - 1.0,
        "jac": lambda u: np.concatenate([np.zeros(m), c]),
    }
    res = minimize(
        neg_info,
        np.concatenate([param.x, param.v]) / s,
        jac=True,
        method="SLSQP",
        bounds=np.column_stack([lo / s, hi / s]),
        constraints=[total_one],
        options={"maxiter": _MAX_ITERS, "ftol": 1e-15},
    )
    status.append(str(res.message))
    z = np.clip(res.x * s, lo, hi)
    return param.with_coords(z), -float(res.fun), bool(res.success), int(res.nit)


def solve_fixed_k(
    A: float,
    K: int,
    init: DiscreteInput | None = None,
    violation: float | None = None,
) -> tuple[DiscreteInput, bool, int, str]:
    """Locally optimal symmetric input with at most K surviving atoms.

    One SLSQP run (see ``_pg_maximize``) from ``init`` with a zero-weight
    pair at +-``violation`` (see ``_param_from_input``), or else from
    equispaced atoms.  Weights below 1e-9 are pruned and coincident atoms
    merged.  Returns (input, converged, iterations, status), the last three
    being SLSQP's success flag, iteration count and stop message; the
    input's I comes from the caller's ``_kkt_scan``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (A > 0.0 and math.isfinite(A)):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    param = None
    if init is not None:
        param = _param_from_input(init, K, prefer=violation)
    if param is None:
        param = _initial_param(A, K)

    status: list[str] = []
    param, _, converged, iters = _pg_maximize(param, status)
    locs, ws = param.expand()
    pi = DiscreteInput.normalized(A, locs, ws)
    condensed = DiscreteInput.normalized(A, locs, ws, merge_tol=_CONDENSE_TOL)
    if condensed.k < pi.k:
        if mutual_information(condensed) >= mutual_information(pi) - _CONDENSE_INFO_TOL:
            pi = condensed
    return pi, converged, iters, status[0]


def solve_capacity(
    A: float,
    config: SolveConfig | None = None,
    *,
    start: DiscreteInput | None = None,
) -> SolveReport:
    """Capacity, optimal input, and support size at amplitude A.

    Runs one ``solve_fixed_k`` per level K = K0, K0+2, ... <= the cap
    (``SolveConfig.max_k_for``) until both KKT residuals pass
    ``config.kkt_eps``.  K0 is the odd ceiling of ``dytso_lower_bound(A)``.
    Without ``start`` the first level starts from equispaced atoms.  With
    ``start``, an input solved at another amplitude (continuation in A), K0
    is raised to at least ``start.k`` and the first level starts from
    ``start``'s atoms scaled by ``A / start.A`` when they fill it, and from
    equispaced atoms otherwise.  Each later level is warm-started from the
    previous level's input plus a zero-weight pair at +-x, where x is the
    previous level's worst violation of i(x) <= I.  A level's I and
    residuals come from one ``_kkt_scan``.  Reaching the cap without
    certification returns the best level flagged unconverged.
    """
    if not (A > 0.0 and math.isfinite(A)):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    cfg = config or SolveConfig()
    max_k = cfg.max_k_for(A)
    t0 = time.perf_counter()
    k0 = max(1, math.ceil(dytso_lower_bound(A) - 1e-12))
    # Walk odd K only: a center-plus-pairs support can express either
    # parity (the center weight just goes to zero when the optimum is
    # even), whereas an even-K run facing an odd optimum must crawl a
    # pair of atoms together through a nearly flat direction.
    if k0 % 2 == 0:
        k0 += 1

    history: list[EscalationStep] = []
    best = None   # (pi, info, r_s, r_g) of the level reported
    pi: DiscreteInput | None = None
    violation: float | None = None
    if start is not None:
        locs, ws = start.as_arrays()
        pi = DiscreteInput.normalized(A, locs * A / start.A, ws)
        k0 = max(k0, start.k)
    k0 = min(k0, max_k)

    for K in range(k0, max_k + 1, 2):
        pi, _, iters, status = solve_fixed_k(A, K, init=pi, violation=violation)
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
