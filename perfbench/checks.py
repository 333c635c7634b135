"""Output checks for the benchmark workloads.

Every check runs outside the timed region and returns a list of failure
messages; an empty list means the output passed.  The independent routes
here (closed-form total variation, QUADPACK entropy) use numpy and scipy
only, never acawgn's own quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import logsumexp, ndtr

# K_A and C(A) recorded at the seed commit for the solve-ladder amplitudes.
# ROADMAP: a speedup must keep K_A, keep C(A) within 1e-9 nats and keep both
# KKT residuals at or below eps.
SOLVE_EXPECTED = {
    2.0: (3, 0.6528688117804498),
    5.0: (5, 1.2188311884030392),
    8.0: (9, 1.5758716926530236),
}
CAPACITY_TOL = 1e-9

# At the seed the solver's C(A) and QUADPACK agree to about 1e-14 nats; the
# tolerance is the ROADMAP's 1e-9, so a shift of 1e-8 is caught.
QUADPACK_TOL = 1e-9

# A hundredth of the 1% error the check must catch.  At the seed the
# adaptive rule behind measured_tv (abs 1e-10, rel 1e-8) mostly agrees to
# 2e-7 relative, but it can miss a kink of |p - q|: four known inputs are off
# by 1.1e-4 to 1.7e-4 (NOTES.md lists them), and such inputs fail this check.
TV_ABS_TOL = 1e-9
TV_REL_TOL = 1e-4

# The CSV header is part of the CLI's contract, so the check keeps its own
# copy instead of reading it from the program under test.
SCAN_COLUMNS = (
    "A", "K", "capacity_nats", "tv_uniform", "bulk_dev",
    "dytso_lb", "thm3_bound", "maxnorm_bound", "status",
)

# Grid pitch on which exact_tv brackets the sign changes of p - q; two sign
# changes closer than this would be missed.  On 576 certify-batch inputs the
# TV at this pitch and at a pitch of 0.0005 differ by at most 2.2e-14
# relative, and this pitch is 20 times cheaper.
TV_PITCH = 0.01

# exact_tv evaluates p - q on this many grid points at a time, so the check's
# temporaries stay under a megabyte and peak RSS measures the program's own.
TV_CHUNK = 1024

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_HALF_LOG_2PI_E = 0.5 * (math.log(2.0 * math.pi) + 1.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------- solve-ladder


def check_solve(A: float, report, kkt: tuple[float, float]) -> list[str]:
    """K_A and C(A) against the seed's values; KKT residuals of the input <= eps."""
    want_k, want_c = SOLVE_EXPECTED[A]
    bad = []
    if not report.converged:
        bad.append(f"A={A}: report not converged")
    if report.k != want_k or report.input.k != want_k:
        bad.append(f"A={A}: K={report.k} (input K={report.input.k}), expected {want_k}")
    if not abs(report.capacity_nats - want_c) <= CAPACITY_TOL:
        bad.append(f"A={A}: C={report.capacity_nats!r}, expected {want_c!r} within {CAPACITY_TOL}")
    r_support, r_global = kkt
    if not (r_support <= report.eps and r_global <= report.eps):
        bad.append(f"A={A}: kkt_residual {kkt} above eps={report.eps}")
    return bad


# ------------------------------------------------------------------ scan-sweep


def quadpack_information(A: float, locs, weights) -> float:
    """I(X;Y) in nats from the entropy integral -f log f, by scipy's QUADPACK."""
    locs = np.asarray(locs, dtype=float)
    logw = np.log(np.asarray(weights, dtype=float))

    def neg_f_log_f(y):
        lf = logsumexp(logw - 0.5 * (y - locs) ** 2) - _LOG_SQRT_2PI
        return -math.exp(lf) * lf

    h, _ = integrate.quad(neg_f_log_f, -A - 10.0, A + 10.0, points=list(locs),
                          epsabs=1e-14, epsrel=1e-13, limit=500)
    return h - _HALF_LOG_2PI_E


def parse_scan_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",") if lines else []
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def check_scan_rows(grid, text: str, reference: dict) -> list[list[str]]:
    """Per-row failures of one scan CSV against the grid and re-solved references.

    ``reference`` maps each amplitude to (K, C, C_quadpack) of the input that
    ``solve_capacity`` returns there.  Returns one failure list per grid row.
    """
    header, rows = parse_scan_csv(text)
    if tuple(header) != SCAN_COLUMNS or len(rows) != len(grid):
        msg = f"scan CSV header {header} with {len(rows)} rows for a {len(grid)}-point grid"
        return [[msg] for _ in grid]
    out = []
    prev_c = -math.inf
    for A, row in zip(grid, rows):
        bad = []
        try:
            a, k, c = float(row["A"]), int(row["K"]), float(row["capacity_nats"])
            dytso = float(row["dytso_lb"])
        except ValueError as exc:
            out.append([f"A={A}: unparsable row {row}: {exc}"])
            continue
        ref_k, ref_c, quadpack_c = reference[A]
        if a != A:
            bad.append(f"row A={a} for grid point {A}")
        if row["status"] != "ok":
            bad.append(f"A={A}: status {row['status']}")
        if k < math.ceil(dytso - 1e-12):
            bad.append(f"A={A}: K={k} below ceil(dytso_lb={dytso})")
        if k != ref_k:
            bad.append(f"A={A}: K={k}, solve_capacity gives {ref_k}")
        if not c >= prev_c:
            bad.append(f"A={A}: C={c!r} decreases from {prev_c!r}")
        if not c <= 0.5 * math.log1p(A * A):
            bad.append(f"A={A}: C={c!r} above 0.5*log(1+A^2)")
        if not abs(c - ref_c) <= 1e-12:
            bad.append(f"A={A}: C={c!r}, solve_capacity gives {ref_c!r}")
        if not abs(c - quadpack_c) <= QUADPACK_TOL:
            bad.append(f"A={A}: C={c!r}, QUADPACK gives {quadpack_c!r}")
        prev_c = c
        out.append(bad)
    return out


# --------------------------------------------------------------- certify-batch


def _mixture_minus_uniform(A, locs, weights, y):
    """p(y) - q(y): Gaussian mixture density minus the smoothed uniform density."""
    d = y[:, None] - locs[None, :]
    p = _INV_SQRT_2PI * (np.exp(-0.5 * d * d) * weights).sum(axis=1)
    q = (ndtr(y + A) - ndtr(y - A)) / (2.0 * A)
    return p - q


def _cdf_difference(A, locs, weights, y):
    """P(y) - Q(y), the antiderivative of p - q vanishing at -infinity.

    Q uses the integral of Phi: G(t) = t*Phi(t) + phi(t).
    """
    def G(t):
        return t * ndtr(t) + _INV_SQRT_2PI * np.exp(-0.5 * t * t)

    P = (ndtr(y[:, None] - locs[None, :]) * weights).sum(axis=1)
    Q = (G(y + A) - G(y - A)) / (2.0 * A)
    return P - Q


def exact_tv(A: float, locs, weights) -> float:
    """TV(f_pi, f_unif_A) from closed-form CDFs between the sign changes of p - q.

    Sign changes are bracketed on a grid of pitch TV_PITCH over
    [-A-12, A+12] (both densities are below 1e-31 outside) and refined by
    bisection; on each piece |p - q| integrates exactly to |D(r_i+1) - D(r_i)|.
    """
    locs = np.asarray(locs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    lo, hi = -A - 12.0, A + 12.0
    y = np.linspace(lo, hi, int(math.ceil((hi - lo) / TV_PITCH)) + 1)
    sign = np.concatenate([_mixture_minus_uniform(A, locs, weights, y[i:i + TV_CHUNK]) >= 0.0
                           for i in range(0, len(y), TV_CHUNK)])
    idx = np.nonzero(sign[:-1] != sign[1:])[0]
    a, b, sa = y[idx], y[idx + 1], sign[idx]
    for _ in range(60):
        m = 0.5 * (a + b)
        left = (_mixture_minus_uniform(A, locs, weights, m) >= 0.0) == sa
        a = np.where(left, m, a)
        b = np.where(left, b, m)
    roots = 0.5 * (a + b)
    D = np.concatenate([[0.0], _cdf_difference(A, locs, weights, roots), [0.0]])
    return 0.5 * float(np.abs(np.diff(D)).sum())


def check_certify(pi, report, kkt, tv_exact: float) -> list[str]:
    """Certificate fields of one input against the closed-form TV and the theory."""
    bad = []
    K = pi.k
    if report.K != K or report.A != pi.A:
        bad.append(f"report (A={report.A}, K={report.K}) for input (A={pi.A}, K={K})")
    tv = report.measured_tv
    if tv is None or not abs(tv - tv_exact) <= TV_ABS_TOL + TV_REL_TOL * tv_exact:
        bad.append(f"measured_tv={tv!r}, closed form gives {tv_exact!r}")
    elif not report.maxnorm_bound <= tv:
        bad.append(f"maxnorm_bound={report.maxnorm_bound!r} above measured_tv={tv!r}")
    if not report.numerical_rank <= K:
        bad.append(f"numerical_rank={report.numerical_rank} above K={K}")
    if not report.frobenius_gap >= math.sqrt(K + 1):
        bad.append(f"frobenius_gap={report.frobenius_gap!r} below sqrt(K+1)")
    r_support, r_global = kkt
    if not (0.0 <= r_support < math.inf and 0.0 <= r_global < math.inf):
        bad.append(f"kkt_residual {kkt} not finite and nonnegative")
    return bad
