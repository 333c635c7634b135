"""Trigonometric-moment certificates for Gaussian-mixture approximation limits.

How far must the output of a K-point input stay from the smoothed uniform law
on [-A, A]?  Working at the base frequency delta = pi/A, the moments
t_k = E[exp(i*k*delta*X)] of the uniform input vanish for every k != 0, while
those of a K-atom input fill a Hermitian Toeplitz moment matrix of rank at
most K.  Testing the two output laws against the bounded waves
exp(i*delta*k*t) turns any surviving input moment into a rigorous
total-variation lower bound:

    TV(f_pi, f_unif_A)  >=  max_{1 <= k <= 2K}  (1/2) e^{-k^2 delta^2 / 2} |t_k|

(the ``max-norm`` certificate), with a Frobenius-norm variant driven by the
rank deficit of the moment matrix against the identity, and the closed-form
floor (1/4) exp(-2 pi^2 K^2 / A^2) that depends on K/A only.

Moments are plain ndarrays (t_0..t_n, with t_{-k} = conj(t_k), and the
matrix T_n); ``certificate_report`` builds T_2K once and reads the max-norm
bound, the Frobenius gap and the numerical rank from it.

The exponential factors underflow doubles once K is a few multiples of A, so
every bound is computed (and reported) in log-space alongside its linear
value.  All computations here are pure and exact up to floating point, the
optional measured-TV field of a report included: it sums closed-form CDF
differences between the sign changes of p - q, and runs no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import toeplitz

from .inputs import DiscreteInput
from .numerics import tv_distance

__all__ = [
    "CertificateReport",
    "base_frequency",
    "trig_moment_sequence",
    "moment_matrix",
    "numerical_rank",
    "certified_tv_lower_bound_maxnorm",
    "certified_tv_lower_bound_maxnorm_log",
    "closed_form_bound",
    "closed_form_bound_log",
    "rank_route_bound",
    "certificate_report",
]

RANK_THRESHOLD = 1e-8  # singular values below this fraction of sigma_max are noise


def base_frequency(A: float) -> float:
    """delta = pi/A, the frequency at which the uniform moments vanish."""
    if not (A > 0.0 and math.isfinite(A)):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    return math.pi / A


def trig_moment_sequence(pi: DiscreteInput, n: int, delta: float) -> np.ndarray:
    """Moments t_0..t_n of ``pi`` at base frequency ``delta``; t_{-k} = conj(t_k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    locs, ws = pi.as_arrays()
    ks = np.arange(0, n + 1)
    return (np.exp(1j * delta * np.outer(ks, locs)) * ws).sum(axis=1)


def moment_matrix(pi: DiscreteInput, n: int, delta: float) -> np.ndarray:
    """The (n+1) x (n+1) Hermitian Toeplitz T_n with (j, l) = t_{l-j}; rank <= K."""
    row = trig_moment_sequence(pi, n, delta)
    return toeplitz(np.conj(row), row)


def numerical_rank(mat: np.ndarray) -> int:
    """Number of singular values above RANK_THRESHOLD * sigma_max."""
    sigma = np.linalg.svd(np.asarray(mat), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_THRESHOLD * sigma[0]))


def certified_tv_lower_bound_maxnorm_log(pi: DiscreteInput) -> tuple[float, int]:
    """(log of the max-norm TV lower bound, maximizing frequency k).

    The bound is max over 1 <= k <= 2K of (1/2) e^{-k^2 delta^2 / 2} |t_k|
    with delta = pi/A, A = pi.A; the uniform target's moments vanish there,
    and k and -k contribute equal magnitudes.  Returns (-inf, 0) when every
    moment up to 2K vanishes (impossible for a K-atom input, but kept total).
    """
    delta = base_frequency(pi.A)
    return _maxnorm_log(trig_moment_sequence(pi, 2 * pi.k, delta), delta)


def _maxnorm_log(t: np.ndarray, delta: float) -> tuple[float, int]:
    """certified_tv_lower_bound_maxnorm_log from the moments t_0..t_2K."""
    mags = np.abs(t[1:])  # |t_1| .. |t_2K|
    ks = np.arange(1, mags.size + 1)
    with np.errstate(divide="ignore"):
        logs = -0.5 * (ks * delta) ** 2 + np.log(mags) - math.log(2.0)
    j = int(np.argmax(logs))
    return float(logs[j]), int(ks[j])


def certified_tv_lower_bound_maxnorm(pi: DiscreteInput) -> float:
    """Rigorous lower bound on TV(f_pi, f_unif_A) from the largest weighted moment.

    A = pi.A.  Computed in log-space; the returned linear value may underflow
    to 0.0 once K >> A (use the ``_log`` variant for the exact exponent).
    """
    log_bound, _ = certified_tv_lower_bound_maxnorm_log(pi)
    return math.exp(log_bound) if log_bound > -745.0 else 0.0


def closed_form_bound(K: int, A: float) -> float:
    """(1/4) exp(-2 pi^2 K^2 / A^2): the closed-form approximation floor.

    A function of the ratio K/A alone, so scaling K and A together leaves it
    unchanged exactly.
    """
    return 0.25 * math.exp(-_closed_form_exponent(K, A))


def closed_form_bound_log(K: int, A: float) -> float:
    """log of closed_form_bound, safe for K >> A; -inf once 2 pi^2 K^2/A^2 overflows."""
    return math.log(0.25) - _closed_form_exponent(K, A)


def _closed_form_exponent(K: int, A: float) -> float:
    """2 pi^2 K^2 / A^2, or inf where it passes the float range."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (A > 0.0 and math.isfinite(A)):
        raise ValueError(f"amplitude must be positive and finite, got {A}")
    try:
        return 2.0 * (math.pi * (K / A)) ** 2
    except OverflowError:
        return math.inf


def rank_route_bound(pi: DiscreteInput) -> tuple[float, float]:
    """(frobenius_gap, implied TV bound) via the rank deficit of T_2K.

    delta = pi/A with A = pi.A.  frobenius_gap = ||I - T_2K(delta X_K)||_F,
    which low-rank approximation bounds below by sqrt(K+1) (the identity
    remainder keeps K+1 unit singular values); the implied TV bound divides
    by 2 e^{2 K^2 delta^2} (2K+1), evaluated in log-space to dodge underflow.
    """
    delta = base_frequency(pi.A)
    return _rank_route(moment_matrix(pi, 2 * pi.k, delta), pi.k, delta)


def _rank_route(T: np.ndarray, K: int, delta: float) -> tuple[float, float]:
    """rank_route_bound from a ready moment matrix T = T_2K(delta)."""
    gap = float(np.linalg.norm(np.eye(2 * K + 1) - T, "fro"))
    if gap <= 0.0:
        return 0.0, 0.0
    log_bound = math.log(gap) - 2.0 * (K * delta) ** 2 - math.log(2.0 * (2 * K + 1))
    implied = math.exp(log_bound) if log_bound > -745.0 else 0.0
    return gap, implied


@dataclass(frozen=True)
class CertificateReport:
    """All certificate quantities for one (input, amplitude) pair.

    ``measured_tv`` (when present) must dominate the max-norm bound: that
    inequality is rigorous, so a violation beyond 1e-8 is an error.  The two
    Frobenius-gap flags record which candidate constant the instance
    supports (the sqrt(K+1) floor is the provable one).  Field names and
    order are the keys of ``to_dict``.
    """

    A: float
    K: int
    closed_form_bound: float
    closed_form_bound_log: float
    maxnorm_bound: float
    maxnorm_bound_log: float
    maxnorm_argmax_k: int
    frobenius_gap: float
    rank_route_bound: float
    numerical_rank: int
    frobenius_gap_ge_k_plus_1: bool
    frobenius_gap_ge_sqrt_k_plus_1: bool
    measured_tv: float | None = None

    def __post_init__(self):
        for name in ("closed_form_bound", "maxnorm_bound", "frobenius_gap",
                     "rank_route_bound"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.measured_tv is not None and self.measured_tv < self.maxnorm_bound - 1e-8:
            raise ValueError(
                "measured TV below the rigorous max-norm certificate: "
                f"{self.measured_tv} < {self.maxnorm_bound}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def certificate_report(pi: DiscreteInput, measure_tv: bool = False) -> CertificateReport:
    """Assemble every certificate quantity for ``pi`` against Unif[-A, A], A = pi.A.

    ``measure_tv`` additionally computes TV(f_pi, f_unif_A) from closed-form
    CDFs (see ``tv_distance``).
    """
    A = pi.A
    K = pi.k
    delta = base_frequency(A)
    T = moment_matrix(pi, 2 * K, delta)
    log_mb, argmax_k = _maxnorm_log(T[0], delta)  # row 0 holds t_1 .. t_2K
    maxnorm = math.exp(log_mb) if log_mb > -745.0 else 0.0
    gap, implied = _rank_route(T, K, delta)
    rank = numerical_rank(T)
    measured = None
    if measure_tv:
        measured = tv_distance(pi)
    return CertificateReport(
        A=A,
        K=K,
        closed_form_bound=closed_form_bound(K, A),
        closed_form_bound_log=closed_form_bound_log(K, A),
        maxnorm_bound=maxnorm,
        maxnorm_bound_log=log_mb,
        maxnorm_argmax_k=argmax_k,
        frobenius_gap=gap,
        rank_route_bound=implied,
        numerical_rank=rank,
        frobenius_gap_ge_k_plus_1=gap >= K + 1,
        frobenius_gap_ge_sqrt_k_plus_1=gap >= math.sqrt(K + 1),
        measured_tv=measured,
    )
