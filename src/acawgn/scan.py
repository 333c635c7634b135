"""Amplitude-grid experiment harness.

Scans a grid of amplitudes, solving each one for (K_A, C(A)) and measuring
how the optimal output law approaches the smoothed uniform law: the total
variation to f_unif_A, the bulk flatness deviation on [-B, B] with
B = A - sqrt(A), the support-size floor sqrt(1 + 2A^2/(pi e)), and both
certificate lower bounds evaluated at the solved input.  Each of those
measurements is a function of the solved input alone.  Produces
machine-readable tables (CSV with a header read off ``ScanRecord``'s fields,
or JSON), log-log scaling-law fits of K_A against A, and a three-way split
of the TV integral (tails / bulk) that mirrors how the bulk flatness
controls the distance.

Scans are deterministic and solve the amplitudes in grid order, with
continuation in A: each row's solve starts from the previous row's
certified input, its atoms scaled to the new amplitude (``solve_capacity``'s
``start``).  The first row, and a row after an ``error`` or ``unconverged``
one, is solved cold.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .certificates import certified_tv_lower_bound_maxnorm, closed_form_bound
from .inputs import DiscreteInput
from .numerics import QuadratureNonConvergence, _tv_parts, bulk_sup_deviation, tv_distance
from .solver import SolveConfig, SolveReport, dytso_lower_bound, solve_capacity

__all__ = [
    "ScanRecord",
    "ScalingFit",
    "CSV_COLUMNS",
    "scan",
    "scan_detailed",
    "records_to_csv",
    "records_to_json",
    "fit_scaling",
    "theorem2_probe",
]

STATUS_OK = "ok"
STATUS_UNCONVERGED = "unconverged"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class ScanRecord:
    """One row of the amplitude scan; its fields are the CSV columns, in order."""

    A: float
    K: int
    capacity_nats: float
    tv_uniform: float
    bulk_dev: float          # NaN when A <= 1 (B = A - sqrt(A) is not positive)
    dytso_lb: float
    thm3_bound: float
    maxnorm_bound: float
    status: str

    def __post_init__(self):
        if self.status not in (STATUS_OK, STATUS_UNCONVERGED, STATUS_ERROR):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status != STATUS_ERROR:
            if self.K < 1:
                raise ValueError("K must be >= 1")
            if not (-1e-12 <= self.tv_uniform <= 1.0 + 1e-12):
                raise ValueError("tv_uniform must lie in [0, 1]")
            for name in ("dytso_lb", "thm3_bound", "maxnorm_bound"):
                if getattr(self, name) < 0.0:
                    raise ValueError(f"{name} must be >= 0")

    @property
    def converged(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        """The fields by name, NaN written as None (JSON has no NaN)."""
        return {k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in asdict(self).items()}

    def to_csv_row(self) -> str:
        return ",".join(str(v) if isinstance(v, (int, str)) else repr(float(v))
                        for v in astuple(self))


# Stable CSV interface: column names and order are part of the contract.
CSV_COLUMNS = tuple(f.name for f in fields(ScanRecord))


@dataclass(frozen=True)
class ScalingFit:
    """Ordinary least squares of log K_A against log A."""

    a_min: float
    a_max: float
    n_points: int
    slope: float
    intercept: float
    residual_norm: float

    def __post_init__(self):
        if self.n_points < 4:
            raise ValueError("fit requires at least 4 points")
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")

    def to_dict(self) -> dict:
        return asdict(self)


def _validate_grid(a_grid) -> list[float]:
    grid = [float(a) for a in a_grid]
    if not grid:
        raise ValueError("amplitude grid is empty")
    if any(a <= 0.0 or not math.isfinite(a) for a in grid):
        raise ValueError("grid amplitudes must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def _scan_one(
    A: float, config: SolveConfig, start: DiscreteInput | None = None
) -> tuple[ScanRecord, SolveReport | None]:
    try:
        report = solve_capacity(A, config, start=start)
        pi = report.input
        record = ScanRecord(
            A=A,
            K=report.k,
            capacity_nats=report.capacity_nats,
            tv_uniform=tv_distance(pi),
            bulk_dev=bulk_sup_deviation(pi),
            dytso_lb=dytso_lower_bound(A),
            thm3_bound=closed_form_bound(report.k, A),
            maxnorm_bound=certified_tv_lower_bound_maxnorm(pi),
            status=STATUS_OK if report.converged else STATUS_UNCONVERGED,
        )
        return record, report
    except QuadratureNonConvergence:
        record = ScanRecord(
            A=A, K=0, capacity_nats=math.nan, tv_uniform=math.nan,
            bulk_dev=math.nan, dytso_lb=dytso_lower_bound(A),
            thm3_bound=math.nan, maxnorm_bound=math.nan, status=STATUS_ERROR,
        )
        return record, None


def scan_detailed(
    a_grid,
    config: SolveConfig | None = None,
) -> tuple[list[ScanRecord], list[SolveReport | None]]:
    """Scan returning both the records and the full per-A solve reports.

    An amplitude whose quadrature does not converge is recorded with status
    ``error`` and does not abort the scan; any other exception is a bug and
    propagates.  Output order follows the grid.  Each row after an ``ok``
    row is warm-started from that row's input (continuation in A); the
    others are solved cold.
    """
    grid = _validate_grid(a_grid)
    cfg = config or SolveConfig()
    records: list[ScanRecord] = []
    reports: list[SolveReport | None] = []
    start = None
    for a in grid:
        record, report = _scan_one(a, cfg, start)
        records.append(record)
        reports.append(report)
        start = report.input if record.status == STATUS_OK else None
    return records, reports


def scan(a_grid, config: SolveConfig | None = None) -> list[ScanRecord]:
    """One ScanRecord per grid amplitude; see :func:`scan_detailed`."""
    records, _ = scan_detailed(a_grid, config)
    return records


def records_to_csv(records) -> str:
    """Render records as CSV with the stable header; byte-deterministic."""
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        buf.write(rec.to_csv_row() + "\n")
    return buf.getvalue()


def records_to_json(records) -> list[dict]:
    return [rec.to_dict() for rec in records]


def fit_scaling(records, a_range: tuple[float, float]) -> ScalingFit:
    """OLS fit of log K_A on log A over converged records with A in a_range.

    Unconverged or failed records are excluded.  Raises ValueError with
    fewer than 4 usable points.
    """
    lo, hi = float(a_range[0]), float(a_range[1])
    pts = [(r.A, r.K) for r in records if r.converged and lo <= r.A <= hi]
    if len(pts) < 4:
        raise ValueError(f"need >= 4 converged records in [{lo}, {hi}], got {len(pts)}")
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    return ScalingFit(
        a_min=lo,
        a_max=hi,
        n_points=len(pts),
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual_norm=float(np.linalg.norm(resid)),
    )


def theorem2_probe(pi: DiscreteInput) -> tuple[float, float, float]:
    """Split TV(f_pi, f_unif_A) into tail/bulk/tail parts at B = A - sqrt(A), A = pi.A.

    Returns the three partial integrals (each including the global 1/2
    factor) over (-inf, -B], [-B, B], [B, inf).  They come from the same
    closed-form CDF differences as ``tv_distance``, with +-B added to the
    breakpoints, so their sum is the full TV distance up to rounding.
    Requires A >= 4 so the bulk is comfortably nonempty.
    """
    A = pi.A
    if not A >= 4.0:
        raise ValueError(f"probe requires A >= 4, got {A}")
    B = A - math.sqrt(A)
    left, bulk, right = _tv_parts(A, *pi.as_arrays(), (-B, B))
    return float(left), float(bulk), float(right)
