"""Capacity-achieving discrete inputs for the amplitude-constrained AWGN channel.

Numerical optimization of the channel input under a peak-amplitude
constraint, plus rigorous trigonometric-moment certificates bounding how
well finite Gaussian mixtures can approximate the smoothed uniform law, and
an experiment harness probing how the optimal support size grows with the
amplitude.
"""

from .numerics import (
    QuadratureNonConvergence,
    adaptive_quad_family,
    bulk_sup_deviation,
    tv_distance,
    uniform_output_density,
)
from .inputs import (
    DiscreteInput,
    kkt_residual,
    mutual_information,
)
from .solver import (
    EscalationStep,
    SolveConfig,
    SolveReport,
    dytso_lower_bound,
    solve_capacity,
    solve_fixed_k,
)
from .certificates import (
    CertificateReport,
    base_frequency,
    certificate_report,
    certified_tv_lower_bound_maxnorm,
    certified_tv_lower_bound_maxnorm_log,
    closed_form_bound,
    closed_form_bound_log,
    moment_matrix,
    numerical_rank,
    rank_route_bound,
    trig_moment_sequence,
)
from .scan import (
    CSV_COLUMNS,
    ScalingFit,
    ScanRecord,
    fit_scaling,
    records_to_csv,
    records_to_json,
    scan,
    scan_detailed,
    theorem2_probe,
)

__version__ = "0.1.0"
