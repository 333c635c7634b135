"""Capacity-achieving discrete inputs for the amplitude-constrained AWGN channel.

Numerical optimization of the channel input under a peak-amplitude
constraint, plus rigorous trigonometric-moment certificates bounding how
well finite Gaussian mixtures can approximate the smoothed uniform law, and
an experiment harness probing how the optimal support size grows with the
amplitude.
"""

from .numerics import (
    DEFAULT_QUAD,
    DensityFn,
    QuadratureNonConvergence,
    QuadratureSpec,
    adaptive_quad,
    adaptive_quad_family,
    bulk_sup_deviation,
    std_normal_cdf,
    std_normal_pdf,
    tv_distance,
    uniform_output,
    uniform_output_density,
)
from .inputs import (
    DiscreteInput,
    MixtureDensity,
    kkt_residual,
    marginal_information_density,
    mixture_density,
    mutual_information,
)
from .solver import (
    EscalationStep,
    GradientVector,
    SolveConfig,
    SolveReport,
    dytso_lower_bound,
    info_gradient,
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
    trig_moment,
    trig_moment_sequence,
    uniform_moment_matrix,
    uniform_trig_moment,
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
