"""Exact and asymptotic hyperuniformity statistics for the extended
Heisenberg family of determinantal point processes on C^D.

The family is indexed by a dimension D and a multivariate level m; the
D=1, m=0 member is the infinite Ginibre ensemble.  The package computes
count means, number variances, variance-to-mean ratios, and Class-I
constants for ball and polydisk windows through independent routes
(closed forms, Bessel integrals, exact Bernoulli spectra, Monte
Carlo), and ships a verification suite that cross-checks every quantity
between at least two of them.
"""

__version__ = "0.1.0"

from .exceptions import (
    HeisenbergDppError,
    InternalConsistencyError,
    NumericalBudgetError,
    UnsupportedConfigurationError,
)
from .kernels import (
    ComplexPoint,
    KernelSpec,
    correlation_function,
    correlation_matrix,
    gauge_transform,
    hermitized_kernel,
    kernel_eval,
    kernel_series_partial,
)
from .window_stats import (
    BernoulliSpectrum,
    MomentReport,
    Route,
    WindowKind,
    ball_moments,
    bernoulli_prob,
    build_spectrum,
    c_constant,
    mean_ball,
    polydisk_limit_constant,
    polydisk_moments,
    variance_ball_closed,
    variance_ball_integral,
    variance_ratio_ball,
)
from .asymptotics import (
    alpha_coefficient,
    c_asymptote,
    ratio_series_eval,
)
from .montecarlo import McConfig, McEstimate, estimate_moments
from .analysis import (
    ClassLabel,
    ClassReport,
    SweepResult,
    SweepRow,
    classify,
    default_r_grid,
    poisson_control_sweep,
    run_sweep,
)
from .verification import CheckResult, run_checks

__all__ = [
    "__version__",
    "HeisenbergDppError",
    "InternalConsistencyError",
    "NumericalBudgetError",
    "UnsupportedConfigurationError",
    "ComplexPoint",
    "KernelSpec",
    "correlation_function",
    "correlation_matrix",
    "gauge_transform",
    "hermitized_kernel",
    "kernel_eval",
    "kernel_series_partial",
    "BernoulliSpectrum",
    "MomentReport",
    "Route",
    "WindowKind",
    "ball_moments",
    "bernoulli_prob",
    "build_spectrum",
    "c_constant",
    "mean_ball",
    "polydisk_limit_constant",
    "polydisk_moments",
    "variance_ball_closed",
    "variance_ball_integral",
    "variance_ratio_ball",
    "alpha_coefficient",
    "c_asymptote",
    "ratio_series_eval",
    "McConfig",
    "McEstimate",
    "estimate_moments",
    "ClassLabel",
    "ClassReport",
    "SweepResult",
    "SweepRow",
    "classify",
    "default_r_grid",
    "poisson_control_sweep",
    "run_sweep",
    "CheckResult",
    "run_checks",
]
