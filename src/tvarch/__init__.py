"""tvarch: semiparametric estimation and testing for time-varying ARCH models.

Kernel-based two-step estimation of mixed constant/time-varying ARCH
coefficients, plug-in efficient variants, Monte-Carlo calibrated tests for
parameter constancy and second-order dynamics, and data-driven bandwidth and
lag-order selection.
"""

from .data import IngestSpec, load_series
from .errors import (
    AllSingularError,
    ContractionError,
    DegenerateSeriesError,
    EmptyWindowError,
    InputError,
    ModelValidationError,
    NonPositiveInterceptError,
    NonPositivePriceError,
    NonPositiveVolatilityError,
    NumericalError,
    ParseError,
    SingularCovarianceError,
    SingularDesignError,
    SingularMomentError,
    TvArchError,
)
from .estimate import (
    LEVEL,
    UNIT,
    BetaFit,
    SemiparametricFit,
    covariance_beta,
    estimate_alpha,
    estimate_alpha_plugin,
    estimate_beta,
    estimate_beta_plugin,
    fit_semiparametric,
    level_weights,
    projection_ratios,
    smoothed_moments,
)
from .kernels import (
    epanechnikov,
    k_l2_norm_sq,
    k_star,
    k_star_l2_norm_sq,
)
from .model import (
    CoefficientFunction,
    CoefficientPartition,
    NoiseSpec,
    ReturnSeries,
    TvArchModel,
    validate_model,
)
from .select import (
    BandwidthGrid,
    CvResult,
    OrderSelection,
    cv_bandwidth_semiparametric,
    cv_bandwidth_tvarch,
    select_lag_order,
)
from .simulate import SimulationConfig, derive_seed, draw_noise, generator, simulate_path
from .testing import (
    McCalibration,
    NonparametricFit,
    TestReport,
    constancy_statistic,
    mc_pivotal_quantiles,
    nonparametric_fit,
    second_order_statistic,
    test_constancy,
    test_second_order,
    test_zero_wald,
)

__version__ = "0.1.0"
