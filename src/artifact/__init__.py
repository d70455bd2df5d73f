"""Empirical-Bayes multi-source regression via eigenvalue-shrunk covariance pooling."""

__version__ = "0.1.0"

from .errors import (
    ArtifactError,
    DegeneracyError,
    DimensionError,
    DomainError,
    InputError,
    InsufficientDataError,
    NumericalError,
    ParseError,
    RegimeError,
    SingularityError,
    TuningError,
)
from .spectral import (
    SpectralDecomposition,
    eigh,
    sample_covariance,
    spectral_apply,
    spectral_inverse,
)
from .shrinkage import (
    ShrinkageRule,
    ShrunkCovariance,
    default_bandwidth,
    empirical_loss,
    shrink_covariance,
    stein_transform,
    stein_transform_derivative,
)
from .tuning import (
    BandwidthSelection,
    RiskEstimate,
    default_bandwidth_grid,
    precision_diagonals,
    risk_estimate,
    select_bandwidth,
    zeta_derivative_trace,
)
from .regress import (
    CoefficientEstimate,
    NoiseModel,
    SourceBundle,
    fit_ols,
    global_shrink,
    local_shrink,
    predictive_error,
    select_components,
    standardize,
)
from .simlab import (
    COEFFICIENT_DESIGNS,
    ExperimentResult,
    coefficient_matrix,
    design_error,
    equicorrelated_design,
    estimate_with_method,
    factor_covariance,
    loss_convergence,
    matrix_error,
    parse_method,
    prial_experiment,
    run_experiment,
    simulate_sources,
    true_covariance,
)
