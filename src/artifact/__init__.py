"""Empirical-Bayes multi-source regression via eigenvalue-shrunk covariance pooling."""

__version__ = "0.1.0"

from .errors import (
    ArtifactError,
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
)
from .shrinkage import (
    ShrinkageRule,
    ShrunkCovariance,
    default_bandwidth,
    empirical_loss,
    shrink_covariance,
)
from .tuning import (
    BandwidthSelection,
    default_bandwidth_grid,
    precision_diagonals,
    select_bandwidth,
)
from .regress import (
    CoefficientEstimate,
    SourceBundle,
    fit_ols,
    global_shrink,
    local_shrink,
    predictive_error,
)
from .simlab import (
    COEFFICIENT_DESIGNS,
    ExperimentResult,
    coefficient_matrix,
    design_error,
    equicorrelated_design,
    estimate_with_method,
    matrix_error,
    parse_method,
    prial_experiment,
    run_experiment,
    simulate_sources,
)
