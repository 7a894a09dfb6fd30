"""Volatility inference for jump diffusions from equally spaced increments.

The pipeline simulates discretely observed jump-diffusion paths, detects
jump windows by magnitude thresholding, builds a temperature-corrected and
location-shifted conjugate posterior for the diffusion volatility, and ships
Monte Carlo machinery that verifies the method's calibration and normal
approximation numerically.
"""

from .diagnostics import (
    BvmRow,
    MseOracleResult,
    QvRateResult,
    TruthSummary,
    bvm_convergence_check,
    mse_oracle,
    qv_error_rate,
    sandwich_variance,
    tv_distance,
)
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DegenerateInferenceError,
    InsufficientDataError,
    JumpvolError,
    NumericError,
)
from .harness import (
    CoverageConfig,
    CoverageRow,
    run_coverage,
    write_coverage_csv,
)
from .posterior import (
    KAPPA_FLOOR,
    CredibleInterval,
    GibbsPosterior,
    Inference,
    InverseGammaParams,
    NormalApprox,
    TruncatedPosterior,
    bvm_normal,
    compute_kappa,
    compute_mle,
    credible_interval,
    gibbs_update,
    infer_increments,
    mle_from_increments,
    modify_posterior,
    tempered_update,
)
from .seeds import derive_seed
from .simulate import (
    DiffusionSpec,
    FixedSize,
    IncrementData,
    JumpRealization,
    JumpSpec,
    PathTruth,
    SamplePath,
    SizeTable,
    TwoPointSizes,
    bin_jumps,
    read_increments_csv,
    simulate_jumps,
    simulate_path,
    simulate_path_given_jumps,
    write_increments_csv,
)
from .threshold import QvEstimate, ThresholdRule, estimate_jump_qv, interquartile_threshold

__version__ = "0.1.0"

__all__ = [
    "BvmRow",
    "ConfigurationError",
    "CoverageConfig",
    "CoverageRow",
    "CredibleInterval",
    "DegenerateDataError",
    "DegenerateInferenceError",
    "DiffusionSpec",
    "FixedSize",
    "GibbsPosterior",
    "IncrementData",
    "Inference",
    "InsufficientDataError",
    "InverseGammaParams",
    "JumpRealization",
    "JumpSpec",
    "JumpvolError",
    "KAPPA_FLOOR",
    "MseOracleResult",
    "NormalApprox",
    "NumericError",
    "PathTruth",
    "QvEstimate",
    "QvRateResult",
    "SamplePath",
    "SizeTable",
    "ThresholdRule",
    "TruncatedPosterior",
    "TruthSummary",
    "TwoPointSizes",
    "bin_jumps",
    "bvm_convergence_check",
    "bvm_normal",
    "compute_kappa",
    "compute_mle",
    "credible_interval",
    "derive_seed",
    "estimate_jump_qv",
    "gibbs_update",
    "infer_increments",
    "interquartile_threshold",
    "mle_from_increments",
    "modify_posterior",
    "mse_oracle",
    "qv_error_rate",
    "read_increments_csv",
    "run_coverage",
    "sandwich_variance",
    "simulate_jumps",
    "simulate_path",
    "simulate_path_given_jumps",
    "tempered_update",
    "tv_distance",
    "write_coverage_csv",
    "write_increments_csv",
]
