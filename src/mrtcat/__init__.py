"""Design and analysis of micro-randomized trials with categorical treatments.

The package covers four jobs: estimating causal excursion effects of a
multi-level treatment with weighted-centered least squares and a robust
sandwich covariance, testing linear contrasts of the per-arm effects
with a small-sample scaled-F Wald test, calculating the sample size
needed to detect a standardized target alternative, and validating the
whole pipeline on synthetic trials via a deterministic Monte Carlo
harness.  The `mrtcat` command exposes the same surface on files.
"""

from .data import (
    MrtDataset,
    NumeratorPolicy,
    fit_numerator_probs,
    load_csv,
    write_csv,
)
from .design import (
    DesignInputs,
    SampleSizeResult,
    build_v,
    eo_pattern,
    inputs_from_config,
    mee_pattern,
    power_at_n,
    required_sample_size,
    tau_pattern,
)
from .errors import (
    ConvergenceError,
    DataValidationError,
    DegenerateArmError,
    NullContrastError,
    NumericalError,
    PositivityError,
    SingularSystemError,
)
from .inference import (
    CiRow,
    ContrastSpec,
    TestResult,
    build_contrast,
    confidence_intervals,
    contrast_preset,
    parse_contrast_text,
    wald_test,
)
from .numerics import (
    SpdSolveReport,
    f_cdf,
    f_quantile,
    noncentral_f_cdf,
    solve_spd,
)
from .simulate import (
    GenerativeConfig,
    McSummary,
    Scenario,
    derive_replicate_seed,
    gm_ev_scales,
    run_monte_carlo,
    scenario_from_config,
    simulate_trial,
)
from .wcls import (
    FitResult,
    ModelSpec,
    fit_wcls,
)

__version__ = "0.1.0"

__all__ = [
    "MrtDataset",
    "NumeratorPolicy",
    "fit_numerator_probs",
    "load_csv",
    "write_csv",
    "DesignInputs",
    "SampleSizeResult",
    "build_v",
    "eo_pattern",
    "inputs_from_config",
    "mee_pattern",
    "power_at_n",
    "required_sample_size",
    "tau_pattern",
    "ConvergenceError",
    "DataValidationError",
    "DegenerateArmError",
    "NullContrastError",
    "NumericalError",
    "PositivityError",
    "SingularSystemError",
    "CiRow",
    "ContrastSpec",
    "TestResult",
    "build_contrast",
    "confidence_intervals",
    "contrast_preset",
    "parse_contrast_text",
    "wald_test",
    "SpdSolveReport",
    "f_cdf",
    "f_quantile",
    "noncentral_f_cdf",
    "solve_spd",
    "GenerativeConfig",
    "McSummary",
    "Scenario",
    "derive_replicate_seed",
    "gm_ev_scales",
    "run_monte_carlo",
    "scenario_from_config",
    "simulate_trial",
    "FitResult",
    "ModelSpec",
    "fit_wcls",
    "__version__",
]
