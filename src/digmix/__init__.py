"""Finite Gaussian mixture Gibbs samplers with discomfort-informed adaptive updates.

Three allocation samplers over a shared diagonal-covariance mixture model:

- SSG: systematic scan, every allocation refreshed each iteration;
- RSG: random scan, m allocations drawn uniformly with replacement;
- DIG: adaptive scan, m allocations drawn without replacement from
  discomfort-driven selection weights with diminishing adaptation.
"""

from .adaptation import (
    AdaptiveState,
    WeightSchedule,
    discomfort,
    ess,
    lambda_schedule,
    solve_lambda,
    transition_point,
    weight_pair,
)
from .cli import ExperimentSpec, default_m, main, run_experiment
from .datagen import (
    CsvError,
    NonNumericCellError,
    RaggedRowsError,
    gen_miller_harrison,
    gen_misspec4,
    gen_motivating5,
    load_csv,
    standardize,
)
from .diagnostics import (
    ConvergenceReport,
    adjusted_rand_index,
    alpha_limit_check,
    epochs,
    mode_allocation,
    posterior_similarity_matrix,
    ssg_reference,
    time_to_converge,
)
from .model import (
    Dataset,
    MixtureState,
    PriorSpec,
    complete_log_likelihood,
    empirical_bayes_hyperparams,
    log_component_density,
    log_density_matrix,
    refresh_responsibilities,
    sample_component_params,
    sample_mixture_weights,
)
from .samplers import (
    DIG,
    RSG,
    SSG,
    ChainTrace,
    SamplerConfig,
    init_state,
    run_chain,
    sample_without_replacement,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveState", "ChainTrace", "ConvergenceReport", "CsvError", "DIG",
    "Dataset", "ExperimentSpec", "MixtureState", "NonNumericCellError",
    "PriorSpec", "RSG", "RaggedRowsError", "SSG", "SamplerConfig",
    "WeightSchedule", "adjusted_rand_index", "alpha_limit_check",
    "complete_log_likelihood", "default_m", "discomfort",
    "empirical_bayes_hyperparams", "epochs", "ess", "gen_miller_harrison",
    "gen_misspec4", "gen_motivating5", "init_state", "lambda_schedule",
    "load_csv", "log_component_density", "log_density_matrix", "main",
    "mode_allocation", "posterior_similarity_matrix",
    "refresh_responsibilities", "run_chain", "run_experiment",
    "sample_component_params", "sample_mixture_weights",
    "sample_without_replacement", "solve_lambda", "ssg_reference",
    "standardize", "time_to_converge", "transition_point", "weight_pair",
]
