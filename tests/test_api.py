"""The package's public names: pinned, and each one importable."""

import digmix

PUBLIC = [
    "ChainTrace", "ConvergenceReport", "CsvError", "DIG",
    "Dataset", "ExperimentSpec", "MixtureState", "NonNumericCellError",
    "PriorSpec", "RSG", "RaggedRowsError", "SSG", "SamplerConfig",
    "WeightSchedule", "adjusted_rand_index", "alpha_limit_check",
    "complete_log_likelihood", "default_m", "discomfort",
    "empirical_bayes_hyperparams", "epochs", "ess", "gen_miller_harrison",
    "gen_misspec4", "gen_motivating5", "init_state", "lambda_schedule",
    "load_csv", "log_density_matrix", "main",
    "mode_allocation", "posterior_similarity_matrix",
    "refresh_responsibilities", "run_chain", "run_experiment",
    "sample_component_params", "sample_mixture_weights",
    "sample_without_replacement", "solve_lambda", "ssg_reference",
    "standardize", "time_to_converge", "transition_point", "weight_pair",
]


def test_public_names_are_pinned():
    assert sorted(digmix.__all__) == sorted(PUBLIC)
    assert len(set(digmix.__all__)) == len(digmix.__all__)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from digmix import *", namespace)
    missing = [name for name in digmix.__all__ if name not in namespace]
    assert not missing
