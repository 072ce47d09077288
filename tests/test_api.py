"""The package's public names: pinned, and each one importable; no module imports a name it never uses."""

import ast
from pathlib import Path

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


# Imported for a reader outside the module: the benchmark's tracer wraps it
# by this name in ``cli``.  ``__init__.py`` is skipped, as it re-exports.
UNUSED_IMPORT_EXEMPT = {("cli", "posterior_similarity_matrix")}


def test_every_imported_name_is_used():
    dead = []
    for path in sorted(Path(digmix.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        dead += [f"{path.name}:{line} {name}" for name, line in imported.items()
                 if name not in used and (path.stem, name) not in UNUSED_IMPORT_EXEMPT]
    assert not dead
