"""Multi-objective evolutionary search over trajectory-prediction
hyperparameters, evaluated by a deterministic surrogate on synthetic
highway data."""

__version__ = "0.1.0"

from .genome import AlleleTable, GeneticOperators, Genome, default_allele_table
from .objectives import ObjectiveId
from .trajectory import Dataset
from .evaluator import EvaluationResult, evaluate
from .experiment import ExperimentConfig, PRESETS, preset_config, run_experiment, summarize

__all__ = [
    "AlleleTable",
    "Dataset",
    "EvaluationResult",
    "ExperimentConfig",
    "GeneticOperators",
    "Genome",
    "ObjectiveId",
    "PRESETS",
    "default_allele_table",
    "evaluate",
    "preset_config",
    "run_experiment",
    "summarize",
]
