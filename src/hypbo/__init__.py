"""Hypothesis-guided bilevel Bayesian optimization with a benchmark harness."""

from .acquisition import AcquisitionSpec, expected_improvement, maximize
from .dataset import Dataset
from .engine import (
    EngineConfig,
    ObjectiveError,
    improved,
    initial_design,
    lower_step,
    run,
    upper_step,
)
from .gp import GPModel, KernelParams, fit, matern52
from .harness import (
    ExperimentConfig,
    cumulative_regret,
    load_experiment_config,
    report,
    run_experiment,
    simple_regret,
)
from .objectives import ObjectiveSpec, get_objective, make_quality_hypothesis
from .space import (
    ConstraintSyntaxError,
    FeasibilityBudgetError,
    Hypothesis,
    InfeasibleHypothesisError,
    SearchSpace,
    box_hypothesis,
    hypothesis_from_dict,
    load_hypotheses_file,
)
from .stats import DegenerateSampleError, bonferroni, wilcoxon_signed_rank
from .trace import Trace, TraceRecord, read_traces_csv, write_traces_csv

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec",
    "ConstraintSyntaxError",
    "Dataset",
    "DegenerateSampleError",
    "EngineConfig",
    "ExperimentConfig",
    "FeasibilityBudgetError",
    "GPModel",
    "Hypothesis",
    "InfeasibleHypothesisError",
    "KernelParams",
    "ObjectiveError",
    "ObjectiveSpec",
    "SearchSpace",
    "Trace",
    "TraceRecord",
    "bonferroni",
    "box_hypothesis",
    "cumulative_regret",
    "expected_improvement",
    "fit",
    "get_objective",
    "hypothesis_from_dict",
    "improved",
    "initial_design",
    "load_experiment_config",
    "load_hypotheses_file",
    "lower_step",
    "make_quality_hypothesis",
    "matern52",
    "maximize",
    "read_traces_csv",
    "report",
    "run",
    "run_experiment",
    "simple_regret",
    "upper_step",
    "wilcoxon_signed_rank",
    "write_traces_csv",
]
