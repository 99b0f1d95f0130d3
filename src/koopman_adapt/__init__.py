"""Recursive Koopman-operator identification with an adaptive lifted-space
MPC + Kalman control loop and a closed-loop simulation harness.

The package namespace holds the closed-loop harness (what the CLI drives)
and the estimator quick start; everything else lives in its submodule.
"""

from .config import ExperimentConfig, load_config_file
from .edmd import KoopmanModel, collect_snapshots
from .errors import KoopmanAdaptError
from .harness import (
    RunResult,
    StepRecord,
    compute_metric,
    default_config,
    format_comparison_table,
    generate_training_data,
    prepare_estimator,
    run_closed_loop,
    run_comparison,
    write_summary_csv,
    write_trace_csv,
)
from .observables import trig_dictionary
from .redmd import RecursiveEstimator, RedmdSettings, StepReport, init_from_batch

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "KoopmanAdaptError",
    "KoopmanModel",
    "RecursiveEstimator",
    "RedmdSettings",
    "RunResult",
    "StepRecord",
    "StepReport",
    "collect_snapshots",
    "compute_metric",
    "default_config",
    "format_comparison_table",
    "generate_training_data",
    "init_from_batch",
    "load_config_file",
    "prepare_estimator",
    "run_closed_loop",
    "run_comparison",
    "trig_dictionary",
    "write_summary_csv",
    "write_trace_csv",
]
