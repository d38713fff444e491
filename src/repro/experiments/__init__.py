"""Experiment harnesses regenerating the paper's figures and ablations.

Each harness returns a plain result object with the same series the paper
plots and knows how to render itself as an aligned text table, so the
benchmark suite can both time the computation and print the reproduced
numbers.
"""

from repro.experiments.figure9 import Figure9Config, Figure9Result, run_figure9
from repro.experiments.figure10 import Figure10Config, Figure10Result, run_figure10
from repro.experiments.ablations import (
    ThresholdSweepResult,
    run_improved_vs_matrix_geometric,
    run_power_of_d_gap,
    run_threshold_sweep,
)
from repro.experiments.scale_study import ScaleStudyConfig, ScaleStudyResult, run_scale_study

__all__ = [
    "ScaleStudyConfig",
    "ScaleStudyResult",
    "run_scale_study",
    "Figure9Config",
    "Figure9Result",
    "run_figure9",
    "Figure10Config",
    "Figure10Result",
    "run_figure10",
    "ThresholdSweepResult",
    "run_threshold_sweep",
    "run_improved_vs_matrix_geometric",
    "run_power_of_d_gap",
]
