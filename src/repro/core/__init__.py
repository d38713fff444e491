"""The paper's primary contribution: finite-regime SQ(d) delay bounds.

Sub-modules map one-to-one onto the paper's sections:

* :mod:`repro.core.model`, :mod:`repro.core.state`,
  :mod:`repro.core.transitions` — the SQ(d) Markov process of Section II;
* :mod:`repro.core.state_space`, :mod:`repro.core.bound_models` — the
  threshold-restricted state space and the lower/upper bound models
  (Sections II-III);
* :mod:`repro.core.qbd_solver` — the matrix-geometric solution of Theorem 1;
* :mod:`repro.core.improved_lower` — the scalar-geometric improved lower
  bound of Theorems 2-3;
* :mod:`repro.core.asymptotic` — Mitzenmacher's asymptotic delay (Eq. 16);
* :mod:`repro.core.exact` — a truncated exact oracle for validation;
* :mod:`repro.core.ordering` — the stochastic-ordering machinery of
  Section III, made executable;
* :mod:`repro.core.analysis` — the high-level ``analyze_sqd`` entry point.
"""

from repro.core.model import SQDModel
from repro.core.state import (
    canonical_state,
    imbalance,
    partial_sums,
    precedes,
    tie_groups,
    total_jobs,
    waiting_jobs,
)
from repro.core.transitions import arrival_transitions, departure_transitions, transition_rate_map
from repro.core.state_space import build_partition, boundary_states, first_repeating_block, repeating_block_size
from repro.core.bound_models import (
    BoundKind,
    LowerBoundModel,
    QBDBlocks,
    UpperBoundModel,
    make_bound_model,
)
from repro.core.qbd_solver import (
    BoundModelSolution,
    SolutionMethod,
    UnstableBoundModelError,
    solve_bound_model,
)
from repro.core.improved_lower import (
    general_decay_factor,
    poisson_decay_factor,
    solve_improved_lower_bound,
)
from repro.core.asymptotic import (
    asymptotic_delay,
    asymptotic_mean_queue_length,
    power_of_d_improvement,
    relative_error_percent,
)
from repro.core.delay import DelayMetrics, mm1_sojourn_time, mmn_sojourn_time
from repro.core.exact import ExactSolution, solve_exact_truncated
from repro.core.analysis import DelayAnalysis, analyze_sqd
from repro.core.solver_cache import (
    CacheStats,
    SolverCache,
    clear_solver_cache,
    solver_cache,
)

__all__ = [
    "SQDModel",
    "canonical_state",
    "imbalance",
    "partial_sums",
    "precedes",
    "tie_groups",
    "total_jobs",
    "waiting_jobs",
    "arrival_transitions",
    "departure_transitions",
    "transition_rate_map",
    "build_partition",
    "boundary_states",
    "first_repeating_block",
    "repeating_block_size",
    "BoundKind",
    "LowerBoundModel",
    "UpperBoundModel",
    "QBDBlocks",
    "make_bound_model",
    "BoundModelSolution",
    "SolutionMethod",
    "UnstableBoundModelError",
    "solve_bound_model",
    "poisson_decay_factor",
    "general_decay_factor",
    "solve_improved_lower_bound",
    "asymptotic_delay",
    "asymptotic_mean_queue_length",
    "power_of_d_improvement",
    "relative_error_percent",
    "DelayMetrics",
    "mm1_sojourn_time",
    "mmn_sojourn_time",
    "ExactSolution",
    "solve_exact_truncated",
    "DelayAnalysis",
    "analyze_sqd",
    "CacheStats",
    "SolverCache",
    "clear_solver_cache",
    "solver_cache",
]
