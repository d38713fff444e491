"""Multi-replication experiment orchestration with CI statistics.

PR 1's occupancy engine made a *single* fleet-scale run cheap; this package
makes runs *trustworthy and parallel*.  Every experiment becomes an
*ensemble* — ``K`` independent replications fanned out over worker processes
— and every reported number carries a Student-t confidence interval, which
is what makes finite-``N`` vs mean-field comparisons meaningful (the limit
curve either sits inside the interval or it does not):

* :mod:`repro.ensemble.runner` — ensembles with per-replication seed
  derivation and a relative-precision stopping rule, run as in-memory
  sessions of the campaign scheduler (the package's one executor),
* :mod:`repro.ensemble.stats` — dependency-light replication statistics
  (mean, variance, Student-t intervals via the incomplete beta function),
* :mod:`repro.ensemble.grid` — cartesian ``(N, d, rho, scenario)`` sweeps
  run as one session across one shared pool,
* :mod:`repro.ensemble.results` — an append-only JSONL store persisting
  every replication with its config, seeds and git provenance.

Determinism contract: given the same seed and replication count, results are
bitwise identical regardless of worker count, task scheduling, or whether a
pool is used at all.
"""

from repro.ensemble.grid import (
    GridConfig,
    GridPoint,
    GridResult,
    PointTask,
    point_digest,
    point_seed,
    point_tasks,
    run_grid,
    task_id_for,
)
from repro.ensemble.results import (
    ResultStore,
    git_describe,
    iter_jsonl,
    provenance,
    read_jsonl,
    repair_jsonl,
)
from repro.ensemble.runner import EnsembleConfig, EnsembleResult, run_ensemble, run_ensembles
from repro.ensemble.stats import (
    ReplicationStatistics,
    student_t_cdf,
    student_t_quantile,
    summarize,
    t_half_width,
)

__all__ = [
    "EnsembleConfig",
    "EnsembleResult",
    "run_ensemble",
    "run_ensembles",
    "GridConfig",
    "GridPoint",
    "GridResult",
    "PointTask",
    "point_digest",
    "point_seed",
    "point_tasks",
    "run_grid",
    "task_id_for",
    "ReplicationStatistics",
    "student_t_cdf",
    "student_t_quantile",
    "summarize",
    "t_half_width",
    "ResultStore",
    "iter_jsonl",
    "read_jsonl",
    "repair_jsonl",
    "provenance",
    "git_describe",
]
