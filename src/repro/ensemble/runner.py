"""Multi-replication runner for every stochastic backend.

One *ensemble* is ``K`` statistically independent replications of the same
experiment spec on the same backend, summarized by across-replication
Student-t confidence intervals (:mod:`repro.ensemble.stats`).  The runner is
what turns a single stochastic point estimate ("the mean delay came out as
2.31") into a defensible one ("2.31 ± 0.04 at 95% confidence over 8
replications") — the form in which a finite-``N`` estimate can be compared
against the paper's bounds and the mean-field limit.

The configuration is an :class:`repro.api.spec.ExperimentSpec` plus a
backend name.  Ensembles run as in-memory sessions of the campaign
scheduler (:mod:`repro.campaigns.scheduler`), the package's one executor:
the same task path, stopping rule and worker pool as a durable campaign,
with no directory and nothing written.

Determinism is a hard contract here, not a convenience:

* replication ``i`` always simulates with the ``i``-th child seed of the
  ensemble seed (:func:`repro.utils.seeding.spawn_seeds`; the ensemble seed
  defaults to ``spec.seed``, as in :func:`repro.run`), independently of
  which worker runs it, in which order tasks complete, or how many workers
  exist — ``workers=8`` and ``workers=1`` produce bitwise-identical records;
* the adaptive stopping rule extends the ensemble in fixed-size batches, so
  even precision-targeted runs are reproducible across machines with
  different core counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.backends import get_backend, require_capable, select_backend
from repro.api.spec import ExperimentSpec, SpecError
from repro.ensemble.stats import ReplicationStatistics
# Kept only for perfbench/tracing.py, whose utils.spawn_seeds probe wraps this name.
from repro.utils.seeding import spawn_seeds  # noqa: F401
from repro.utils.tables import format_table
from repro.utils.validation import ValidationError, check_integer, check_positive

__all__ = [
    "EnsembleConfig",
    "EnsembleResult",
    "check_replication_policy",
    "run_ensemble",
    "run_ensembles",
]

#: Default number of replications added per adaptive extension round.  Fixed
#: (instead of "one batch per worker") so the stopping rule's trajectory does
#: not depend on the machine's core count.
DEFAULT_BATCH_SIZE = 4


class _SpecSeed:
    """Default ``seed``: derive the replication seeds from ``spec.seed``."""

    def __repr__(self) -> str:
        return "<spec.seed>"


_SPEC_SEED: Any = _SpecSeed()


# --------------------------------------------------------------------- #
# One replication = (backend, spec, seed, index) -> record
# --------------------------------------------------------------------- #
def _execute_replication(task: Tuple[str, ExperimentSpec, Optional[int], int]) -> Dict[str, Any]:
    """Run one replication; returns its plain record (the package's one
    record builder: index, derived seed, every metric, wall seconds).

    A backend failure propagates; :func:`repro.api.runner.run` owns the one
    backend fallback, which reruns the whole ensemble on the next backend.
    """
    backend_name, spec, seed, index = task
    started = time.perf_counter()
    metrics = get_backend(backend_name).run_once(spec, seed)
    record: Dict[str, Any] = {"replication": index, "seed": seed}
    record.update(metrics)
    record["wall_seconds"] = time.perf_counter() - started
    return record


# --------------------------------------------------------------------- #
# Driver side
# --------------------------------------------------------------------- #
def check_replication_policy(
    replications: int,
    workers: int,
    confidence: float,
    target_relative_half_width: Optional[float],
    max_replications: int,
) -> None:
    """The argument checks of a replicated run; raises ``ValidationError``.

    :class:`EnsembleConfig` applies them, and :func:`repro.run` applies
    them whatever the replication count, so a bad value fails the same way
    at ``K = 1`` as at ``K >= 2``.
    """
    check_integer("replications", replications, minimum=1)
    check_integer("workers", workers, minimum=1)
    if not (0.0 < confidence < 1.0):
        raise ValidationError(f"confidence must be in (0, 1), got {confidence!r}")
    if target_relative_half_width is not None:
        check_positive("target_relative_half_width", target_relative_half_width)
        # The cap only matters in adaptive mode; a plain fixed-count run
        # may ask for any number of replications.
        check_integer("max_replications", max_replications, minimum=replications)
    else:
        check_integer("max_replications", max_replications, minimum=1)


@dataclass(frozen=True)
class EnsembleConfig:
    """One ensemble: an experiment spec, a backend, and a replication policy.

    Parameters
    ----------
    spec : ExperimentSpec
        The experiment to replicate.
    backend : str, optional
        A registered stochastic backend (``"cluster"``, ``"fleet"``);
        defaults to the cheapest capable one for the spec.
    replications : int
        Number of replications to run (the *initial* batch when
        ``target_relative_half_width`` is set).
    workers : int
        Worker processes.  ``1`` runs inline in the calling process (no
        pool); results are identical either way.
    seed : int or None, optional
        Ensemble seed; replication ``i`` uses the ``i``-th derived child
        seed.  Defaults to ``spec.seed``; ``None`` gives a
        non-reproducible ensemble.
    confidence : float
        Two-sided confidence level of the reported intervals.
    target_relative_half_width : float or None
        If set, keep adding ``batch_size``-replication rounds until the CI
        half-width of ``mean_delay`` falls below this fraction of the mean
        (or ``max_replications`` is reached) — runs then terminate at a
        target *precision* instead of a fixed replication count.
    max_replications : int
        Hard cap for the adaptive mode.
    batch_size : int
        Replications added per adaptive round; fixed by default so the
        stopping trajectory is machine-independent.
    """

    spec: ExperimentSpec
    backend: Optional[str] = None
    replications: int = 8
    workers: int = 1
    seed: Optional[int] = _SPEC_SEED
    confidence: float = 0.95
    target_relative_half_width: Optional[float] = None
    max_replications: int = 64
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if not isinstance(self.spec, ExperimentSpec):
            raise SpecError(f"EnsembleConfig needs spec=ExperimentSpec(...), got {self.spec!r}")
        if self.seed is _SPEC_SEED:
            object.__setattr__(self, "seed", self.spec.seed)
        if self.backend is None:
            object.__setattr__(
                self, "backend", select_backend(self.spec, replicable_only=True).name
            )
        else:
            require_capable(self.backend, self.spec)
        if get_backend(self.backend).capabilities.deterministic:
            raise SpecError(
                f"backend {self.backend!r} is deterministic — replicating it is "
                "meaningless; call repro.run(spec, backend=...) directly"
            )
        check_replication_policy(
            self.replications,
            self.workers,
            self.confidence,
            self.target_relative_half_width,
            self.max_replications,
        )
        check_integer("batch_size", self.batch_size, minimum=1)


@dataclass(frozen=True)
class EnsembleResult:
    """All replication records of one ensemble, plus CI summaries.

    Attributes
    ----------
    config : EnsembleConfig
        The configuration that produced the records.
    records : tuple of dict
        One plain record per replication, ordered by replication index.
        Each carries the replication index, its derived seed, every scalar
        metric the simulator reports (delays in units of ``1/mu``) and the
        per-replication wall-clock time in seconds.
    wall_seconds : float
        Wall-clock time of the :func:`run_ensembles` session that ran it.
    """

    config: EnsembleConfig
    records: Tuple[Dict[str, Any], ...]
    wall_seconds: float = float("nan")

    @property
    def replications(self) -> int:
        """Number of replications actually executed."""
        return len(self.records)

    #: Record keys derived from wall-clock time rather than the simulation;
    #: everything else is a deterministic function of the configuration.
    TIMING_KEYS = ("wall_seconds", "events_per_second")

    #: Non-numeric provenance keys a backend may attach to its records
    #: (e.g. the fleet backend's event kernel name).  They ride along in
    #: the records and JSONL stores but are not averaged like metrics.
    TEXT_KEYS = ("kernel",)

    def metric_names(self) -> List[str]:
        """The scalar metrics shared by every record."""
        reserved = {"replication", "seed", *self.TEXT_KEYS}
        return [key for key in self.records[0] if key not in reserved]

    def simulation_records(self) -> List[Dict[str, Any]]:
        """Records with wall-clock keys stripped — the bitwise-reproducible
        part, which the determinism regression tests compare across runs,
        processes and worker counts."""
        return [
            {key: value for key, value in record.items() if key not in self.TIMING_KEYS}
            for record in self.records
        ]

    def samples(self, metric: str = "mean_delay") -> List[float]:
        """Per-replication values of one metric, in replication order."""
        if metric not in self.records[0]:
            raise ValidationError(
                f"unknown metric {metric!r}; available: {', '.join(self.metric_names())}"
            )
        return [float(record[metric]) for record in self.records]

    def statistics(self, metric: str = "mean_delay") -> ReplicationStatistics:
        """Across-replication statistics of one metric, folded in replication
        order — bitwise what a durable campaign reports for the same records."""
        return ReplicationStatistics.from_samples(self.samples(metric), self.config.confidence)

    @property
    def delay(self) -> ReplicationStatistics:
        """Statistics of the headline metric, the mean sojourn time."""
        return self.statistics("mean_delay")

    def as_table(self) -> str:
        """Render metric summaries (mean, CI, extremes) as a text table."""
        headers = ["metric", "mean", f"±{self.config.confidence:.0%} CI", "std", "min", "max"]
        rows = []
        for metric in self.metric_names():
            if metric in self.TIMING_KEYS:
                continue  # wall-clock noise, not a simulation output
            statistics = self.statistics(metric)
            rows.append(
                [
                    metric,
                    statistics.mean,
                    statistics.half_width,
                    statistics.std,
                    statistics.minimum,
                    statistics.maximum,
                ]
            )
        config = self.config
        title = (
            f"ensemble: {config.backend} ({config.spec.describe()}) x "
            f"{self.replications} replications (seed {config.seed})"
        )
        return format_table(headers, rows, title=title)


def run_ensembles(configs: Sequence[EnsembleConfig]) -> List[EnsembleResult]:
    """Run several ensembles as one in-memory campaign session.

    One pool of ``max(config.workers)`` processes serves the whole
    sequence, with no per-ensemble straggler barrier; nothing is written.
    Each result is bitwise the result of :func:`run_ensemble` on its config
    alone.  A replication that kills its worker three times raises
    :class:`repro.campaigns.CampaignError`; an exception a replication
    raises propagates as is.
    """
    from repro.campaigns.scheduler import run_in_memory  # repro.campaigns imports this module

    configs = list(configs)
    started = time.perf_counter()
    records = run_in_memory(configs)
    wall_seconds = time.perf_counter() - started
    return [
        EnsembleResult(config=config, records=point_records, wall_seconds=wall_seconds)
        for config, point_records in zip(configs, records)
    ]


def run_ensemble(
    spec: Optional[ExperimentSpec] = None,
    backend: Optional[str] = None,
    replications: int = 8,
    workers: int = 1,
    seed: Optional[int] = _SPEC_SEED,
    confidence: float = 0.95,
    target_relative_half_width: Optional[float] = None,
    max_replications: int = 64,
    batch_size: int = DEFAULT_BATCH_SIZE,
    config: Optional[EnsembleConfig] = None,
) -> EnsembleResult:
    """Run ``K`` independent replications of one experiment, in parallel.

    Parameters
    ----------
    spec : ExperimentSpec, optional
        The experiment to replicate; required unless ``config`` is given.
    backend : str, optional
        Stochastic backend name; auto-selected from the spec if omitted.
    replications, workers, seed, confidence, target_relative_half_width, \
max_replications, batch_size :
        See :class:`EnsembleConfig`.  Ignored when ``config`` is given.
    config : EnsembleConfig, optional
        A pre-built configuration.

    Returns
    -------
    EnsembleResult
        Ordered replication records plus CI statistics per metric.

    Notes
    -----
    The result is a deterministic function of ``(spec, backend,
    replications, seed, confidence, target_relative_half_width, batch_size)``
    alone — the worker count only changes wall-clock time.  To run many
    ensembles over one pool, use :func:`run_ensembles`.

    Examples
    --------
    >>> from repro.api import ExperimentSpec
    >>> result = run_ensemble(
    ...     spec=ExperimentSpec.create(
    ...         num_servers=200, utilization=0.8, num_events=20_000),
    ...     replications=4,
    ...     seed=7,
    ... )
    >>> result.replications
    4
    """
    if config is None:
        config = EnsembleConfig(
            spec=spec,
            backend=backend,
            replications=replications,
            workers=workers,
            seed=seed,
            confidence=confidence,
            target_relative_half_width=target_relative_half_width,
            max_replications=max_replications,
            batch_size=batch_size,
        )
    return run_ensembles([config])[0]
