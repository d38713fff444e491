"""``run(spec)``: the single front door to every engine in the package.

One call routes a declarative :class:`~repro.api.spec.ExperimentSpec` to a
capable backend (explicitly named or auto-selected), optionally replicates
it into a confidence-intervalled ensemble, and returns a uniform
:class:`RunResult` — mean delay, CI when replicated, per-backend extras,
and full provenance (the spec itself, the backend, package version, git
describe).  The pre-existing entry points (``analyze_sqd``,
``simulate_fleet``, ``run_ensemble`` …) remain available, but this is the
API the experiments, the CLI and the examples build on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.api.backends import (
    fallback_chain,
    get_backend,
    recoverable_backend_errors,
    require_capable,
    select_backend,
)
from repro.api.serialize import dumps, write_json
from repro.api.spec import ExperimentSpec, SpecError
from repro.utils.tables import format_table

__all__ = ["RunResult", "run"]


@dataclass(frozen=True)
class RunResult:
    """The unified answer every backend returns through :func:`run`.

    Attributes
    ----------
    spec : ExperimentSpec
        The experiment that was run (full provenance: the result is a
        deterministic function of ``spec`` and ``backend`` alone, up to
        wall-clock noise).
    backend : str
        The backend that actually ran (useful with ``backend="auto"``).
    answer : str
        The backend's answer type: ``"estimate"``, ``"exact"``,
        ``"bounds"`` or ``"limit"``.
    mean_delay : float
        The paper's "average delay" — mean sojourn time in units of
        ``1/mu`` (for ``qbd_bounds`` this is the Theorem 3 lower bound;
        the full bracket sits in ``extras``).
    half_width : float
        Student-t confidence half-width of ``mean_delay`` across
        replications (``nan`` for single runs and deterministic backends).
    confidence : float
        Confidence level of ``half_width``.
    replications : int
        Number of independent replications behind the estimate.
    extras : mapping
        Backend-specific metrics beyond the headline delay (bounds,
        occupancy, throughput, truncation mass, ...).  For replicated runs
        these are across-replication means.
    records : tuple of mapping
        Per-replication raw records (one entry for single runs).
    provenance : mapping
        Package version, git describe, python version, timestamp.
    wall_seconds : float
        Wall-clock time of the whole run.
    """

    spec: ExperimentSpec
    backend: str
    answer: str
    mean_delay: float
    half_width: float
    confidence: float
    replications: int
    extras: Mapping[str, Any] = field(default_factory=dict)
    records: Tuple[Mapping[str, Any], ...] = ()
    provenance: Mapping[str, Any] = field(default_factory=dict)
    wall_seconds: float = float("nan")

    def confidence_interval(self) -> Tuple[float, float]:
        """The two-sided CI of the mean delay (``(nan, nan)`` if unreplicated)."""
        if not math.isfinite(self.half_width):
            return (float("nan"), float("nan"))
        return (self.mean_delay - self.half_width, self.mean_delay + self.half_width)

    @property
    def is_estimate(self) -> bool:
        """True when the result is a stochastic estimate (vs exact/bounds/limit)."""
        return self.answer == "estimate"

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready payload (shared schema with the CLI exports)."""
        return {
            "spec": self.spec.to_dict(),
            "backend": self.backend,
            "answer": self.answer,
            "mean_delay": self.mean_delay,
            "half_width": self.half_width,
            "confidence": self.confidence,
            "replications": self.replications,
            "extras": dict(self.extras),
            "records": [dict(record) for record in self.records],
            "provenance": dict(self.provenance),
            "wall_seconds": self.wall_seconds,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize through the shared CLI/API JSON dialect."""
        return dumps(self.to_dict(), indent=indent)

    def write_json(self, path) -> "Path":  # noqa: F821 - documentation type
        """Write :meth:`to_json` to ``path`` (parents created); returns the path."""
        return write_json(path, self.to_dict())

    def as_table(self) -> str:
        """Human summary: headline delay plus every extra metric."""
        rows = [["mean_delay", self.mean_delay]]
        if math.isfinite(self.half_width):
            rows.append([f"±{self.confidence:.0%} CI", self.half_width])
        for key in sorted(self.extras):
            rows.append([key, self.extras[key]])
        title = (
            f"{self.backend} [{self.answer}] — {self.spec.describe()}"
            + (f" — {self.replications} replications" if self.replications > 1 else "")
        )
        return format_table(["metric", "value"], rows, title=title)

    def __str__(self) -> str:
        if math.isfinite(self.half_width):
            return (
                f"{self.mean_delay:.5g} ± {self.half_width:.3g} "
                f"({self.confidence:.0%} CI, {self.replications} replications, {self.backend})"
            )
        return f"{self.mean_delay:.5g} ({self.backend})"


def _single_run(backend, spec: ExperimentSpec, seed: Optional[int]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    from repro.ensemble.runner import EnsembleResult  # late: avoids an import cycle

    metrics = backend.run_once(spec, seed)
    if "mean_delay" not in metrics:
        raise SpecError(f"backend {backend.name!r} returned no 'mean_delay' metric")
    # Wall-clock keys stay in the record; the extras carry only what the
    # seed determines, as a replicated run's extras do.
    extras = {
        key: value
        for key, value in metrics.items()
        if key != "mean_delay" and key not in EnsembleResult.TIMING_KEYS
    }
    return metrics, extras


def run(
    spec: Union[ExperimentSpec, str, Mapping[str, Any]],
    backend: str = "auto",
    replications: Optional[int] = None,
    workers: int = 1,
    confidence: float = 0.95,
    target_relative_half_width: Optional[float] = None,
    max_replications: int = 64,
    seed: Optional[int] = None,
    fallback: bool = True,
) -> RunResult:
    """Run one experiment spec on one backend; the package's main entry point.

    Parameters
    ----------
    spec : ExperimentSpec, str or mapping
        The experiment to run.  A JSON string or a nested mapping is
        converted through :meth:`ExperimentSpec.from_json` /
        :meth:`ExperimentSpec.from_dict` first.
    backend : str
        A registered backend name, or ``"auto"`` to pick the cheapest
        capable estimator (see :func:`repro.api.backends.select_backend`).
        Incapable spec/backend combinations raise :class:`SpecError`.
    replications : int, optional
        Independent replications (``>= 2`` adds a Student-t confidence
        interval).  Deterministic backends always run exactly once.
    workers : int
        Worker processes the replications fan out over.
    confidence : float
        Two-sided confidence level of the reported half-width.
    target_relative_half_width : float, optional
        Adaptive-precision mode: start from ``max(replications, 2)`` and
        keep adding replications until the CI half-width falls below this
        fraction of the mean (see
        :class:`repro.ensemble.runner.EnsembleConfig`).
    max_replications : int
        Replication cap for the adaptive mode.
    seed : int, optional
        Override for ``spec.seed`` (the spec's own seed is the default).
    fallback : bool
        Graceful backend degradation (default on).  When the chosen
        backend raises a *typed runtime failure* — the QBD bound model
        turning unstable near saturation, a linear solve breaking down —
        rather than a :class:`SpecError`, the whole run (every replication)
        falls back to the next capable estimator backend and records the
        degradation under ``provenance["degraded"]`` (and mirrors it in the
        extras).  This is the package's one backend fallback.  Pass
        ``fallback=False`` to get the raw exception instead.

    Returns
    -------
    RunResult

    Raises
    ------
    SpecError
        An invalid spec, or a backend that cannot run it.
    ValidationError
        ``replications``, ``workers``, ``confidence``,
        ``target_relative_half_width`` or ``max_replications`` fails the
        checks :class:`~repro.ensemble.runner.EnsembleConfig` applies;
        they apply whatever the replication count, before anything runs.

    Examples
    --------
    >>> from repro import ExperimentSpec, run
    >>> spec = ExperimentSpec.create(num_servers=100, utilization=0.8,
    ...                              num_events=20_000, seed=7)
    >>> result = run(spec, replications=4)
    >>> result.replications
    4
    """
    if isinstance(spec, str):
        spec = ExperimentSpec.from_json(spec)
    elif isinstance(spec, Mapping):
        spec = ExperimentSpec.from_dict(spec)
    elif not isinstance(spec, ExperimentSpec):
        raise SpecError(f"spec must be an ExperimentSpec, JSON string or mapping, got {spec!r}")

    if seed is not None:
        # Fold the override into the spec, so the RunResult's provenance
        # (and any --json export of it) reproduces exactly what ran.
        spec = spec.with_seed(seed)
    engine = select_backend(spec) if backend == "auto" else require_capable(backend, spec)
    wanted = 1 if replications is None else int(replications)
    if wanted < 1:
        raise SpecError(f"replications must be >= 1, got {replications!r}")
    if target_relative_half_width is not None:
        wanted = max(wanted, 2)  # the stopping rule needs a first interval

    from repro.ensemble.runner import check_replication_policy  # late: avoids an import cycle

    check_replication_policy(
        wanted, workers, confidence, target_relative_half_width, max_replications
    )

    started = time.perf_counter()
    recoverable = recoverable_backend_errors()
    degradations: list = []
    tried = {engine.name}
    while True:
        try:
            return _execute(
                engine,
                spec,
                replications=wanted,
                workers=workers,
                confidence=confidence,
                target_relative_half_width=target_relative_half_width,
                max_replications=max_replications,
                started=started,
                degradations=degradations,
            )
        except recoverable as error:
            if not fallback:
                raise
            chain = fallback_chain(spec, exclude=tried)
            if not chain:
                raise
            degradations.append(
                {"backend": engine.name, "error": f"{type(error).__name__}: {error}"}
            )
            engine = chain[0]
            tried.add(engine.name)


def _execute(
    engine,
    spec: ExperimentSpec,
    replications: int,
    workers: int,
    confidence: float,
    target_relative_half_width: Optional[float],
    max_replications: int,
    started: float,
    degradations,
) -> RunResult:
    """One attempt on one engine; raises the engine's typed failures."""
    base_seed = spec.seed

    from repro.ensemble.results import provenance  # late: avoids an import cycle

    def result_provenance() -> Dict[str, Any]:
        payload = dict(provenance())
        if degradations:
            payload["degraded"] = [dict(entry) for entry in degradations]
        return payload

    def degraded_extras(extras: Dict[str, Any]) -> Dict[str, Any]:
        if degradations:
            # Mirror the headline fact into the extras so a table render
            # (`repro-lb run`) shows the degradation without JSON spelunking.
            extras["degraded_from"] = ",".join(entry["backend"] for entry in degradations)
        return extras

    if engine.capabilities.deterministic or replications == 1:
        metrics, extras = _single_run(engine, spec, base_seed)
        return RunResult(
            spec=spec,
            backend=engine.name,
            answer=engine.capabilities.answer,
            mean_delay=float(metrics["mean_delay"]),
            half_width=float("nan"),
            confidence=confidence,
            replications=1,
            extras=degraded_extras(extras),
            records=(dict(metrics),),
            provenance=result_provenance(),
            wall_seconds=time.perf_counter() - started,
        )

    from repro.ensemble.runner import EnsembleConfig, run_ensemble

    config = EnsembleConfig(
        spec=spec,
        backend=engine.name,
        replications=replications,
        workers=workers,
        seed=base_seed,
        confidence=confidence,
        target_relative_half_width=target_relative_half_width,
        max_replications=max_replications,
    )
    ensemble = run_ensemble(config=config)
    statistics = ensemble.delay
    extras = {
        metric: ensemble.statistics(metric).mean
        for metric in ensemble.metric_names()
        if metric not in ensemble.TIMING_KEYS and metric != "mean_delay"
    }
    # Textual provenance keys (e.g. the fleet kernel) are identical across
    # replications; carry the first record's value into the extras.
    for key in ensemble.TEXT_KEYS:
        if key in ensemble.records[0]:
            extras[key] = ensemble.records[0][key]
    return RunResult(
        spec=spec,
        backend=engine.name,
        answer=engine.capabilities.answer,
        mean_delay=statistics.mean,
        half_width=statistics.half_width,
        confidence=confidence,
        replications=ensemble.replications,
        extras=degraded_extras(extras),
        records=tuple(dict(record) for record in ensemble.records),
        provenance=result_provenance(),
        wall_seconds=time.perf_counter() - started,
    )
