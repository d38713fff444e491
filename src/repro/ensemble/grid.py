"""Sweep-grid engine: a cartesian product of ensembles over one worker pool.

A single ensemble replicates *one* configuration; a sweep wants
``(N, d, utilization, scenario) x replications`` all at once.  Running every
point as one session (:func:`repro.ensemble.runner.run_ensembles`) keeps one
shared pool busy across point boundaries — with per-point pools, each point
would end with a straggler barrier and the pool start-up cost would be paid
once per point instead of once per sweep.

Seeds are derived from a two-level tree: each grid point's seed is a stable
digest of the grid seed and the point's *labels* (its ``N``, ``d``, load or
scenario — not its position in the product), and replication ``i`` of that
point gets the ``i``-th child of the point seed.  Content addressing means a
single point of a sweep can be reproduced in isolation by an
:func:`repro.ensemble.runner.run_ensemble` call with the point's seed, and
extending any swept axis later never perturbs the points that already
existed — previously published numbers stay bitwise valid.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api.spec import ExperimentSpec, HorizonSpec, ScenarioSpec, SpecError, SystemSpec, WorkloadSpec
from repro.ensemble.runner import EnsembleConfig, EnsembleResult, run_ensembles
from repro.utils.seeding import spawn_seeds
from repro.utils.tables import format_table
from repro.utils.validation import ValidationError, check_integer

__all__ = [
    "GridConfig",
    "GridPoint",
    "GridResult",
    "PointTask",
    "point_digest",
    "point_seed",
    "point_tasks",
    "run_grid",
    "task_id_for",
]


@dataclass(frozen=True)
class GridConfig:
    """Cartesian sweep grid, each point replicated into an ensemble.

    Parameters
    ----------
    server_counts, choices, utilizations : sequence
        The swept axes: pool sizes ``N``, poll counts ``d`` and per-server
        loads ``rho = lambda / mu`` (dimensionless).  Combinations with
        ``d > N`` are skipped, mirroring :class:`SweepConfig`.
    scenarios : sequence of str, optional
        When given, each grid point plays these registered scenarios through
        the occupancy engine (``utilizations`` is then ignored — scenarios
        carry their own loads); when empty, points are stationary fleet
        simulations at the swept utilizations.
    policy : str
        Dispatching policy for every point (``"sqd"``, ``"jsq"``, ``"random"``).
    num_events : int
        Events per stationary replication (ignored for scenarios).
    replications : int
        Replications per grid point.
    workers : int
        Worker processes shared by the whole grid.
    seed : int or None
        Grid seed; see the module docstring for the derivation tree.
    confidence : float
        Confidence level of the per-point intervals.
    bounds : bool
        Annotate each (stationary, SQ(d)) grid point with the paper's QBD
        lower/upper delay bracket.  Solves route through the process-wide
        :func:`repro.core.solver_cache.solver_cache`, so the sweep performs
        exactly one QBD solve per distinct ``(system, policy)``
        configuration — repeated points, replications and re-runs are free.
        Points whose bracket is intractable (block size ``C(N+T-1, T)``
        beyond the backend limit) or whose policy has no bounds are
        annotated with ``None``.
    threshold : int
        Imbalance threshold ``T`` of the bound models when ``bounds`` is on.
    kernel : str
        Event kernel for the fleet points (``"auto"``, ``"python"``,
        ``"uniformized"``); recorded in every replication record.
    workloads : sequence, optional
        Workload axis: :class:`~repro.api.spec.WorkloadSpec` instances (or
        their ``to_dict`` mappings).  When given, every ``(N, d, rho)``
        point is crossed with every workload; points whose workload is the
        paper's default Poisson + exponential run on the fleet engine,
        everything else (fitted ``mmpp2``/renewal shapes, ``trace``
        replays) routes to the cluster DES — which is how a sweep compares
        a fitted trace model against the Poisson baseline at every scale.
        Incompatible with ``scenarios``.
    num_jobs : int or None
        Job horizon per replication for the cluster-backed workload points
        (``None`` = the cluster backend's default).
    """

    server_counts: Sequence[int] = (100, 1000)
    choices: Sequence[int] = (2,)
    utilizations: Sequence[float] = (0.9,)
    scenarios: Sequence[str] = ()
    policy: str = "sqd"
    num_events: int = 200_000
    replications: int = 4
    workers: int = 1
    seed: Optional[int] = 12345
    confidence: float = 0.95
    bounds: bool = False
    threshold: int = 3
    kernel: str = "auto"
    workloads: Sequence[Any] = ()
    num_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        check_integer("num_events", self.num_events, minimum=1)
        check_integer("replications", self.replications, minimum=1)
        check_integer("workers", self.workers, minimum=1)
        check_integer("threshold", self.threshold, minimum=1)
        if not (0.0 < self.confidence < 1.0):
            raise ValidationError(f"confidence must be in (0, 1), got {self.confidence!r}")
        for n in self.server_counts:
            check_integer("N", n, minimum=1)
        for d in self.choices:
            check_integer("d", d, minimum=1)
        # Fail fast on an unknown or incapable kernel: a mid-sweep SpecError
        # would discard every grid point already simulated.
        from repro.kernels import available_kernels, kernel_why_unsupported

        if self.kernel != "auto" and self.kernel not in available_kernels():
            raise SpecError(
                f"unknown kernel {self.kernel!r} "
                f"(available: {', '.join(['auto'] + available_kernels())})"
            )
        for d in self.choices:
            reason = kernel_why_unsupported(self.kernel, self.policy, d, False)
            if reason is not None:
                raise SpecError(
                    f"kernel {self.kernel!r} cannot run policy {self.policy!r} "
                    f"with d={d}: {reason}"
                )
        if self.workloads:
            if self.scenarios:
                raise SpecError(
                    "GridConfig cannot sweep workloads and scenarios together "
                    "(scenarios run on the fleet engine, which is Poisson-only)"
                )
            normalized = tuple(
                workload if isinstance(workload, WorkloadSpec) else WorkloadSpec.from_dict(workload)
                for workload in self.workloads
            )
            object.__setattr__(self, "workloads", normalized)
        if self.num_jobs is not None:
            check_integer("num_jobs", self.num_jobs, minimum=1)
        # Likewise an invalid load, policy or scenario: build every spec now,
        # not after a campaign directory has been created for the grid.
        self.points()

    @staticmethod
    def workload_label(workload: WorkloadSpec) -> str:
        """Stable short label for a workload axis value.

        The arrival name, suffixed with a digest of the full workload dict
        when any shape parameter is set — labels feed the content-addressed
        per-point seeds, so two different fitted shapes must never collide.
        """
        if workload.is_default and not workload.arrival.params and not workload.service.params:
            return "poisson"
        payload = json.dumps(workload.to_dict(), sort_keys=True).encode()
        return f"{workload.arrival.name}#{hashlib.sha256(payload).hexdigest()[:8]}"

    def points(self) -> List[Dict[str, Any]]:
        """Expand the grid into per-point experiment specs.

        Every point is ``{"spec": ExperimentSpec, "backend": str,
        "labels": {...}}``.  Stationary and scenario points run on the
        occupancy fleet backend; non-default workload points (the
        ``workloads`` axis) run on the cluster DES.
        """
        expanded: List[Dict[str, Any]] = []
        options = {} if self.kernel == "auto" else {"kernel": self.kernel}
        if self.scenarios:
            axes = itertools.product(self.server_counts, self.choices, self.scenarios)
            for n, d, scenario in axes:
                if d > n:
                    continue
                expanded.append(
                    {
                        "spec": ExperimentSpec(
                            system=SystemSpec(num_servers=n, d=d),
                            policy=self.policy,
                            scenario=ScenarioSpec(scenario),
                            options=options,
                        ),
                        "backend": "fleet",
                        "labels": {"N": n, "d": d, "scenario": scenario},
                    }
                )
            return expanded
        if self.workloads:
            axes = itertools.product(
                self.server_counts, self.choices, self.utilizations, self.workloads
            )
            for n, d, utilization, workload in axes:
                if d > n:
                    continue
                on_fleet = workload.is_default
                expanded.append(
                    {
                        "spec": ExperimentSpec(
                            system=SystemSpec(num_servers=n, d=d, utilization=utilization),
                            workload=workload,
                            policy=self.policy,
                            horizon=HorizonSpec(
                                num_events=self.num_events if on_fleet else None,
                                num_jobs=None if on_fleet else self.num_jobs,
                            ),
                            options=options if on_fleet else {},
                        ),
                        "backend": "fleet" if on_fleet else "cluster",
                        "labels": {
                            "N": n,
                            "d": d,
                            "utilization": utilization,
                            "workload": self.workload_label(workload),
                        },
                    }
                )
            return expanded
        axes = itertools.product(self.server_counts, self.choices, self.utilizations)
        for n, d, utilization in axes:
            if d > n:
                continue
            expanded.append(
                {
                    "spec": ExperimentSpec.create(
                        num_servers=n,
                        d=d,
                        utilization=utilization,
                        num_events=self.num_events,
                        policy=self.policy,
                        **options,
                    ),
                    "backend": "fleet",
                    "labels": {"N": n, "d": d, "utilization": utilization},
                }
            )
        return expanded

    def ensembles(self, **policy: Any) -> List[Tuple[Dict[str, Any], EnsembleConfig]]:
        """Each point's labels and ensemble (seeded by :func:`point_seed`),
        in grid order; ``policy`` holds a campaign's adaptive
        :class:`~repro.ensemble.runner.EnsembleConfig` fields."""
        ensembles = []
        for point in self.points():
            seed = point_seed(self.seed, point["labels"])
            config = EnsembleConfig(
                spec=point["spec"] if seed is None else point["spec"].with_seed(seed),
                backend=point["backend"],
                replications=self.replications,
                workers=self.workers,
                seed=seed,
                confidence=self.confidence,
                **policy,
            )
            ensembles.append((point["labels"], config))
        return ensembles


@dataclass(frozen=True)
class GridPoint:
    """One grid point's labels plus its replicated ensemble.

    ``bounds`` carries the QBD delay bracket ``{"lower_bound": ...,
    "upper_bound": ...}`` when the grid was run with ``bounds=True`` and
    the point's bracket is tractable; ``None`` otherwise.
    """

    labels: Mapping[str, Any]
    ensemble: EnsembleResult
    bounds: Optional[Mapping[str, Any]] = None

    def summary_row(self) -> Dict[str, Any]:
        """Flat record: labels, delay mean/CI, replication count, bounds."""
        statistics = self.ensemble.delay
        row: Dict[str, Any] = dict(self.labels)
        row["mean_delay"] = statistics.mean
        row["delay_half_width"] = statistics.half_width
        row["confidence"] = statistics.confidence
        row["replications"] = statistics.n
        if self.bounds is not None:
            row.update(self.bounds)
        return row


@dataclass(frozen=True)
class GridResult:
    """All grid points of one sweep, in grid (row-major) order."""

    config: GridConfig
    points: Tuple[GridPoint, ...]
    wall_seconds: float = float("nan")

    @property
    def total_replications(self) -> int:
        return sum(point.ensemble.replications for point in self.points)

    def records(self) -> List[Dict[str, Any]]:
        """One flat summary record per grid point (for CSV/JSONL export)."""
        return [point.summary_row() for point in self.points]

    def as_table(self) -> str:
        records = self.records()
        if not records:
            return "(empty grid)"
        headers = list(records[0].keys())
        # Bound columns may exist only for the tractable points; keep the
        # header union in first-seen order and dash out the gaps.
        for record in records[1:]:
            headers.extend(key for key in record if key not in headers)
        rows = [[record.get(h, "-") for h in headers] for record in records]
        title = (
            f"ensemble grid: {len(self.points)} points x "
            f"{self.config.replications} replications ({self.config.policy})"
        )
        return format_table(headers, rows, title=title)


def point_digest(labels: Mapping[str, Any]) -> str:
    """Content address of one grid point: a digest of its *labels*.

    The digest identifies a point by what it **is** (its ``N``, ``d``, load,
    workload, scenario), never by its position in the cartesian product —
    extending a swept axis later leaves every existing point's identity, and
    therefore its seeds and its stored records, untouched.
    """
    payload = json.dumps(dict(labels), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def point_seed(grid_seed: Optional[int], labels: Mapping[str, Any]) -> Optional[int]:
    """Stable per-point seed: a digest of the grid seed and the point labels.

    Content addressing (instead of the point's position in the cartesian
    product) is what keeps existing points bitwise stable when a swept axis
    gains new values.  ``grid_seed=None`` stays non-reproducible.
    """
    if grid_seed is None:
        return None
    digest = hashlib.sha256(json.dumps(dict(labels), sort_keys=True).encode()).digest()
    entropy = (int(grid_seed), int.from_bytes(digest[:8], "big"))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])



@dataclass(frozen=True)
class PointTask:
    """One ``(grid point, replication)`` work unit — the campaign task atom.

    ``task_id`` is ``"<point key>:<replication index>"``: fully content-
    addressed, so a durable work queue only ever needs to journal the id —
    the spec and seed are regenerated deterministically from the point's
    ensemble configuration by :func:`point_tasks` on every (re)start.
    """

    task_id: str
    backend: str
    spec: ExperimentSpec
    seed: Optional[int]
    replication: int

    def runner_task(self) -> Tuple[str, ExperimentSpec, Optional[int], int]:
        """The tuple shape :func:`~repro.ensemble.runner._execute_replication` takes."""
        return (self.backend, self.spec, self.seed, self.replication)


def task_id_for(digest: str, replication: int) -> str:
    """Canonical task id of replication ``replication`` of point ``digest``."""
    return f"{digest}:{replication}"


def point_tasks(
    key: str,
    config: EnsembleConfig,
    count: Optional[int] = None,
    start: int = 0,
) -> List[PointTask]:
    """Expand one point into content-addressed replication tasks.

    Parameters
    ----------
    key : str
        The point's label digest (:func:`point_digest`) in a campaign, its
        position in an in-memory session.
    config : EnsembleConfig
        The point's ensemble: backend, spec and ensemble seed.
    count : int, optional
        Number of replication tasks (default: ``config.replications``).
    start : int, optional
        First replication index — task ``start + i`` always receives the
        ``start + i``-th child seed of the ensemble seed, so a campaign that
        adaptively extends a point later (or resumes after a crash) hands
        out exactly the seeds an uninterrupted run would have.
    """
    if count is None:
        count = config.replications
    return [
        PointTask(
            task_id=task_id_for(key, start + offset),
            backend=config.backend,
            spec=config.spec,
            seed=child,
            replication=start + offset,
        )
        for offset, child in enumerate(spawn_seeds(config.seed, count, start=start))
    ]


def _point_bounds(config: GridConfig, labels: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """QBD bracket for one stationary grid point, or ``None`` if intractable.

    Solves go through the spec-keyed solver cache, so a sweep touching the
    same ``(system, policy)`` at several points (or run twice) solves each
    distinct configuration exactly once.
    """
    import math as _math

    from repro.api.engines import MAX_QBD_BLOCK

    if config.policy != "sqd" or "utilization" not in labels:
        return None
    if labels.get("workload", "poisson") != "poisson":
        # The QBD bracket is a Poisson + exponential result; annotating a
        # fitted/bursty workload with it would silently compare apples to
        # oranges (the Poisson bracket stays available as an explicit
        # baseline point on the workload axis).
        return None
    n, d = int(labels["N"]), int(labels["d"])
    block = _math.comb(n + config.threshold - 1, config.threshold)
    if block > MAX_QBD_BLOCK:
        return None
    from repro.core.analysis import analyze_sqd

    analysis = analyze_sqd(
        num_servers=n,
        d=d,
        utilization=float(labels["utilization"]),
        threshold=config.threshold,
    )
    return {"lower_bound": analysis.lower_delay, "upper_bound": analysis.upper_delay}


def run_grid(config: GridConfig) -> GridResult:
    """Run the whole sweep grid as one session over one shared worker pool.

    Returns
    -------
    GridResult
        Per-point ensembles in grid order.  As with single ensembles, the
        result is bitwise independent of ``workers``.
    """
    started = time.perf_counter()
    ensembles = config.ensembles()
    results = run_ensembles([ensemble for _, ensemble in ensembles])
    grid_points = [
        GridPoint(
            labels=dict(labels),
            ensemble=result,
            bounds=_point_bounds(config, labels) if config.bounds else None,
        )
        for (labels, _), result in zip(ensembles, results)
    ]
    return GridResult(
        config=config,
        points=tuple(grid_points),
        wall_seconds=time.perf_counter() - started,
    )
