"""Campaign scheduler: the package's one executor of replicated work.

A session runs a list of points (one ensemble each) as content-addressed
``(point, replication)`` tasks, through one task path
(:func:`repro.campaigns.worker.execute_task`), one worker pool that retries
a task whose worker died, and a per-point Student-t stopping rule that
spends replications where confidence intervals are widest.  *In-memory*
sessions (:func:`run_in_memory`, behind every replicated ``repro.run``,
``run_ensemble`` and ``run_grid``) write nothing and keep each point's
records for its result.  *Durable* sessions (:func:`run_campaign`,
:func:`resume_campaign`) turn a :class:`~repro.ensemble.grid.GridConfig`
into a campaign directory, the single source of truth::

    <directory>/
        manifest.json      grid config + digest, adaptive policy, provenance
        journal.jsonl      append-only task-state transitions (the queue)
        records.jsonl      append-only replication records (the results)
        quarantined.jsonl  poison-task details (only written when degraded)

Two properties only the directory offers:

* **Durability / resumability.**  Every state transition and every record is
  appended (and flushed) before it is acted on, so a campaign killed at any
  instant — including SIGKILL mid-append — resumes from what is on disk:
  done tasks are skipped, stale leases released, a torn trailing line
  repaired, and the re-run of an in-flight task regenerates the *identical*
  record from its content-addressed seed.  The final per-point estimates of
  an interrupted-and-resumed campaign are bitwise identical to an
  uninterrupted run.

* **O(points) memory.**  Records are folded through constant-memory
  streaming accumulators (:mod:`repro.campaigns.accumulators`) the moment
  they arrive and never kept, so the reachable campaign size is bounded by
  disk, not RAM.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.serialize import jsonl_line
from repro.api.spec import SpecError
from repro.campaigns.accumulators import PointAccumulator
from repro.campaigns.manifest import CampaignManifest, grid_digest, grid_to_dict
from repro.campaigns.queue import TaskQueue
from repro.campaigns.worker import MSG_BYE, MSG_CLAIM, MSG_DONE, MSG_FAILED, execute_task, worker_loop
from repro.faults import maybe_fire
from repro.ensemble.grid import GridConfig, PointTask, point_digest, point_tasks, task_id_for
from repro.ensemble.results import ResultStore, provenance, repair_jsonl
from repro.ensemble.runner import DEFAULT_BATCH_SIZE, EnsembleConfig
from repro.utils.tables import format_table
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "CampaignError",
    "CampaignPoint",
    "CampaignResult",
    "CampaignStatus",
    "campaign_fingerprint",
    "campaign_status",
    "resume_campaign",
    "run_campaign",
    "run_in_memory",
]

JOURNAL_FILENAME = "journal.jsonl"
RECORDS_FILENAME = "records.jsonl"
QUARANTINE_FILENAME = "quarantined.jsonl"

#: Tasks kept in flight per worker: one executing, one queued behind it so a
#: worker never idles waiting for the scheduler's next lease round-trip.
PREFETCH = 2

#: The scheduler gives up after this many worker deaths per started worker —
#: a crash *loop* is a bug, not an operational hiccup.
MAX_RESPAWNS_PER_WORKER = 3

#: Worker deaths that make a task poison (in-memory sessions always use it).
QUARANTINE_AFTER = 3


class CampaignError(RuntimeError):
    """Unrecoverable campaign failure (crash loops, directory mismatch)."""


@dataclass(frozen=True)
class CampaignPoint:
    """Final streamed summary of one grid point (no per-record state)."""

    labels: Mapping[str, Any]
    digest: str
    replications: int
    converged: bool
    metrics: Mapping[str, Mapping[str, Any]]

    def summary_row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = dict(self.labels)
        delay = self.metrics.get("mean_delay", {})
        row["mean_delay"] = delay.get("mean", float("nan"))
        row["delay_half_width"] = delay.get("half_width", float("nan"))
        row["replications"] = self.replications
        row["converged"] = self.converged
        return row


@dataclass(frozen=True)
class CampaignResult:
    """Per-point streamed summaries of one campaign run (or partial run)."""

    directory: Path
    grid_digest: str
    points: Tuple[CampaignPoint, ...]
    complete: bool
    executed_tasks: int
    wall_seconds: float = float("nan")
    quarantined: Tuple[str, ...] = ()

    @property
    def status(self) -> str:
        """``"complete"``, ``"degraded"`` (finished, but poison tasks were
        quarantined) or ``"interrupted"`` (resume to finish)."""
        if not self.complete:
            return "interrupted"
        return "degraded" if self.quarantined else "complete"

    @property
    def total_replications(self) -> int:
        return sum(point.replications for point in self.points)

    def records(self) -> List[Dict[str, Any]]:
        """One flat summary record per grid point (CSV/JSONL-friendly)."""
        return [point.summary_row() for point in self.points]

    def as_table(self) -> str:
        rows = self.records()
        if not rows:
            return "(empty campaign)"
        headers = list(rows[0].keys())
        status = {
            "complete": "complete",
            "degraded": f"DEGRADED ({len(self.quarantined)} tasks quarantined)",
            "interrupted": "INTERRUPTED (resume to finish)",
        }[self.status]
        title = (
            f"campaign {self.grid_digest} — {len(self.points)} points, "
            f"{self.total_replications} replications, {status}"
        )
        return format_table(headers, [[row.get(h, "-") for h in headers] for row in rows], title=title)


@dataclass(frozen=True)
class CampaignStatus:
    """Read-only snapshot of a campaign directory."""

    directory: Path
    grid_digest: str
    counts: Mapping[str, int]
    points: Tuple[CampaignPoint, ...]
    complete: bool
    quarantined: Tuple[str, ...] = ()

    @property
    def status(self) -> str:
        """``"complete"``, ``"degraded"`` or ``"resumable"``."""
        if not self.complete:
            return "resumable"
        return "degraded" if self.quarantined else "complete"

    def as_table(self) -> str:
        rows = [point.summary_row() for point in self.points]
        headers = list(rows[0].keys()) if rows else []
        counts = self.counts
        quarantined = (
            f", {counts['quarantined']} quarantined" if counts.get("quarantined") else ""
        )
        title = (
            f"campaign {self.grid_digest} at {self.directory}: "
            f"{counts['done']}/{counts['total']} tasks done, "
            f"{counts['pending']} pending, {counts['leased']} leased"
            f"{quarantined} — {self.status}"
        )
        return format_table(headers, [[row.get(h, "-") for h in headers] for row in rows], title=title)


# --------------------------------------------------------------------- #
# Internal per-point scheduler state: O(points) in a durable session, never
# O(jobs); an in-memory session also keeps each point's records.
# --------------------------------------------------------------------- #
class _PointState:
    __slots__ = (
        "key",
        "config",
        "labels",
        "allocated",
        "abandoned",
        "accumulator",
        "retired",
        "converged",
        "records",
    )

    def __init__(self, key: str, config: EnsembleConfig, labels: Mapping[str, Any]):
        self.key = key  # label digest (durable) or position (in memory)
        self.config = config
        self.labels = labels
        self.allocated = 0
        self.abandoned = 0  # quarantined replications: allocated, never recorded
        self.accumulator = PointAccumulator(confidence=config.confidence)
        self.retired = False
        self.converged = False
        self.records: Dict[int, Dict[str, Any]] = {}  # kept by in-memory sessions only

    def summary(self, converged: bool) -> CampaignPoint:
        return CampaignPoint(
            labels=dict(self.labels),
            digest=self.key,
            replications=self.accumulator.count,
            converged=converged,
            metrics=self.accumulator.summary(),
        )


def _campaign_points(manifest: CampaignManifest, workers: Optional[int] = None) -> List[_PointState]:
    """A campaign's points: each grid point an ensemble under the manifest's
    replication policy, keyed by its label digest."""
    ensembles = manifest.grid_config(workers=workers).ensembles(
        target_relative_half_width=manifest.target_relative_half_width,
        max_replications=manifest.max_replications,
        batch_size=manifest.batch_size,
    )
    return [_PointState(point_digest(labels), config, labels) for labels, config in ensembles]


def _replay(
    points: List[_PointState],
    task_queue: TaskQueue,
    store: Optional[ResultStore],
    accepted: Optional[Callable[[Mapping[str, Any]], None]] = None,
) -> Dict[str, _PointState]:
    """Per-point state of a session, in point order.

    The one reader of a campaign's journal and records, shared by a
    scheduling session, :func:`campaign_status` and
    :func:`campaign_fingerprint` (an in-memory session has neither, so
    nothing is replayed).  ``accepted`` is called with every record the
    fold takes as new (first copy of each replication).
    """
    states: Dict[str, _PointState] = {}
    for state in points:
        if state.key in states:
            raise CampaignError(f"duplicate grid point digest {state.key}")
        states[state.key] = state
    # Allocation counts: tasks are enqueued with contiguous replication
    # indices, so allocation = highest known index + 1 per point.
    for task_id in task_queue.known_ids():
        key, _, replication = task_id.rpartition(":")
        state = states.get(key)
        if state is None:
            raise CampaignError(
                f"journal task {task_id!r} does not belong to this grid — "
                "the directory holds a different campaign"
            )
        state.allocated = max(state.allocated, int(replication) + 1)
    # Records may be out of order (many workers) or duplicated (completion
    # marker lost in a crash); the ordered accumulator handles both.
    for record in store.stream() if store is not None else ():
        state = states.get(record.get("point", ""))
        if state is None:
            continue
        if state.accumulator.add(record["replication"], record) and accepted is not None:
            accepted(record)
    # Quarantined tasks were allocated but will never produce a record:
    # skip their fold slots so the ordered accumulator can advance past
    # the permanent holes, and count them as abandoned per point.
    for task_id in task_queue.quarantined_ids():
        key, _, replication = task_id.rpartition(":")
        state = states[key]
        state.accumulator.skip(int(replication))
        state.abandoned += 1
    return states


class _Campaign:
    """One scheduling session over a list of points, on one pool sized to the
    largest ``config.workers``.  Durable with a ``directory`` (and its
    ``manifest``); in memory otherwise, where each point keeps its records.
    """

    def __init__(
        self,
        points: List[_PointState],
        manifest: Optional[CampaignManifest] = None,
        directory: Optional[Path] = None,
    ):
        self.manifest = manifest
        self.directory = directory
        self.workers = max((state.config.workers for state in points), default=1)
        if directory is None:
            self.store = None
            self.queue = TaskQueue(None)
            self.quarantine_after = QUARANTINE_AFTER
            self.task_timeout = None
        else:
            self.store = ResultStore(directory / RECORDS_FILENAME)
            repair_jsonl(self.store.path)
            self.queue = TaskQueue(directory / JOURNAL_FILENAME, reclaim_stale=True)
            self.quarantine_after = manifest.quarantine_after
            self.task_timeout = manifest.task_timeout_seconds
        self.executed = 0
        self.states = _replay(points, self.queue, self.store)
        # Seed (or idempotently re-seed) the initial batch everywhere.
        for state in self.states.values():
            initial = state.config.replications
            self.queue.enqueue(task_id_for(state.key, index) for index in range(initial))
            state.allocated = max(state.allocated, initial)
        # Re-run the allocation decisions that completed records imply.  This
        # recovers a crash that landed after the last record of a batch but
        # before the extension was enqueued — and, because decisions are a
        # deterministic function of the (deterministic) record values, it
        # always reproduces exactly the decisions the uninterrupted run took.
        for state in self.states.values():
            self._decide(state)

    # -------------------------------------------------------------- #
    # Task plumbing
    # -------------------------------------------------------------- #
    def _task_for(self, task_id: str) -> PointTask:
        key, _, replication = task_id.rpartition(":")
        state = self.states[key]
        return point_tasks(state.key, state.config, count=1, start=int(replication))[0]

    def _shared_line(self, state: _PointState) -> Dict[str, Any]:
        config = state.config
        return {
            "spec": config.spec.to_dict(),
            "backend": config.backend,
            "campaign": self.manifest.grid_digest,
            "point": state.key,
            "labels": dict(state.labels),
            "ensemble_seed": config.seed,
            "confidence": config.confidence,
        }

    def _handle_done(self, task_id: str, record: Dict[str, Any]) -> None:
        key, _, _ = task_id.rpartition(":")
        state = self.states[key]
        if self.store is not None:
            # Record first, completion marker second: a crash between the
            # two merely re-runs the task into a duplicate record with
            # identical simulation content, which the ordered fold ignores.
            line = self._shared_line(state)
            line.update(record)
            self.store.extend([line])
        self.queue.complete(task_id)
        # In memory the point's result needs its records: keep the first
        # copy of each replication, as the fold does.
        fresh = state.accumulator.add(record["replication"], record)
        if fresh and self.store is None:
            state.records[record["replication"]] = record
        self.executed += 1
        self._decide(state)

    def _decide(self, state: _PointState) -> None:
        """Retire a point or enqueue its next replication batch.

        Called whenever the point *might* have all allocated records folded.
        A deterministic function of the folded record values alone — never
        of scheduling order, worker count, or interruption history.
        """
        if state.retired or state.accumulator.count + state.abandoned < state.allocated:
            return
        config = state.config
        target = config.target_relative_half_width
        if target is None:
            state.retired = True
            state.converged = state.abandoned == 0
            return
        if state.abandoned:
            # A poisoned point cannot honestly chase its precision target:
            # retire it unconverged rather than spend replications papering
            # over a hole in the sample.
            state.retired = True
            state.converged = False
            return
        if state.accumulator.precision_reached(target):
            state.retired = True
            state.converged = True
            return
        if state.allocated >= config.max_replications:
            state.retired = True
            state.converged = False
            return
        count = min(config.batch_size, config.max_replications - state.allocated)
        self.queue.enqueue(
            task_id_for(state.key, state.allocated + index) for index in range(count)
        )
        state.allocated += count

    def _quarantine(self, task_id: str, deaths: int, reason: str) -> None:
        """Retire a poison task: journal it, detail it, unblock its point.

        The detail line in ``quarantined.jsonl`` is diagnostic (it carries a
        wall-clock timestamp and the death count), never part of the
        campaign's deterministic content.  An in-memory session raises
        :class:`CampaignError` instead: an ensemble result has no degraded
        status to carry the hole.
        """
        key, _, replication = task_id.rpartition(":")
        state = self.states[key]
        if self.directory is None:
            raise CampaignError(
                f"task {task_id} (replication {replication} of {state.config.backend} "
                f"{state.config.spec.describe()}) {reason} {deaths} times; giving up"
            )
        self.queue.quarantine(task_id)
        detail = {
            "task": task_id,
            "point": key,
            "replication": int(replication),
            "deaths": deaths,
            "reason": reason,
            "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        path = self.directory / QUARANTINE_FILENAME
        with path.open("a", encoding="utf-8") as handle:
            handle.write(jsonl_line(detail) + "\n")
            handle.flush()
        state.accumulator.skip(int(replication))
        state.abandoned += 1
        self._decide(state)

    @property
    def finished(self) -> bool:
        return self.queue.outstanding == 0 and all(
            state.retired for state in self.states.values()
        )

    # -------------------------------------------------------------- #
    # Drivers
    # -------------------------------------------------------------- #
    def drive(self, max_tasks: Optional[int] = None) -> None:
        try:
            if self.workers <= 1:
                self._drive_inline(max_tasks)
            else:
                self._drive_pool(max_tasks)
        except KeyboardInterrupt:
            # Ctrl-C is an operator interruption, not a failure, and the
            # teardown path has retired the workers: a durable campaign is
            # resumable from disk, an in-memory one has nothing to resume.
            if self.directory is None:
                raise

    def _drive_inline(self, max_tasks: Optional[int]) -> None:
        while not self.finished:
            if max_tasks is not None and self.executed >= max_tasks:
                return
            task_id = self.queue.lease("inline")
            if task_id is None:
                raise CampaignError(
                    "campaign wedged: nothing runnable but points not retired"
                )
            self._handle_done(task_id, execute_task(self._task_for(task_id)))

    def _drive_pool(self, max_tasks: Optional[int]) -> None:
        context = multiprocessing.get_context()
        outbox = context.Queue()
        inboxes: Dict[str, Any] = {}
        processes: Dict[str, Any] = {}
        in_flight: Dict[str, set] = {}
        # Liveness and blame bookkeeping (all per scheduling session):
        last_progress: Dict[str, float] = {}  # last spawn/claim/done, per worker
        claimed: Dict[str, Optional[str]] = {}  # task last claimed, per worker
        attempts: Dict[str, int] = {}  # dispatch count per task (fault keys)
        deaths: Dict[str, int] = {}  # workers killed, per blamed task
        departed: set = set()  # workers that said bye (graceful, not a crash)
        next_worker = 0
        respawns = 0

        def spawn() -> str:
            nonlocal next_worker
            worker_id = f"w{next_worker}"
            next_worker += 1
            inbox = context.Queue()
            process = context.Process(
                target=worker_loop, args=(worker_id, inbox, outbox), daemon=True
            )
            process.start()
            inboxes[worker_id] = inbox
            processes[worker_id] = process
            in_flight[worker_id] = set()
            last_progress[worker_id] = time.time()
            claimed[worker_id] = None
            return worker_id

        def feed(worker_id: str) -> None:
            while len(in_flight[worker_id]) < PREFETCH:
                task_id = self.queue.lease(worker_id)
                if task_id is None:
                    return
                in_flight[worker_id].add(task_id)
                attempt = attempts.get(task_id, 0)
                attempts[task_id] = attempt + 1
                inboxes[worker_id].put((self._task_for(task_id), attempt))

        def reap(worker_id: str) -> None:
            """Retire one dead/departed worker: blame, quarantine, respawn."""
            nonlocal respawns
            graceful = worker_id in departed
            blamed = claimed.pop(worker_id, None)
            quarantined_now = False
            if not graceful:
                held = self.queue.leased_by(worker_id)
                if blamed is None and len(held) == 1:
                    # Died before its claim message got out; with a single
                    # lease the culprit is unambiguous anyway.
                    blamed = held[0]
                if blamed is not None and not self.queue.is_done(blamed):
                    deaths[blamed] = deaths.get(blamed, 0) + 1
                    if deaths[blamed] >= self.quarantine_after:
                        self._quarantine(
                            blamed, deaths[blamed], reason="killed its worker"
                        )
                        quarantined_now = True
            for task_id in self.queue.leased_by(worker_id):
                self.queue.release(task_id)
            del processes[worker_id], inboxes[worker_id], in_flight[worker_id]
            last_progress.pop(worker_id, None)
            departed.discard(worker_id)
            if not self.finished:
                # A graceful exit is not a crash, and a quarantine just
                # *removed* the crash cause — neither feeds the crash-loop
                # cap, which exists to catch unexplained repeated deaths.
                if not (graceful or quarantined_now):
                    respawns += 1
                    if respawns > MAX_RESPAWNS_PER_WORKER * self.workers:
                        raise CampaignError(
                            f"giving up after {respawns} worker deaths — "
                            "workers are crash-looping"
                        )
                spawn()

        timeout = self.task_timeout
        for _ in range(self.workers):
            spawn()
        try:
            while not self.finished:
                if max_tasks is not None and self.executed >= max_tasks:
                    return
                for worker_id in list(processes):
                    feed(worker_id)
                try:
                    message = outbox.get(timeout=0.2)
                except queue_module.Empty:
                    message = None
                if message is not None:
                    kind = message[0]
                    if kind == MSG_CLAIM:
                        _, worker_id, task_id = message
                        claimed[worker_id] = task_id
                        # The claim is the worker's heartbeat: it restarts
                        # the watchdog clock.  A chaos plan can drop it; the
                        # clock then runs from the worker's last spawn or
                        # completion, which must never change the results.
                        if not maybe_fire("scheduler.heartbeat", key=worker_id):
                            last_progress[worker_id] = time.time()
                    elif kind == MSG_DONE:
                        _, worker_id, task_id, record = message
                        last_progress[worker_id] = time.time()
                        if claimed.get(worker_id) == task_id:
                            claimed[worker_id] = None
                        in_flight.get(worker_id, set()).discard(task_id)
                        self._handle_done(task_id, record)
                        if worker_id in processes:
                            feed(worker_id)
                    elif kind == MSG_FAILED:
                        # The task raised: re-raise it, as the inline driver
                        # does.  It stays leased, so a durable campaign's
                        # resume re-runs it once the cause is fixed.
                        raise message[3]
                    elif kind == MSG_BYE:
                        _, worker_id = message
                        departed.add(worker_id)
                # Watchdog: a worker holding tasks but silent past the
                # per-task wall-clock budget is presumed hung.  Kill it —
                # the reaper below blames its claimed task and re-leases.
                if timeout is not None:
                    now = time.time()
                    for worker_id, process in list(processes.items()):
                        if not process.is_alive() or worker_id in departed:
                            continue
                        if in_flight[worker_id] and now - last_progress[worker_id] > timeout:
                            process.kill()
                            process.join(timeout=5.0)
                # Liveness: reclaim from the dead and departed, respawn.
                for worker_id, process in list(processes.items()):
                    if process.is_alive() and worker_id not in departed:
                        continue
                    if process.is_alive():
                        # Said bye but still winding down; let it finish.
                        process.join(timeout=5.0)
                        if process.is_alive():  # pragma: no cover - wedged exit
                            process.terminate()
                            process.join(timeout=1.0)
                    reap(worker_id)
        finally:
            for worker_id, inbox in inboxes.items():
                try:
                    inbox.put(None)
                except (OSError, ValueError):  # pragma: no cover - teardown race
                    pass
            deadline = time.time() + 5.0
            for process in processes.values():
                process.join(timeout=max(0.1, deadline - time.time()))
                if process.is_alive():
                    process.terminate()
            outbox.close()

    # -------------------------------------------------------------- #
    # Results
    # -------------------------------------------------------------- #
    def result(self, wall_seconds: float) -> CampaignResult:
        return CampaignResult(
            directory=self.directory,
            grid_digest=self.manifest.grid_digest,
            points=tuple(state.summary(state.converged) for state in self.states.values()),
            complete=self.finished,
            executed_tasks=self.executed,
            wall_seconds=wall_seconds,
            quarantined=tuple(sorted(self.queue.quarantined_ids())),
        )

    def close(self) -> None:
        self.queue.close()


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #
def run_campaign(
    grid: GridConfig,
    directory: Union[str, Path],
    target_relative_half_width: Optional[float] = None,
    max_replications: int = 64,
    batch_size: int = DEFAULT_BATCH_SIZE,
    task_timeout_seconds: Optional[float] = None,
    quarantine_after: int = QUARANTINE_AFTER,
    max_tasks: Optional[int] = None,
) -> CampaignResult:
    """Create a campaign directory and drive it (to completion by default).

    Parameters
    ----------
    grid : GridConfig
        The swept experiment axes.  ``grid.replications`` is the *initial*
        batch per point; ``grid.workers`` the worker process count.
        Campaign points carry no QBD bracket, so ``grid.bounds`` must be
        off (:func:`repro.ensemble.grid.run_grid` computes the bracket).
    directory : str or Path
        Campaign home (manifest, journal, records).  Created on first run;
        must not already hold a different campaign.
    target_relative_half_width : float or None
        Per-point relative-precision target.  ``None`` runs exactly the
        initial batch everywhere (a durable, resumable plain grid).
    max_replications : int
        Per-point replication cap for the adaptive mode.
    batch_size : int
        Replications enqueued per adaptive extension round.
    task_timeout_seconds : float or None
        Per-task wall-clock watchdog of the worker pool.  A worker that
        makes no progress (no claim, no completion) for longer than this
        while holding tasks is presumed hung, killed, and its leases
        re-queued; the task it was chewing on is blamed for the death.
        ``None`` (the default) disables the watchdog — simulations may
        legitimately run long.
    quarantine_after : int
        A task whose execution kills its worker this many times is poison:
        it is quarantined (removed from circulation, recorded in
        ``quarantined.jsonl``) and the campaign completes ``degraded``
        instead of crash-looping into :class:`CampaignError`.
    max_tasks : int, optional
        Stop (gracefully, durably) after this many task completions — the
        deterministic way to interrupt a campaign in tests, examples and CI;
        finish it later with :func:`resume_campaign`.

    Returns
    -------
    CampaignResult
        Streamed per-point summaries; ``complete`` is ``False`` when
        interrupted, and ``status`` is ``"degraded"`` when poison tasks had
        to be quarantined.
    """
    if task_timeout_seconds is not None:
        check_positive("task_timeout_seconds", task_timeout_seconds)
    check_integer("quarantine_after", quarantine_after, minimum=1)
    if grid.bounds:
        raise SpecError(
            "campaigns do not compute the QBD bound bracket; use "
            "run_grid(GridConfig(..., bounds=True)) for it"
        )
    directory = Path(directory)
    manifest = CampaignManifest(
        grid=grid_to_dict(grid),
        grid_digest=grid_digest(grid),
        target_relative_half_width=target_relative_half_width,
        max_replications=max_replications,
        batch_size=batch_size,
        task_timeout_seconds=task_timeout_seconds,
        quarantine_after=quarantine_after,
        provenance=provenance(),
    )
    # Every point must be a valid ensemble under the replication policy
    # (EnsembleConfig checks it) before anything is written.
    _campaign_points(manifest)
    existing = directory / "manifest.json"
    if existing.exists():
        stored = CampaignManifest.load(directory)
        if stored.grid_digest != manifest.grid_digest:
            raise CampaignError(
                f"{directory} already holds campaign {stored.grid_digest}, "
                f"which differs from the requested grid ({manifest.grid_digest}); "
                "use a fresh directory or resume_campaign() the existing one"
            )
        manifest = stored  # the stored policy wins: the campaign is durable
    else:
        manifest.write(directory)
    return _drive_session(manifest, directory, workers=None, max_tasks=max_tasks)


def resume_campaign(
    directory: Union[str, Path],
    workers: Optional[int] = None,
    max_tasks: Optional[int] = None,
) -> CampaignResult:
    """Resume an interrupted campaign from its directory.

    Skips done tasks, releases stale leases, repairs torn trailing lines,
    re-runs any task whose completion was lost, and continues the adaptive
    allocation exactly where the records on disk imply it stood.  Resuming a
    *finished* campaign is a cheap no-op that just recomputes the summaries.
    """
    directory = Path(directory)
    manifest = CampaignManifest.load(directory)
    return _drive_session(manifest, directory, workers=workers, max_tasks=max_tasks)


def _drive_session(
    manifest: CampaignManifest,
    directory: Path,
    workers: Optional[int],
    max_tasks: Optional[int],
) -> CampaignResult:
    started = time.perf_counter()
    session = _Campaign(_campaign_points(manifest, workers), manifest=manifest, directory=directory)
    try:
        session.drive(max_tasks=max_tasks)
        return session.result(time.perf_counter() - started)
    finally:
        session.close()


def run_in_memory(configs: List[EnsembleConfig]) -> List[Tuple[Dict[str, Any], ...]]:
    """Each ensemble's records, in replication order, from one in-memory
    session over one pool of ``max(config.workers)`` processes.

    A task that raises re-raises here, and one that kills its worker
    :data:`QUARANTINE_AFTER` times raises :class:`CampaignError`.
    """
    session = _Campaign([_PointState(str(index), config, {}) for index, config in enumerate(configs)])
    session.drive()
    return [
        tuple(state.records[replication] for replication in sorted(state.records))
        for state in session.states.values()
    ]


def campaign_status(directory: Union[str, Path]) -> CampaignStatus:
    """Read-only snapshot: task counts plus per-point progress.

    Never writes to the directory, so it is safe to point at a campaign
    another process is driving (the snapshot is then merely a little stale).
    """
    directory = Path(directory)
    manifest = CampaignManifest.load(directory)
    task_queue = TaskQueue(
        directory / JOURNAL_FILENAME, reclaim_stale=False, read_only=True
    )
    states = _replay(
        _campaign_points(manifest), task_queue, ResultStore(directory / RECORDS_FILENAME)
    )
    target = manifest.target_relative_half_width
    points = []
    for state in states.values():
        done = state.accumulator.count + state.abandoned >= state.allocated
        converged = (
            done
            and state.abandoned == 0
            and (target is None or state.accumulator.precision_reached(target))
        )
        points.append(state.summary(converged))
    counts = task_queue.counts()
    return CampaignStatus(
        directory=directory,
        grid_digest=manifest.grid_digest,
        counts=counts,
        points=tuple(points),
        complete=(
            counts["total"] > 0
            and counts["done"] + counts["quarantined"] == counts["total"]
        ),
        quarantined=tuple(sorted(task_queue.quarantined_ids())),
    )


def campaign_fingerprint(directory: Union[str, Path]) -> Dict[str, Any]:
    """Canonical, comparison-safe digest of a campaign's *deterministic* content.

    Two campaigns of the same grid — one uninterrupted, one SIGKILLed and
    resumed, regardless of worker counts — must produce equal fingerprints:
    per-point streamed estimates plus every de-duplicated simulation record
    with wall-clock noise stripped.  Non-finite floats are stringified
    (``"nan"`` never compares equal to itself as a float), so plain ``==``
    works.
    """
    from repro.api.serialize import jsonable
    from repro.ensemble.runner import EnsembleResult

    directory = Path(directory)
    manifest = CampaignManifest.load(directory)
    task_queue = TaskQueue(
        directory / JOURNAL_FILENAME, reclaim_stale=False, read_only=True
    )
    noise = set(EnsembleResult.TIMING_KEYS) | {"provenance"}
    records: List[Tuple[str, int, str]] = []

    def keep(record: Mapping[str, Any]) -> None:
        core = {key: value for key, value in record.items() if key not in noise}
        records.append(
            (record["point"], int(record["replication"]), json.dumps(jsonable(core), sort_keys=True))
        )

    states = _replay(
        _campaign_points(manifest),
        task_queue,
        ResultStore(directory / RECORDS_FILENAME),
        accepted=keep,
    )
    records.sort()
    return {
        "grid": manifest.grid_digest,
        "points": {
            state.key: jsonable(
                {
                    "labels": dict(state.labels),
                    "replications": state.accumulator.count,
                    "metrics": state.accumulator.summary(),
                }
            )
            for state in states.values()
        },
        "records": [line for _, _, line in records],
    }
