"""Campaign task execution: one replication task, inline or in a worker.

:func:`execute_task` runs one ``(point, replication)`` task through the
registered backend (exactly the code path :mod:`repro.ensemble.runner` uses,
so a campaign record is bitwise identical to an ensemble record of the same
seed).  At ``workers=1`` the scheduler calls it inline, in its own
process; with more workers it runs in worker processes, each running
:func:`worker_loop`: pull ``(PointTask, attempt)`` items from the inbox,
report ``claim`` / ``done`` messages on the shared outbox.  The ``claim``
message is the worker's heartbeat: it restarts the scheduler's watchdog
clock.

Workers receive only picklable plain data (frozen specs, integer seeds) and
never open the journal or the record store — all durable writes go through
the scheduler process, which keeps the on-disk state single-writer and
crash-consistent.

**Graceful shutdown.**  SIGTERM and SIGINT set a stop flag instead of
killing the process mid-task: the replication in flight runs to completion
and is reported, then the worker says ``bye`` and exits cleanly.  The
scheduler releases any leases a departed worker still held, so a Ctrl-C'd
campaign resumes without losing (or double-counting) work.

**Fault injection.**  Three hook sites bracket the task lifecycle —
``worker.claim`` (pool workers only: after dequeue, before the claim
message), ``worker.task`` (in :func:`execute_task`, before the record's
clock starts) and ``worker.done`` (in :func:`execute_task`, after the record
is built).  The last two fire inline too, so a ``crash`` there in an
inline campaign kills the scheduler process itself.  Hook keys are
attempt-stamped (``"<task_id>#<attempt>"``), so a chaos plan can kill the
first attempt of a task deterministically while letting its retry through —
fault budgets (``times=``) live in per-process memory and do not survive
the respawn.

**Backend degradation.**  :func:`execute_task` walks the same fallback
chain as :func:`repro.api.runner.run`: a typed runtime failure (never a
``SpecError``) degrades to the next capable estimator backend, and the
record carries ``degraded_from`` so the ensemble JSONL preserves what
actually ran.
"""

from __future__ import annotations

import queue as queue_module
import signal
import time
from typing import Any, Dict

from repro.ensemble.grid import PointTask
from repro.faults import installed_from_env, maybe_fire

__all__ = ["execute_task", "worker_loop"]

#: Outbox message kinds (tuples keep the queue payloads picklable and tiny).
MSG_CLAIM = "claim"
MSG_DONE = "done"
MSG_BYE = "bye"


def execute_task(task: PointTask, attempt: int = 0) -> Dict[str, Any]:
    """Run one replication task; returns the plain replication record.

    Identical record shape to
    :func:`repro.ensemble.runner._execute_replication` — replication index,
    derived seed, every scalar metric, wall seconds — plus the task's content
    address, so the record can be routed back to its grid point by readers
    that only see the JSONL store.

    When the task's backend raises a recoverable runtime failure (the QBD
    bound model turning unstable, a linear solve breaking down) the task
    degrades along :func:`repro.api.backends.fallback_chain`; the record
    then carries the backend that actually produced it plus a
    ``degraded_from`` trail.

    ``attempt`` counts earlier dispatches of the task in this scheduling
    session; it only stamps the ``worker.task`` / ``worker.done`` hook keys.
    """
    from repro.api.backends import fallback_chain, get_backend, recoverable_backend_errors

    fault_key = f"{task.task_id}#{attempt}"
    maybe_fire("worker.task", key=fault_key)
    started = time.perf_counter()
    engine = get_backend(task.backend)
    recoverable = recoverable_backend_errors()
    degraded = []
    while True:
        try:
            metrics = engine.run_once(task.spec, task.seed)
            break
        except recoverable:
            chain = fallback_chain(task.spec, exclude={engine.name, *degraded})
            if not chain:
                raise
            degraded.append(engine.name)
            engine = chain[0]
    record: Dict[str, Any] = {"replication": task.replication, "seed": task.seed}
    record.update(metrics)
    if degraded:
        record["backend"] = engine.name
        record["degraded_from"] = ",".join(degraded)
    record["wall_seconds"] = time.perf_counter() - started
    maybe_fire("worker.done", key=fault_key)
    return record


def worker_loop(worker_id: str, inbox, outbox) -> None:
    """Process tasks until a ``None`` sentinel (or a termination signal).

    Parameters
    ----------
    worker_id : str
        Stable name used in lease journal entries and outbox messages.
    inbox : multiprocessing.Queue
        This worker's private task queue (``(PointTask, attempt)`` pairs or
        ``None``).
    outbox : multiprocessing.Queue
        Shared result queue back to the scheduler.
    """
    # Re-resolve REPRO_FAULT_PLAN: under a spawn start method the parent's
    # installed plan is not inherited, and chaos must reach workers too.
    installed_from_env()

    stopping = []

    def request_stop(signum, frame):  # noqa: ARG001 - signal handler shape
        stopping.append(signum)

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)

    while True:
        if stopping:
            # Graceful exit: the task in flight (if any) already completed
            # and was reported; leases we still hold are released by the
            # scheduler when it sees the bye (or reaps the dead process).
            outbox.put((MSG_BYE, worker_id))
            return
        try:
            item = inbox.get(timeout=0.2)
        except queue_module.Empty:
            continue
        if item is None:
            outbox.put((MSG_BYE, worker_id))
            return
        task, attempt = item
        maybe_fire("worker.claim", key=f"{task.task_id}#{attempt}")
        outbox.put((MSG_CLAIM, worker_id, task.task_id))
        record = execute_task(task, attempt)
        outbox.put((MSG_DONE, worker_id, task.task_id, record))
