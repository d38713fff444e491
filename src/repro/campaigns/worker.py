"""Campaign task execution: one replication task, inline or in a worker.

:func:`execute_task` runs one ``(point, replication)`` task through
:func:`repro.ensemble.runner._execute_replication`, the package's one
backend call and record builder, so a campaign record is bitwise identical
to an ensemble record of the same seed.  At ``workers=1`` the scheduler
calls it inline, in its own process; with more workers it runs in worker
processes, each running :func:`worker_loop`: pull ``(PointTask, attempt)``
items from the inbox, report ``claim`` / ``done`` / ``failed`` messages on
the shared outbox.  The ``claim`` message is the worker's heartbeat: it
restarts the scheduler's watchdog clock.

Workers receive only picklable plain data (frozen specs, integer seeds) and
never open the journal or the record store — all durable writes go through
the scheduler process, which keeps the on-disk state single-writer and
crash-consistent.

**A task that raises** does not kill its worker: the ``failed`` message
carries the exception and the scheduler re-raises it, as the inline driver
would.  Only a worker *death* takes the reap, retry and quarantine path.

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

**Backend degradation.**  The replication walks the same fallback chain as
:func:`repro.api.runner.run`: a typed runtime failure (never a
``SpecError``) degrades to the next capable estimator backend, and the
record carries ``degraded_from`` so the ensemble JSONL preserves what
actually ran.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import signal
import traceback
from typing import Any, Dict

from repro.ensemble import runner
from repro.ensemble.grid import PointTask
from repro.faults import installed_from_env, maybe_fire

__all__ = ["execute_task", "worker_loop"]

#: Outbox message kinds (tuples keep the queue payloads picklable and tiny).
MSG_CLAIM = "claim"
MSG_DONE = "done"
MSG_FAILED = "failed"
MSG_BYE = "bye"


def execute_task(task: PointTask, attempt: int = 0) -> Dict[str, Any]:
    """Run one replication task; returns the plain replication record
    (:func:`repro.ensemble.runner._execute_replication` builds it).

    ``attempt`` counts earlier dispatches of the task in this scheduling
    session; it only stamps the ``worker.task`` / ``worker.done`` hook keys.
    """
    fault_key = f"{task.task_id}#{attempt}"
    maybe_fire("worker.task", key=fault_key)
    record = runner._execute_replication(task.runner_task())
    maybe_fire("worker.done", key=fault_key)
    return record


def _portable(error: Exception) -> Exception:
    """``error`` if it survives a pickle round trip, else a ``RuntimeError``
    carrying its formatted traceback (the outbox pickles every message)."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        text = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        return RuntimeError(f"task raised an exception that does not pickle:\n{text}")


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
        try:
            record = execute_task(task, attempt)
        except Exception as error:
            outbox.put((MSG_FAILED, worker_id, task.task_id, _portable(error)))
            continue
        outbox.put((MSG_DONE, worker_id, task.task_id, record))
