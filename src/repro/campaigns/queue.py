"""Durable work queue: an append-only journal of task-state transitions.

The queue never stores task *payloads* — a campaign task is content-
addressed (``"<point digest>:<replication>"``, see
:class:`repro.ensemble.grid.PointTask`), so the journal only records ids and
transitions, and the scheduler regenerates specs and seeds deterministically
from the campaign manifest on every (re)start.  Five event kinds:

``enqueue``
    The task exists and is runnable.
``lease``
    A worker claimed it.  A lease names its holder and nothing else: a live
    worker keeps its task however long it runs (simulations legitimately
    run long); the leases of a dead worker are released and re-enqueued at
    the front of the queue.
``done``
    The task's record was durably appended to the record store.  The record
    append always happens *before* the ``done`` event, so a crash between
    the two merely re-runs the task — producing a duplicate record with
    identical simulation content (content-addressed seeds), which readers
    de-duplicate.
``release``
    A lease was given up; the task is runnable again.
``quarantine``
    The task was declared poison (it killed too many workers) and removed
    from circulation without a record: it is neither pending nor done, and
    the campaign that owns it completes ``degraded``.

State is rebuilt by replaying the journal.  A torn trailing line (crash
mid-append) is repaired on open (:func:`repro.ensemble.results.repair_jsonl`);
every lease held when a previous process died is stale by construction and
is released during replay on request.  Older journals carry a ``deadline``
on ``lease`` events; replay ignores it.

Journal appends are wrapped in seeded-backoff retries
(:mod:`repro.utils.retry`): a transient I/O error costs a few milliseconds,
not the campaign.  Each append passes through the ``"journal.append"``
fault-injection hook (:mod:`repro.faults`), a no-op unless a chaos plan is
armed.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Union

from repro.api.serialize import jsonl_line
from repro.ensemble.results import iter_jsonl, repair_jsonl
from repro.faults import maybe_fire
from repro.utils.retry import RetryPolicy, retry_call

__all__ = ["QueueError", "TaskQueue"]


class QueueError(RuntimeError):
    """An impossible task-state transition (double lease, unknown id, ...)."""


class TaskQueue:
    """Durable FIFO task queue with leases, backed by one journal.

    Parameters
    ----------
    journal_path : str or Path
        The append-only journal.  Created (with parents) on first use; an
        existing journal is repaired (torn tail truncated) and replayed.
    reclaim_stale : bool
        Release every lease found during replay (the resume path: leases of
        a dead process are stale by definition).  Default ``True``.
    read_only : bool
        Replay the journal without repairing or opening it for append — the
        inspection path (``repro-lb campaign status``) must never write to a
        campaign directory it does not own.
    """

    def __init__(
        self,
        journal_path: Union[str, Path],
        reclaim_stale: bool = True,
        read_only: bool = False,
    ):
        self.path = Path(journal_path)
        self.read_only = read_only
        self._pending: Deque[str] = deque()
        self._leases: Dict[str, str] = {}  # task id -> worker holding it
        self._done: Set[str] = set()
        self._known: Set[str] = set()
        self._quarantined: Set[str] = set()
        self._retry = RetryPolicy()
        self._handle = None
        if not read_only:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            repair_jsonl(self.path)
        if self.path.exists():
            self._replay()
        if not read_only:
            self._handle = self.path.open("a", encoding="utf-8")
        if reclaim_stale and not read_only and self._leases:
            for task_id in list(self._leases):
                self.release(task_id)

    # ------------------------------------------------------------------ #
    # Journal plumbing
    # ------------------------------------------------------------------ #
    def _replay(self) -> None:
        for event in iter_jsonl(self.path):
            kind = event.get("event")
            task_id = event.get("task")
            if kind == "enqueue":
                # Idempotent: a retried append may have journaled the same
                # enqueue twice (the write landed, the flush reported an
                # error); the task must still be pending exactly once.
                if task_id in self._known:
                    continue
                self._known.add(task_id)
                self._pending.append(task_id)
            elif kind == "lease":
                if task_id in self._pending:
                    self._pending.remove(task_id)
                self._leases[task_id] = event.get("worker", "?")
            elif kind == "done":
                self._leases.pop(task_id, None)
                if task_id in self._pending:
                    self._pending.remove(task_id)
                # A completion that raced a quarantine proves the task was
                # not poison after all: done wins, the sets stay disjoint.
                self._quarantined.discard(task_id)
                self._done.add(task_id)
            elif kind == "release":
                if self._leases.pop(task_id, None) is not None:
                    self._pending.appendleft(task_id)
            elif kind == "quarantine":
                self._leases.pop(task_id, None)
                if task_id in self._pending:
                    self._pending.remove(task_id)
                self._quarantined.add(task_id)
            # Unknown event kinds are skipped: newer writers must not brick
            # older readers of a long-lived campaign directory.

    def _journal(self, payload: Dict[str, Any]) -> None:
        if self._handle is None:
            if self.read_only:
                raise QueueError("read-only queue: state transitions are not allowed")
            raise QueueError("queue is closed")
        line = jsonl_line(payload) + "\n"

        def append() -> None:
            maybe_fire(
                "journal.append",
                key=str(payload.get("task", "")),
                handle=self._handle,
                line=line,
            )
            self._handle.write(line)
            self._handle.flush()

        retry_call(append, policy=self._retry, describe="journal append")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TaskQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def enqueue(self, task_ids: Iterable[str]) -> int:
        """Make tasks runnable (ids already seen — even done — are skipped,
        which is what lets a resume idempotently re-enqueue the initial
        batch)."""
        added = 0
        for task_id in task_ids:
            if task_id in self._known:
                continue
            self._known.add(task_id)
            self._journal({"event": "enqueue", "task": task_id})
            self._pending.append(task_id)
            added += 1
        return added

    def lease(self, worker: str) -> Optional[str]:
        """Claim the next runnable task for ``worker``; ``None`` when drained."""
        if not self._pending:
            return None
        task_id = self._pending.popleft()
        self._journal({"event": "lease", "task": task_id, "worker": worker})
        self._leases[task_id] = worker
        return task_id

    def complete(self, task_id: str) -> None:
        """Mark a task done (its record must already be durably stored)."""
        if task_id in self._done:
            return
        if task_id not in self._known:
            raise QueueError(f"complete() of unknown task {task_id!r}")
        self._journal({"event": "done", "task": task_id})
        self._leases.pop(task_id, None)
        if task_id in self._pending:
            self._pending.remove(task_id)
        self._quarantined.discard(task_id)
        self._done.add(task_id)

    def release(self, task_id: str) -> None:
        """Give up one lease: the task goes back to the *front* of the queue
        (it was enqueued before everything currently pending), so the next
        idle worker takes it before anything else."""
        if self._leases.pop(task_id, None) is None:
            raise QueueError(f"release() of unleased task {task_id!r}")
        self._journal({"event": "release", "task": task_id})
        self._pending.appendleft(task_id)

    def quarantine(self, task_id: str) -> None:
        """Remove a poison task from circulation (neither pending nor done).

        Idempotent.  The task keeps its journal history, so a resume knows
        it was quarantined rather than lost; it will never be leased again
        and never counts as outstanding.
        """
        if task_id in self._quarantined:
            return
        if task_id not in self._known:
            raise QueueError(f"quarantine() of unknown task {task_id!r}")
        if task_id in self._done:
            raise QueueError(f"quarantine() of completed task {task_id!r}")
        self._journal({"event": "quarantine", "task": task_id})
        self._leases.pop(task_id, None)
        if task_id in self._pending:
            self._pending.remove(task_id)
        self._quarantined.add(task_id)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def is_done(self, task_id: str) -> bool:
        return task_id in self._done

    def is_quarantined(self, task_id: str) -> bool:
        return task_id in self._quarantined

    def quarantined_ids(self) -> Set[str]:
        """Tasks removed from circulation as poison (a copy)."""
        return set(self._quarantined)

    def known_ids(self) -> Set[str]:
        """Every task id ever enqueued (a copy; includes done tasks)."""
        return set(self._known)

    def leased_by(self, worker: str) -> List[str]:
        return [task_id for task_id, holder in self._leases.items() if holder == worker]

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def leased_count(self) -> int:
        return len(self._leases)

    @property
    def done_count(self) -> int:
        return len(self._done)

    @property
    def quarantined_count(self) -> int:
        return len(self._quarantined)

    @property
    def outstanding(self) -> int:
        """Tasks still owed work (pending + leased; quarantined tasks are
        out of circulation and owed nothing)."""
        return len(self._pending) + len(self._leases)

    def counts(self) -> Dict[str, int]:
        return {
            "pending": self.pending_count,
            "leased": self.leased_count,
            "done": self.done_count,
            "quarantined": self.quarantined_count,
            "total": len(self._known),
        }
