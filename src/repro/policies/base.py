"""Dispatching-policy interface shared by all simulators."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np


class ClusterView:
    """Read-only snapshot of the cluster state offered to a policy.

    Attributes
    ----------
    queue_lengths:
        Number of jobs at each server, *including* the one in service.
    drain_times:
        Time at which each server will have served every job it holds, or
        ``None`` when the caller does not track work (the job-level
        simulator does).
    now:
        Time of the snapshot.

    A view built from ``work_remaining`` is taken at ``now = 0``, so the
    work becomes its drain times.  The job-level simulator builds one view
    per run and advances it in place at each arrival.
    """

    __slots__ = ("queue_lengths", "drain_times", "now")

    def __init__(self, queue_lengths: np.ndarray, work_remaining: Sequence[float] | None = None):
        self.queue_lengths = queue_lengths
        self.drain_times = work_remaining
        self.now = 0.0

    @property
    def num_servers(self) -> int:
        return int(self.queue_lengths.shape[0])

    @property
    def work_remaining(self) -> np.ndarray | None:
        """Remaining work (sum of residual service requirements) at each server.

        ``max(0, drain_times - now)``, computed when read; ``None`` when the
        view does not track work.
        """
        if self.drain_times is None:
            return None
        return np.maximum(np.asarray(self.drain_times, dtype=float) - self.now, 0.0)

    def idle_servers(self) -> np.ndarray:
        """Indices of servers with no jobs at all."""
        return np.flatnonzero(self.queue_lengths == 0)


class DispatchingPolicy(ABC):
    """A rule assigning each arriving job to exactly one server."""

    @abstractmethod
    def select_server(self, view: ClusterView, rng: np.random.Generator) -> int:
        """Return the index of the server the arriving job should join."""

    def reset(self) -> None:
        """Clear any internal state (e.g. the round-robin pointer)."""

    @property
    def feedback_messages_per_job(self) -> int | None:
        """Number of server->dispatcher queue-length reports needed per job.

        This is the "feedback cost" axis of the tradeoff discussed in the
        paper's introduction; ``None`` means the policy keeps persistent state
        instead of polling (e.g. join-idle-queue).
        """
        return None
