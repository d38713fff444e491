"""Dispatching-policy interface shared by all simulators."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


@dataclass
class ClusterView:
    """Read-only snapshot of the cluster state offered to a policy.

    Attributes
    ----------
    queue_lengths:
        Number of jobs at each server, *including* the one in service.
    work_remaining:
        Remaining work (sum of residual service requirements) at each server,
        or ``None`` when the caller does not track it (the job-level
        simulator does).
    """

    queue_lengths: np.ndarray
    work_remaining: np.ndarray | None = None

    @property
    def num_servers(self) -> int:
        return int(self.queue_lengths.shape[0])

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
