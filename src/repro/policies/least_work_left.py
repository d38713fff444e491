"""Least-work-left dispatching, optionally restricted to d sampled servers."""

from __future__ import annotations

import numpy as np

from repro.policies.base import ClusterView, DispatchingPolicy
from repro.utils.validation import check_integer


class LeastWorkLeft(DispatchingPolicy):
    """Join the server with the smallest remaining *work* among ``d`` polled servers.

    ``d = None`` polls every server.  Remaining work is only observable in the
    job-level simulator; when the view does not carry it the policy falls back
    to queue lengths (making it equivalent to SQ(d)/JSQ), so a view without
    remaining work does not crash an experiment sweep.
    """

    def __init__(self, d: int | None = None):
        self._d = None if d is None else check_integer("d", d, minimum=1)

    def select_server(self, view: ClusterView, rng: np.random.Generator) -> int:
        num_servers = view.num_servers
        if self._d is None or self._d >= num_servers:
            polled = np.arange(num_servers)
        else:
            polled = rng.choice(num_servers, size=self._d, replace=False)
        work = view.work_remaining
        metric = work if work is not None else view.queue_lengths
        values = metric[polled]
        best = values.min()
        candidates = polled[values == best]
        if candidates.shape[0] == 1:
            return int(candidates[0])
        return int(rng.choice(candidates))

    @property
    def feedback_messages_per_job(self) -> int | None:
        return self._d

    def __repr__(self) -> str:
        return f"LeastWorkLeft(d={self._d})"
