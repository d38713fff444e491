"""Job-level simulation of a dispatcher + N FIFO servers.

Each job has an arrival time, a chosen server, a service requirement, a
waiting time (time from arrival until service starts) and a sojourn time
(waiting plus service, the paper's "delay").  The simulator is policy- and
distribution-agnostic; the fast simulator of the exponential-only Markov
model is the occupancy fleet engine, :mod:`repro.fleet.engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from repro.policies.base import ClusterView, DispatchingPolicy
from repro.simulation.workloads import Workload
from repro.utils.seeding import spawn_rngs
from repro.utils.validation import check_integer

#: Interarrival and service times are drawn this many at a time.
VARIATE_BLOCK = 8192


@dataclass(frozen=True)
class ClusterResult:
    """Aggregated output of one simulation run."""

    mean_waiting_time: float
    mean_sojourn_time: float
    completed_jobs: int
    discarded_jobs: int
    simulated_time: float
    mean_queue_length_seen: float

    @property
    def mean_delay(self) -> float:
        """The paper's "average delay" is the mean sojourn (response) time."""
        return self.mean_sojourn_time


class ClusterSimulation:
    """Simulation of a single dispatcher feeding N FIFO servers.

    The servers are FIFO and a job's size is drawn when it arrives, so its
    start ``max(t, last departure of its server)`` and its departure
    ``start + size`` are known then (the Lindley recursion): one pass over
    the arrivals computes every job's waiting and sojourn time, and a heap
    of pending ``(departure, server)`` pairs keeps the queue lengths the
    policy reads exact.  Memory is O(N + jobs in system), whatever the job
    count.

    Ties: departures at time ``t`` complete before an arrival at ``t`` is
    dispatched, and arrivals tied at one instant are dispatched in trace
    order.

    Parameters
    ----------
    workload:
        Arrival process and service distribution (see :class:`Workload`).
    policy:
        Dispatching policy deciding which server each arriving job joins.
    seed:
        Seed for the independent arrival / service / policy random streams.
    warmup_jobs:
        Number of initial job *arrivals* left out of the statistics, as in
        the paper's methodology (10^8 jobs simulated, the first 10^7
        discarded).
    """

    def __init__(
        self,
        workload: Workload,
        policy: DispatchingPolicy,
        seed: Optional[int] = 12345,
        warmup_jobs: int = 0,
    ):
        self._workload = workload
        self._policy = policy
        self._warmup_jobs = check_integer("warmup_jobs", warmup_jobs, minimum=0)
        self._arrival_rng, self._service_rng, self._policy_rng = spawn_rngs(seed, 3)
        self._queue_lengths = np.zeros(workload.num_servers, dtype=np.int64)
        self._has_run = False

    def run(self, num_jobs: int) -> ClusterResult:
        """Simulate until ``num_jobs`` jobs have *arrived* and all of them completed.

        A simulation instance is single-shot: queues, clocks and accumulated
        statistics are not reset between runs, so calling :meth:`run` twice
        would silently mix the statistics of both runs.
        """
        check_integer("num_jobs", num_jobs, minimum=1)
        if self._has_run:
            raise RuntimeError(
                "ClusterSimulation.run() may only be called once per instance: state and "
                "statistics are not reset. Construct a fresh ClusterSimulation to re-run."
            )
        self._has_run = True
        self._policy.reset()

        num_servers = self._workload.num_servers
        queue_lengths = self._queue_lengths
        # The loop reads and writes the policy's numpy queue lengths through a
        # memoryview: Python ints in and out, no numpy scalar per access.
        counts = memoryview(queue_lengths)
        last_departure = [0.0] * num_servers
        # Built at t = 0, when every server's work and last departure are 0;
        # the view reads residual work as max(0, last_departure - view.now).
        view = ClusterView(queue_lengths, last_departure)
        select_server = self._policy.select_server
        policy_rng = self._policy_rng
        sample_interarrivals = self._workload.arrival_process.sample_interarrival_times
        sample_services = self._workload.service_distribution.sample
        pending: list = []  # heap of (departure, server), one per job in the system
        warmup_jobs = self._warmup_jobs
        waiting_sum = sojourn_sum = 0.0
        seen_sum = 0
        t = 0.0
        job = 0

        while job < num_jobs:
            gaps = sample_interarrivals(self._arrival_rng, VARIATE_BLOCK).tolist()
            sizes = sample_services(self._service_rng, VARIATE_BLOCK).tolist()
            for gap, size in zip(gaps[: num_jobs - job], sizes):
                t += gap
                while pending and pending[0][0] <= t:
                    counts[heappop(pending)[1]] -= 1
                view.now = t
                server = select_server(view, policy_rng)
                if not 0 <= server < num_servers:
                    raise RuntimeError(f"policy selected an invalid server index {server}")
                seen = counts[server]
                seen_sum += seen
                counts[server] = seen + 1
                start = last_departure[server]
                if start < t:
                    start = t
                departure = start + size
                last_departure[server] = departure
                heappush(pending, (departure, server))
                if job >= warmup_jobs:
                    waiting_sum += start - t
                    sojourn_sum += departure - t
                job += 1

        for _, server in pending:  # the jobs still in the system leave too
            counts[server] -= 1
        recorded = max(0, num_jobs - warmup_jobs)
        return ClusterResult(
            mean_waiting_time=waiting_sum / recorded if recorded else math.nan,
            mean_sojourn_time=sojourn_sum / recorded if recorded else math.nan,
            completed_jobs=recorded,
            discarded_jobs=num_jobs - recorded,
            simulated_time=max(last_departure),
            mean_queue_length_seen=seen_sum / num_jobs,
        )

    @property
    def queue_lengths(self) -> np.ndarray:
        """Current per-server queue lengths (useful for tests and debugging)."""
        return self._queue_lengths.copy()
