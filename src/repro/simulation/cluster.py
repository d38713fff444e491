"""Job-level discrete-event simulation of a dispatcher + N FIFO servers.

Every job is tracked individually: arrival time, chosen server, service
requirement, waiting time (time from arrival until service starts) and
sojourn time (waiting plus service, the paper's "delay").  The simulator is
policy- and distribution-agnostic; the fast simulator of the
exponential-only Markov model is the occupancy fleet engine,
:mod:`repro.fleet.engine`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from repro.policies.base import ClusterView, DispatchingPolicy
from repro.simulation.engine import EventScheduler
from repro.simulation.metrics import WaitingTimeAccumulator
from repro.simulation.workloads import Workload
from repro.utils.seeding import spawn_rngs
from repro.utils.validation import check_integer


@dataclass
class _Job:
    arrival_time: float
    service_requirement: float
    server: int = -1
    start_time: float = -1.0
    completion_time: float = -1.0


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
    """Event-driven simulation of a single dispatcher feeding N FIFO servers.

    Parameters
    ----------
    workload:
        Arrival process and service distribution (see :class:`Workload`).
    policy:
        Dispatching policy deciding which server each arriving job joins.
    seed:
        Seed for the independent arrival / service / policy random streams.
    warmup_jobs:
        Number of initial job completions to discard from the statistics.
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
        self._arrival_rng, self._service_rng, self._policy_rng = spawn_rngs(seed, 3)
        self._scheduler = EventScheduler()
        self._accumulator = WaitingTimeAccumulator(warmup_jobs=warmup_jobs)

        n = workload.num_servers
        self._num_servers = n
        self._queues: List[Deque[_Job]] = [deque() for _ in range(n)]
        self._queue_lengths = np.zeros(n, dtype=np.int64)
        self._work_remaining = np.zeros(n, dtype=float)
        self._arrivals_generated = 0
        self._jobs_completed = 0
        self._queue_length_seen_sum = 0.0
        self._max_jobs: Optional[int] = None
        self._has_run = False

        # Bound methods the event loop calls once or more per job; resolving
        # them here keeps repeated attribute chains out of the handlers.
        self._schedule = self._scheduler.schedule
        self._record = self._accumulator.record
        self._select_server = policy.select_server
        self._sample_interarrivals = workload.arrival_process.sample_interarrival_times
        self._sample_services = workload.service_distribution.sample

        # Pre-draw interarrival and service times in blocks to avoid per-event
        # generator call overhead.  Each freshly drawn block is converted to a
        # plain list once (one C-level pass), then consumed in place across
        # run()/handler calls — per-job cost is a list index instead of a
        # numpy scalar extraction plus a float() round-trip.
        self._interarrival_buffer: List[float] = []
        self._interarrival_index = 0
        self._service_buffer: List[float] = []
        self._service_index = 0

    # ------------------------------------------------------------------ #
    # Random-variate buffering
    # ------------------------------------------------------------------ #
    def _next_interarrival(self) -> float:
        index = self._interarrival_index
        if index >= len(self._interarrival_buffer):
            self._interarrival_buffer = self._sample_interarrivals(
                self._arrival_rng, 8192
            ).tolist()
            index = 0
        self._interarrival_index = index + 1
        return self._interarrival_buffer[index]

    def _next_service(self) -> float:
        index = self._service_index
        if index >= len(self._service_buffer):
            self._service_buffer = self._sample_services(self._service_rng, 8192).tolist()
            index = 0
        self._service_index = index + 1
        return self._service_buffer[index]

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _handle_arrival(self) -> None:
        queue_lengths = self._queue_lengths
        job = _Job(arrival_time=self._scheduler.now, service_requirement=self._next_service())
        view = ClusterView(queue_lengths=queue_lengths, work_remaining=self._work_remaining)
        server = self._select_server(view, self._policy_rng)
        if not 0 <= server < self._num_servers:
            raise RuntimeError(f"policy selected an invalid server index {server}")
        job.server = server
        self._queue_length_seen_sum += float(queue_lengths[server])

        self._queues[server].append(job)
        queue_lengths[server] += 1
        self._work_remaining[server] += job.service_requirement
        if queue_lengths[server] == 1:
            self._start_service(server)

        self._arrivals_generated += 1
        if self._max_jobs is None or self._arrivals_generated < self._max_jobs:
            self._schedule(self._next_interarrival(), self._handle_arrival)

    def _start_service(self, server: int) -> None:
        job = self._queues[server][0]
        job.start_time = self._scheduler.now
        self._schedule(job.service_requirement, lambda: self._handle_departure(server))

    def _handle_departure(self, server: int) -> None:
        queue = self._queues[server]
        job = queue.popleft()
        job.completion_time = self._scheduler.now
        self._queue_lengths[server] -= 1
        self._work_remaining[server] = max(0.0, self._work_remaining[server] - job.service_requirement)
        self._jobs_completed += 1

        arrival_time = job.arrival_time
        self._record(job.start_time - arrival_time, job.completion_time - arrival_time)

        if queue:
            self._start_service(server)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
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
        self._max_jobs = num_jobs
        self._policy.reset()
        self._scheduler.schedule(self._next_interarrival(), self._handle_arrival)
        # Run until the event list drains: after the last arrival is generated
        # only departures remain, so the simulation terminates.
        self._scheduler.run()
        return self._build_result()

    def _build_result(self) -> ClusterResult:
        mean_seen = self._queue_length_seen_sum / max(1, self._arrivals_generated)
        return ClusterResult(
            mean_waiting_time=self._accumulator.mean_waiting_time(),
            mean_sojourn_time=self._accumulator.mean_sojourn_time(),
            completed_jobs=self._accumulator.recorded_jobs,
            discarded_jobs=self._accumulator.discarded_jobs,
            simulated_time=self._scheduler.now,
            mean_queue_length_seen=float(mean_seen),
        )

    @property
    def queue_lengths(self) -> np.ndarray:
        """Current per-server queue lengths (useful for tests and debugging)."""
        return self._queue_lengths.copy()

    @property
    def jobs_completed(self) -> int:
        return self._jobs_completed
