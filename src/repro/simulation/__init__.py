"""Job-level discrete-event simulation substrate.

:class:`ClusterSimulation` is a job-level discrete-event simulation built on
the generic :class:`EventScheduler`; it tracks every job individually,
supports arbitrary arrival processes, service distributions and dispatching
policies, and records per-job waiting and sojourn times.  The Markov model
(Poisson arrivals, exponential service, queue-length policies) has a much
cheaper simulator in the occupancy-vector fleet engine,
:func:`repro.fleet.simulate_fleet`.
"""

from repro.simulation.engine import Event, EventScheduler
from repro.simulation.metrics import (
    SimulationSummary,
    WaitingTimeAccumulator,
    batch_means_confidence_interval,
    TimeAverageAccumulator,
)
from repro.simulation.cluster import ClusterSimulation, ClusterResult
from repro.simulation.workloads import Workload, poisson_exponential_workload

__all__ = [
    "Event",
    "EventScheduler",
    "SimulationSummary",
    "WaitingTimeAccumulator",
    "TimeAverageAccumulator",
    "batch_means_confidence_interval",
    "ClusterSimulation",
    "ClusterResult",
    "Workload",
    "poisson_exponential_workload",
]
