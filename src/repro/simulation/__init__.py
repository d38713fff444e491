"""Job-level discrete-event simulation substrate.

:class:`ClusterSimulation` is a job-level discrete-event simulation built on
the generic :class:`EventScheduler`; it tracks every job individually,
supports arbitrary arrival processes, service distributions and dispatching
policies, and records per-job waiting and sojourn times after a warm-up
discard.  A run reports their means; confidence intervals come from
independent replications (:mod:`repro.ensemble.stats`).  The Markov model
(Poisson arrivals, exponential service, queue-length policies) has a much
cheaper simulator in the occupancy-vector fleet engine,
:func:`repro.fleet.simulate_fleet`.
"""

from repro.simulation.engine import Event, EventScheduler
from repro.simulation.metrics import WaitingTimeAccumulator
from repro.simulation.cluster import ClusterSimulation, ClusterResult
from repro.simulation.workloads import Workload, poisson_exponential_workload

__all__ = [
    "Event",
    "EventScheduler",
    "WaitingTimeAccumulator",
    "ClusterSimulation",
    "ClusterResult",
    "Workload",
    "poisson_exponential_workload",
]
