"""Job-level simulation substrate.

:class:`ClusterSimulation` simulates every job of a dispatcher feeding N
FIFO servers in one pass over the arrivals: a job's start and departure are
booked when it arrives (the Lindley recursion), so there is no event list.
It supports arbitrary arrival processes, service distributions and
dispatching policies, and reports the mean waiting and sojourn times of the
jobs that arrive after a warm-up discard.  Confidence intervals come from
independent replications (:mod:`repro.ensemble.stats`).  The Markov model
(Poisson arrivals, exponential service, queue-length policies) has a much
cheaper simulator in the occupancy-vector fleet engine,
:func:`repro.fleet.simulate_fleet`.
"""

from repro.simulation.cluster import ClusterSimulation, ClusterResult
from repro.simulation.workloads import Workload, poisson_exponential_workload

__all__ = [
    "ClusterSimulation",
    "ClusterResult",
    "Workload",
    "poisson_exponential_workload",
]
