"""Occupancy-based large-N fleet simulation and mean-field limits.

The per-job simulator (:mod:`repro.simulation.cluster`) pays O(N) per event
in one way or another, which caps it at a few hundred servers.  This package
is the simulator of the Markov model: it represents the cluster by its
*occupancy vector* — the number of servers with at least ``k`` jobs — under
which SQ(d), JSQ and random dispatching are all Markov with event cost
O(queue depth), independent of ``N``:

* :mod:`repro.fleet.occupancy` — the exact occupancy CTMC state and its
  (numpy-vectorized) transition probabilities,
* :mod:`repro.fleet.engine` — a batched Gillespie driver over occupancy
  state for ``N`` up to 10^6, with delay recovered via Little's law,
* :mod:`repro.fleet.meanfield` — a dependency-free RK4 integrator for the
  power-of-d mean-field ODE and its fixed point (the N -> infinity limit
  the paper's Eq. 16 is built on),
* :mod:`repro.fleet.scenarios` — a registry of time-varying workloads
  (constant load, ramps, flash crowds, server-pool resizing).
"""

from repro.fleet.occupancy import OccupancyState
from repro.fleet.engine import (
    FleetResult,
    FleetSimulation,
    ScenarioResult,
    run_scenario,
    simulate_fleet,
)
from repro.fleet.meanfield import (
    MeanFieldTrajectory,
    integrate_meanfield,
    meanfield_delay,
    meanfield_fixed_point,
    meanfield_mean_queue_length,
)
from repro.fleet.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioPhase,
    available_scenarios,
    get_scenario,
)

__all__ = [
    "OccupancyState",
    "FleetSimulation",
    "FleetResult",
    "ScenarioResult",
    "simulate_fleet",
    "run_scenario",
    "MeanFieldTrajectory",
    "integrate_meanfield",
    "meanfield_fixed_point",
    "meanfield_delay",
    "meanfield_mean_queue_length",
    "Scenario",
    "ScenarioPhase",
    "SCENARIOS",
    "get_scenario",
    "available_scenarios",
]
