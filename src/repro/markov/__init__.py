"""Markov-chain substrate: the stochastic processes the models are built from.

This subpackage provides the probabilistic building blocks the SQ(d)
analysis sits on: arrival processes (Poisson, renewal, Markovian Arrival
Processes) together with the mixed-Poisson integrals ``beta_k`` of the
paper's Eq. (19), service-time distributions (exponential, Erlang,
hyperexponential, deterministic and general phase-type), and the
MAP/PH/1 queue solution.  The stationary solves of the SQ(d) chains
themselves live in :mod:`repro.core` (QBD bound models and the exact
truncated oracle).
"""

from repro.markov.arrival_processes import (
    ArrivalProcess,
    PoissonArrivals,
    RenewalArrivals,
    MarkovianArrivalProcess,
    beta_coefficients,
    solve_sigma,
)
from repro.markov.service_distributions import (
    ServiceDistribution,
    ExponentialService,
    ErlangService,
    HyperexponentialService,
    DeterministicService,
    PhaseTypeService,
)
from repro.markov.map_ph_queue import (
    MAPPHQueueSolution,
    mg1_pollaczek_khinchine_waiting_time,
    solve_map_ph_1,
)

__all__ = [
    "MAPPHQueueSolution",
    "solve_map_ph_1",
    "mg1_pollaczek_khinchine_waiting_time",
    "ArrivalProcess",
    "PoissonArrivals",
    "RenewalArrivals",
    "MarkovianArrivalProcess",
    "beta_coefficients",
    "solve_sigma",
    "ServiceDistribution",
    "ExponentialService",
    "ErlangService",
    "HyperexponentialService",
    "DeterministicService",
    "PhaseTypeService",
]
