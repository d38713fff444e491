"""The per-state metric loop of the exact oracle, kept for tests only.

``solve_exact_truncated`` used to turn its stationary vector into a
``{state: probability}`` dict and loop over it in Python to get the delay
metrics and the truncation mass.  It now folds over the state array
(:meth:`repro.core.delay.DelayMetrics.from_states`); the parity tests check
those folds against this loop bit for bit.  Every sum here is an explicit
``+=`` in state order: ``sum()`` compensates its float additions from
Python 3.12 on, so it would not be the plain fold on every interpreter.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.delay import DelayMetrics
from repro.core.state import State, busy_servers, total_jobs, waiting_jobs


def distribution_dict(states: np.ndarray, probabilities: np.ndarray) -> Dict[State, float]:
    """The ``{state: probability}`` dict the oracle used to hold, in state order."""
    return dict(zip(map(tuple, states.tolist()), probabilities.tolist()))


def reference_metrics(
    distribution: Dict[State, float], total_arrival_rate: float, service_rate: float = 1.0
) -> DelayMetrics:
    """Delay metrics by one pass over the dict, renormalized by its folded mass."""
    mass = 0.0
    for probability in distribution.values():
        mass += probability
    mean_jobs = 0.0
    mean_waiting = 0.0
    mean_busy = 0.0
    for state, probability in distribution.items():
        weight = probability / mass
        mean_jobs += weight * total_jobs(state)
        mean_waiting += weight * waiting_jobs(state)
        mean_busy += weight * busy_servers(state)
    mean_waiting_time = mean_waiting / total_arrival_rate
    return DelayMetrics(
        mean_jobs_in_system=mean_jobs,
        mean_waiting_jobs=mean_waiting,
        mean_busy_servers=mean_busy,
        mean_waiting_time=mean_waiting_time,
        mean_sojourn_time=mean_waiting_time + 1.0 / service_rate,
    )


def reference_truncation_mass(distribution: Dict[State, float], buffer_size: int) -> float:
    """Mass of the states whose longest queue is at the buffer."""
    mass = 0.0
    for state, probability in distribution.items():
        if state[0] == buffer_size:
            mass += probability
    return mass
