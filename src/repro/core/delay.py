"""Delay metrics from stationary queue-length distributions.

The paper's headline metric is the jobs' *average delay* — the mean sojourn
(response) time.  For a stationary distribution over ordered states, held as
an array of states (one state a row) and an aligned array of probabilities,
it is obtained by summing the expected number of waiting jobs
(``max(m_i - 1, 0)`` per server) against the distribution and applying
Little's law with the arrival rate ``lambda N``, then adding the mean
service time.  The sums are sequential left folds in state order, so the
result does not depend on how a platform's ``sum`` orders or compensates
its additions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive


def left_fold(values: np.ndarray) -> float:
    """``values[0] + values[1] + ...`` added one at a time, in order.

    ``np.cumsum`` adds sequentially where ``np.sum`` adds pairwise, so this
    is the plain left-to-right sum of a Python loop, bit for bit.
    """
    return float(np.cumsum(values)[-1])


@dataclass(frozen=True)
class DelayMetrics:
    """Mean delay decomposition for one model/distribution."""

    mean_jobs_in_system: float
    mean_waiting_jobs: float
    mean_busy_servers: float
    mean_waiting_time: float
    mean_sojourn_time: float

    @property
    def mean_delay(self) -> float:
        """Alias for the mean sojourn time, the paper's "average delay"."""
        return self.mean_sojourn_time

    @classmethod
    def from_states(
        cls,
        states: np.ndarray,
        probabilities: np.ndarray,
        total_arrival_rate: float,
        service_rate: float = 1.0,
    ) -> "DelayMetrics":
        """Compute delay metrics from a stationary distribution over ordered states.

        Parameters
        ----------
        states:
            Integer array of ordered states, one state a row.
        probabilities:
            Stationary probability of each row of ``states``; it need not be
            perfectly normalized (it is renormalized defensively).
        total_arrival_rate:
            ``lambda * N`` — used in Little's law.
        service_rate:
            ``mu`` — the mean service time ``1/mu`` is added to the waiting
            time to obtain the sojourn time.
        """
        check_positive("total_arrival_rate", total_arrival_rate)
        check_positive("service_rate", service_rate)
        states = np.asarray(states)
        probabilities = np.asarray(probabilities, dtype=float)
        mass = left_fold(probabilities) if len(probabilities) else 0.0
        if mass <= 0:
            raise ValueError("distribution has no probability mass")

        weights = probabilities / mass
        mean_jobs = left_fold(weights * states.sum(axis=1))
        mean_waiting = left_fold(weights * np.maximum(states - 1, 0).sum(axis=1))
        mean_busy = left_fold(weights * (states > 0).sum(axis=1))

        mean_waiting_time = mean_waiting / total_arrival_rate
        mean_sojourn_time = mean_waiting_time + 1.0 / service_rate
        return cls(
            mean_jobs_in_system=mean_jobs,
            mean_waiting_jobs=mean_waiting,
            mean_busy_servers=mean_busy,
            mean_waiting_time=mean_waiting_time,
            mean_sojourn_time=mean_sojourn_time,
        )


def mm1_sojourn_time(utilization: float, service_rate: float = 1.0) -> float:
    """Mean sojourn time of an M/M/1 queue — the exact SQ(1) per-server delay."""
    if not 0 <= utilization < 1:
        raise ValueError("utilization must be in [0, 1) for a stable M/M/1 queue")
    return 1.0 / (service_rate * (1.0 - utilization))


def mm1_waiting_time(utilization: float, service_rate: float = 1.0) -> float:
    """Mean waiting time of an M/M/1 queue."""
    return mm1_sojourn_time(utilization, service_rate) - 1.0 / service_rate


def mmn_erlang_c(num_servers: int, offered_load: float) -> float:
    """Erlang-C probability of waiting in an M/M/N queue with offered load ``a = lambda/mu``.

    The M/M/N queue (one shared queue, N servers) is the lower envelope of
    every dispatching policy and a useful reference curve in the examples.
    """
    if offered_load >= num_servers:
        raise ValueError("offered load must be below the number of servers")
    # Iterative Erlang-B then convert to Erlang-C for numerical stability.
    erlang_b = 1.0
    for k in range(1, num_servers + 1):
        erlang_b = offered_load * erlang_b / (k + offered_load * erlang_b)
    rho = offered_load / num_servers
    return erlang_b / (1.0 - rho + rho * erlang_b)


def mmn_sojourn_time(num_servers: int, utilization: float, service_rate: float = 1.0) -> float:
    """Mean sojourn time of an M/M/N queue at per-server utilization ``rho``."""
    if not 0 <= utilization < 1:
        raise ValueError("utilization must be in [0, 1)")
    offered_load = utilization * num_servers
    waiting_probability = mmn_erlang_c(num_servers, offered_load)
    mean_wait = waiting_probability / (num_servers * service_rate * (1.0 - utilization))
    return mean_wait + 1.0 / service_rate
