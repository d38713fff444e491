"""MAP/PH/1 queue solved with the same QBD machinery as the SQ(d) bounds.

The paper's conclusion singles out one extension of its methodology:

    "a potential and significant advantage of the matrix-geometric
    methodology employed in this paper is that it can be extended to the
    broad class of Markov Arrival Processes (MAP) and Phase-Type (PH)
    service distributions"

This module realizes that extension for the single-server building block:
a MAP/PH/1 queue.  Its generator is a textbook level-independent QBD whose
phase is the pair (arrival phase, service phase):

* ``A0 = D1 ⊗ I``          — an arrival moves up one level,
* ``A1 = D0 ⊗ I + I ⊗ S``  — phase evolution without level change,
* ``A2 = I ⊗ (s0 · β)``    — a service completion moves down one level and
  restarts service in phase ``β`` (``s0 = -S·1`` are the absorption rates).

The boundary level (empty queue) only carries the arrival phase.  The solver
reuses :mod:`repro.linalg.logarithmic_reduction` for ``G`` and ``R`` and
:func:`repro.linalg.blocks.solve_qbd_boundary` for the empty level and
level one (level two being level one times ``R``) — the same steps that
solve the SQ(d) bound models — and is validated in the tests against the
M/M/1 and M/G/1 (Pollaczek–Khinchine) formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.blocks import geometric_block_sum, solve_qbd_boundary, spectral_radius
from repro.linalg.logarithmic_reduction import (
    is_qbd_positive_recurrent,
    rate_matrix_from_G,
    solve_G_logarithmic_reduction,
)
from repro.markov.arrival_processes import ArrivalProcess, MarkovianArrivalProcess, PoissonArrivals
from repro.markov.service_distributions import (
    ErlangService,
    ExponentialService,
    PhaseTypeService,
    ServiceDistribution,
)
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class MAPPHQueueSolution:
    """Stationary performance of a MAP/PH/1 queue."""

    arrival_rate: float
    service_mean: float
    utilization: float
    mean_jobs_in_system: float
    mean_queue_length: float
    mean_sojourn_time: float
    mean_waiting_time: float
    probability_empty: float
    decay_radius: float


def _arrival_matrices(arrival_process: ArrivalProcess) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(arrival_process, MarkovianArrivalProcess):
        return arrival_process.D0, arrival_process.D1
    if isinstance(arrival_process, PoissonArrivals):
        rate = arrival_process.rate
        return np.array([[-rate]]), np.array([[rate]])
    raise ValidationError(
        "MAP/PH/1 analysis needs a MarkovianArrivalProcess or PoissonArrivals input "
        f"(got {type(arrival_process).__name__}); renewal processes can be represented as MAPs "
        "when their interarrival distribution is phase-type"
    )


def _service_representation(service: ServiceDistribution) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(service, PhaseTypeService):
        return service.initial_distribution, service.subgenerator
    if isinstance(service, ExponentialService):
        phase_type = PhaseTypeService.from_exponential(1.0 / service.mean)
        return phase_type.initial_distribution, phase_type.subgenerator
    if isinstance(service, ErlangService):
        phase_type = PhaseTypeService.from_erlang(service.stages, service.mean)
        return phase_type.initial_distribution, phase_type.subgenerator
    raise ValidationError(
        "MAP/PH/1 analysis needs a phase-type-representable service distribution "
        f"(got {type(service).__name__}); use PhaseTypeService, ExponentialService or ErlangService, "
        "or convert with PhaseTypeService.from_hyperexponential / an explicit (alpha, S) pair"
    )


def solve_map_ph_1(arrival_process: ArrivalProcess, service: ServiceDistribution) -> MAPPHQueueSolution:
    """Solve a MAP/PH/1 queue for its stationary mean performance metrics.

    Raises
    ------
    ValidationError
        If the queue is unstable (``rho >= 1``) or the inputs are not of
        MAP / phase-type form.
    """
    D0, D1 = _arrival_matrices(arrival_process)
    beta, S = _service_representation(service)
    arrival_rate = arrival_process.rate
    service_mean = service.mean
    utilization = arrival_rate * service_mean
    if utilization >= 1.0:
        raise ValidationError(f"MAP/PH/1 queue is unstable: rho = {utilization:.4f} >= 1")

    num_arrival_phases = D0.shape[0]
    num_service_phases = S.shape[0]
    identity_a = np.eye(num_arrival_phases)
    identity_s = np.eye(num_service_phases)
    absorption = -S @ np.ones(num_service_phases)

    A0 = np.kron(D1, identity_s)
    A1 = np.kron(D0, identity_s) + np.kron(identity_a, S)
    A2 = np.kron(identity_a, np.outer(absorption, beta))

    if not is_qbd_positive_recurrent(A0, A1, A2):
        raise ValidationError("MAP/PH/1 QBD drift condition failed despite rho < 1 (check the input matrices)")

    g_result = solve_G_logarithmic_reduction(A0, A1, A2)
    R = rate_matrix_from_G(A0, A1, g_result.G)

    # Boundary: level 0 has only the arrival phase.  Transitions:
    #   level0 -> level0 : D0
    #   level0 -> level1 : D1 ⊗ beta  (arrival starts a service in phase beta)
    #   level1 -> level0 : I ⊗ s0     (service completes, no restart)
    B00 = D0
    B01 = np.kron(D1, beta.reshape(1, -1))
    B10 = np.kron(identity_a, absorption.reshape(-1, 1))

    tail_sum = geometric_block_sum(R)  # (I - R)^{-1}
    tail_weights = tail_sum @ np.ones(A1.shape[0])
    pi0, pi1, _, _ = solve_qbd_boundary(B00, B01, B10, A1, A2, R, tail_weights)
    # Mean number in system: sum_{n>=1} n pi_n e = pi1 (I - R)^{-2} e with
    # pi_n = pi1 R^{n-1}.
    mean_jobs = float(pi1 @ tail_sum @ tail_weights)
    probability_empty = float(pi0.sum())
    mean_sojourn = mean_jobs / arrival_rate
    mean_waiting = mean_sojourn - service_mean
    mean_queue = mean_jobs - utilization

    return MAPPHQueueSolution(
        arrival_rate=arrival_rate,
        service_mean=service_mean,
        utilization=utilization,
        mean_jobs_in_system=mean_jobs,
        mean_queue_length=float(mean_queue),
        mean_sojourn_time=float(mean_sojourn),
        mean_waiting_time=float(mean_waiting),
        probability_empty=probability_empty,
        decay_radius=spectral_radius(R),
    )


def mg1_pollaczek_khinchine_waiting_time(arrival_rate: float, service: ServiceDistribution) -> float:
    """Mean waiting time of an M/G/1 queue (Pollaczek–Khinchine) — validation oracle."""
    utilization = arrival_rate * service.mean
    if utilization >= 1.0:
        raise ValidationError("M/G/1 queue is unstable")
    second_moment = service.variance + service.mean ** 2
    return arrival_rate * second_moment / (2.0 * (1.0 - utilization))
