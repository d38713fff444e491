"""The improved lower bound of Section IV.B (Theorems 2 and 3).

The matrix-geometric solution of Theorem 1 requires computing the rate matrix
``R``; Theorem 2 shows that for the *lower* bound model the repeating-block
probabilities satisfy the much simpler scalar relation

.. math:: \\pi_{q+1} = \\sigma^N \\pi_q , \\qquad q = 1, 2, ...

where ``sigma`` is the unique root in the unit interval of
``x = sum_k x^k beta_k`` (the classical GI/M/1 root equation for the
interarrival distribution).  Theorem 3 specializes to Poisson arrivals, where
``sigma = rho``.

This module wires those theorems to the QBD machinery: the balance of
``B1``, ``pi_0 A0 + pi_1 (A1 + sigma^N A2) = 0``, gives ``pi_1 = pi_0 W``
with ``W = -A0 (A1 + sigma^N A2)^{-1}`` where Theorem 1 has ``W = R``, the
boundary system of Eq. (14) is solved for ``(pi_b, pi_0)`` with
``A1 + W A2``, and all geometric tail sums become scalar series.  No ``G``
iteration runs, which removes the most expensive part of the computation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bound_models import LowerBoundModel, QBDBlocks
from repro.core.model import SQDModel
from repro.core.qbd_solver import BoundModelSolution, SolutionMethod, solve_bound_model
from repro.markov.arrival_processes import ArrivalProcess, PoissonArrivals, solve_sigma
from repro.utils.validation import check_integer


def poisson_decay_factor(model: SQDModel) -> float:
    """Theorem 3: for Poisson arrivals the per-block decay factor is ``rho^N``."""
    model.require_stable()
    return model.utilization ** model.num_servers


def general_decay_factor(model: SQDModel, arrival_process: ArrivalProcess) -> float:
    """Theorem 2: decay factor ``sigma^N`` for a general renewal arrival process.

    ``sigma`` solves ``x = sum_k x^k beta_k`` with the ``beta_k`` of Eq. (19)
    computed for the given interarrival distribution; see
    :func:`repro.markov.arrival_processes.solve_sigma`.
    """
    sigma = solve_sigma(arrival_process, service_rate=model.service_rate * model.num_servers)
    return sigma ** model.num_servers


def solve_improved_lower_bound(
    model: SQDModel,
    threshold: int,
    blocks: Optional[QBDBlocks] = None,
    decay_factor: Optional[float] = None,
) -> BoundModelSolution:
    """Solve the lower bound model with the scalar-geometric tail of Theorems 2-3.

    Parameters
    ----------
    model, threshold:
        The SQ(d) model and the imbalance threshold ``T``.
    blocks:
        Pre-assembled QBD blocks of the lower bound model (assembled on the
        fly when omitted; passing them avoids re-enumerating the state space
        when both Theorem 1 and Theorem 3 solutions are needed).
    decay_factor:
        Override for ``sigma^N``; defaults to ``rho^N`` (Poisson arrivals).
    """
    check_integer("threshold", threshold, minimum=1)
    model.require_stable()
    if blocks is None:
        blocks = LowerBoundModel(model, threshold).qbd_blocks()
    factor = decay_factor if decay_factor is not None else poisson_decay_factor(model)
    return solve_bound_model(blocks, method=SolutionMethod.SCALAR_GEOMETRIC, decay_factor=factor)


def geometric_tail_decay(model: SQDModel, arrival_process: Optional[ArrivalProcess] = None) -> float:
    """Per-block decay factor of the lower bound model's stationary tail.

    For Poisson arrivals this is ``rho^N`` (Theorem 3); for a general renewal
    arrival process it is ``sigma^N`` with ``sigma`` the GI/M/1-type root of
    Theorem 2.  The full stationary solution for non-Poisson input would
    additionally require the embedded (at-arrival) chain of the bound model —
    the paper states Theorem 2 at that level of generality but evaluates only
    the Poisson case, and so do we: the non-Poisson decay factor is exposed
    for tail-asymptotics studies (see ``examples/nonpoisson_arrivals.py``)
    while :func:`solve_improved_lower_bound` keeps its exact Poisson scope.
    """
    if arrival_process is None or isinstance(arrival_process, PoissonArrivals):
        return poisson_decay_factor(model)
    return general_decay_factor(model, arrival_process)
