"""Exact (truncated) stationary analysis of the original SQ(d) chain.

The untruncated SQ(d) Markov process has an infinite, irregularly structured
state space — that is exactly why the paper resorts to bound models.  For
*small* systems, however, one can truncate the ordered state space at a
per-server buffer ``B`` (arrivals that would push the longest queue beyond
``B`` are dropped) and solve the finite chain directly: the ``C(N + B, N)``
ordered states are enumerated as one integer array, every transition comes
out of one :func:`~repro.core.transitions.transition_arrays` pass, each
target's row is its rank in the enumeration order (no lookup table), and
the transposed generator is assembled as one sparse matrix whose balance
equations a sparse LU solves.  The solution stays in arrays: the states and
their probabilities, row for row, from which the delay metrics and the
truncation mass are sequential left folds in state order
(:meth:`~repro.core.delay.DelayMetrics.from_states`), so the LU is nearly
all of a solve.  The result is the oracle used to validate the bounds
(lower <= exact <= upper) in tests and examples; how close it is to the
untruncated chain depends on ``B`` (see :func:`solve_exact_truncated`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.delay import DelayMetrics, left_fold
from repro.core.model import SQDModel
from repro.core.transitions import transition_arrays
from repro.linalg.solvers import _clean_distribution
from repro.utils.combinatorics import binomial, descending_array, descending_rank
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class ExactSolution:
    """Stationary solution of the buffer-truncated SQ(d) chain.

    ``states`` is the ``C(N + B, N) x N`` array of ordered states in
    enumeration order (lexicographically decreasing, the empty state last)
    and ``probabilities`` their stationary probabilities, row for row.
    """

    model: SQDModel
    buffer_size: int
    states: np.ndarray = field(repr=False, compare=False)
    probabilities: np.ndarray = field(repr=False, compare=False)
    metrics: DelayMetrics
    truncation_mass: float

    @property
    def mean_delay(self) -> float:
        return self.metrics.mean_sojourn_time

    @property
    def num_states(self) -> int:
        return len(self.states)


def solve_exact_truncated(model: SQDModel, buffer_size: int = 30) -> ExactSolution:
    """Solve the buffer-truncated SQ(d) chain exactly.

    Parameters
    ----------
    model:
        The SQ(d) model; keep ``num_servers`` small (the ordered state space
        has ``C(N + B, N)`` states; the ``exact`` backend refuses more than
        ``repro.api.engines.MAX_EXACT_STATES``).
    buffer_size:
        Maximum number of jobs per server before arrivals are dropped.
        ``truncation_mass`` (the mass with the longest queue at ``B``) is
        negligible at the default ``30`` for utilizations up to roughly 0.9,
        but it does not bound the error of the mean: at N=3, d=2 the mean
        delay at ``B = 30`` is 0.076% below ``B = 60`` at rho = 0.9, and
        4.6% below ``B = 80`` at rho = 0.95 (7.318 against 7.671), where
        ``B = 40`` (7.571) still lies below the paper's T=5 lower bound
        (7.616).
    """
    check_integer("buffer_size", buffer_size, minimum=1)
    model.require_stable()
    from scipy.sparse.linalg import spsolve

    states, matrix = transposed_generator(model, buffer_size)
    n = len(states)
    # Fix pi(empty) = 1 and drop the empty state's (redundant) balance
    # equation; a row of ones in its place would fill the LU factors in.
    # On these lattices minimum-degree ordering on A^T + A factors 2-4x
    # faster than SuperLU's default COLAMD.
    pi = np.ones(n)
    pi[:-1] = spsolve(
        matrix[:-1, :-1], -matrix[:-1, -1].toarray().ravel(), permc_spec="MMD_AT_PLUS_A"
    )
    probabilities = _clean_distribution(pi)
    return ExactSolution(
        model=model,
        buffer_size=buffer_size,
        states=states,
        probabilities=probabilities,
        metrics=DelayMetrics.from_states(states, probabilities, model.total_arrival_rate, model.service_rate),
        truncation_mass=left_fold(probabilities[states[:, 0] == buffer_size]),
    )


def transposed_generator(model: SQDModel, buffer_size: int):
    """The ordered states and the transposed generator of the truncated chain.

    Returns the ``C(N + B, N) x N`` array of states, lexicographically
    decreasing (so the empty state comes last; a state's row is its rank in
    that order), and the generator's transpose as a CSC matrix (column =
    source, row = target).  Arrivals that would push the longest queue past
    ``B`` are dropped.
    """
    from scipy.sparse import csc_matrix

    states = descending_array(model.num_servers, buffer_size)
    n = len(states)
    moves = transition_arrays(states, model)
    kept = moves.target[:, 0] <= buffer_size
    rates = moves.rate[kept]
    cols = moves.source[kept]
    # The diagonal is minus the column sums (each state's total outflow),
    # folded in the per-state order of ``all_transitions``.
    rates = np.concatenate([rates, -np.bincount(cols, weights=rates, minlength=n)])
    rows = np.concatenate([descending_rank(moves.target[kept], buffer_size), np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    return states, csc_matrix((rates, (rows, cols)), shape=(n, n))


def exact_state_space_size(model: SQDModel, buffer_size: int) -> int:
    """Number of ordered states with every queue at most ``buffer_size``."""
    return binomial(model.num_servers + buffer_size, model.num_servers)
