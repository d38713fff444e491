"""Matrix-geometric solution of the bound models (Theorem 1 of the paper).

Given the generator blocks assembled by
:class:`repro.core.bound_models.QBDBlocks`, this module

1. computes the matrix ``G`` with the Latouche–Ramaswami logarithmic
   reduction and the rate matrix ``R = -A0 (A1 + A0 G)^{-1}``,
2. solves the boundary balance equations

   .. math:: (\\pi_b, \\pi_0, \\pi_1)
             \\begin{pmatrix} R_{00} & R_{01} & 0 \\\\
                              R_{10} & A_1 & A_0 \\\\
                              0 & A_2 & A_1 + R A_2 \\end{pmatrix} = 0

   with the normalization
   ``pi_b e + pi_0 e + pi_1 (I - R)^{-1} e = 1``,
3. exposes the stationary distribution (``pi_{q+1} = pi_q R`` for ``q >= 1``)
   and the delay metrics derived from it.

The same code also solves the *improved lower bound* of Theorems 2-3, where
the rate matrix is replaced by the scalar ``sigma^N`` (``rho^N`` for Poisson
arrivals): geometric matrix sums simply become scalar geometric series.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.bound_models import BoundKind, QBDBlocks
from repro.core.state import State
from repro.linalg.blocks import geometric_block_sum, spectral_radius
from repro.linalg.logarithmic_reduction import (
    QBDSolveError,
    is_qbd_positive_recurrent,
    qbd_drift,
    rate_matrix_from_G,
    rate_matrix_residual,
    solve_G_logarithmic_reduction,
)
from repro.linalg.solvers import solve_constrained_left_nullspace


class SolutionMethod(enum.Enum):
    """How the geometric tail of the stationary distribution is represented."""

    MATRIX_GEOMETRIC = "matrix-geometric"
    SCALAR_GEOMETRIC = "scalar-geometric"


class UnstableBoundModelError(RuntimeError):
    """Raised when the (upper) bound model violates Neuts' drift condition."""


@dataclass(frozen=True)
class BoundModelSolution:
    """Stationary solution of a bound model and the delay metrics derived from it."""

    blocks: QBDBlocks
    method: SolutionMethod
    pi_boundary: np.ndarray
    pi_block0: np.ndarray
    pi_block1: np.ndarray
    rate_matrix: Optional[np.ndarray]
    decay_factor: Optional[float]
    mean_jobs_in_system: float
    mean_waiting_jobs: float
    mean_waiting_time: float
    mean_sojourn_time: float
    drift: float
    g_iterations: int = 0
    g_residual: float = 0.0
    r_residual: float = 0.0
    balance_residual: float = 0.0

    @property
    def mean_delay(self) -> float:
        """The paper's "average delay" — the mean sojourn (response) time."""
        return self.mean_sojourn_time

    @property
    def kind(self) -> BoundKind:
        return self.blocks.kind

    def boundary_probabilities(self) -> Dict[State, float]:
        """Stationary probabilities of the boundary states."""
        return {state: float(p) for state, p in zip(self.blocks.partition.boundary, self.pi_boundary)}

    def block_probabilities(self, block_index: int) -> Dict[State, float]:
        """Stationary probabilities of the states of repeating block ``B_q``."""
        if block_index < 0:
            raise ValueError("block_index must be non-negative")
        if block_index == 0:
            vector = self.pi_block0
        else:
            vector = self.pi_block1.copy()
            for _ in range(block_index - 1):
                vector = self._advance(vector)
        states = [tuple(v + block_index for v in s) for s in self.blocks.partition.block0]
        return {state: float(p) for state, p in zip(states, vector)}

    def _advance(self, vector: np.ndarray) -> np.ndarray:
        if self.method is SolutionMethod.MATRIX_GEOMETRIC:
            return vector @ self.rate_matrix
        return vector * self.decay_factor

    def total_probability_mass(self, max_blocks: int = 200) -> float:
        """Numerically re-sum the probability mass (sanity check, should be ~1)."""
        mass = float(self.pi_boundary.sum() + self.pi_block0.sum())
        vector = self.pi_block1.copy()
        for _ in range(max_blocks):
            mass += float(vector.sum())
            vector = self._advance(vector)
            if vector.sum() < 1e-16:
                break
        return mass

    def queue_length_tail_distribution(self, max_length: int = 40, tolerance: float = 1e-14) -> list:
        """Fraction of servers with at least ``k`` jobs, for ``k = 0 .. max_length``.

        This is the bound-model analogue of Mitzenmacher's asymptotic
        fractions ``s_k`` (see
        :func:`repro.core.asymptotic.asymptotic_queue_length_distribution`),
        computed from the stationary distribution by averaging the indicator
        ``m_i >= k`` over servers and states.  The geometric tail over the
        repeating blocks is summed numerically until its mass drops below
        ``tolerance``.
        """
        num_servers = self.blocks.model.num_servers
        tail = np.zeros(max_length + 1)

        def accumulate(states, probabilities) -> None:
            for state, probability in zip(states, probabilities):
                if probability <= 0:
                    continue
                for k in range(max_length + 1):
                    count = sum(1 for v in state if v >= k)
                    if count == 0:
                        break
                    tail[k] += probability * count / num_servers

        partition = self.blocks.partition
        accumulate(partition.boundary, self.pi_boundary)
        accumulate(partition.block0, self.pi_block0)
        vector = self.pi_block1.copy()
        shift = 1
        while float(vector.sum()) > tolerance and shift < 10_000:
            states = [tuple(v + shift for v in s) for s in partition.block0]
            accumulate(states, vector)
            vector = self._advance(vector)
            shift += 1
        return [float(value) for value in tail]


def solve_bound_model(
    blocks: QBDBlocks,
    method: SolutionMethod | str = SolutionMethod.MATRIX_GEOMETRIC,
    decay_factor: Optional[float] = None,
) -> BoundModelSolution:
    """Solve a bound model for its stationary distribution and delay metrics.

    Parameters
    ----------
    blocks:
        Generator blocks from :meth:`LowerBoundModel.qbd_blocks` or
        :meth:`UpperBoundModel.qbd_blocks`.
    method:
        ``MATRIX_GEOMETRIC`` implements Theorem 1 (works for both bound
        models); ``SCALAR_GEOMETRIC`` implements Theorems 2-3 and is only
        valid for the lower bound model.
    decay_factor:
        The scalar ``sigma^N`` for the scalar-geometric method.  Defaults to
        ``rho^N`` (Theorem 3, Poisson arrivals) when omitted.

    Raises
    ------
    UnstableBoundModelError
        If the QBD drift condition fails (typically the upper bound model at
        high utilization / small T).
    """
    if isinstance(method, str):
        method = SolutionMethod(method)

    model = blocks.model
    drift = qbd_drift(blocks.A0, blocks.A1, blocks.A2)
    if drift >= 0:
        raise UnstableBoundModelError(
            f"{blocks.kind.value} bound model with T={blocks.threshold} is not positive recurrent "
            f"at utilization {model.utilization:.3f} (drift {drift:.3e} >= 0)"
        )

    if method is SolutionMethod.MATRIX_GEOMETRIC:
        g_result = solve_G_logarithmic_reduction(blocks.A0, blocks.A1, blocks.A2)
        R = rate_matrix_from_G(blocks.A0, blocks.A1, g_result.G)
        r_residual = rate_matrix_residual(blocks.A0, blocks.A1, blocks.A2, R)
        tail_block = blocks.A1 + R @ blocks.A2
        tail_weights = geometric_block_sum(R, np.ones(blocks.block_size))
        scalar = None
        g_iterations = g_result.iterations
        g_residual = g_result.residual
    else:
        if blocks.kind is not BoundKind.LOWER:
            raise ValueError("the scalar-geometric (improved) method only applies to the lower bound model")
        scalar = decay_factor if decay_factor is not None else model.utilization ** model.num_servers
        if not 0.0 < scalar < 1.0:
            raise UnstableBoundModelError(f"scalar decay factor {scalar} is outside (0, 1)")
        R = None
        r_residual = 0.0
        g_iterations = 0
        g_residual = 0.0
        tail_block = blocks.A1 + scalar * blocks.A2
        tail_weights = np.full(blocks.block_size, 1.0 / (1.0 - scalar))

    balance_matrix = _assemble_boundary_balance_matrix(blocks, tail_block)
    weights = np.concatenate(
        [np.ones(blocks.boundary_size), np.ones(blocks.block_size), tail_weights]
    )
    solution_vector = solve_constrained_left_nullspace(balance_matrix, weights)
    if np.any(solution_vector < -1e-8):
        raise QBDSolveError("boundary solve produced negative probabilities")
    solution_vector = np.clip(solution_vector, 0.0, None)
    balance_residual = float(np.linalg.norm(solution_vector @ balance_matrix))

    boundary_size = blocks.boundary_size
    block_size = blocks.block_size
    pi_boundary = solution_vector[:boundary_size]
    pi_block0 = solution_vector[boundary_size:boundary_size + block_size]
    pi_block1 = solution_vector[boundary_size + block_size:]

    metrics = _delay_metrics(blocks, pi_boundary, pi_block0, pi_block1, R, scalar)

    return BoundModelSolution(
        blocks=blocks,
        method=method,
        pi_boundary=pi_boundary,
        pi_block0=pi_block0,
        pi_block1=pi_block1,
        rate_matrix=R,
        decay_factor=scalar,
        mean_jobs_in_system=metrics["mean_jobs"],
        mean_waiting_jobs=metrics["mean_waiting_jobs"],
        mean_waiting_time=metrics["mean_waiting_time"],
        mean_sojourn_time=metrics["mean_sojourn_time"],
        drift=drift,
        g_iterations=g_iterations,
        g_residual=g_residual,
        r_residual=r_residual,
        balance_residual=balance_residual,
    )


def _assemble_boundary_balance_matrix(blocks: QBDBlocks, tail_block: np.ndarray) -> np.ndarray:
    """The 3x3 block matrix of Theorem 1 / Eq. (13)-(14)."""
    boundary_size = blocks.boundary_size
    block_size = blocks.block_size
    total = boundary_size + 2 * block_size
    matrix = np.zeros((total, total))
    b, m = boundary_size, block_size
    matrix[:b, :b] = blocks.R00
    matrix[:b, b:b + m] = blocks.R01
    matrix[b:b + m, :b] = blocks.R10
    matrix[b:b + m, b:b + m] = blocks.A1
    matrix[b:b + m, b + m:] = blocks.A0
    matrix[b + m:, b:b + m] = blocks.A2
    matrix[b + m:, b + m:] = tail_block
    return matrix


def _delay_metrics(
    blocks: QBDBlocks,
    pi_boundary: np.ndarray,
    pi_block0: np.ndarray,
    pi_block1: np.ndarray,
    R: Optional[np.ndarray],
    scalar: Optional[float],
) -> Dict[str, float]:
    """Mean queue-length / waiting / sojourn metrics from the stationary vectors.

    The sums over the infinite repeating blocks use

    .. math:: \\sum_{q \\ge 1} \\pi_q = \\pi_1 (I - R)^{-1}, \\qquad
              \\sum_{q \\ge 1} (q - 1) \\pi_q = \\pi_1 (I - R)^{-2} R

    (or the scalar analogues when ``pi_{q+1} = sigma^N pi_q``).
    """
    model = blocks.model
    partition = blocks.partition
    num_servers = model.num_servers

    boundary_totals = partition.boundary_array.sum(axis=1).astype(float)
    boundary_waiting = np.maximum(partition.boundary_array - 1, 0).sum(axis=1).astype(float)
    block0_totals = partition.block0_array.sum(axis=1).astype(float)
    block1_totals = block0_totals + num_servers

    mean_jobs = float(pi_boundary @ boundary_totals + pi_block0 @ block0_totals)
    mean_waiting_jobs = float(
        pi_boundary @ boundary_waiting + pi_block0 @ (block0_totals - num_servers)
    )

    if R is not None:
        ones = np.ones(blocks.block_size)
        inv = np.linalg.inv(np.eye(blocks.block_size) - R)
        tail_mass_vector = pi_block1 @ inv                      # sum_{q>=1} pi_q
        extra_levels = pi_block1 @ inv @ inv @ R                # sum_{q>=1} (q-1) pi_q
        tail_jobs = float(tail_mass_vector @ block1_totals + num_servers * (extra_levels @ ones))
        tail_mass = float(tail_mass_vector @ ones)
    else:
        sigma_n = float(scalar)
        tail_mass = float(pi_block1.sum()) / (1.0 - sigma_n)
        # sum_{q>=1} (q-1) sigma_n^(q-1) = sigma_n / (1 - sigma_n)^2
        extra_level_mass = float(pi_block1.sum()) * sigma_n / (1.0 - sigma_n) ** 2
        tail_jobs = float((pi_block1 @ block1_totals) / (1.0 - sigma_n) + num_servers * extra_level_mass)

    mean_jobs += tail_jobs
    mean_waiting_jobs += tail_jobs - num_servers * tail_mass

    arrival_rate = model.total_arrival_rate
    mean_waiting_time = mean_waiting_jobs / arrival_rate
    mean_sojourn_time = mean_waiting_time + 1.0 / model.service_rate

    return {
        "mean_jobs": mean_jobs,
        "mean_waiting_jobs": mean_waiting_jobs,
        "mean_waiting_time": mean_waiting_time,
        "mean_sojourn_time": mean_sojourn_time,
    }


def upper_bound_is_stable(blocks: QBDBlocks) -> bool:
    """Convenience wrapper around Neuts' drift condition for the upper bound model."""
    return is_qbd_positive_recurrent(blocks.A0, blocks.A1, blocks.A2)


def decay_rate(blocks: QBDBlocks) -> float:
    """Spectral radius of the rate matrix R (the geometric tail decay per block)."""
    g_result = solve_G_logarithmic_reduction(blocks.A0, blocks.A1, blocks.A2)
    R = rate_matrix_from_G(blocks.A0, blocks.A1, g_result.G)
    return spectral_radius(R)
