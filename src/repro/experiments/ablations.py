"""Ablation experiments around the paper's design choices.

Three studies that the paper discusses qualitatively but does not plot:

* **Threshold sweep** — how the upper (and lower) bound tightness and the
  block size trade off against the threshold ``T`` ("there is an interesting
  tradeoff between the accuracy of the obtained upper bounds and the
  dimension of the computational complexity", Section V/VI).
* **Improved vs matrix-geometric lower bound** — Theorem 3 against Theorem 1:
  identical results, very different cost.
* **Power-of-d gap in finite N** — the delay improvement of d = 2, 3 over
  d = 1 at finite N, the finite-regime version of the power-of-two result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.bound_models import LowerBoundModel, UpperBoundModel
from repro.core.improved_lower import solve_improved_lower_bound
from repro.core.model import SQDModel
from repro.core.qbd_solver import SolutionMethod, UnstableBoundModelError, solve_bound_model
from repro.core.state_space import repeating_block_size
from repro.core.asymptotic import asymptotic_delay
from repro.fleet.engine import simulate_fleet
from repro.utils.tables import format_table


@dataclass(frozen=True)
class ThresholdSweepResult:
    """Bound tightness and block sizes across thresholds for one model."""

    model: SQDModel
    thresholds: List[int]
    block_sizes: List[int]
    lower_bounds: List[float]
    upper_bounds: List[float]
    simulation: float

    def as_table(self) -> str:
        rows = []
        for i, threshold in enumerate(self.thresholds):
            rows.append(
                [
                    threshold,
                    self.block_sizes[i],
                    self.lower_bounds[i],
                    self.upper_bounds[i],
                    self.simulation,
                ]
            )
        return format_table(
            ["T", "block size", "lower bound", "upper bound", "simulation"],
            rows,
            title=(
                f"Ablation A1: bound tightness vs threshold "
                f"(N={self.model.num_servers}, d={self.model.d}, rho={self.model.utilization})"
            ),
        )


def run_threshold_sweep(
    num_servers: int = 3,
    d: int = 2,
    utilization: float = 0.8,
    thresholds: Sequence[int] = (1, 2, 3, 4),
    simulation_events: int = 200_000,
    seed: int = 7,
) -> ThresholdSweepResult:
    """Sweep the threshold ``T`` and report bound tightness and block size."""
    model = SQDModel(num_servers=num_servers, d=d, utilization=utilization)
    lower_values: List[float] = []
    upper_values: List[float] = []
    block_sizes: List[int] = []
    for threshold in thresholds:
        block_sizes.append(repeating_block_size(num_servers, threshold))
        lower_values.append(solve_improved_lower_bound(model, threshold).mean_delay)
        try:
            upper_solution = solve_bound_model(UpperBoundModel(model, threshold).qbd_blocks())
            upper_values.append(upper_solution.mean_delay)
        except UnstableBoundModelError:
            upper_values.append(math.inf)
    simulation = simulate_fleet(
        num_servers=num_servers, d=d, utilization=utilization, num_events=simulation_events, seed=seed
    ).mean_delay
    return ThresholdSweepResult(
        model=model,
        thresholds=list(thresholds),
        block_sizes=block_sizes,
        lower_bounds=lower_values,
        upper_bounds=upper_values,
        simulation=simulation,
    )


@dataclass(frozen=True)
class MethodComparisonResult:
    """Theorem 3 (scalar) against Theorem 1 (matrix-geometric) lower bound."""

    model: SQDModel
    threshold: int
    utilizations: List[float]
    scalar_delays: List[float]
    matrix_delays: List[float]
    scalar_seconds: float
    matrix_seconds: float

    @property
    def max_absolute_difference(self) -> float:
        return max(abs(a - b) for a, b in zip(self.scalar_delays, self.matrix_delays))

    def as_table(self) -> str:
        rows = [
            [u, s, m, abs(s - m)]
            for u, s, m in zip(self.utilizations, self.scalar_delays, self.matrix_delays)
        ]
        rows.append(["total seconds", self.scalar_seconds, self.matrix_seconds, ""])
        return format_table(
            ["utilization", "Theorem 3 (scalar)", "Theorem 1 (matrix)", "difference"],
            rows,
            title=(
                f"Ablation A2: improved vs matrix-geometric lower bound "
                f"(N={self.model.num_servers}, d={self.model.d}, T={self.threshold})"
            ),
        )


def run_improved_vs_matrix_geometric(
    num_servers: int = 3,
    d: int = 2,
    threshold: int = 3,
    utilizations: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
) -> MethodComparisonResult:
    """Compare the two lower-bound solution methods (values and wall time)."""
    base_model = SQDModel(num_servers=num_servers, d=d, utilization=0.5)
    scalar_delays: List[float] = []
    matrix_delays: List[float] = []

    start = time.perf_counter()
    for utilization in utilizations:
        model = base_model.with_utilization(utilization)
        scalar_delays.append(solve_improved_lower_bound(model, threshold).mean_delay)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for utilization in utilizations:
        model = base_model.with_utilization(utilization)
        blocks = LowerBoundModel(model, threshold).qbd_blocks()
        matrix_delays.append(solve_bound_model(blocks, method=SolutionMethod.MATRIX_GEOMETRIC).mean_delay)
    matrix_seconds = time.perf_counter() - start

    return MethodComparisonResult(
        model=base_model,
        threshold=threshold,
        utilizations=[float(u) for u in utilizations],
        scalar_delays=scalar_delays,
        matrix_delays=matrix_delays,
        scalar_seconds=scalar_seconds,
        matrix_seconds=matrix_seconds,
    )


@dataclass(frozen=True)
class PowerOfDGapResult:
    """Finite-N delay of SQ(d) for several d, against the asymptotic prediction."""

    num_servers: int
    utilization: float
    choices: List[int]
    lower_bounds: List[float]
    simulations: List[float]
    asymptotics: List[float]

    def as_table(self) -> str:
        rows = [
            [d, lower, sim, asymptotic]
            for d, lower, sim, asymptotic in zip(self.choices, self.lower_bounds, self.simulations, self.asymptotics)
        ]
        return format_table(
            ["d", "lower bound", "simulation", "asymptotic"],
            rows,
            title=f"Ablation A3: power-of-d gap at N={self.num_servers}, rho={self.utilization}",
        )


def run_power_of_d_gap(
    num_servers: int = 10,
    utilization: float = 0.9,
    choices: Sequence[int] = (1, 2, 3),
    threshold: int = 2,
    simulation_events: int = 200_000,
    seed: int = 11,
) -> PowerOfDGapResult:
    """Quantify the finite-N power-of-d effect (delay vs number of choices)."""
    lower_bounds: List[float] = []
    simulations: List[float] = []
    asymptotics: List[float] = []
    for d in choices:
        model = SQDModel(num_servers=num_servers, d=d, utilization=utilization)
        lower_bounds.append(solve_improved_lower_bound(model, threshold).mean_delay)
        simulations.append(
            simulate_fleet(
                num_servers=num_servers,
                d=d,
                utilization=utilization,
                num_events=simulation_events,
                seed=seed + d,
            ).mean_delay
        )
        asymptotics.append(asymptotic_delay(utilization, d))
    return PowerOfDGapResult(
        num_servers=num_servers,
        utilization=utilization,
        choices=list(choices),
        lower_bounds=lower_bounds,
        simulations=simulations,
        asymptotics=asymptotics,
    )
