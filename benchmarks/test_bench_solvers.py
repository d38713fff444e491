"""Micro-benchmarks of the analytical machinery itself.

Not a figure from the paper, but the quantitative backing for its complexity
remarks: the QBD block size grows as C(N+T-1, T), the logarithmic-reduction
G computation dominates the matrix-geometric solve, and the Theorem 3 scalar
solve avoids it entirely.

Run with::

    pytest benchmarks/test_bench_solvers.py --benchmark-only
"""

from __future__ import annotations

from repro.core.bound_models import LowerBoundModel, UpperBoundModel
from repro.core.improved_lower import solve_improved_lower_bound
from repro.core.model import SQDModel
from repro.core.qbd_solver import SolutionMethod, solve_bound_model


def test_lower_bound_matrix_geometric_n6_t3(benchmark):
    """Theorem 1 solve for N=6, T=3 (block size 56)."""
    model = SQDModel(num_servers=6, d=2, utilization=0.9)
    blocks = LowerBoundModel(model, 3).qbd_blocks()
    solution = benchmark(lambda: solve_bound_model(blocks, method=SolutionMethod.MATRIX_GEOMETRIC))
    assert solution.mean_delay > 1.0


def test_lower_bound_improved_n6_t3(benchmark):
    """Theorem 3 solve for N=6, T=3 — same answer, no R matrix."""
    model = SQDModel(num_servers=6, d=2, utilization=0.9)
    blocks = LowerBoundModel(model, 3).qbd_blocks()
    solution = benchmark(lambda: solve_improved_lower_bound(model, 3, blocks=blocks))
    assert solution.mean_delay > 1.0


def test_block_assembly_n12_t3(benchmark):
    """Generator-block assembly for the paper's largest configuration (N=12, T=3, block size 364)."""
    model = SQDModel(num_servers=12, d=2, utilization=0.9)
    blocks = benchmark.pedantic(lambda: LowerBoundModel(model, 3).qbd_blocks(), rounds=1, iterations=1)
    assert blocks.block_size == 364


def test_upper_bound_solve_n3_t3(benchmark):
    """Upper bound (Theorem 1) solve for N=3, T=3."""
    model = SQDModel(num_servers=3, d=2, utilization=0.8)
    blocks = UpperBoundModel(model, 3).qbd_blocks()
    solution = benchmark(lambda: solve_bound_model(blocks))
    assert solution.mean_delay > 1.0
