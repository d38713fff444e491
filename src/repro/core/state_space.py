"""Enumeration and partition of the threshold-restricted state space.

The bound models of the paper live on

.. math:: S = \\{ m = (m_1, ..., m_N) : m_1 \\ge ... \\ge m_N \\ge 0,\\;
                 m_1 - m_N \\le T \\},

which is partitioned (Section IV.A) into a boundary block

.. math:: B_{\\le (N-1)T} = \\{ m \\in S : \\#m \\le (N-1)T \\}

and repeating blocks ``B_q`` containing the states with
``(N-1)T + qN < \\#m <= (N-1)T + (q+1)N``.  Every repeating block has exactly
``C(N+T-1, T)`` states and ``B_{q+1}`` is obtained from ``B_q`` by adding one
job to every server (the shift bijection), which is what gives the generator
its QBD structure.

The partition the generator blocks are assembled on is held as integer
arrays (:class:`StateSpacePartition`, one state a row).  The functions
returning lists of state tuples (:func:`boundary_states`,
:func:`first_repeating_block`, :func:`repeating_block`) enumerate the same
states in the same order, one state at a time, for the per-state law:
the ordering proofs of :mod:`repro.core.ordering` and the reference loops
the tests compare the array code with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.core.state import State, imbalance, shift_state
from repro.utils.combinatorics import binomial, descending_array
from repro.utils.validation import check_integer


def boundary_job_limit(num_servers: int, threshold: int) -> int:
    """Largest total job count of a boundary state: ``(N-1) * T``."""
    return (num_servers - 1) * threshold


def repeating_block_size(num_servers: int, threshold: int) -> int:
    """Number of states in each repeating block: ``C(N+T-1, T)``."""
    return binomial(num_servers + threshold - 1, threshold)


def _offset_states(num_servers: int, threshold: int) -> np.ndarray:
    """Every offset vector ``delta`` of ``S`` (``T >= delta_1 >= ... >= delta_N = 0``)."""
    offsets = descending_array(num_servers - 1, threshold)
    return np.column_stack([offsets, np.zeros(len(offsets), dtype=np.int64)])


def _canonical_order(states: np.ndarray) -> np.ndarray:
    """Rows sorted by total job count, then lexicographically ascending."""
    return states[np.lexsort(np.vstack([states[:, ::-1].T, states.sum(axis=1)]))]


def _as_tuples(states: np.ndarray) -> Tuple[State, ...]:
    return tuple(map(tuple, states.tolist()))


def _restricted(offsets: np.ndarray, max_total_jobs: int) -> np.ndarray:
    # A state is the shortest queue length mN plus an offset vector.
    num_servers = offsets.shape[1]
    bases = np.arange(max_total_jobs // num_servers + 1)
    states = (bases[:, None, None] + offsets).reshape(-1, num_servers)
    return _canonical_order(states[states.sum(axis=1) <= max_total_jobs])


def enumerate_restricted_states(num_servers: int, threshold: int, max_total_jobs: int) -> List[State]:
    """All states of ``S`` with at most ``max_total_jobs`` jobs, sorted canonically.

    The canonical order is by total job count, then lexicographically
    ascending; it matches the ordering used to index the QBD blocks.
    """
    check_integer("num_servers", num_servers, minimum=1)
    check_integer("threshold", threshold, minimum=1)
    check_integer("max_total_jobs", max_total_jobs, minimum=0)
    return list(_as_tuples(_restricted(_offset_states(num_servers, threshold), max_total_jobs)))


def boundary_states(num_servers: int, threshold: int) -> List[State]:
    """The boundary block ``B_{<=(N-1)T}`` in canonical order."""
    return enumerate_restricted_states(num_servers, threshold, boundary_job_limit(num_servers, threshold))


def _first_block(offsets: np.ndarray, limit: int) -> np.ndarray:
    # The unique base level mN >= 1 placing each total in (limit, limit + N].
    num_servers = offsets.shape[1]
    remaining = limit + 1 - offsets.sum(axis=1)
    states = offsets + np.maximum(1, -(-remaining // num_servers))[:, None]
    totals = states.sum(axis=1)
    if not np.all((limit < totals) & (totals <= limit + num_servers)):
        raise RuntimeError(f"block construction failed: totals {totals} outside ({limit}, {limit + num_servers}]")
    return _canonical_order(states)


def first_repeating_block(num_servers: int, threshold: int) -> List[State]:
    """The block ``B_0``: states with ``(N-1)T < #m <= (N-1)T + N`` in canonical order.

    Every state in a repeating block has all servers busy (``mN >= 1``).
    """
    offsets = _offset_states(num_servers, threshold)
    return list(_as_tuples(_first_block(offsets, boundary_job_limit(num_servers, threshold))))


def repeating_block(num_servers: int, threshold: int, block_index: int) -> List[State]:
    """The block ``B_q`` obtained by shifting ``B_0`` up by ``q`` jobs per server."""
    check_integer("block_index", block_index, minimum=0)
    return [shift_state(state, block_index) for state in first_repeating_block(num_servers, threshold)]


@dataclass(frozen=True)
class StateSpacePartition:
    """Boundary and first repeating block of ``S``, as state arrays.

    This is the static structure the QBD generator blocks are built on:
    ``boundary_array`` indexes the rows/columns of ``R00`` and
    ``block0_array`` those of ``A1``/``A0``/``R10``; the level-independent
    blocks are read off ``B1 = B0 + 1``.  Each array holds one ``int64``
    state a row, in canonical order (the order of :func:`boundary_states`
    and :func:`first_repeating_block`).
    """

    num_servers: int
    threshold: int
    boundary_array: np.ndarray = field(repr=False, compare=False)
    block0_array: np.ndarray = field(repr=False, compare=False)

    @property
    def block_size(self) -> int:
        return len(self.block0_array)

    @property
    def boundary_size(self) -> int:
        return len(self.boundary_array)


def build_partition(num_servers: int, threshold: int) -> StateSpacePartition:
    """Enumerate the boundary and the first repeating block of ``S``."""
    check_integer("num_servers", num_servers, minimum=2)
    check_integer("threshold", threshold, minimum=1)
    offsets = _offset_states(num_servers, threshold)
    limit = boundary_job_limit(num_servers, threshold)
    return StateSpacePartition(
        num_servers=num_servers,
        threshold=threshold,
        boundary_array=_restricted(offsets, limit),
        block0_array=_first_block(offsets, limit),
    )


def membership_checker(num_servers: int, threshold: int):
    """Return a predicate testing membership in ``S`` (shape + imbalance)."""

    def contains(state: State) -> bool:
        return (
            len(state) == num_servers
            and all(state[i] >= state[i + 1] for i in range(num_servers - 1))
            and state[-1] >= 0
            and imbalance(state) <= threshold
        )

    return contains
