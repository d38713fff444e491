"""The SQ(d) lower and upper bound models (Sections II-III of the paper).

Both bound models restrict the ordered state space to

.. math:: S = \\{ m : m_1 \\ge ... \\ge m_N, \\; m_1 - m_N \\le T \\}

and *redirect* the two kinds of transitions that would leave ``S``:

* an arrival into the longest-queue group while ``m_1 - m_N = T`` (it would
  raise the imbalance to ``T + 1``), and
* a departure from the shortest-queue group while ``m_1 - m_N = T``.

The **lower bound model** redirects both to *more preferable* states in the
precedence order of Eq. (5): the blocked arrival joins the shortest queue
instead, and the blocked departure is taken from the longest queue instead
(equivalently, a job "jockeys" from the longest to the shortest queue, as in
Adan et al.'s JSQ construction).  The **upper bound model** redirects both to
*less preferable* states: the departure from the shortest queue is simply
blocked (wasting service capacity — this is why its stability region shrinks)
and the arriving job joins the longest queue while a phantom job is injected
into the shortest queue (keeping the chain inside ``S`` at the price of extra
load).  See DESIGN.md for the full reconstruction argument; the redirection
targets are on the correct side of the precedence order, which is all the
stochastic-ordering proof of Section III requires.

Away from the boundary the redirected dynamics are invariant under adding a
job to every server, so the restricted chains are level-independent QBDs;
this module also assembles their generator blocks
``R00, R01, R10, A0, A1, A2`` in the block layout of Section IV.A.

The redirect rules are written twice.  :meth:`transition_map` and
:meth:`redirections` apply them to one state at a time; they are the
statement of the law that the ordering module, the introspection API and
the tests read.  :meth:`qbd_blocks` applies them as array edits to every
transition of the boundary, ``B0`` and ``B1`` rows at once (one
:func:`~repro.core.transitions.transition_arrays` pass), looks each target
up by an integer key (its shortest queue and the rank of its offsets) and
sums each row's entries in the order the per-state dict does, so the
blocks are the per-state loop's bit for bit.  None of that depends on the
rates: it is an :class:`AssemblyPlan`, built once per bound-model class
and ``(N, d, T)`` and kept with the solver cache, and each call forms the
rates with :func:`~repro.core.transitions.transition_rates` and scatters
them with the plan's indices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.model import SQDModel
from repro.core.solver_cache import solver_cache
from repro.core.state import (
    State,
    canonical_state,
    imbalance,
    precedes,
    tie_groups,
)
from repro.core.state_space import StateSpacePartition, build_partition
from repro.core.transitions import (
    TransitionArrays,
    arrival_transitions,
    departure_transitions,
    transition_arrays,
    transition_rates,
)
from repro.utils.combinatorics import descending_rank
from repro.utils.validation import check_integer


class BoundKind(enum.Enum):
    """Which side of the SQ(d) delay the modified chain bounds."""

    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class Redirection:
    """Record of one redirected transition (kept for introspection and tests)."""

    source: State
    original_target: State
    redirected_target: State | None  # None means the transition is blocked
    rate: float
    reason: str


@dataclass(frozen=True)
class QBDBlocks:
    """Generator blocks of a bound model in the layout of Section IV.A."""

    model: SQDModel
    threshold: int
    kind: BoundKind
    partition: StateSpacePartition
    R00: np.ndarray
    R01: np.ndarray
    R10: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray

    @property
    def block_size(self) -> int:
        return self.partition.block_size

    @property
    def boundary_size(self) -> int:
        return self.partition.boundary_size


@dataclass(frozen=True, eq=False)
class AssemblyPlan:
    """The rate-independent structure of a bound model's QBD blocks.

    Built once per bound-model class and ``(N, d, T)``: the partition, the
    coefficient and kind of every kept transition, the entry of the stacked
    blocks each one adds to, the entries each row's diagonal subtracts (its
    first transition to each distinct target, in order) and where the
    diagonals sit.
    """

    partition: StateSpacePartition
    coefficient: np.ndarray
    arrival: np.ndarray
    cell: np.ndarray
    first_cell: np.ndarray
    first_slot: np.ndarray
    diagonal: np.ndarray
    shapes: Tuple[Tuple[int, int], ...]

    def assemble(self, model: SQDModel) -> List[np.ndarray]:
        """The blocks at ``model``'s rates, in the order of ``shapes``.

        ``np.bincount`` adds each entry's rates in transition order, as the
        per-state dict does (``(0 + r1) + r2``), and a second one folds each
        row's distinct targets, in first-seen order, into its diagonal.
        """
        rate = transition_rates(self.coefficient, self.arrival, model)
        sizes = [rows * columns for rows, columns in self.shapes]
        flat = np.bincount(self.cell, weights=rate, minlength=sum(sizes))
        total = np.bincount(self.first_slot, weights=flat[self.first_cell], minlength=len(self.diagonal))
        flat[self.diagonal] -= total
        ends = np.cumsum(sizes)
        return [flat[end - size:end].reshape(shape) for end, size, shape in zip(ends, sizes, self.shapes)]


class _BoundModelBase:
    """Shared machinery of the lower and upper bound models."""

    kind: BoundKind

    def __init__(self, model: SQDModel, threshold: int):
        check_integer("threshold", threshold, minimum=1)
        if model.num_servers < 2:
            raise ValueError("bound models require at least two servers (N >= 2)")
        self.model = model
        self.threshold = int(threshold)

    # ------------------------------------------------------------------ #
    # Redirected transition structure
    # ------------------------------------------------------------------ #
    def contains(self, state: State) -> bool:
        """Membership in the restricted space ``S``."""
        return (
            len(state) == self.model.num_servers
            and all(state[i] >= state[i + 1] for i in range(len(state) - 1))
            and state[-1] >= 0
            and imbalance(state) <= self.threshold
        )

    def transition_map(self, state: State) -> Dict[State, float]:
        """Outgoing transitions of ``state`` in the bound model, aggregated by target."""
        rates: Dict[State, float] = {}
        for target, rate, _ in self._transitions_with_provenance(state):
            if target is None or target == state:
                continue
            rates[target] = rates.get(target, 0.0) + rate
        return rates

    def redirections(self, state: State) -> List[Redirection]:
        """The redirected (or blocked) transitions out of ``state``."""
        redirections = []
        for target, rate, redirection in self._transitions_with_provenance(state):
            if redirection is not None:
                redirections.append(redirection)
        return redirections

    def _transitions_with_provenance(
        self, state: State
    ) -> List[Tuple[State | None, float, Redirection | None]]:
        if not self.contains(state):
            raise ValueError(f"state {state} is outside the restricted space S (T={self.threshold})")
        results: List[Tuple[State | None, float, Redirection | None]] = []
        for target, rate in arrival_transitions(state, self.model):
            if imbalance(target) <= self.threshold:
                results.append((target, rate, None))
            else:
                redirected = self._redirect_arrival(state)
                results.append(
                    (
                        redirected,
                        rate,
                        Redirection(
                            source=state,
                            original_target=target,
                            redirected_target=redirected,
                            rate=rate,
                            reason="arrival would push the imbalance above T",
                        ),
                    )
                )
        for target, rate in departure_transitions(state, self.model):
            if imbalance(target) <= self.threshold:
                results.append((target, rate, None))
            else:
                redirected = self._redirect_departure(state)
                results.append(
                    (
                        redirected,
                        rate,
                        Redirection(
                            source=state,
                            original_target=target,
                            redirected_target=redirected,
                            rate=rate,
                            reason="departure from the shortest queue would push the imbalance above T",
                        ),
                    )
                )
        return results

    # Subclasses define where the violating transitions go.
    def _redirect_arrival(self, state: State) -> State | None:
        raise NotImplementedError

    def _redirect_departure(self, state: State) -> State | None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # QBD block assembly
    # ------------------------------------------------------------------ #
    def qbd_blocks(self) -> QBDBlocks:
        """Assemble the generator blocks of Section IV.A for this bound model.

        The structure comes from the :class:`AssemblyPlan` of this model's
        class and ``(N, d, T)``, built on first use and kept with the solver
        cache (:meth:`~repro.core.solver_cache.SolverCache.plan`); each call
        only forms the rates and scatters them with the plan's indices.
        """
        model = self.model
        key = (type(self), model.num_servers, model.d, self.threshold)
        plan = solver_cache().plan(key, self._assembly_plan)
        R00, R01, R10, A2, A1, A0 = plan.assemble(model)
        return QBDBlocks(
            model=model,
            threshold=self.threshold,
            kind=self.kind,
            partition=plan.partition,
            R00=R00,
            R01=R01,
            R10=R10,
            A0=A0,
            A1=A1,
            A2=A2,
        )

    def _assembly_plan(self) -> AssemblyPlan:
        """Build the rate-independent structure of :meth:`qbd_blocks`.

        The rows of the boundary, ``B0`` and ``B1`` go through
        :func:`transition_arrays` in one pass and the redirect rules edit the
        violating targets in place.  Each kept transition gets the entry of
        the stacked blocks it adds to; each row's first transition to each
        target marks what its diagonal subtracts.  Level independence
        (Eq. 9) does not depend on the rates, so it is checked here, once,
        with this model's rates.
        """
        threshold = self.threshold
        partition = build_partition(self.model.num_servers, threshold)
        boundary_size = partition.boundary_size
        block_size = partition.block_size
        block0 = partition.block0_array
        sources = np.vstack([partition.boundary_array, block0, block0 + 1])
        moves = transition_arrays(sources, self.model)
        target, kept = self._redirect_arrays(sources, moves)
        source, target = moves.source[kept], target[kept]

        # Column of each target: boundary, then B0, B1 and B2.  A state of S
        # is keyed by its shortest queue and the rank of its offsets, a code
        # below (levels + 1) * C(N+T-1, T), so it cannot overflow.
        def key(states: np.ndarray) -> np.ndarray:
            base = states[:, -1]
            return base * block_size + descending_rank(states[:, :-1] - base[:, None], threshold)

        keys = key(sources[: boundary_size + block_size])
        keys = np.concatenate([keys, keys[boundary_size:] + block_size, keys[boundary_size:] + 2 * block_size])
        target_keys = key(target)
        lookup = np.full(max(keys.max(), target_keys.max()) + 1, -1)
        lookup[keys] = np.arange(len(keys))
        column = lookup[target_keys]

        # Region 0 is the boundary, region q + 1 the block B_q, for rows and columns.
        def region(index: np.ndarray) -> np.ndarray:
            return np.where(index < boundary_size, 0, (index - boundary_size) // block_size + 1)

        row_region, column_region = region(source), region(column)
        unexpected = (column < 0) | (np.abs(column_region - row_region) > 1)
        if unexpected.any():
            i = int(np.argmax(unexpected))
            state, reached = tuple(sources[source[i]].tolist()), tuple(target[i].tolist())
            name = ("boundary", "B0", "B1")[row_region[i]]
            raise RuntimeError(f"{name} state {state} reaches unexpected block via {reached}")

        # The blocks stacked in one buffer: R00, R01, R10 and A2, A1, A0 read
        # off B1, then A1 and A0 read off B0, which only the check reads.
        size = (boundary_size, block_size, block_size, block_size)
        layout = ((0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (2, 3), (1, 1), (1, 2))
        shapes = tuple((size[rows], size[columns]) for rows, columns in layout)
        start = np.cumsum([0] + [rows * columns for rows, columns in shapes])
        position = np.zeros(16, dtype=np.int64)
        position[[4 * rows + columns for rows, columns in layout]] = np.arange(len(layout))
        block = position[4 * row_region + column_region]
        offset = np.array([0, boundary_size, boundary_size + block_size, boundary_size + 2 * block_size])
        local_row = source - offset[row_region]
        local_column = column - offset[column_region]
        cell = start[block] + local_row * np.array(shapes)[block, 1] + local_column
        # The diagonals subtract their row's total: one slot per row, the
        # boundary's (R00), B1's (A1) and then B0's (A1 read off B0).
        slot = np.where(row_region == 0, source, np.where(row_region == 2, source - block_size, source + block_size))
        diagonal = np.concatenate([
            start[0] + np.arange(boundary_size) * (boundary_size + 1),
            start[4] + np.arange(block_size) * (block_size + 1),
            start[6] + np.arange(block_size) * (block_size + 1),
        ])
        first = np.zeros(len(source), dtype=bool)
        first[np.unique(source * len(keys) + column, return_index=True)[1]] = True
        coefficient = moves.coefficient[kept].astype(np.float64)
        arrival = moves.arrival[kept]

        checked = AssemblyPlan(partition, coefficient, arrival, cell, cell[first], slot[first], diagonal, shapes)
        *_, A1, A0, A1_from_B0, A0_from_B0 = checked.assemble(self.model)
        if not np.allclose(A1_from_B0, A1, atol=1e-9):
            raise RuntimeError("level-independence violated: A1 read from B0 and B1 differ")
        if not np.allclose(A0_from_B0, A0, atol=1e-9):
            raise RuntimeError("level-independence violated: A0 read from B0 and B1 differ")

        # The blocks need every transition but B0's within B0 and up to B1,
        # and the diagonals of the boundary and B1.
        used = block < 6
        first &= row_region != 1
        return AssemblyPlan(
            partition,
            coefficient[used],
            arrival[used],
            cell[used],
            cell[first],
            slot[first],
            diagonal[: boundary_size + block_size],
            shapes[:6],
        )

    def _redirect_arrays(
        self, sources: np.ndarray, moves: TransitionArrays
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply the redirect rules to ``moves`` out of the rows of ``sources``.

        Returns the targets, edited in place, and the mask of transitions
        kept.
        """
        raise NotImplementedError

    def _violations(self, sources: np.ndarray, moves: TransitionArrays, arrival: bool):
        """Indices and source states of the arrivals (or departures) leaving ``S``."""
        target = moves.target
        rows = np.flatnonzero((target[:, 0] - target[:, -1] > self.threshold) & (moves.arrival == arrival))
        return rows, sources[moves.source[rows]]


class LowerBoundModel(_BoundModelBase):
    """Bound model whose mean delay is a stochastic *lower* bound for SQ(d).

    Violating transitions are redirected to more preferable states:

    * the arrival that would overload the longest queue joins the shortest
      queue instead (``m + e_N``), and
    * the departure that would underflow the shortest queue is taken from the
      longest queue instead (``m - e_1``), which is exactly the
      threshold-jockeying construction of Adan et al. generalized to SQ(d).

    The stability condition remains ``rho < 1``.
    """

    kind = BoundKind.LOWER

    def _redirect_arrays(self, sources, moves):
        target = moves.target
        # m + e_N: one more job at the bottom group's first position ...
        rows, source = self._violations(sources, moves, arrival=True)
        source[np.arange(len(rows)), np.argmax(source == source[:, -1:], axis=1)] += 1
        target[rows] = source
        # ... and m - e_1: one fewer at the top group's last position.
        rows, source = self._violations(sources, moves, arrival=False)
        source[np.arange(len(rows)), (source == source[:, :1]).sum(axis=1) - 1] -= 1
        target[rows] = source
        return target, np.ones(len(target), dtype=bool)

    def _redirect_arrival(self, state: State) -> State:
        values = list(state)
        values[-1] += 1
        redirected = canonical_state(values)
        return redirected

    def _redirect_departure(self, state: State) -> State:
        groups = tie_groups(state)
        top_start, top_end, top_value = groups[0]
        if top_value <= 0:
            raise RuntimeError(f"cannot redirect a departure in the empty state {state}")
        values = list(state)
        values[top_end] -= 1
        return canonical_state(values)


class UpperBoundModel(_BoundModelBase):
    """Bound model whose mean delay is a stochastic *upper* bound for SQ(d).

    Violating transitions are redirected to less preferable states:

    * the departure that would underflow the shortest queue is blocked (the
      service is wasted), reducing the effective service capacity, and
    * the arrival that would overload the longest queue still joins it, with
      phantom jobs injected into every shortest-level queue so the imbalance
      stays at ``T`` and the chain stays in ``S``.

    Both rules push extra work into the system, so ``rho < 1`` is no longer
    sufficient for stability; use
    :func:`repro.linalg.is_qbd_positive_recurrent` (exposed through the QBD
    solver) to check the drift condition before solving.
    """

    kind = BoundKind.UPPER

    def _redirect_arrays(self, sources, moves):
        target = moves.target
        # One job on the longest queue and one on every shortest one.  The
        # imbalance is T >= 1, so the top queue is not a shortest one and
        # the result is already ordered.
        rows, source = self._violations(sources, moves, arrival=True)
        source += source == source[:, -1:]
        source[:, 0] += 1
        target[rows] = source
        # The departure from the shortest queue is blocked.
        kept = np.ones(len(target), dtype=bool)
        kept[self._violations(sources, moves, arrival=False)[0]] = False
        return target, kept

    def _redirect_arrival(self, state: State) -> State:
        # The job joins the longest queue; every queue at the shortest level
        # receives one phantom job so that the minimum rises by one and the
        # imbalance stays at T.  The result dominates m + e_1 in the
        # precedence order (strictly more jobs, same longest-queue content).
        groups = tie_groups(state)
        bottom_start, bottom_end, _bottom_value = groups[-1]
        values = list(state)
        values[0] += 1
        for position in range(bottom_start, bottom_end + 1):
            values[position] += 1
        return canonical_state(values)

    def _redirect_departure(self, state: State) -> None:
        return None  # blocked: the transition is dropped (self-loop)


def make_bound_model(model: SQDModel, threshold: int, kind: BoundKind | str) -> _BoundModelBase:
    """Factory returning the requested bound model."""
    if isinstance(kind, str):
        kind = BoundKind(kind.lower())
    if kind is BoundKind.LOWER:
        return LowerBoundModel(model, threshold)
    if kind is BoundKind.UPPER:
        return UpperBoundModel(model, threshold)
    raise ValueError(f"unknown bound kind {kind!r}")


def verify_redirections_respect_precedence(bound_model: _BoundModelBase, states: List[State]) -> bool:
    """Check that every redirection lands on the correct side of Eq. (5).

    For the lower bound every redirected target must precede the original
    target; for the upper bound the original target must precede the
    redirected one (a blocked departure is compared against staying in
    place).  Used by tests and by the ordering module.
    """
    for state in states:
        for redirection in bound_model.redirections(state):
            original = redirection.original_target
            redirected = redirection.redirected_target if redirection.redirected_target is not None else redirection.source
            if bound_model.kind is BoundKind.LOWER:
                if not precedes(redirected, original):
                    return False
            else:
                if not precedes(original, redirected):
                    return False
    return True
