"""The SQ(d) / power-of-d-choices dispatching policy."""

from __future__ import annotations

import numpy as np

from repro.policies.base import ClusterView, DispatchingPolicy
from repro.utils.validation import check_integer

#: Server indices drawn per block of polls: a block holds ``ceil(8192 / d)``
#: jobs' polls, so its size does not grow with ``d``.
POLL_BLOCK_INDICES = 8192


class PowerOfD(DispatchingPolicy):
    """Poll ``d`` distinct servers uniformly at random and join the shortest.

    Ties among the polled servers are broken uniformly at random, matching
    the paper's "ties are resolved arbitrarily".  ``d = 1`` degenerates to
    uniform random dispatching and ``d = N`` to JSQ.

    The polls are drawn in blocks from the generator passed to
    :meth:`select_server`: each block row is one job's ordered ``d``-tuple of
    distinct servers, uniform over all such tuples.  The job joins the first
    shortest queue in poll order; as the order is uniform, that is a uniform
    choice among the tied.  A block is redrawn when it is spent, when the
    generator or the number of servers changes, and after :meth:`reset`.
    """

    def __init__(self, d: int):
        self._d = check_integer("d", d, minimum=1)
        self.reset()

    @property
    def d(self) -> int:
        return self._d

    @property
    def feedback_messages_per_job(self) -> int:
        return self._d

    def reset(self) -> None:
        self._polls: list = []
        self._row = 0
        self._drawn_from = None
        self._drawn_for = 0

    def _draw_block(self, rng: np.random.Generator, num_servers: int) -> None:
        d = self._d
        rows = -(-POLL_BLOCK_INDICES // d)
        # Partial Fisher-Yates per row: step k swaps positions k and j, j
        # uniform on [k, N), and polls the server that lands at position k.
        # Only swapped positions are stored, so a row costs O(d), not O(N).
        # Step k reads position j_k, which an earlier step moved only if it
        # drew the same j: a row of distinct draws is its own poll tuple, so
        # only the rows that repeat a draw are walked.
        draws = rng.integers(np.arange(d), num_servers, size=(rows, d))
        ordered = np.sort(draws, axis=1)
        repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        polls = draws.tolist()
        for index in repeats.tolist():
            row = polls[index]
            moved = {}
            for k, j in enumerate(row):
                row[k] = moved.get(j, j)
                moved[j] = moved.get(k, k)
        self._polls = polls
        self._row = 0
        self._drawn_from = rng
        self._drawn_for = num_servers

    def select_server(self, view: ClusterView, rng: np.random.Generator) -> int:
        lengths = view.queue_lengths
        num_servers = len(lengths)
        if self._d > num_servers:
            raise ValueError(f"d = {self._d} exceeds the number of servers ({num_servers})")
        if (
            self._row == len(self._polls)
            or rng is not self._drawn_from
            or num_servers != self._drawn_for
        ):
            self._draw_block(rng, num_servers)
        row = self._row
        self._row = row + 1
        polled = self._polls[row]
        chosen = polled[0]
        shortest = lengths[chosen]
        for server in polled:
            length = lengths[server]
            if length < shortest:
                shortest = length
                chosen = server
        return chosen

    def __repr__(self) -> str:
        return f"PowerOfD(d={self._d})"
