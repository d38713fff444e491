"""Exact occupancy-vector state of an exponential SQ(d)/JSQ/random cluster.

Instead of per-server queue lengths, the cluster is represented by the
occupancy vector ``F`` with ``F[k]`` = number of servers holding at least
``k`` jobs (``F[0] = N`` always).  Because servers are exchangeable under
Poisson arrivals, exponential service and any dispatching rule that depends
only on the *queue lengths* of the polled servers, the occupancy vector is
itself a CTMC with the same law as the per-server queue-length chain (whose
mean delay the ``exact`` backend solves for tiny ``N``):

* an arrival joining a server with exactly ``k`` jobs moves ``F[k+1] += 1``,
* a departure from a server with exactly ``k`` jobs moves ``F[k] -= 1``.

For SQ(d) polling ``d`` *distinct* servers (matching
:class:`repro.policies.sqd.PowerOfD`), the probability that the shortest
polled server has at least ``k`` jobs is the hypergeometric ratio
``C(F[k], d) / C(N, d)``; with replacement it is ``(F[k]/N)**d``, the form
the mean-field ODE of :mod:`repro.fleet.meanfield` inherits.  Either way one
event costs O(queue depth), not O(N) — the representation that makes the
N = 10^4..10^6 regimes reachable (cf. Aghajani & Ramanan, arXiv:1707.02005).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.utils.validation import ValidationError, check_integer

__all__ = ["OccupancyState"]


class OccupancyState:
    """Mutable occupancy vector ``F[k]`` = #servers with >= ``k`` jobs.

    The canonical storage is the plain Python list :attr:`levels` (fast to
    index and mutate in a scalar event loop); ``levels[0]`` is the number of
    servers and the list carries no trailing zeros.  The event kernel
    (:mod:`repro.kernels`) scans and updates :attr:`levels` directly.  The
    numpy-facing helpers (:meth:`fractions`,
    :meth:`arrival_level_probabilities`, :meth:`transition_rates`) give the
    transition law for tests, analysis and the mean-field comparison and
    are vectorized over levels.
    """

    __slots__ = ("levels", "total_jobs")

    def __init__(self, levels: Sequence[int]):
        levels = [int(x) for x in levels]
        if not levels or levels[0] < 1:
            raise ValidationError("occupancy vector needs levels[0] = num_servers >= 1")
        for k in range(1, len(levels)):
            if levels[k] < 0 or levels[k] > levels[k - 1]:
                raise ValidationError(
                    f"occupancy vector must be non-increasing and non-negative, got {levels!r}"
                )
        while len(levels) > 1 and levels[-1] == 0:
            levels.pop()
        self.levels: List[int] = levels
        self.total_jobs: int = sum(levels[1:])

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, num_servers: int) -> "OccupancyState":
        """All servers idle."""
        check_integer("num_servers", num_servers, minimum=1)
        return cls([num_servers])

    @classmethod
    def from_queue_lengths(cls, queue_lengths: Iterable[int]) -> "OccupancyState":
        """Build the occupancy vector of an explicit per-server queue vector."""
        lengths = [check_integer("queue length", int(q), minimum=0) for q in queue_lengths]
        if not lengths:
            raise ValidationError("need at least one server")
        levels = [len(lengths)]
        for k in range(1, (max(lengths) if lengths else 0) + 1):
            levels.append(sum(1 for q in lengths if q >= k))
        return cls(levels)

    @classmethod
    def from_fractions(cls, num_servers: int, fractions: Sequence[float]) -> "OccupancyState":
        """Round the fraction profile ``s_k`` (e.g. a mean-field fixed point).

        Useful to start a large-N simulation near stationarity instead of
        empty, cutting the warm-up transient from O(1/(1-rho)) time units to
        nearly nothing.  Monotonicity is enforced after rounding.
        """
        check_integer("num_servers", num_servers, minimum=1)
        levels = [num_servers]
        for k in range(1, len(fractions)):
            count = min(levels[k - 1], int(round(num_servers * float(fractions[k]))))
            if count <= 0:
                break
            levels.append(count)
        return cls(levels)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def num_servers(self) -> int:
        return self.levels[0]

    @property
    def busy_servers(self) -> int:
        return self.levels[1] if len(self.levels) > 1 else 0

    @property
    def max_queue_length(self) -> int:
        return len(self.levels) - 1

    def num_with_at_least(self, k: int) -> int:
        """Number of servers holding at least ``k`` jobs."""
        check_integer("k", k, minimum=0)
        return self.levels[k] if k < len(self.levels) else 0

    def num_with_exactly(self, k: int) -> int:
        """Number of servers holding exactly ``k`` jobs."""
        return self.num_with_at_least(k) - self.num_with_at_least(k + 1)

    def mean_queue_length(self) -> float:
        """Average number of jobs per server."""
        return self.total_jobs / self.levels[0]

    def fractions(self) -> np.ndarray:
        """Occupancy fractions ``s_k = F[k] / N`` as a numpy vector."""
        return np.asarray(self.levels, dtype=float) / self.levels[0]

    def queue_length_counts(self) -> List[int]:
        """Number of servers with exactly ``k`` jobs, ``k = 0 .. max``."""
        return [self.num_with_exactly(k) for k in range(len(self.levels))]

    # ------------------------------------------------------------------ #
    # Transition law (vectorized, for tests / analysis)
    # ------------------------------------------------------------------ #
    def poll_ge_probability(self, k: int, d: int, with_replacement: bool = False) -> float:
        """P(the shortest of ``d`` polled servers has >= ``k`` jobs)."""
        d = check_integer("d", d, minimum=1, maximum=self.levels[0])
        m = self.num_with_at_least(k)
        n = self.levels[0]
        if with_replacement:
            return (m / n) ** d
        if m < d:
            return 0.0
        p = 1.0
        for j in range(d):
            p *= (m - j) / (n - j)
        return p

    def arrival_level_probabilities(self, d: int, with_replacement: bool = False) -> np.ndarray:
        """P(an SQ(d) arrival joins a server with exactly ``k`` jobs), vectorized.

        Entry ``k`` is the probability that the arrival increments ``F[k+1]``;
        the vector sums to one.  ``d = 1`` is uniform random dispatching.
        """
        d = check_integer("d", d, minimum=1, maximum=self.levels[0])
        counts = np.asarray(self.levels + [0], dtype=float)
        n = float(self.levels[0])
        if with_replacement:
            ge = (counts / n) ** d
        else:
            offsets = np.arange(d, dtype=float)
            numerators = counts[:, None] - offsets[None, :]
            ge = np.where(
                counts >= d,
                np.prod(np.maximum(numerators, 0.0) / (n - offsets)[None, :], axis=1),
                0.0,
            )
        return ge[:-1] - ge[1:]

    def departure_level_probabilities(self) -> np.ndarray:
        """P(the next departure leaves a server with exactly ``k`` jobs), k >= 1."""
        if self.busy_servers == 0:
            return np.zeros(0)
        counts = np.asarray(self.levels + [0], dtype=float)
        return (counts[1:-1] - counts[2:]) / counts[1]

    def transition_rates(
        self,
        arrival_rate: float,
        service_rate: float = 1.0,
        d: int = 2,
        with_replacement: bool = False,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-level CTMC rates ``(arrival_rates, departure_rates)``.

        ``arrival_rates[k]`` is the rate of the transition ``F[k+1] += 1``
        (total arrival rate split over join levels) and
        ``departure_rates[k]`` the rate of ``F[k+1] -= 1`` (one entry per
        occupied level, ``service_rate`` times the number of servers with
        exactly ``k+1`` jobs).  Their sum is the total jump rate out of the
        current state.
        """
        arrivals = arrival_rate * self.arrival_level_probabilities(d, with_replacement)
        counts = np.asarray(self.levels + [0], dtype=float)
        departures = service_rate * (counts[1:-1] - counts[2:])
        return arrivals, departures

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def resize(self, num_servers: int) -> int:
        """Grow or shrink the pool; only *idle* servers can be removed.

        Returns the actual new pool size: shrinking clamps at the number of
        busy servers (running jobs are never killed), mirroring how real
        autoscalers drain instances before decommissioning them.
        """
        check_integer("num_servers", num_servers, minimum=1)
        actual = max(num_servers, self.busy_servers)
        self.levels[0] = actual
        return actual

    def copy(self) -> "OccupancyState":
        return OccupancyState(list(self.levels))

    def __repr__(self) -> str:
        return f"OccupancyState(levels={self.levels!r})"
