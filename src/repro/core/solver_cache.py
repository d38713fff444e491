"""Spec-keyed memoization of QBD bound solves for sweeps and grids.

Solving a bound model is the expensive analytical step of the library.  It
assembles the generator blocks (a few milliseconds up to ``N = 12`` at
``T = 3``), then runs dense linear algebra on ``C(N+T-1, T)``-sized blocks:
the logarithmic-reduction iteration for ``G``, ``R`` from ``G`` and the
boundary system.  The linear algebra is most of a cold solve: milliseconds
at ``N = 6``, seconds near the tractability limit.  Sweeps multiply that
cost: a figure harness, an ensemble grid with bound annotations, or
repeated :func:`repro.run` calls over the same bracket all re-solve
matrices that are a pure function of the *solve key*

    ``(policy, bound, N, d, utilization, service_rate, threshold)``

— nothing else.  This module memoizes at exactly that granularity: one
process-wide LRU cache (thread-safe, bounded) in front of the lower and
upper bound solves of :func:`repro.core.analysis.analyze_sqd`, so a grid
sweep performs **one QBD solve per distinct (system, policy)
configuration** instead of one per grid point, and a re-run of a sweep in
the same process costs nothing.

Because the solves are deterministic, memoization is invisible in the
results: cached and uncached runs are bitwise identical (the regression
tests in ``tests/test_solver_cache.py`` assert exactly that).  The returned
:class:`~repro.core.qbd_solver.BoundModelSolution` objects are frozen
dataclasses; callers treat them (and their numpy arrays) as read-only,
which every call-site in the package already does.

Instability of the upper bound model is an *outcome*, not an error, at this
layer: it is cached like any solution, so a sweep does not re-attempt a
drift-violating configuration per point.

The cache also keeps the *assembly plans* of the bound models
(:meth:`SolverCache.plan`): the rate-independent structure of a model's
generator blocks, one per bound-model class and ``(N, d, T)``, so the
utilizations of a sweep share it.  A plan changes no bit of any block.
Plans are dropped by :meth:`SolverCache.clear` and never counted in
:attr:`SolverCache.stats` or ``len()``, which count solves; every
:meth:`~repro.core.bound_models._BoundModelBase.qbd_blocks` call uses them,
a direct :func:`~repro.core.qbd_solver.solve_bound_model` call's included.

Usage is implicit — ``analyze_sqd`` routes through the default cache — but
the cache is also a public object for instrumentation::

    from repro.core.solver_cache import solver_cache
    solver_cache().clear()
    ...  # run a sweep
    print(solver_cache().stats)   # CacheStats(hits=…, misses=…, …)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Tuple

__all__ = [
    "CacheStats",
    "SolverCache",
    "solver_cache",
    "clear_solver_cache",
    "bound_solve_key",
]

#: Default maximum number of cached solutions.  A solution for a tractable
#: model is at most a few MB (the R matrix dominates); 256 entries bound the
#: footprint while covering any realistic sweep.
DEFAULT_MAXSIZE = 256

#: Most assembly plans kept at once (least recently used dropped first).  A
#: plan is a few integer and float arrays with one entry per transition,
#: far smaller than the blocks it assembles.
PLAN_MAXSIZE = 32


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache: reads split into hits/misses, plus evictions."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def solves(self) -> int:
        """Number of actual solver invocations (= misses)."""
        return self.misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class SolverCache:
    """Thread-safe LRU memo cache for deterministic solver results.

    Parameters
    ----------
    maxsize : int
        Upper bound on cached entries; the least recently used entry is
        evicted first.  ``maxsize=0`` disables caching (every lookup is a
        miss and nothing is stored) without changing any call-site.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._plans: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses, evictions=self._evictions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self, reset_stats: bool = True) -> None:
        """Drop every entry and every plan (and, by default, the counters)."""
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            if reset_stats:
                self._hits = 0
                self._misses = 0
                self._evictions = 0

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on first use.

        ``compute`` runs outside the lock (solves are slow; lookups must not
        serialize behind them), so two threads racing on the same new key
        may both solve — the first stored result wins and the law is
        unaffected because solves are deterministic.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
        value = compute()
        with self._lock:
            if self._maxsize > 0 and key not in self._entries:
                self._entries[key] = value
                while len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1
            return self._entries.get(key, value)

    def plan(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the assembly plan for ``key``, building it on first use.

        A plan is the rate-independent structure of a bound model's
        generator blocks (:class:`repro.core.bound_models.AssemblyPlan`),
        shared by every solve of that model class and ``(N, d, T)``.  Plans
        are dropped by :meth:`clear` and never counted in :attr:`stats` or
        ``len()``, which count solves.  ``maxsize=0`` keeps none.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = build()
        with self._lock:
            if self._maxsize > 0:
                self._plans[key] = plan
                while len(self._plans) > PLAN_MAXSIZE:
                    self._plans.popitem(last=False)
        return plan


def bound_solve_key(
    bound: str,
    num_servers: int,
    d: int,
    utilization: float,
    service_rate: float,
    threshold: int,
    policy: str = "sqd",
) -> Tuple:
    """The canonical spec key of one QBD bound solve.

    Two solves share a key exactly when they are the same mathematical
    problem: same bound side (``"lower"``, Theorem 3's scalar-geometric
    solve, or ``"upper"``, Theorem 1's matrix-geometric one), same system
    ``(N, d, rho, mu)``, same threshold ``T`` and the same (currently
    always SQ(d)) policy.
    """
    return (
        policy,
        bound,
        int(num_servers),
        int(d),
        float(utilization),
        float(service_rate),
        int(threshold),
    )


_DEFAULT_CACHE = SolverCache()


def solver_cache() -> SolverCache:
    """The process-wide default cache used by :func:`analyze_sqd`."""
    return _DEFAULT_CACHE


def clear_solver_cache() -> None:
    """Drop every cached solve and reset the counters (mainly for tests)."""
    _DEFAULT_CACHE.clear()
