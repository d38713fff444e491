"""Deterministic fault injection for the durable execution path.

``repro.faults`` exists so the failure modes this package claims to survive
— torn JSONL appends, I/O errors on the journal and the record store,
worker crashes at the task boundary, task hangs, lost heartbeats — can be
*injected on demand*, reproducibly, instead of waiting for a flaky disk or
an OOM killer to exercise them.  The chaos suite
(``tests/test_faults_chaos.py``) runs a matrix of fault plans against live
campaigns and asserts the core invariants: the final campaign fingerprint
is bitwise identical to a fault-free twin, no record is lost, and no record
is folded twice.

Design:

* A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries, each
  naming a *hook site* (``"journal.append"``, ``"worker.task"``, ...), a
  fault ``kind`` (``io_error``, ``torn_write``, ``crash``, ``hang``,
  ``drop``), a firing ``probability``, a per-key budget and an optional key
  ``match``.  Firing decisions are a pure function of the plan
  seed, the site, the hook key and the occurrence count — never of wall
  clock or process scheduling — so a plan misbehaves the same way every
  time it is replayed.

* Hook sites are single calls to :func:`maybe_fire` placed inside
  :mod:`repro.campaigns.queue`, :mod:`repro.campaigns.worker`,
  :mod:`repro.campaigns.scheduler` and :mod:`repro.ensemble.results`.
  With no plan installed the hook is one global load and one ``is None``
  branch; ``benchmarks/test_bench_faults.py`` measures its cost per call
  and asserts that the hook calls of one campaign task cost < 2% of it.

* :func:`install` arms a plan process-wide; forked campaign workers
  inherit it.  ``REPRO_FAULT_PLAN`` (a JSON plan) arms whole CLI processes,
  which is how the CI ``chaos-smoke`` job injects faults into
  ``repro-lb campaign run``.

See ``docs/resilience.md`` for the failure-modes matrix these faults
exercise.
"""

from repro.faults.hooks import (
    FaultError,
    InjectedCrash,
    InjectedIOError,
    active_plan,
    clear,
    install,
    installed_from_env,
    maybe_fire,
)
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedIOError",
    "active_plan",
    "clear",
    "install",
    "installed_from_env",
    "maybe_fire",
]
