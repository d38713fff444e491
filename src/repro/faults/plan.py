"""Fault plans: seeded, declarative descriptions of *what fails where*.

A plan is data, not code: it round-trips through JSON (so the CI
chaos-smoke job can ship one through the ``REPRO_FAULT_PLAN`` environment
variable into a fresh CLI process) and every firing decision is a pure
function of ``(plan seed, site, key, occurrence)`` — replaying the same
plan against the same campaign misfires in exactly the same places.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["FaultPlan", "FaultSpec", "KINDS", "SITES"]

#: Hook sites wired into the execution path.  Keeping the registry explicit
#: means a typo'd site in a plan fails at construction, not by silently
#: never firing.
SITES = (
    "journal.append",      # TaskQueue._journal: one task-state transition line
    "records.append",      # ResultStore.extend: one replication record line
    "manifest.write",      # CampaignManifest.write: atomic write-fsync-rename
    "worker.claim",        # worker_loop: about to report a claim (pool workers only)
    "worker.task",         # execute_task: about to run a task (inline or pooled)
    "worker.done",         # execute_task: record built, about to return it (inline or pooled)
    "scheduler.heartbeat", # scheduler: a claim is about to restart the pool watchdog clock
)

#: Fault kinds and where they make sense:
#:
#: ``io_error``
#:     Raise :class:`~repro.faults.hooks.InjectedIOError` (an ``OSError``)
#:     at the hook — the transient-disk-failure model the retry layer
#:     (:mod:`repro.utils.retry`) must absorb.
#: ``torn_write``
#:     Write *half* of the pending line, flush it, then raise
#:     :class:`~repro.faults.hooks.InjectedCrash` — the torn-tail artifact
#:     a process killed mid-append leaves behind; resume must repair it.
#: ``crash``
#:     SIGKILL the calling process on the spot — at a worker site of a
#:     pooled campaign, the worker death the reaper must release; in an
#:     inline campaign, the scheduler itself dies and the campaign resumes.
#: ``hang``
#:     Sleep ``seconds`` at the hook — a wedged task (the worker pool's
#:     watchdog must reap the worker and re-lease its tasks) or a slow
#:     claim or append.
#: ``drop``
#:     Skip the hook's normal action (scheduler-side heartbeat loss).
KINDS = ("io_error", "torn_write", "crash", "hang", "drop")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a site, a kind, and when/how often it fires.

    Parameters
    ----------
    site : str
        Hook site name (one of :data:`SITES`).
    kind : str
        Fault kind (one of :data:`KINDS`).
    probability : float
        Chance this fault fires at a matching hook occurrence; decided by a
        deterministic hash of ``(plan seed, site, key, occurrence)``, so it
        is stable across replays.  Default 1.0 (always).
    match : str
        Substring the hook key must contain (``""`` matches every key).
        Worker-site keys look like ``"<task id>#<attempt>"``, so
        ``match="#0"`` targets only the first attempt of every task and
        ``match="<digest>:2"`` targets one specific task on every attempt.
    times : int or None
        Per-key firing budget: after this many fires for one key the fault
        goes quiet (``None`` = unlimited).  ``times=2`` on an ``io_error``
        models a disk that fails twice then recovers — exactly what the
        backoff-retry layer must ride out.  Default 1.
    seconds : float
        Sleep duration for the ``hang`` kind.
    """

    site: str
    kind: str
    probability: float = 1.0
    match: str = ""
    times: Optional[int] = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r} (sites: {', '.join(SITES)})")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (kinds: {', '.join(KINDS)})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability!r}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times!r}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "probability": self.probability,
            "match": self.match,
            "times": self.times,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            site=payload["site"],
            kind=payload["kind"],
            probability=float(payload.get("probability", 1.0)),
            match=str(payload.get("match", "")),
            times=None if payload.get("times", 1) is None else int(payload.get("times", 1)),
            seconds=float(payload.get("seconds", 0.0)),
        )


class FaultPlan:
    """A seeded set of faults plus the per-key occurrence bookkeeping.

    The plan object is mutable only in its counters (how often each fault
    already fired per key); the fault set itself is frozen.  Counters are
    per-process — a forked campaign worker starts with the parent's counts
    at fork time — which is why budgeted (``times``) faults on worker sites
    should be keyed through ``match`` on the attempt-stamped key rather
    than rely on a cross-process budget.
    """

    def __init__(self, seed: int = 0, faults: Iterable[FaultSpec] = ()):
        self.seed = int(seed)
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        self._fired: Dict[Tuple[int, str], int] = {}
        self._decisions: Dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------ #
    # Deterministic firing decision
    # ------------------------------------------------------------------ #
    def _chance(self, spec_index: int, site: str, key: str, occurrence: int) -> float:
        material = f"{self.seed}|{spec_index}|{site}|{key}|{occurrence}".encode()
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def select(self, site: str, key: str) -> Optional[FaultSpec]:
        """The fault that fires at this hook occurrence, or ``None``.

        At most one fault fires per occurrence (the first matching spec in
        plan order wins); every matching spec's occurrence counter advances
        regardless, so probabilities stay independent of which other specs
        exist.
        """
        chosen: Optional[FaultSpec] = None
        for index, spec in enumerate(self.faults):
            if spec.site != site or (spec.match and spec.match not in key):
                continue
            slot = (index, key)
            occurrence = self._decisions[slot] = self._decisions.get(slot, 0) + 1
            if chosen is not None:
                continue
            fired = self._fired.get(slot, 0)
            if spec.times is not None and fired >= spec.times:
                continue
            if spec.probability < 1.0 and self._chance(index, site, key, occurrence) >= spec.probability:
                continue
            self._fired[slot] = fired + 1
            chosen = spec
        return chosen

    def fire_counts(self) -> Dict[str, int]:
        """Total fires per site (diagnostics for chaos tests and logs)."""
        totals: Dict[str, int] = {}
        for (index, _key), count in self._fired.items():
            site = self.faults[index].site
            totals[site] = totals.get(site, 0) + count
        return totals

    # ------------------------------------------------------------------ #
    # Serialization (environment-variable transport for CLI processes)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "faults": [spec.to_dict() for spec in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            faults=[FaultSpec.from_dict(entry) for entry in payload.get("faults", ())],
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, faults={len(self.faults)})"
