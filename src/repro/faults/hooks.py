"""Hook-site plumbing: the one function the execution path calls.

The contract with the hot path is strict: when no plan is installed,
:func:`maybe_fire` is one module-global load, one ``is None`` test and a
return — no allocation, no string formatting, no dict lookups.  Everything
else in this module only runs while a chaos experiment is active.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "ENV_PLAN",
    "FaultError",
    "InjectedCrash",
    "InjectedIOError",
    "active_plan",
    "clear",
    "install",
    "installed_from_env",
    "maybe_fire",
]

#: Environment variable holding a JSON fault plan for whole-process arming
#: (the CI chaos-smoke job sets it around ``repro-lb campaign run``).
ENV_PLAN = "REPRO_FAULT_PLAN"


class FaultError(RuntimeError):
    """Problems with the fault machinery itself (bad plan, bad site)."""


class InjectedIOError(OSError):
    """A deliberately injected, *transient-looking* I/O failure.

    Subclasses ``OSError`` so the seeded-backoff retry layer
    (:mod:`repro.utils.retry`) treats it exactly like a real disk hiccup.
    """


class InjectedCrash(RuntimeError):
    """A deliberately injected process death at a durability boundary.

    Raised *after* a torn half-line has been flushed to disk: everything up
    the stack must behave as if the process had been SIGKILLed right there.
    Nothing in the execution path catches it — chaos harnesses do, and then
    resume the campaign from its directory like an operator would.
    """


_ACTIVE: Optional[FaultPlan] = None
_ENV_CHECKED = False


def install(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide (forked children inherit it); returns it."""
    global _ACTIVE, _ENV_CHECKED
    if not isinstance(plan, FaultPlan):
        raise FaultError(f"install() takes a FaultPlan, got {plan!r}")
    _ACTIVE = plan
    _ENV_CHECKED = True  # an explicit install outranks the environment
    return plan


def clear() -> None:
    """Disarm fault injection (hooks return to their zero-cost path)."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = True


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, if any (resolving ``REPRO_FAULT_PLAN`` once)."""
    if not _ENV_CHECKED:
        _load_env()
    return _ACTIVE


def installed_from_env() -> Optional[FaultPlan]:
    """Force (re-)resolution of ``REPRO_FAULT_PLAN``; returns the plan.

    Worker processes call this once at start-up so a plan armed via the
    environment reaches them even under a ``spawn`` multiprocessing start
    method, where module globals are not inherited.
    """
    _load_env()
    return _ACTIVE


def _load_env() -> None:
    global _ACTIVE, _ENV_CHECKED
    _ENV_CHECKED = True
    raw = os.environ.get(ENV_PLAN)
    if not raw:
        return
    try:
        _ACTIVE = FaultPlan.from_json(raw)
    except (ValueError, KeyError, TypeError) as error:
        raise FaultError(f"unparsable {ENV_PLAN}: {error}") from None


def maybe_fire(site: str, key: str = "", handle=None, line: str = "") -> bool:
    """The hook the execution path calls; acts out any armed fault.

    Parameters
    ----------
    site : str
        Hook site name (see :data:`repro.faults.plan.SITES`).
    key : str
        Content-addressed context of this occurrence (a task id, a worker
        id, an attempt-stamped ``"<task>#<n>"``) — the handle ``match`` and
        the deterministic probability hash key off.
    handle, line :
        For append sites only: the open file handle and the exact line
        about to be written, so a ``torn_write`` fault can flush a genuine
        half-line before simulating death.

    Returns
    -------
    bool
        ``True`` when a ``drop`` fault fired (the caller must skip its
        normal action); ``False`` otherwise.  All other kinds act by
        raising or sleeping.
    """
    plan = _ACTIVE
    if plan is None:
        if _ENV_CHECKED:
            return False
        _load_env()
        plan = _ACTIVE
        if plan is None:
            return False
    spec = plan.select(site, key)
    if spec is None:
        return False
    return _act(spec, site, key, handle, line)


def _act(spec: FaultSpec, site: str, key: str, handle, line: str) -> bool:
    if spec.kind == "io_error":
        raise InjectedIOError(f"injected I/O error at {site} ({key})")
    if spec.kind == "torn_write":
        if handle is not None and line:
            # Flush a real half-line: the artifact a SIGKILL mid-append
            # leaves on disk, which repair_jsonl must truncate on resume.
            handle.write(line[: max(1, len(line) // 2)])
            handle.flush()
        raise InjectedCrash(f"injected torn write at {site} ({key})")
    if spec.kind == "crash":
        # Give multiprocessing queue feeder threads a beat to drain any
        # message the victim already posted (its claim, typically).  A real
        # SIGKILL races those threads too — the scheduler's single-lease
        # blame fallback covers that — but keeping the common case
        # deterministic is what makes chaos runs reproducible.
        time.sleep(0.05)
        os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedCrash(f"injected crash at {site} ({key})")  # pragma: no cover
    if spec.kind == "hang":
        time.sleep(spec.seconds)
        return False
    if spec.kind == "drop":
        return True
    raise FaultError(f"unhandled fault kind {spec.kind!r}")  # pragma: no cover
