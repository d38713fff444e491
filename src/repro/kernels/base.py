"""Kernel protocol and registry: pluggable event engines for the fleet loop.

A *kernel* is the innermost event engine of
:class:`repro.fleet.engine.FleetSimulation` — the code that actually jumps
the occupancy CTMC from event to event and accumulates the statistics
window.  Kernels are interchangeable implementations of one contract
(:class:`FleetKernel`): same law, same statistics, different machinery.
Two ship with the package —

* ``python`` — the scalar reference loop (one event at a time, pre-drawn
  uniform blocks, plain-list state); supports every policy the fleet
  engine knows;
* ``uniformized`` — a numpy chunk kernel that uniformizes the occupancy
  CTMC at the dominating rate ``Lambda = (lambda + mu) * N`` and classifies
  whole blocks of events vectorized (see
  :mod:`repro.kernels.uniformized`); roughly 3x the events/s of the
  reference loop, at the price of not supporting distinct-server SQ(d)
  polling for ``d >= 3``.

``kernel="auto"`` resolves per configuration: the fastest kernel that
supports the ``(policy, d, with_replacement)`` combination.  Requesting an
incapable kernel by name raises :class:`~repro.api.spec.SpecError` — the
same exception type the backend capability checks use — so one error
surface covers both "backend cannot run spec" and "kernel cannot run
policy".

Registration mirrors the backend registry::

    @register_kernel
    class MyKernel(FleetKernel):
        name = "mine"
        ...

Kernel instances are created per simulation (they may carry buffered
random variates between :meth:`FleetKernel.advance` calls), and mutate the
simulation's window accumulators directly — they are friend classes of
``FleetSimulation``, not a public surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fleet.engine import FleetSimulation

__all__ = [
    "FleetKernel",
    "register_kernel",
    "get_kernel_class",
    "available_kernels",
    "select_kernel",
    "resolve_kernel",
    "kernel_why_unsupported",
]


def _spec_error(message: str) -> Exception:
    # Imported lazily: repro.api.spec must stay importable without pulling
    # the kernel layer in and vice versa.
    from repro.api.spec import SpecError

    return SpecError(message)


class FleetKernel:
    """Contract every fleet event kernel satisfies.

    Subclasses declare a unique :attr:`name`, answer capability queries via
    :meth:`why_unsupported`, and implement :meth:`advance`.  One instance
    serves one :class:`~repro.fleet.engine.FleetSimulation` for its whole
    lifetime, so kernels may keep per-simulation buffers (pre-drawn
    variates carry across ``advance`` calls to keep seeded runs bitwise
    deterministic).
    """

    #: Unique registry name.
    name: str = ""

    @classmethod
    def why_unsupported(
        cls, policy: str, d: int, with_replacement: bool
    ) -> Optional[str]:
        """Reason this kernel cannot run the configuration, or ``None``."""
        return None

    def advance(
        self,
        simulation: "FleetSimulation",
        max_events: Optional[int],
        until_time: Optional[float],
    ) -> int:
        """Jump the simulation until a stop condition; return events executed.

        The kernel owns the hot loop: it advances ``simulation``'s clock and
        occupancy state, accumulates the per-level time-averages and event
        counters of the current statistics window, and returns the number of
        *real* events (arrivals + departures) executed.  With both limits,
        whichever comes first stops the loop: a spent budget leaves the clock
        at the last event, a reached time cap moves it to ``until_time``.
        Argument validation is the caller's job (:meth:`FleetSimulation.advance`).
        """
        raise NotImplementedError


_REGISTRY: Dict[str, Type[FleetKernel]] = {}


def register_kernel(cls: Type[FleetKernel]) -> Type[FleetKernel]:
    """Class decorator: register a :class:`FleetKernel` under ``cls.name``."""
    if not cls.name:
        raise _spec_error(f"kernel class {cls.__name__} must declare a name")
    if cls.name == "auto":
        raise _spec_error("'auto' is reserved for kernel auto-selection")
    if cls.name in _REGISTRY:
        raise _spec_error(f"kernel {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_registered() -> None:
    # The built-in kernels live in their own modules so importing the
    # registry stays cheap; any lookup pulls them in (idempotent).
    import repro.kernels.python_kernel  # noqa: F401  (registers on import)
    import repro.kernels.uniformized  # noqa: F401  (registers on import)


def available_kernels() -> List[str]:
    """Registered kernel names, sorted."""
    _ensure_registered()
    return sorted(_REGISTRY)


def get_kernel_class(name: str) -> Type[FleetKernel]:
    """Look up a kernel class by name (``SpecError`` for unknown names)."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise _spec_error(
            f"unknown kernel {name!r}; available: "
            f"{', '.join(['auto'] + sorted(_REGISTRY))}"
        ) from None


def kernel_why_unsupported(
    name: str, policy: str, d: int, with_replacement: bool
) -> Optional[str]:
    """Reason the named kernel cannot run the configuration, or ``None``."""
    if name == "auto":
        return None  # auto always resolves to some capable kernel
    return get_kernel_class(name).why_unsupported(policy, d, with_replacement)


#: Auto-selection preference: first capable name wins.  The uniformized
#: chunk kernel leads because it is strictly faster wherever it applies.
_AUTO_ORDER = ("uniformized", "python")


def select_kernel(policy: str, d: int, with_replacement: bool) -> str:
    """The kernel name ``"auto"`` resolves to for this configuration."""
    _ensure_registered()
    for name in _AUTO_ORDER:
        cls = _REGISTRY.get(name)
        if cls is not None and cls.why_unsupported(policy, d, with_replacement) is None:
            return name
    return "python"


def resolve_kernel(
    name: str, policy: str, d: int, with_replacement: bool
) -> FleetKernel:
    """Instantiate the kernel for a simulation; ``SpecError`` if incapable.

    ``name="auto"`` picks the fastest capable kernel; an explicit name is
    honored or rejected with the reason it cannot run the configuration.
    """
    if name == "auto":
        name = select_kernel(policy, d, with_replacement)
    cls = get_kernel_class(name)
    reason = cls.why_unsupported(policy, d, with_replacement)
    if reason is not None:
        raise _spec_error(
            f"kernel {name!r} cannot run policy {policy!r} with d={d}"
            f"{' (with replacement)' if with_replacement else ''}: {reason}"
        )
    return cls()
