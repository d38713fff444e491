"""Backend protocol and decorator registry: the "many engines" side.

A *backend* wraps one of the repo's engines — QBD bound models, exact
truncated chain, job-level cluster DES, occupancy fleet engine, mean-field
ODE — behind a uniform two-method surface: declared :class:`Capabilities`
plus ``run_once(spec, seed)``.

Backends self-register via :func:`register_backend`::

    @register_backend("fleet")
    class FleetBackend:
        capabilities = Capabilities(...)
        def run_once(self, spec, seed): ...

and every capability mismatch — unsupported policy, distribution, scenario,
pool size — is reported as one consistent :class:`~repro.api.spec.SpecError`
whose message comes from :meth:`Capabilities.why_unsupported`.

Auto-selection (``backend="auto"``) considers only *estimator* backends
(those whose result is a finite-``N`` point estimate of the spec's system:
``exact``, ``cluster``, ``fleet``) and picks the cheapest capable
one by ``auto_rank``.  The ``qbd_bounds`` and ``meanfield`` backends answer
a different question (a bracket, respectively the ``N -> infinity`` limit),
so they are never chosen implicitly — ask for them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Protocol, Tuple, runtime_checkable

from repro.api.spec import ExperimentSpec, SpecError

__all__ = [
    "Capabilities",
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "backend_capabilities",
    "fallback_chain",
    "recoverable_backend_errors",
    "select_backend",
]


@dataclass(frozen=True)
class Capabilities:
    """What one backend can run, and what kind of answer it returns.

    Parameters
    ----------
    description : str
        One-line summary shown by ``repro-lb backends``.
    policies, arrivals, services : tuple of str
        Supported dispatching policies / arrival processes / service
        distributions (names as in :mod:`repro.api.spec`).
    supports_scenarios : bool
        Whether time-varying scenarios can be played.
    min_servers, max_servers : int / int or None
        Tractable pool-size range (``None`` = unbounded above).
    answer : str
        ``"estimate"`` (stochastic point estimate), ``"exact"``
        (numerical solution), ``"bounds"`` (lower/upper bracket) or
        ``"limit"`` (the ``N -> infinity`` value).
    deterministic : bool
        True when the result does not depend on the seed; replicating a
        deterministic backend is pointless and collapses to one run.
    auto_rank : int or None
        Position in the ``backend="auto"`` preference order (lower =
        preferred); ``None`` excludes the backend from auto-selection.
    """

    description: str
    policies: Tuple[str, ...]
    arrivals: Tuple[str, ...] = ("poisson",)
    services: Tuple[str, ...] = ("exponential",)
    supports_scenarios: bool = False
    min_servers: int = 1
    max_servers: Optional[int] = None
    answer: str = "estimate"
    deterministic: bool = False
    auto_rank: Optional[int] = None

    def why_unsupported(self, spec: ExperimentSpec) -> Optional[str]:
        """Reason this backend cannot run ``spec``, or ``None`` if it can."""
        if spec.policy not in self.policies:
            return f"policy {spec.policy!r} not supported (supported: {', '.join(self.policies)})"
        if spec.workload.arrival.name not in self.arrivals:
            reason = (f"arrival process {spec.workload.arrival.name!r} not supported "
                      f"(supported: {', '.join(self.arrivals)})")
            if spec.workload.arrival.name in ("trace", "mmpp2"):
                # These run only on the cluster DES; the documented escape
                # hatch into the analytical engines is a renewal fit.
                reason += ("; fit the workload to a supported renewal law first "
                           "(repro.traces.fit / `repro-lb trace fit`, see docs/traces.md)")
            return reason
        if spec.workload.service.name not in self.services:
            return (f"service distribution {spec.workload.service.name!r} not supported "
                    f"(supported: {', '.join(self.services)})")
        if spec.scenario is not None and not self.supports_scenarios:
            return "time-varying scenarios are not supported"
        n = spec.system.num_servers
        if n < self.min_servers:
            return f"needs at least {self.min_servers} servers, spec has N={n}"
        if self.max_servers is not None and n > self.max_servers:
            return f"tractable only up to N={self.max_servers}, spec has N={n}"
        return None


@runtime_checkable
class Backend(Protocol):
    """The contract every registered engine adapter satisfies."""

    name: str
    capabilities: Capabilities

    def run_once(self, spec: ExperimentSpec, seed: Optional[int]) -> Dict[str, Any]:
        """Execute the spec once; return a flat metrics mapping.

        The mapping always contains ``"mean_delay"`` (the paper's average
        delay, i.e. mean sojourn time in units of ``1/mu``); any further
        keys are backend-specific extras.  ``seed`` is ignored by
        deterministic backends.
        """
        ...  # pragma: no cover - protocol signature


_REGISTRY: Dict[str, Backend] = {}


def register_backend(name: str) -> Callable[[type], type]:
    """Class decorator: instantiate and register a backend under ``name``."""

    def decorate(cls: type) -> type:
        if name in _REGISTRY:
            raise SpecError(f"backend {name!r} is already registered")
        instance = cls()
        instance.name = name
        if not isinstance(getattr(instance, "capabilities", None), Capabilities):
            raise SpecError(f"backend {name!r} must declare a Capabilities instance")
        _REGISTRY[name] = instance
        return cls

    return decorate


def _ensure_registered() -> None:
    # Engine adapters live in their own module so importing the registry
    # stays cheap; any lookup pulls them in (idempotent — python caches the
    # module, and registration happens once at its import).
    import repro.api.engines  # noqa: F401  (registers on import)


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    _ensure_registered()
    return sorted(_REGISTRY)


def backend_capabilities() -> Dict[str, Capabilities]:
    """Mapping of backend name to its declared capabilities."""
    _ensure_registered()
    return {name: _REGISTRY[name].capabilities for name in sorted(_REGISTRY)}


def get_backend(name: str) -> Backend:
    """Look up a backend by name (``SpecError`` for unknown names)."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def require_capable(name: str, spec: ExperimentSpec) -> Backend:
    """Return the named backend, or raise ``SpecError`` explaining why not."""
    backend = get_backend(name)
    reason = backend.capabilities.why_unsupported(spec)
    if reason is not None:
        raise SpecError(f"backend {name!r} cannot run this spec ({spec.describe()}): {reason}")
    return backend


def select_backend(spec: ExperimentSpec, replicable_only: bool = False) -> Backend:
    """Pick the cheapest capable estimator backend for ``spec``.

    Parameters
    ----------
    spec : ExperimentSpec
        The experiment to place.
    replicable_only : bool
        Restrict the choice to stochastic backends (used by the ensemble
        runner, where replicating a deterministic solver is meaningless).

    Raises
    ------
    SpecError
        When no estimator backend can run the spec; the message lists each
        candidate's reason.
    """
    _ensure_registered()
    candidates: List[Tuple[int, str, Backend]] = []
    reasons: List[str] = []
    for name in sorted(_REGISTRY):
        backend = _REGISTRY[name]
        rank = backend.capabilities.auto_rank
        if rank is None:
            continue
        if replicable_only and backend.capabilities.deterministic:
            continue
        reason = backend.capabilities.why_unsupported(spec)
        if reason is None:
            candidates.append((rank, name, backend))
        else:
            reasons.append(f"{name}: {reason}")
    if not candidates:
        detail = "; ".join(reasons) if reasons else "no estimator backends registered"
        raise SpecError(f"no backend can run spec ({spec.describe()}): {detail}")
    candidates.sort(key=lambda item: (item[0], item[1]))
    return candidates[0][2]


def recoverable_backend_errors() -> Tuple[type, ...]:
    """Typed *runtime* failures that justify degrading to another backend.

    A :class:`~repro.api.spec.SpecError` means the experiment itself is
    malformed — falling back would silently answer a different question, so
    it is never recoverable.  What is recoverable is a backend hitting the
    numerical edge of its own validity while the spec remains perfectly
    sensible: the QBD bound model turning unstable as ``rho -> 1``
    (:class:`~repro.core.qbd_solver.UnstableBoundModelError`), a linear
    solve failing (``numpy.linalg.LinAlgError``), or an overflow /
    division breakdown inside an engine (``ArithmeticError``).
    """
    from repro.core.qbd_solver import UnstableBoundModelError

    errors: List[type] = [UnstableBoundModelError, ArithmeticError]
    try:
        import numpy as np

        errors.append(np.linalg.LinAlgError)
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        pass
    return tuple(errors)


def fallback_chain(spec: ExperimentSpec, exclude: Iterable[str] = ()) -> List[Backend]:
    """Capable estimator backends for ``spec`` in auto-preference order.

    The degradation path :func:`repro.api.runner.run` walks when a backend
    raises a recoverable runtime failure: every auto-rankable backend that
    can run the spec, cheapest first, minus the ones already tried.
    Deliberately restricted to *estimator* backends — degrading a
    bounds/limit answer into an estimate is explicitly recorded by the
    caller, never hidden.
    """
    _ensure_registered()
    tried = set(exclude)
    candidates: List[Tuple[int, str, Backend]] = []
    for name in sorted(_REGISTRY):
        if name in tried:
            continue
        backend = _REGISTRY[name]
        rank = backend.capabilities.auto_rank
        if rank is None:
            continue
        if backend.capabilities.why_unsupported(spec) is None:
            candidates.append((rank, name, backend))
    candidates.sort(key=lambda item: (item[0], item[1]))
    return [backend for _, _, backend in candidates]
