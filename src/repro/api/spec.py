"""Declarative experiment specification: one spec, many engines.

An :class:`ExperimentSpec` is a frozen, validated, JSON-round-trippable
description of one load-balancing experiment — the system (``N``, ``d``,
utilization), the workload (arrival process and service distribution), the
dispatching policy, an optional time-varying scenario, the horizon (events
or jobs) and the seed.  The same spec can be handed to any capable backend
(:mod:`repro.api.backends`): the QBD bound models, the exact truncated
chain, the job-level cluster simulator, the occupancy fleet engine or the
mean-field ODE — which is the paper's whole argument rendered as an API:
five methods, one system.

Validation is eager and uniform: every malformed spec raises
:class:`SpecError` (a :class:`~repro.utils.validation.ValidationError`
subclass) naming the offending field, so each of the five engines rejects a
bad configuration with the same exception instead of five different
spellings.

Round-tripping is bitwise: ``ExperimentSpec.from_json(spec.to_json())``
reconstructs an equal spec whose ``to_json()`` is the identical string.
Specs are plain picklable dataclasses, so they travel unchanged to ensemble
worker processes and into JSONL result stores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.utils.validation import ValidationError

__all__ = [
    "SpecError",
    "DistributionSpec",
    "SystemSpec",
    "WorkloadSpec",
    "ScenarioSpec",
    "HorizonSpec",
    "ExperimentSpec",
    "ARRIVALS",
    "MMPP2_PARAMS",
    "SERVICES",
    "POLICIES",
    "OPTIONS",
]


class SpecError(ValidationError):
    """Raised for any invalid experiment spec or spec/backend combination.

    One exception type for the whole API surface: malformed field values,
    unknown distributions/policies/scenarios/backends, and spec/backend
    capability mismatches all raise ``SpecError``.  It subclasses
    :class:`~repro.utils.validation.ValidationError` (itself a
    ``ValueError``), so existing error handling keeps working.
    """


#: Arrival processes a spec may name: renewal laws (``poisson``, ``erlang``,
#: ``hyperexponential``), the two-state Markov-modulated Poisson process
#: ``mmpp2`` (correlated/bursty traffic; shape params ``rate_high``,
#: ``rate_low``, ``switch_to_low``, ``switch_to_high``, rescaled to the
#: system's total rate), and ``trace`` (deterministic replay of a recorded
#: :class:`~repro.traces.trace.ArrivalTrace`; params ``path`` and optional
#: ``rescale``).
ARRIVALS: Tuple[str, ...] = ("poisson", "erlang", "hyperexponential", "mmpp2", "trace")

#: Required numeric shape parameters of an ``mmpp2`` arrival spec.
MMPP2_PARAMS: Tuple[str, ...] = ("rate_high", "rate_low", "switch_to_low", "switch_to_high")

#: Service distributions a spec may name.
SERVICES: Tuple[str, ...] = ("exponential", "erlang", "hyperexponential", "deterministic")

#: Dispatching policies a spec may name (not every backend supports all).
POLICIES: Tuple[str, ...] = ("sqd", "jsq", "random", "round_robin", "jiq", "least_work_left")


def _is_int(value: Any, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


#: Every backend option, with the values it accepts.  A spec may carry
#: options for backends other than the one running it — that is the point
#: of "one spec, many engines" (e.g. ``threshold`` rides along to the
#: simulators, which ignore it) — so the set is closed across backends: a
#: name no backend reads, or a value of the wrong type, fails when the spec
#: is built.  Readers: ``threshold`` the QBD bounds, ``buffer_size`` the
#: exact solver, ``start`` and ``with_replacement`` the fleet engine.
#: ``kernel`` selects nothing: the fleet engine has one event kernel, and the
#: option survives so that specs naming it (``"auto"`` or ``"uniformized"``)
#: still build.
OPTIONS: Dict[str, Tuple[str, Callable[[Any], bool]]] = {
    "threshold": ("an integer >= 1", lambda value: _is_int(value, 1)),
    "buffer_size": ("an integer >= 1", lambda value: _is_int(value, 1)),
    "start": ("'stationary' or 'empty'", lambda value: value in ("stationary", "empty")),
    "with_replacement": ("a bool", lambda value: isinstance(value, bool)),
    "kernel": ("'auto' or 'uniformized'", lambda value: value in ("auto", "uniformized")),
}


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _freeze(value: Any, path: str) -> Any:
    """Normalize a JSON-compatible value so equality survives a round-trip.

    Sequences become tuples (JSON turns tuples into lists; normalizing both
    sides to tuples keeps ``spec == from_json(to_json(spec))``), mapping
    values are frozen recursively, and anything that JSON cannot represent
    is rejected up front with a ``SpecError`` naming the field.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item, path) for item in value)
    if isinstance(value, Mapping):
        return {str(key): _freeze(item, f"{path}.{key}") for key, item in value.items()}
    raise SpecError(f"{path} must be JSON-serializable (number, string, bool, list or mapping), got {value!r}")


def _thaw(value: Any) -> Any:
    """The JSON-facing view of a frozen value (tuples back to lists)."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    if isinstance(value, dict):
        return {key: _thaw(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class DistributionSpec:
    """A named distribution with JSON-compatible shape parameters.

    Parameters
    ----------
    name : str
        Distribution family.  Arrival processes use ``"poisson"``,
        ``"erlang"`` (``{"stages": k}``) or ``"hyperexponential"``; service
        distributions additionally allow ``"deterministic"``.
    params : mapping
        Shape parameters; rate/mean normalization is supplied by the system
        spec (utilization and service rate), so the same workload spec can
        be reused at any load.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check(isinstance(self.name, str) and bool(self.name), f"distribution name must be a non-empty string, got {self.name!r}")
        _check(isinstance(self.params, Mapping), f"{self.name}.params must be a mapping, got {self.params!r}")
        object.__setattr__(self, "params", _freeze(self.params, f"{self.name}.params"))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": _thaw(dict(self.params))}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DistributionSpec":
        _check(isinstance(payload, Mapping), f"distribution spec must be a mapping, got {payload!r}")
        return cls(name=payload.get("name", ""), params=payload.get("params", {}))


@dataclass(frozen=True)
class SystemSpec:
    """The finite system of the paper's Section II.

    Parameters
    ----------
    num_servers : int
        Pool size ``N``.
    d : int
        Number of servers polled per arrival (``d >= 1``; the experiment
        checks ``d <= N`` under ``sqd``, the policy that polls ``d``
        distinct servers).
    utilization : float or None
        Per-server traffic intensity ``rho = lambda / mu`` (dimensionless,
        strictly inside ``(0, 1)``).  May be ``None`` only when the
        experiment plays a scenario, which carries its own loads.
    service_rate : float
        Per-server service rate ``mu`` in jobs per time unit; all reported
        delays are in units of ``1/mu``.
    """

    num_servers: int
    d: int = 2
    utilization: Optional[float] = None
    service_rate: float = 1.0

    def __post_init__(self) -> None:
        _check(isinstance(self.num_servers, int) and not isinstance(self.num_servers, bool) and self.num_servers >= 1,
               f"system.num_servers must be an integer >= 1, got {self.num_servers!r}")
        _check(isinstance(self.d, int) and not isinstance(self.d, bool) and self.d >= 1,
               f"system.d must be an integer >= 1, got {self.d!r}")
        if self.utilization is not None:
            _check(isinstance(self.utilization, (int, float)) and not isinstance(self.utilization, bool)
                   and 0.0 < float(self.utilization) < 1.0,
                   f"system.utilization must lie strictly in (0, 1), got {self.utilization!r}")
            object.__setattr__(self, "utilization", float(self.utilization))
        _check(isinstance(self.service_rate, (int, float)) and not isinstance(self.service_rate, bool)
               and float(self.service_rate) > 0.0,
               f"system.service_rate must be > 0, got {self.service_rate!r}")
        object.__setattr__(self, "service_rate", float(self.service_rate))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_servers": self.num_servers,
            "d": self.d,
            "utilization": self.utilization,
            "service_rate": self.service_rate,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SystemSpec":
        _check(isinstance(payload, Mapping) and "num_servers" in payload,
               "system spec must be a mapping with at least 'num_servers'")
        return cls(
            num_servers=payload["num_servers"],
            d=payload.get("d", 2),
            utilization=payload.get("utilization"),
            service_rate=payload.get("service_rate", 1.0),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Arrival process plus service distribution.

    The default is the paper's base workload: Poisson arrivals of total
    rate ``rho * mu * N`` and exponential service of rate ``mu`` — both
    rates supplied by the :class:`SystemSpec`, so the workload spec itself
    only carries distribution *shapes*.
    """

    arrival: DistributionSpec = field(default_factory=lambda: DistributionSpec("poisson"))
    service: DistributionSpec = field(default_factory=lambda: DistributionSpec("exponential"))

    def __post_init__(self) -> None:
        _check(self.arrival.name in ARRIVALS,
               f"workload.arrival must be one of {ARRIVALS}, got {self.arrival.name!r}")
        _check(self.service.name in SERVICES,
               f"workload.service must be one of {SERVICES}, got {self.service.name!r}")
        if self.arrival.name == "mmpp2":
            for name in MMPP2_PARAMS:
                value = self.arrival.params.get(name)
                _check(isinstance(value, (int, float)) and not isinstance(value, bool)
                       and float(value) >= 0.0,
                       f"workload.arrival['mmpp2'] needs a numeric >= 0 param {name!r}, "
                       f"got {value!r}")
            _check(float(self.arrival.params["rate_high"]) > 0.0,
                   "workload.arrival['mmpp2'] needs rate_high > 0")
            _check(float(self.arrival.params["switch_to_low"]) > 0.0
                   and float(self.arrival.params["switch_to_high"]) > 0.0,
                   "workload.arrival['mmpp2'] needs positive switching rates")
        elif self.arrival.name == "trace":
            path = self.arrival.params.get("path")
            _check(isinstance(path, str) and bool(path),
                   f"workload.arrival['trace'] needs a non-empty 'path' param, got {path!r}")
            rescale = self.arrival.params.get("rescale", True)
            _check(isinstance(rescale, bool),
                   f"workload.arrival['trace'] param 'rescale' must be a bool, got {rescale!r}")

    @property
    def is_default(self) -> bool:
        """True for the paper's Poisson + exponential base workload."""
        return self.arrival.name == "poisson" and self.service.name == "exponential"

    def to_dict(self) -> Dict[str, Any]:
        return {"arrival": self.arrival.to_dict(), "service": self.service.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        _check(isinstance(payload, Mapping), f"workload spec must be a mapping, got {payload!r}")
        return cls(
            arrival=DistributionSpec.from_dict(payload.get("arrival", {"name": "poisson"})),
            service=DistributionSpec.from_dict(payload.get("service", {"name": "exponential"})),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered time-varying scenario plus its builder parameters.

    The scenario is built once here, so parameters its builder rejects
    (an unknown name, a value of the wrong type or range) fail with
    :class:`SpecError` when the spec is built, not when it runs.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.fleet.scenarios import available_scenarios, get_scenario

        names = available_scenarios()
        _check(self.name in names, f"scenario.name must be one of {names}, got {self.name!r}")
        where = f"scenario[{self.name}].params"
        _check(isinstance(self.params, Mapping), f"{where} must be a mapping, got {self.params!r}")
        object.__setattr__(self, "params", _freeze(self.params, where))
        try:
            get_scenario(self.name, **self.params)
        except (TypeError, ValueError) as error:
            raise SpecError(f"{where} do not build the scenario: {error}") from None

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": _thaw(dict(self.params))}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        _check(isinstance(payload, Mapping) and "name" in payload,
               "scenario spec must be a mapping with at least 'name'")
        return cls(name=payload["name"], params=payload.get("params", {}))


@dataclass(frozen=True)
class HorizonSpec:
    """How long to run: events for the CTMC engines, jobs for the DES.

    ``None`` means "the backend's own default" (e.g. the fleet engine's
    500 000 events or the cluster simulator's 50 000 jobs), so one spec can
    be handed to engines with different natural horizons.
    ``warmup_fraction`` is the share of the horizon discarded before
    measurement: the first events of a stationary fleet run, the first
    arrivals of a cluster run.  A scenario brings its own warm-up, so a
    scenario spec must keep the default.
    """

    num_events: Optional[int] = None
    num_jobs: Optional[int] = None
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        for label, value in (("num_events", self.num_events), ("num_jobs", self.num_jobs)):
            if value is not None:
                _check(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
                       f"horizon.{label} must be an integer >= 1, got {value!r}")
        _check(isinstance(self.warmup_fraction, (int, float)) and not isinstance(self.warmup_fraction, bool)
               and 0.0 <= float(self.warmup_fraction) <= 0.9,
               f"horizon.warmup_fraction must lie in [0, 0.9], got {self.warmup_fraction!r}")
        object.__setattr__(self, "warmup_fraction", float(self.warmup_fraction))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_events": self.num_events,
            "num_jobs": self.num_jobs,
            "warmup_fraction": self.warmup_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HorizonSpec":
        _check(isinstance(payload, Mapping), f"horizon spec must be a mapping, got {payload!r}")
        return cls(
            num_events=payload.get("num_events"),
            num_jobs=payload.get("num_jobs"),
            warmup_fraction=payload.get("warmup_fraction", 0.1),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment, runnable on any capable backend.

    Parameters
    ----------
    system : SystemSpec
        ``N``, ``d``, utilization and service rate.
    workload : WorkloadSpec
        Arrival process and service distribution (defaults to the paper's
        Poisson + exponential workload).
    policy : str
        Dispatching policy, one of :data:`POLICIES`.
    scenario : ScenarioSpec or None
        Optional time-varying scenario; when set, the system's
        ``utilization``, the horizon's ``num_events`` and ``num_jobs`` and
        the ``start`` option must be unset and ``warmup_fraction`` must keep
        its default (the scenario carries its own loads, duration and
        warm-up).
    horizon : HorizonSpec
        Events/jobs to simulate; ignored by the analytical backends.
    seed : int
        Base RNG seed.  Single runs use it directly; replicated runs derive
        per-replication child seeds from it.
    options : mapping
        Backend-specific knobs that are not part of the model itself —
        ``threshold`` (QBD bound models), ``buffer_size`` (exact
        truncation), ``start`` / ``with_replacement`` (fleet engine); see
        :data:`OPTIONS`.  Names and value types are checked when the spec
        is built: an unknown name or an ill-typed value raises
        :class:`SpecError` here, never at run time.

    Examples
    --------
    >>> spec = ExperimentSpec.create(num_servers=10, d=2, utilization=0.9)
    >>> ExperimentSpec.from_json(spec.to_json()) == spec
    True
    """

    system: SystemSpec
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    policy: str = "sqd"
    scenario: Optional[ScenarioSpec] = None
    horizon: HorizonSpec = field(default_factory=HorizonSpec)
    seed: int = 12345
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check(isinstance(self.system, SystemSpec), f"spec.system must be a SystemSpec, got {self.system!r}")
        _check(isinstance(self.workload, WorkloadSpec), f"spec.workload must be a WorkloadSpec, got {self.workload!r}")
        _check(isinstance(self.horizon, HorizonSpec), f"spec.horizon must be a HorizonSpec, got {self.horizon!r}")
        _check(self.policy in POLICIES, f"spec.policy must be one of {POLICIES}, got {self.policy!r}")
        if self.policy == "sqd":
            _check(self.system.d <= self.system.num_servers,
                   f"system.d must be an integer in [1, num_servers={self.system.num_servers}] "
                   f"under policy 'sqd', got {self.system.d!r}")
        _check(isinstance(self.seed, int) and not isinstance(self.seed, bool),
               f"spec.seed must be an integer, got {self.seed!r}")
        _check(isinstance(self.options, Mapping), f"spec.options must be a mapping, got {self.options!r}")
        object.__setattr__(self, "options", _freeze(self.options, "spec.options"))
        unknown = set(self.options) - set(OPTIONS)
        _check(not unknown, f"unknown spec options: {sorted(unknown)} (known options: {sorted(OPTIONS)})")
        for name, value in self.options.items():
            accepts, valid = OPTIONS[name]
            _check(valid(value), f"spec.options[{name!r}] must be {accepts}, got {value!r}")
        if self.scenario is not None:
            _check(isinstance(self.scenario, ScenarioSpec),
                   f"spec.scenario must be a ScenarioSpec, got {self.scenario!r}")
            # A scenario carries its own loads, duration and warm-up, and the
            # fleet engine (the one backend that plays scenarios) reads none
            # of these fields for one: reject them rather than ignore them.
            ignored = [
                name
                for name, given in (
                    ("spec.system.utilization", self.system.utilization is not None),
                    ("spec.horizon.num_events", self.horizon.num_events is not None),
                    ("spec.horizon.num_jobs", self.horizon.num_jobs is not None),
                    ("spec.horizon.warmup_fraction", self.horizon.warmup_fraction != 0.1),
                    ("spec.options['start']", "start" in self.options),
                )
                if given
            ]
            _check(not ignored,
                   f"{', '.join(ignored)} cannot be combined with a scenario "
                   "(the scenario defines its own loads, duration and warm-up)")
        else:
            _check(self.system.utilization is not None,
                   "spec.system.utilization is required unless a scenario is given")

    # ------------------------------------------------------------------ #
    # Construction conveniences
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        num_servers: int,
        d: int = 2,
        utilization: Optional[float] = None,
        service_rate: float = 1.0,
        arrival: str = "poisson",
        arrival_params: Optional[Mapping[str, Any]] = None,
        service: str = "exponential",
        service_params: Optional[Mapping[str, Any]] = None,
        policy: str = "sqd",
        scenario: Optional[str] = None,
        scenario_params: Optional[Mapping[str, Any]] = None,
        num_events: Optional[int] = None,
        num_jobs: Optional[int] = None,
        warmup_fraction: float = 0.1,
        seed: int = 12345,
        **options: Any,
    ) -> "ExperimentSpec":
        """Build a spec from flat keyword arguments.

        Every extra keyword argument lands in :attr:`options` — e.g.
        ``ExperimentSpec.create(num_servers=6, utilization=0.9, threshold=2)``.
        """
        return cls(
            system=SystemSpec(num_servers=num_servers, d=d, utilization=utilization, service_rate=service_rate),
            workload=WorkloadSpec(
                arrival=DistributionSpec(arrival, arrival_params or {}),
                service=DistributionSpec(service, service_params or {}),
            ),
            policy=policy,
            scenario=None if scenario is None else ScenarioSpec(scenario, scenario_params or {}),
            horizon=HorizonSpec(num_events=num_events, num_jobs=num_jobs, warmup_fraction=warmup_fraction),
            seed=seed,
            options=options,
        )

    def with_seed(self, seed: int) -> "ExperimentSpec":
        """A copy of this spec with a different base seed."""
        return replace(self, seed=seed)

    def option(self, name: str, default: Any = None) -> Any:
        """One backend option, with a default."""
        return self.options.get(name, default)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain nested dict (JSON types only)."""
        return {
            "system": self.system.to_dict(),
            "workload": self.workload.to_dict(),
            "policy": self.policy,
            "scenario": None if self.scenario is None else self.scenario.to_dict(),
            "horizon": self.horizon.to_dict(),
            "seed": self.seed,
            "options": _thaw(dict(self.options)),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        _check(isinstance(payload, Mapping) and "system" in payload,
               "experiment spec must be a mapping with at least 'system'")
        unknown = set(payload) - {"system", "workload", "policy", "scenario", "horizon", "seed", "options"}
        _check(not unknown, f"unknown experiment spec fields: {sorted(unknown)}")
        scenario = payload.get("scenario")
        return cls(
            system=SystemSpec.from_dict(payload["system"]),
            workload=WorkloadSpec.from_dict(payload.get("workload", {})),
            policy=payload.get("policy", "sqd"),
            scenario=None if scenario is None else ScenarioSpec.from_dict(scenario),
            horizon=HorizonSpec.from_dict(payload.get("horizon", {})),
            seed=payload.get("seed", 12345),
            options=payload.get("options", {}),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON: sorted keys, so the round-trip is bitwise stable."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"experiment spec is not valid JSON: {error}") from None
        return cls.from_dict(payload)

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line human summary, e.g. ``sqd N=50 d=2 rho=0.85``."""
        parts = [self.policy, f"N={self.system.num_servers}", f"d={self.system.d}"]
        if self.scenario is not None:
            parts.append(f"scenario={self.scenario.name}")
        else:
            parts.append(f"rho={self.system.utilization:g}")
        if not self.workload.is_default:
            parts.append(f"{self.workload.arrival.name}/{self.workload.service.name}")
        return " ".join(parts)
