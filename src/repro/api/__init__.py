"""repro.api — one declarative spec, many engines.

The unified experiment API of the package:

* :class:`ExperimentSpec` — frozen, validated, JSON-round-trippable
  description of one experiment (system, workload, policy, scenario,
  horizon, seed, backend options);
* the backend registry (:func:`register_backend`, :func:`get_backend`,
  :func:`available_backends`, :func:`select_backend`) with five registered
  engines: ``qbd_bounds``, ``exact``, ``cluster``, ``fleet``,
  ``meanfield``;
* :func:`run` — route a spec to a capable backend (or ``"auto"``),
  optionally replicated with confidence intervals, returning a uniform
  :class:`RunResult`;
* :class:`SpecError` — the one exception type for every invalid spec or
  spec/backend combination.

>>> from repro import ExperimentSpec, run
>>> spec = ExperimentSpec.create(num_servers=50, d=2, utilization=0.85)
>>> result = run(spec, replications=4)         # doctest: +SKIP
>>> bracket = run(spec, backend="qbd_bounds")  # doctest: +SKIP
"""

from repro.api.backends import (
    Backend,
    Capabilities,
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
    require_capable,
    select_backend,
)
from repro.api.runner import RunResult, run
from repro.api.serialize import jsonable, write_json
from repro.api.spec import (
    ARRIVALS,
    POLICIES,
    SERVICES,
    DistributionSpec,
    ExperimentSpec,
    HorizonSpec,
    ScenarioSpec,
    SpecError,
    SystemSpec,
    WorkloadSpec,
)

# Importing the engines module registers the five built-in backends.
import repro.api.engines  # noqa: E402,F401  isort:skip

__all__ = [
    "ARRIVALS",
    "POLICIES",
    "SERVICES",
    "Backend",
    "Capabilities",
    "DistributionSpec",
    "ExperimentSpec",
    "HorizonSpec",
    "RunResult",
    "ScenarioSpec",
    "SpecError",
    "SystemSpec",
    "WorkloadSpec",
    "available_backends",
    "backend_capabilities",
    "get_backend",
    "jsonable",
    "register_backend",
    "require_capable",
    "run",
    "select_backend",
    "write_json",
]
