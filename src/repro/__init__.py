"""repro — randomized load balancing in finite regimes.

A reproduction of *Randomized Load Balancing in Finite Regimes*
(Godtschalk & Ciucu, ICDCS 2016): non-asymptotic stochastic lower and upper
bounds on the mean job delay of the SQ(d) ("power of d choices") policy,
obtained through threshold-restricted Markov chains solved with
matrix-geometric (QBD) methods, plus the simulation and asymptotic baselines
the paper compares against.

Quickstart
----------
One declarative spec, many engines: describe the experiment once, then run
it on any capable backend — the QBD bounds, the exact chain, the job-level
simulator, the occupancy fleet engine or the mean-field limit.

>>> from repro import ExperimentSpec, run
>>> spec = ExperimentSpec.create(num_servers=50, d=2, utilization=0.85)
>>> estimate = run(spec, replications=8, workers=4)      # doctest: +SKIP
>>> print(estimate)                                      # doctest: +SKIP
2.0627 ± 0.011 (95% CI, 8 replications, fleet)
>>> bracket = run(spec, backend="qbd_bounds")            # doctest: +SKIP
>>> bracket.extras["upper_delay"]                        # doctest: +SKIP
2.8941...

``backend="auto"`` (the default) picks the cheapest capable engine;
``repro-lb backends`` lists the registry.  The pre-spec entry points
(:func:`analyze_sqd`, :func:`simulate_fleet`, :func:`run_ensemble`, ...)
remain available underneath.

See ``examples/`` for end-to-end scripts, ``docs/`` for the architecture,
API and CLI references, and ``benchmarks/`` for the harnesses regenerating
the paper's figures.
"""

from repro.api import (
    Backend,
    Capabilities,
    DistributionSpec,
    ExperimentSpec,
    HorizonSpec,
    RunResult,
    ScenarioSpec,
    SpecError,
    SystemSpec,
    WorkloadSpec,
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
    run,
    select_backend,
)

from repro.core import (
    BoundKind,
    BoundModelSolution,
    DelayAnalysis,
    LowerBoundModel,
    SQDModel,
    SolutionMethod,
    UnstableBoundModelError,
    UpperBoundModel,
    analyze_sqd,
    asymptotic_delay,
    mm1_sojourn_time,
    power_of_d_improvement,
    relative_error_percent,
    solve_bound_model,
    solve_exact_truncated,
    solve_improved_lower_bound,
)
from repro.campaigns import (
    CampaignResult,
    CampaignStatus,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.faults import (
    FaultPlan,
    FaultSpec,
    clear as clear_faults,
    install as install_faults,
)
from repro.ensemble import (
    EnsembleConfig,
    EnsembleResult,
    GridConfig,
    GridResult,
    ReplicationStatistics,
    ResultStore,
    run_ensemble,
    run_ensembles,
    run_grid,
)
from repro.fleet import (
    FleetResult,
    FleetSimulation,
    OccupancyState,
    Scenario,
    get_scenario,
    integrate_meanfield,
    meanfield_delay,
    meanfield_fixed_point,
    run_scenario,
    simulate_fleet,
)
from repro.policies import JoinShortestQueue, PowerOfD, UniformRandom
from repro.simulation import ClusterSimulation
from repro.simulation.workloads import Workload, poisson_exponential_workload
from repro.traces import (
    ArrivalTrace,
    BurstinessSummary,
    TraceArrivals,
    TraceFit,
    fit_arrival,
    summarize_trace,
    synthesize_trace,
)

__version__ = "4.0.0"

__all__ = [
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
    "register_backend",
    "run",
    "select_backend",
    "SQDModel",
    "BoundKind",
    "BoundModelSolution",
    "DelayAnalysis",
    "LowerBoundModel",
    "UpperBoundModel",
    "SolutionMethod",
    "UnstableBoundModelError",
    "analyze_sqd",
    "asymptotic_delay",
    "mm1_sojourn_time",
    "power_of_d_improvement",
    "relative_error_percent",
    "solve_bound_model",
    "solve_exact_truncated",
    "solve_improved_lower_bound",
    "PowerOfD",
    "JoinShortestQueue",
    "UniformRandom",
    "ClusterSimulation",
    "Workload",
    "poisson_exponential_workload",
    "OccupancyState",
    "FleetSimulation",
    "FleetResult",
    "simulate_fleet",
    "run_scenario",
    "Scenario",
    "get_scenario",
    "meanfield_fixed_point",
    "meanfield_delay",
    "integrate_meanfield",
    "EnsembleConfig",
    "EnsembleResult",
    "run_ensemble",
    "run_ensembles",
    "GridConfig",
    "GridResult",
    "run_grid",
    "ReplicationStatistics",
    "ResultStore",
    "CampaignResult",
    "CampaignStatus",
    "campaign_status",
    "resume_campaign",
    "FaultPlan",
    "FaultSpec",
    "clear_faults",
    "install_faults",
    "run_campaign",
    "ArrivalTrace",
    "BurstinessSummary",
    "TraceArrivals",
    "TraceFit",
    "fit_arrival",
    "summarize_trace",
    "synthesize_trace",
    "__version__",
]
