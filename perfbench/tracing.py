"""Outside-in layer tracing for the benchmark's ``--trace 1`` pass.

The package under test is not modified: :func:`install` replaces the
layers' public functions with timing wrappers *at the names their callers
use* (``repro.campaigns.scheduler.execute_task``, because the scheduler
imports it by name; methods on their classes).  Each call records one span
``(name, layer, start, end, parent, unit)`` in memory; :func:`write_spans`
writes them out once the pass is over.  A span's self time is its duration
minus the durations of its direct children, and a layer's self time is the
sum over its spans, so the layer self times of a pass add up to the part
of its wall time spent inside traced calls.

Worker processes forked by a pooled campaign inherit the wrappers, but
their spans stay in the children; the per-record ``wall_seconds`` stand in
for them.  Splitting the kernels' vectorized prep from their scalar scan
needs spans inside ``repro.kernels`` and is out of reach from here.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from summary import median

#: The package's modules, which name the layers.
LAYERS = (
    "api", "ensemble", "campaigns", "fleet", "kernels", "core",
    "linalg", "simulation", "policies", "markov", "faults", "utils",
)


class Tracer:
    """In-memory span recorder (single-threaded: one stack of open spans)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, str, float, float, int, Any]]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []
        self._units: List[Any] = []

    def reset(self) -> None:
        """Forget every span and counter (between passes; no span is open)."""
        self.spans.clear()
        self.counters.clear()

    def call(self, name: str, layer: str, fn: Callable, args, kwargs, unit: Any = None):
        parent = self._open[-1] if self._open else -1
        if unit is None and self._units:
            unit = self._units[-1]
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        self._units.append(unit)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self._units.pop()
            self.spans[index] = (name, layer, start, end, parent, unit)


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``owner`` is ``"module"`` or ``"module:Class"``."""

    layer: str
    name: str
    owner: str
    attribute: str
    unit: Optional[Callable[[Tracer, tuple, dict], Any]] = None
    count: Optional[Callable[[Tracer, tuple, dict, Any], None]] = None


def _run_unit(tracer: Tracer, args, kwargs) -> str:
    tracer.counters["runs"] += 1
    return f"run{int(tracer.counters['runs'])}"


def _count(counter: str, value: Callable[[tuple, dict, Any], float]):
    def count(tracer: Tracer, args, kwargs, result) -> None:
        tracer.counters[counter] += value(args, kwargs, result)

    return count


def _argument(position: int, name: str):
    """Reads one argument of a wrapped call, passed by position or by name."""
    return lambda args, kwargs, result: kwargs[name] if name in kwargs else args[position]


PROBES: Tuple[Probe, ...] = (
    Probe("api", "api.run", "repro", "run", unit=_run_unit),
    Probe("api", "api.resolve", "repro.api.runner", "select_backend"),
    Probe("api", "api.resolve", "repro.api.runner", "require_capable"),
    Probe("api", "api.resolve", "repro.ensemble.runner", "select_backend"),
    Probe("api", "api.resolve", "repro.ensemble.runner", "require_capable"),
    Probe("api", "api.backend", "repro.api.engines:FleetBackend", "run_once"),
    Probe("api", "api.backend", "repro.api.engines:ClusterBackend", "run_once"),
    Probe("api", "api.backend", "repro.api.engines:QBDBoundsBackend", "run_once"),
    Probe("api", "api.backend", "repro.api.engines:ExactBackend", "run_once"),
    Probe("ensemble", "ensemble.run_ensemble", "repro.ensemble.runner", "run_ensemble"),
    Probe("ensemble", "ensemble.replication", "repro.ensemble.runner", "_execute_replication",
          unit=lambda tracer, args, kwargs: f"rep{args[0][3]}"),
    Probe("ensemble", "ensemble.provenance", "repro.ensemble.results", "provenance"),
    Probe("ensemble", "ensemble.provenance", "repro.campaigns.scheduler", "provenance"),
    Probe("ensemble", "ensemble.stats", "repro.ensemble.stats", "student_t_quantile"),
    Probe("campaigns", "campaigns.run", "repro.campaigns", "run_campaign"),
    Probe("campaigns", "campaigns.execute_task", "repro.campaigns.scheduler", "execute_task",
          unit=lambda tracer, args, kwargs: args[0].task_id),
    Probe("campaigns", "campaigns.task_build", "repro.campaigns.scheduler", "point_tasks"),
    Probe("campaigns", "campaigns.journal", "repro.campaigns.queue:TaskQueue", "enqueue"),
    Probe("campaigns", "campaigns.journal", "repro.campaigns.queue:TaskQueue", "lease"),
    Probe("campaigns", "campaigns.journal", "repro.campaigns.queue:TaskQueue", "complete"),
    Probe("campaigns", "campaigns.journal", "repro.campaigns.queue:TaskQueue", "release"),
    Probe("campaigns", "campaigns.records_append", "repro.ensemble.results:ResultStore", "extend"),
    Probe("campaigns", "campaigns.fold", "repro.campaigns.accumulators:PointAccumulator", "add"),
    Probe("campaigns", "campaigns.summary", "repro.campaigns.accumulators:PointAccumulator", "summary"),
    Probe("fleet", "fleet.simulate", "repro.fleet.engine", "simulate_fleet"),
    Probe("fleet", "fleet.init", "repro.fleet.engine:FleetSimulation", "__init__"),
    Probe("fleet", "fleet.meanfield", "repro.fleet.engine", "meanfield_fixed_point"),
    Probe("fleet", "fleet.statistics", "repro.fleet.engine:FleetSimulation", "statistics"),
    Probe("kernels", "kernels.advance", "repro.fleet.engine:FleetSimulation", "advance",
          count=_count("events", lambda args, kwargs, result: result)),
    Probe("core", "core.analyze", "repro.core.analysis", "analyze_sqd"),
    Probe("core", "core.blocks", "repro.core.bound_models:_BoundModelBase", "qbd_blocks"),
    Probe("core", "core.matrix_geometric", "repro.core.analysis", "solve_bound_model"),
    Probe("core", "core.scalar_solve", "repro.core.analysis", "solve_improved_lower_bound"),
    Probe("core", "core.exact", "repro.core.exact", "solve_exact_truncated"),
    Probe("linalg", "linalg.g_solve", "repro.core.qbd_solver", "solve_G_logarithmic_reduction",
          count=_count("g_iterations", lambda args, kwargs, result: result.iterations)),
    Probe("simulation", "simulation.run", "repro.simulation.cluster:ClusterSimulation", "run",
          count=_count("jobs", _argument(1, "num_jobs"))),
    Probe("policies", "policies.select", "repro.policies.sqd:PowerOfD", "select_server"),
    Probe("markov", "markov.interarrival", "repro.markov.arrival_processes:MarkovianArrivalProcess",
          "sample_interarrival_times", count=_count("interarrival_variates", _argument(2, "size"))),
    Probe("markov", "markov.service", "repro.markov.service_distributions:HyperexponentialService",
          "sample", count=_count("service_variates", _argument(2, "size"))),
    Probe("faults", "faults.hook", "repro.campaigns.queue", "maybe_fire"),
    Probe("faults", "faults.hook", "repro.ensemble.results", "maybe_fire"),
    Probe("faults", "faults.hook", "repro.campaigns.scheduler", "maybe_fire"),
    Probe("utils", "utils.spawn_seeds", "repro.ensemble.grid", "spawn_seeds"),
    Probe("utils", "utils.spawn_seeds", "repro.ensemble.runner", "spawn_seeds"),
    Probe("utils", "utils.retry", "repro.ensemble.results", "retry_call"),
    Probe("utils", "utils.retry", "repro.campaigns.queue", "retry_call"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _wrap(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    if probe.name == "utils.retry":
        # Count attempts beyond the first by wrapping the retried operation.
        @functools.wraps(original)
        def retried(fn, *args, **kwargs):
            attempts = [0]

            def attempt():
                attempts[0] += 1
                return fn()

            try:
                return tracer.call(probe.name, probe.layer, original, (attempt,) + args, kwargs)
            finally:
                tracer.counters["retry_attempts"] += max(0, attempts[0] - 1)

        return retried

    @functools.wraps(original)
    def traced(*args, **kwargs):
        unit = probe.unit(tracer, args, kwargs) if probe.unit else None
        result = tracer.call(probe.name, probe.layer, original, args, kwargs, unit)
        if probe.count is not None:
            probe.count(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, probes=PROBES) -> None:
    """Wrap every probe's callable, for the rest of the process."""
    for probe in probes:
        owner = _resolve(probe.owner)
        setattr(owner, probe.attribute, _wrap(tracer, probe, getattr(owner, probe.attribute)))


def aggregate(spans, window: Tuple[float, float] = (float("-inf"), float("inf"))) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self seconds; per layer: self seconds.

    Only spans inside ``window`` (the timed region of the pass) count; the
    workloads' result verification after it is traced but not measured.
    """
    inside = [window[0] <= span[2] and span[3] <= window[1] for span in spans]
    child_time = [0.0] * len(spans)
    for index, (name, layer, start, end, parent, unit) in enumerate(spans):
        if parent >= 0 and inside[index]:
            child_time[parent] += end - start
    names: Dict[str, Dict[str, float]] = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0})
    layers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for index, (name, layer, start, end, parent, unit) in enumerate(spans):
        if not inside[index]:
            continue
        own = (end - start) - child_time[index]
        entry = names[name]
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += own
        layers[layer] += own
    return {"names": dict(names), "layers": layers}


def maybe_fire_ns(calls: int = 1_000_000, repeats: int = 7) -> float:
    """Disarmed ``maybe_fire`` cost per call: best of ``repeats`` loops of
    ``calls`` calls, minus the best loop over an empty function."""
    from repro.faults import maybe_fire

    def empty(site: str, key: str = "") -> bool:
        return False

    def loop(fn) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            fn("worker.task", "key")
        return time.perf_counter() - started

    maybe_fire("worker.task", "key")  # resolves the environment once
    hook, baseline = float("inf"), float("inf")
    for _ in range(repeats):
        hook = min(hook, loop(maybe_fire))
        baseline = min(baseline, loop(empty))
    return (hook - baseline) / calls * 1e9


def layer_metrics(tracer: Tracer, result: Dict[str, Any], fire_ns: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer is idle)."""
    wall = result["wall_s"]
    summary = aggregate(tracer.spans, (result["started"], result["started"] + wall))
    names, layers = summary["names"], summary["layers"]
    counters = tracer.counters
    extra = result["extra"]

    def count(name: str) -> int:
        return int(names.get(name, {}).get("count", 0))

    def total(name: str, field: str = "total") -> float:
        return names.get(name, {}).get(field, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_call(name: str, factor: float, field: str = "total") -> float:
        return ratio(total(name, field) * factor, count(name))

    tasks = extra.get("tasks", 0)
    busy = extra.get("busy_s", 0.0)
    capacity = extra.get("workers", 0) * extra.get("campaign_wall_s", 0.0)
    jobs = counters["jobs"]
    metrics = {
        "api.run_self_ms": per_call("api.run", 1e3, "self"),
        "api.warm_run_ms": median(extra["warm_ms"]) if extra.get("warm_ms") else 0.0,
        "api.resolve_us": per_call("api.resolve", 1e6),
        "ensemble.provenance_ms": per_call("ensemble.provenance", 1e3),
        "ensemble.stats_ms": total("ensemble.stats") * 1e3,
        "utils.spawn_seeds_us": per_call("utils.spawn_seeds", 1e6),
        "utils.retry_attempts": counters["retry_attempts"],
        "fleet.setup_ms": ratio((total("fleet.init") + total("fleet.meanfield")) * 1e3, count("fleet.init")),
        "fleet.statistics_us": per_call("fleet.statistics", 1e6),
        "kernels.advance_ns_per_event": ratio(total("kernels.advance") * 1e9, counters["events"]),
        "kernels.events_per_advance": ratio(counters["events"], count("kernels.advance")),
        "campaigns.task_busy_ms": ratio(busy * 1e3, tasks),
        "campaigns.task_build_us": per_call("campaigns.task_build", 1e6),
        "campaigns.journal_us_per_task": ratio(total("campaigns.journal") * 1e6, tasks),
        "campaigns.records_append_us": per_call("campaigns.records_append", 1e6),
        "campaigns.fold_us": per_call("campaigns.fold", 1e6),
        "campaigns.summary_ms": total("campaigns.summary") * 1e3,
        "campaigns.scheduler_self_ms_per_task": ratio(total("campaigns.run", "self") * 1e3, tasks),
        "campaigns.pool_busy_ratio": ratio(busy, capacity),
        "campaigns.dispatch_overhead_ms_per_task": ratio((capacity - busy) * 1e3, tasks),
        "campaigns.tasks_executed": tasks,
        "core.block_assembly_ms": per_call("core.blocks", 1e3),
        "core.matrix_geometric_ms": per_call("core.matrix_geometric", 1e3),
        "core.scalar_solve_ms": per_call("core.scalar_solve", 1e3),
        "core.exact_ms": per_call("core.exact", 1e3),
        "core.cache_hits": extra.get("cache_hits", 0),
        "core.cache_misses": extra.get("cache_misses", 0),
        "linalg.g_solve_ms": per_call("linalg.g_solve", 1e3),
        "linalg.g_iterations": counters["g_iterations"],
        "simulation.run_ns_per_job": ratio(total("simulation.run") * 1e9, jobs),
        "simulation.self_ns_per_job": ratio(total("simulation.run", "self") * 1e9, jobs),
        "policies.select_us": per_call("policies.select", 1e6),
        "policies.select_calls": count("policies.select"),
        "markov.interarrival_ns_per_variate": ratio(
            total("markov.interarrival") * 1e9, counters["interarrival_variates"]),
        "markov.service_ns_per_variate": ratio(total("markov.service") * 1e9, counters["service_variates"]),
        "faults.maybe_fire_ns": fire_ns,
        "trace.coverage_ratio": ratio(sum(layers.values()), wall),
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_ms"] = seconds * 1e3
    return metrics


def span_counts(tracer: Tracer) -> Dict[str, int]:
    return dict(Counter(span[0] for span in tracer.spans))


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON array per line: name, layer, start, end, parent index, unit."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
