"""The five workloads of the benchmark of record.

Each workload is closed-loop and driven from one process; only
``campaign_adaptive_pool`` starts worker processes (two, one per core of
the reference box).  A workload has a ``setup`` (one tiny warm-up call on
the workload's own code path, so lazy imports and registries are paid in
``setup_s`` and not in the measured pass) and a ``run`` that executes one
measured pass and returns a plain dict:

``started``     ``time.perf_counter()`` at the start of the timed region
``wall_s``      the timed region, in seconds
``work``        work done in the pass, in the workload's ``unit``
``units_ms``    per-unit latencies (replication, task or cold run) in ms,
                keyed by a unit id that is the same in every pass of a seed
``parts_ms``    every timed piece of the pass (the units and any other
                timed call), keyed the same way; the pieces run one after
                another inside the timed region.  Absent where units run
                concurrently (``campaign_adaptive_pool``)
``attempted``   units attempted; ``failed`` units that failed
``checks``      correctness checks: ``{"name", "ok", "detail"}``
``digest``      digest of the seeded results (equal across passes of a seed)
``extra``       counts the trace pass turns into per-layer metrics

The package under test is imported inside the functions only, so the
benchmark's parent process can list the workloads without importing it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent

FLEET_SERVERS = 100_000
FLEET_EVENTS = 250_000
FLEET_REPLICATIONS = 12
#: The fleet delay must lie this close (relative) to the mean-field limit.
FLEET_MEANFIELD_TOLERANCE = 0.02

SMALL_TASKS_GRID = {
    "server_counts": (100, 1000),
    "utilizations": (0.8, 0.95),
    "num_events": 2_000,
    "replications": 64,
    "workers": 1,
}

POOL_GRID = {
    "server_counts": (50, 500),
    "utilizations": (0.7, 0.9, 0.95),
    "num_events": 50_000,
    "replications": 4,
    "workers": 2,
}
#: The precision target is out of reach within the cap for every point, so
#: each point is extended batch after batch and retires at the cap: the
#: task count (6 x 16) does not depend on the seed, and neither does wall_s.
POOL_POLICY = {"target_relative_half_width": 0.002, "batch_size": 4, "max_replications": 16}

ANALYTIC_SERVERS = tuple(range(3, 9))
ANALYTIC_UTILIZATIONS = (0.5, 0.7, 0.8, 0.9, 0.95)
ANALYTIC_THRESHOLD = 3
#: (N, rho, buffer_size) of the exact solve checked against its QBD bracket.
ANALYTIC_EXACT = (3, 0.7, 20)

#: One replication draws exactly one 8192-variate block of each random
#: stream of the DES, so no sampled variate goes unused.
CLUSTER_JOBS = 8_192
CLUSTER_REPLICATIONS = 4
CLUSTER_WORKLOAD = {
    "arrival": {
        "name": "mmpp2",
        "params": {"rate_high": 4, "rate_low": 1, "switch_to_low": 0.1, "switch_to_high": 0.1},
    },
    "service": {"name": "hyperexponential", "params": {"scv": 4}},
}

#: A point's delay must lie within this many combined half-widths of its
#: reference (``references.json``, made by ``make_references.py``).
REFERENCE_HALF_WIDTHS = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    setup: Callable[[Path], None]
    run: Callable[[int, float, Path], Dict[str, Any]]


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _check(checks: List[Dict[str, Any]], name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _references(workload: str) -> Dict[str, Dict[str, float]]:
    return json.loads((HERE / "references.json").read_text())[workload]


def reference_key(num_servers: int, utilization: float) -> str:
    return f"N={num_servers},rho={utilization}"


def _check_reference(checks, workload: str, key: str, mean: float, half_width: float) -> None:
    reference = _references(workload)[key]
    allowed = REFERENCE_HALF_WIDTHS * math.hypot(half_width, reference["half_width"])
    _check(
        checks,
        f"reference {key}",
        abs(mean - reference["mean"]) <= allowed,
        f"delay {mean:.5f} vs reference {reference['mean']:.5f} (allowed +-{allowed:.5f})",
    )


def _degraded_records(records) -> int:
    """Campaign records a backend fallback produced."""
    return sum(1 for record in records if "degraded_from" in record)


def _degraded_run(result) -> int:
    """Units of a ``repro.run`` result a backend fallback produced."""
    return result.replications if "degraded" in result.provenance else 0


def _replication_ms(records) -> Dict[str, float]:
    return {f"rep{record['replication']}": record["wall_seconds"] * 1e3 for record in records}


def _task_ms(records) -> Dict[str, float]:
    # A task's derived seed and replication index identify it across passes.
    return {f"{record['seed']}:{record['replication']}": record["wall_seconds"] * 1e3
            for record in records}


# --------------------------------------------------------------------- #
# fleet_long
# --------------------------------------------------------------------- #
def fleet_spec(num_servers: int, num_events: int, seed: int):
    from repro import ExperimentSpec

    return ExperimentSpec.create(
        num_servers=num_servers,
        d=2,
        utilization=0.9,
        num_events=num_events,
        seed=seed,
        kernel="uniformized",
    )


def _fleet_setup(scratch: Path) -> None:
    import repro

    repro.run(fleet_spec(1_000, 2_000, 0), backend="fleet", replications=2)


def _fleet_long(seed: int, scale: float, scratch: Path) -> Dict[str, Any]:
    import repro
    from repro.fleet.meanfield import meanfield_delay

    events = max(1_000, round(FLEET_EVENTS * scale))
    spec = fleet_spec(FLEET_SERVERS, events, seed)
    started = time.perf_counter()
    result = repro.run(spec, backend="fleet", replications=FLEET_REPLICATIONS)
    wall = time.perf_counter() - started

    checks: List[Dict[str, Any]] = []
    limit = meanfield_delay(0.9, 2)
    error = abs(result.mean_delay - limit) / limit
    _check(checks, "meanfield", error <= FLEET_MEANFIELD_TOLERANCE,
           f"delay {result.mean_delay:.5f} vs mean-field {limit:.5f} ({error:.2%})")
    kernels = {record["kernel"] for record in result.records}
    _check(checks, "kernel", kernels == {"uniformized"}, f"kernels {sorted(kernels)}")
    units = _replication_ms(result.records)
    return {
        "started": started,
        "wall_s": wall,
        "work": events * FLEET_REPLICATIONS,
        "units_ms": units,
        "parts_ms": units,
        "attempted": FLEET_REPLICATIONS,
        "failed": _degraded_run(result),
        "checks": checks,
        "digest": _digest([float(record["mean_delay"]).hex() for record in result.records]),
        "extra": {},
    }


# --------------------------------------------------------------------- #
# campaign_small_tasks / campaign_adaptive_pool
# --------------------------------------------------------------------- #
def _campaign_setup(scratch: Path) -> None:
    import repro.campaigns
    from repro.ensemble.grid import GridConfig

    directory = scratch / "warmup-campaign"
    grid = GridConfig(server_counts=(10,), utilizations=(0.8,), num_events=200, replications=2, seed=0)
    repro.campaigns.run_campaign(grid, directory)
    shutil.rmtree(directory)


def _campaign(
    workload: str,
    grid_axes: Dict[str, Any],
    policy: Dict[str, Any],
    expected_tasks: int,
    seed: int,
    scale: float,
    scratch: Path,
) -> Dict[str, Any]:
    import repro.campaigns
    from repro.ensemble.grid import GridConfig
    from repro.ensemble.results import ResultStore

    axes = dict(grid_axes, num_events=max(20, round(grid_axes["num_events"] * scale)))
    grid = GridConfig(choices=(2,), seed=seed, **axes)
    directory = scratch / "campaign"
    started = time.perf_counter()
    result = repro.campaigns.run_campaign(grid, directory, **policy)
    wall = time.perf_counter() - started

    records = list(ResultStore(directory / "records.jsonl").stream())
    busy = [record["wall_seconds"] for record in records]
    units = _task_ms(records)
    checks: List[Dict[str, Any]] = []
    _check(checks, "status", result.status == "complete", f"status {result.status}")
    _check(checks, "tasks", result.executed_tasks == expected_tasks == len(units),
           f"{result.executed_tasks} tasks executed, {len(units)} recorded, expected {expected_tasks}")
    if scale == 1.0:
        for point in result.points:
            delay = point.metrics["mean_delay"]
            key = reference_key(point.labels["N"], point.labels["utilization"])
            _check_reference(checks, workload, key, delay["mean"], delay["half_width"])
    digest = _digest(repro.campaigns.campaign_fingerprint(directory))
    shutil.rmtree(directory)
    outcome = {
        "started": started,
        "wall_s": wall,
        "work": result.executed_tasks,
        "units_ms": units,
        "attempted": expected_tasks,
        "failed": _degraded_records(records) + len(result.quarantined),
        "checks": checks,
        "digest": digest,
        "extra": {
            "tasks": result.executed_tasks,
            "busy_s": sum(busy),
            "workers": grid.workers,
            "campaign_wall_s": wall,
        },
    }
    if grid.workers == 1:  # inline: the tasks run one after another
        outcome["parts_ms"] = units
    return outcome


def _campaign_small_tasks(seed: int, scale: float, scratch: Path) -> Dict[str, Any]:
    tasks = 4 * SMALL_TASKS_GRID["replications"]
    return _campaign("campaign_small_tasks", SMALL_TASKS_GRID, {}, tasks, seed, scale, scratch)


def _campaign_adaptive_pool(seed: int, scale: float, scratch: Path) -> Dict[str, Any]:
    tasks = 6 * POOL_POLICY["max_replications"]
    return _campaign("campaign_adaptive_pool", POOL_GRID, POOL_POLICY, tasks, seed, scale, scratch)


# --------------------------------------------------------------------- #
# analytic_bounds
# --------------------------------------------------------------------- #
def _bounds_spec(num_servers: int, utilization: float, threshold: int = ANALYTIC_THRESHOLD):
    from repro import ExperimentSpec

    return ExperimentSpec.create(
        num_servers=num_servers, d=2, utilization=utilization, threshold=threshold
    )


def _analytic_setup(scratch: Path) -> None:
    import repro
    from repro import ExperimentSpec

    repro.run(_bounds_spec(2, 0.5, threshold=2), backend="qbd_bounds")
    repro.run(ExperimentSpec.create(num_servers=2, d=2, utilization=0.5, buffer_size=5), backend="exact")


def _bracket(result) -> List[str]:
    return [float(result.extras["lower_delay"]).hex(), float(result.extras["upper_delay"]).hex()]


def _analytic_bounds(seed: int, scale: float, scratch: Path) -> Dict[str, Any]:
    import repro
    from repro import ExperimentSpec
    from repro.core.solver_cache import solver_cache

    points = [(n, rho) for n in ANALYTIC_SERVERS for rho in ANALYTIC_UTILIZATIONS]
    random.Random(seed).shuffle(points)
    specs = [_bounds_spec(n, rho) for n, rho in points]
    exact_n, exact_rho, buffer_size = ANALYTIC_EXACT
    exact_spec = ExperimentSpec.create(
        num_servers=exact_n, d=2, utilization=exact_rho, buffer_size=buffer_size
    )
    cache = solver_cache()
    cache.clear()

    parts_ms: Dict[str, float] = {}

    def timed(key: str, spec, backend: str):
        began = time.perf_counter()
        result = repro.run(spec, backend=backend)
        parts_ms[key] = (time.perf_counter() - began) * 1e3
        return result

    keys = [reference_key(*point) for point in points]
    started = time.perf_counter()
    cold = [timed(f"cold {key}", spec, "qbd_bounds") for key, spec in zip(keys, specs)]
    cold_stats = cache.stats
    warm = [timed(f"warm {key}", spec, "qbd_bounds") for key, spec in zip(keys, specs)]
    exact = timed("exact", exact_spec, "exact")
    wall = time.perf_counter() - started

    stats = cache.stats
    solves = 2 * len(specs)
    checks: List[Dict[str, Any]] = []
    stable = [result for result in cold if not result.extras["upper_bound_unstable"]]
    ordered = all(r.extras["lower_delay"] <= r.extras["upper_delay"] for r in stable)
    _check(checks, "lower<=upper", ordered, f"{len(stable)} stable brackets")
    _check(checks, "warm==cold", [_bracket(r) for r in warm] == [_bracket(r) for r in cold],
           "warm results bitwise equal to cold ones")
    _check(checks, "cache", (cold_stats.misses, stats.hits) == (solves, solves),
           f"cold misses {cold_stats.misses}, warm hits {stats.hits}, expected {solves}")
    bracket = cold[points.index((exact_n, exact_rho))].extras
    inside = bracket["lower_delay"] <= exact.mean_delay <= bracket["upper_delay"]
    _check(checks, "exact in bracket", inside,
           f"exact {exact.mean_delay:.6f} in [{bracket['lower_delay']:.6f}, {bracket['upper_delay']:.6f}]")
    runs = cold + warm + [exact]
    by_point = sorted(zip(points, (_bracket(r) for r in cold)))
    return {
        "started": started,
        "wall_s": wall,
        "work": len(runs),
        "units_ms": {key: ms for key, ms in parts_ms.items() if key.startswith("cold")},
        "parts_ms": parts_ms,
        "attempted": len(runs),
        "failed": sum(_degraded_run(r) for r in runs),
        "checks": checks,
        "digest": _digest([by_point, float(exact.mean_delay).hex()]),
        "extra": {
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "warm_ms": [ms for key, ms in parts_ms.items() if key.startswith("warm")],
        },
    }


# --------------------------------------------------------------------- #
# cluster_bursty
# --------------------------------------------------------------------- #
def cluster_spec(num_servers: int, num_jobs: int, seed: int):
    from repro import ExperimentSpec

    return ExperimentSpec.from_dict(
        {
            "system": {"num_servers": num_servers, "d": 2, "utilization": 0.9},
            "workload": CLUSTER_WORKLOAD,
            "policy": "sqd",
            "horizon": {"num_jobs": num_jobs},
            "seed": seed,
        }
    )


def _cluster_setup(scratch: Path) -> None:
    import repro

    repro.run(cluster_spec(10, 200, 0), backend="cluster", replications=2)


def _cluster_bursty(seed: int, scale: float, scratch: Path) -> Dict[str, Any]:
    import repro

    jobs = max(200, round(CLUSTER_JOBS * scale))
    spec = cluster_spec(100, jobs, seed)
    started = time.perf_counter()
    result = repro.run(spec, backend="cluster", replications=CLUSTER_REPLICATIONS)
    wall = time.perf_counter() - started

    checks: List[Dict[str, Any]] = []
    if scale == 1.0:
        _check_reference(checks, "cluster_bursty", reference_key(100, 0.9),
                         result.mean_delay, result.half_width)
    units = _replication_ms(result.records)
    return {
        "started": started,
        "wall_s": wall,
        "work": jobs * CLUSTER_REPLICATIONS,
        "units_ms": units,
        "parts_ms": units,
        "attempted": CLUSTER_REPLICATIONS,
        "failed": _degraded_run(result),
        "checks": checks,
        "digest": _digest([float(record["mean_delay"]).hex() for record in result.records]),
        "extra": {},
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fleet_long", "events", _fleet_setup, _fleet_long),
        Workload("campaign_small_tasks", "tasks", _campaign_setup, _campaign_small_tasks),
        Workload("campaign_adaptive_pool", "tasks", _campaign_setup, _campaign_adaptive_pool),
        Workload("analytic_bounds", "runs", _analytic_setup, _analytic_bounds),
        Workload("cluster_bursty", "jobs", _cluster_setup, _cluster_bursty),
    )
}
