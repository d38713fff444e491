"""Benchmark harness for the fault-injection hooks: disabled means free.

The resilience hooks (`repro.faults.maybe_fire`) ride on every journal
append, record append and task execution of a campaign.  Their contract is
*zero-cost when disabled*: one module-global load and an ``is None`` test.
Comparing two campaign timings cannot resolve a cost that small — their
run-to-run spread is wider than any bound worth asserting — so this harness
measures the contract directly:

* the disarmed hook's cost per call: best of ``LOOPS`` loops of
  ``CALLS`` calls, minus the best loop over an empty two-argument function;
* the hook calls one campaign task makes, counted from the campaign's own
  artifacts: one per journal line, one per record line, two per task
  (``worker.task`` and ``worker.done``) and one manifest write;
* the seconds one task takes: the best of ``ROUNDS`` timed campaigns of the
  ``BENCH_campaign`` workload (same grid, same events, same seed).

It asserts that calls per task x cost per call stays below 2 % of a task.
An armed-but-never-matching plan is timed too, as the reported (unasserted)
cost of leaving chaos armed.

Run with::

    pytest benchmarks/test_bench_faults.py --benchmark-only
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import env_int

from repro.campaigns import run_campaign
from repro.ensemble.grid import GridConfig
from repro.faults import FaultPlan, FaultSpec, clear, install, maybe_fire
from repro.utils.tables import format_table

CAMPAIGN_EVENTS = env_int("REPRO_BENCH_CAMPAIGN_EVENTS", 20_000)
CAMPAIGN_REPLICATIONS = env_int("REPRO_BENCH_CAMPAIGN_REPLICATIONS", 3)
ROUNDS = env_int("REPRO_BENCH_FAULTS_ROUNDS", 5)
CALLS = 1_000_000
LOOPS = 7
SEED = 20160627
MAX_OVERHEAD = 0.02


def make_grid():
    # Byte-for-byte the BENCH_campaign workload.
    return GridConfig(
        server_counts=(50, 100),
        choices=(2,),
        utilizations=(0.8, 0.9),
        num_events=CAMPAIGN_EVENTS,
        replications=CAMPAIGN_REPLICATIONS,
        seed=SEED,
        workers=1,
    )


def _line_count(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def _time_campaign(directory: Path):
    started = time.perf_counter()
    result = run_campaign(grid=make_grid(), directory=directory)
    elapsed = time.perf_counter() - started
    assert result.complete and result.status == "complete"
    return elapsed, result


def _disarmed_ns_per_call() -> float:
    """Best-of-``LOOPS`` disarmed ``maybe_fire`` cost, empty call subtracted."""

    def empty(site: str, key: str = "") -> bool:
        return False

    def loop(fn) -> float:
        started = time.perf_counter()
        for _ in range(CALLS):
            fn("worker.task", "key")
        return time.perf_counter() - started

    maybe_fire("worker.task", "key")  # resolves the environment once
    hook, baseline = float("inf"), float("inf")
    for _ in range(LOOPS):
        hook = min(hook, loop(maybe_fire))
        baseline = min(baseline, loop(empty))
    return (hook - baseline) / CALLS * 1e9


def test_disabled_hooks_cost_nothing(benchmark, report, report_json, tmp_path):
    """Disarmed hook calls per task x ns per call < 2% of a campaign task."""

    def run_all():
        clear()  # the production state: no plan, hooks short-circuit
        ns_per_call = _disarmed_ns_per_call()
        # The warm-up pays one-time import/alloc costs; its directory holds
        # the artifacts the hook calls are counted from.
        warmup = tmp_path / "warmup"
        tasks = _time_campaign(warmup)[1].executed_tasks
        calls = (
            _line_count(warmup / "journal.jsonl")
            + _line_count(warmup / "records.jsonl")
            + 2 * tasks  # worker.task + worker.done
            + 1  # manifest.write
        )
        disarmed, armed = [], []
        for round_index in range(ROUNDS):
            clear()
            disarmed.append(_time_campaign(tmp_path / f"disarmed{round_index}")[0])
            # Armed with a plan that can never match: the full select() path
            # runs on every hook without any fault actually firing.
            install(FaultPlan(seed=1, faults=[
                FaultSpec(site="journal.append", kind="io_error",
                          match="never-matches-any-task", times=None)
            ]))
            try:
                armed.append(_time_campaign(tmp_path / f"armed{round_index}")[0])
            finally:
                clear()
        return ns_per_call, calls / tasks, tasks, min(disarmed), min(armed)

    ns_per_call, calls_per_task, tasks, disarmed_seconds, armed_seconds = (
        benchmark.pedantic(run_all, rounds=1, iterations=1)
    )
    seconds_per_task = disarmed_seconds / tasks
    overhead = calls_per_task * ns_per_call * 1e-9 / seconds_per_task

    rows = [
        ["disarmed maybe_fire", f"{ns_per_call:.1f} ns/call", f"best of {LOOPS} x {CALLS:,} calls"],
        ["hook calls per task", f"{calls_per_task:.2f}", "journal + records + 2 worker + manifest"],
        ["campaign task", f"{seconds_per_task * 1e3:.2f} ms", f"min of {ROUNDS}, {tasks} tasks"],
        ["disarmed hooks / task", f"{overhead:.4%}", f"asserted < {MAX_OVERHEAD:.0%}"],
        ["tasks/s disarmed", f"{tasks / disarmed_seconds:.1f}", "-"],
        ["tasks/s armed, never firing", f"{tasks / armed_seconds:.1f}", "-"],
    ]
    report(
        "faults_overhead",
        format_table(
            ["measure", "value", "how"],
            rows,
            title=(
                f"fault-hook overhead: 4 points x {CAMPAIGN_REPLICATIONS} "
                f"replications x {CAMPAIGN_EVENTS} events"
            ),
        ),
    )
    report_json(
        "faults",
        {
            "workload": {
                "grid_points": 4,
                "replications_per_point": CAMPAIGN_REPLICATIONS,
                "events_per_replication": CAMPAIGN_EVENTS,
            },
            "rounds": ROUNDS,
            "loops": LOOPS,
            "calls_per_loop": CALLS,
            "status": "ok",
            "disarmed_ns_per_call": ns_per_call,
            "hook_calls_per_task": calls_per_task,
            "seconds_per_task": seconds_per_task,
            "overhead_fraction": overhead,
            "disarmed_tasks_per_second": tasks / disarmed_seconds,
            "armed_nonfiring_tasks_per_second": tasks / armed_seconds,
            "max_overhead_asserted": MAX_OVERHEAD,
        },
    )

    assert overhead < MAX_OVERHEAD, (
        f"disarmed fault hooks cost {overhead:.2%} of a campaign task "
        f"({calls_per_task:.2f} calls x {ns_per_call:.1f} ns "
        f"vs {seconds_per_task * 1e3:.2f} ms)"
    )
