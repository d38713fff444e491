"""Benchmark harness for the fault-injection hooks: disabled means free.

The resilience hooks (`repro.faults.maybe_fire`) ride on every journal
append, record append and worker message of a campaign.  Their contract is
*zero-cost when disabled*: one module-global load and an ``is None`` test.
This harness drives the exact campaign workload ``BENCH_campaign.json``
measures (same grid, same events, same seed), min-of-N, with the hooks in
their production (disarmed) state, and asserts the measured tasks/s is
within 2 % of that baseline.  An armed-but-never-matching plan is timed
too, as the reported (unasserted) cost of leaving chaos armed.

Run with::

    pytest benchmarks/test_bench_faults.py --benchmark-only

(Alphabetical collection runs ``test_bench_ensemble.py`` first, so in a
full benchmark session the ``BENCH_campaign.json`` baseline is fresh from
the same machine and the same workload sizes.  The baseline is read from
the session's ``results_dir``, where that run wrote it.)
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import env_int, smoke_mode

from repro.campaigns import run_campaign
from repro.ensemble.grid import GridConfig
from repro.faults import FaultPlan, FaultSpec, clear, install
from repro.utils.tables import format_table

CAMPAIGN_EVENTS = env_int("REPRO_BENCH_CAMPAIGN_EVENTS", 20_000)
CAMPAIGN_REPLICATIONS = env_int("REPRO_BENCH_CAMPAIGN_REPLICATIONS", 3)
ROUNDS = env_int("REPRO_BENCH_FAULTS_ROUNDS", 5)
SEED = 20160627
MAX_OVERHEAD = 0.02


def make_grid():
    # Byte-for-byte the BENCH_campaign workload, so tasks/s is comparable.
    return GridConfig(
        server_counts=(50, 100),
        choices=(2,),
        utilizations=(0.8, 0.9),
        num_events=CAMPAIGN_EVENTS,
        replications=CAMPAIGN_REPLICATIONS,
        seed=SEED,
        workers=1,
    )


def _time_campaign(directory: Path) -> float:
    started = time.perf_counter()
    result = run_campaign(grid=make_grid(), directory=directory)
    elapsed = time.perf_counter() - started
    assert result.complete and result.status == "complete"
    return elapsed


def test_disabled_hooks_cost_nothing(benchmark, report, report_json, results_dir, tmp_path):
    """Campaign tasks/s with disarmed hooks must match the baseline < 2%."""
    baseline_path = results_dir / "BENCH_campaign.json"
    total_tasks = 4 * CAMPAIGN_REPLICATIONS

    def run_all():
        clear()
        _time_campaign(tmp_path / "warmup")  # pay one-time import/alloc costs
        disarmed, armed = [], []
        for round_index in range(ROUNDS):
            clear()  # the production state: no plan, hooks short-circuit
            disarmed.append(_time_campaign(tmp_path / f"disarmed{round_index}"))
            # Armed with a plan that can never match: the full select() path
            # runs on every hook without any fault actually firing.
            install(FaultPlan(seed=1, faults=[
                FaultSpec(site="journal.append", kind="io_error",
                          match="never-matches-any-task", times=None)
            ]))
            try:
                armed.append(_time_campaign(tmp_path / f"armed{round_index}"))
            finally:
                clear()
        return min(disarmed), min(armed)

    disarmed_seconds, armed_seconds = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    disarmed_rate = total_tasks / disarmed_seconds
    armed_rate = total_tasks / armed_seconds

    baseline_rate = None
    overhead = None
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        same_workload = baseline.get("workload", {}) == {
            "grid_points": 4,
            "replications_per_point": CAMPAIGN_REPLICATIONS,
            "events_per_replication": CAMPAIGN_EVENTS,
        }
        if same_workload:
            baseline_rate = baseline["tasks_per_second"]
            overhead = baseline_rate / disarmed_rate - 1.0

    rows = [
        ["hooks disarmed", f"{disarmed_seconds:.3f}", f"{disarmed_rate:.1f}"],
        ["armed, never firing", f"{armed_seconds:.3f}", f"{armed_rate:.1f}"],
        [
            "BENCH_campaign baseline",
            "-",
            f"{baseline_rate:.1f}" if baseline_rate else "(absent)",
        ],
    ]
    report(
        "faults_overhead",
        format_table(
            ["campaign", "min seconds", "tasks/s"],
            rows,
            title=(
                f"fault-hook overhead: 4 points x {CAMPAIGN_REPLICATIONS} "
                f"replications x {CAMPAIGN_EVENTS} events, min of {ROUNDS}"
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
            "status": "ok",
            "disarmed_tasks_per_second": disarmed_rate,
            "armed_nonfiring_tasks_per_second": armed_rate,
            "baseline_tasks_per_second": baseline_rate,
            "overhead_vs_baseline": overhead,
            "max_overhead_asserted": MAX_OVERHEAD,
        },
    )

    if overhead is not None and not smoke_mode():
        assert overhead < MAX_OVERHEAD, (
            f"disabled fault hooks cost {overhead:.1%} of campaign throughput "
            f"(baseline {baseline_rate:.1f} tasks/s, measured {disarmed_rate:.1f})"
        )
