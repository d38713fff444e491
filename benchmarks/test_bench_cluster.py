"""Benchmark harness for the job-level cluster DES: the micro-opt ledger.

The simulator's per-job costs that have been taken out, in
:mod:`repro.simulation.cluster` and its samplers —

* random-variate blocks converted to plain lists once per refill (no numpy
  scalar extraction + ``float()`` per job),
* bound methods and attribute chains hoisted out of the per-job code,
* ``PowerOfD`` polls read from a pre-drawn block of distinct-server rows,
  and MAP/PH variates from a table-driven walk over pre-drawn blocks (no
  numpy call per job or per phase transition),
* no event list: one pass over the arrivals books each job's departure
  when it arrives (the Lindley recursion), a heap of ``(departure,
  server)`` tuples keeps the queue lengths exact, and waiting and sojourn
  times fold into running sums (no per-job object, closure or sample
  list; memory flat in the job count).

The first two kept the seeded output bitwise; the block-drawn polls moved
it (seed 42: 2.662707 -> 2.641335), and so did the event-free pass, whose
warm-up discards the first arrivals rather than the first completions:
seed 42 now gives ``mean_delay = 2.632230`` (the tier-1 suite checks the
law, not this value).  Throughput, best of 3 per run and three runs a
side on 2 shared vCPUs: the block-drawn polls took the event list from
25.3k-29.0k to 63.3k-65.7k jobs/s (a 2.0 GHz Xeon), and the event-free
pass measured 184k-371k jobs/s against 84k-107k for the event list on
one later box.  This harness regenerates the measurement so the number
stays current in ``benchmarks/results/cluster_throughput.txt``.

Run with::

    pytest benchmarks/test_bench_cluster.py --benchmark-only
"""

from __future__ import annotations

import time

from conftest import env_int

from repro.policies import PowerOfD
from repro.simulation.cluster import ClusterSimulation
from repro.simulation.workloads import poisson_exponential_workload
from repro.utils.tables import format_table

JOBS = env_int("REPRO_BENCH_CLUSTER_JOBS", 60_000)
NUM_SERVERS = 100
UTILIZATION = 0.9
REPEATS = 3


def _run_once():
    workload = poisson_exponential_workload(
        num_servers=NUM_SERVERS, utilization=UTILIZATION
    )
    simulation = ClusterSimulation(
        workload, PowerOfD(2), seed=42, warmup_jobs=JOBS // 10
    )
    started = time.perf_counter()
    result = simulation.run(JOBS)
    return time.perf_counter() - started, result


def test_cluster_throughput(benchmark, report):
    """Job-level DES throughput: the three repeats of one seeded run give one
    delay, and the best of them stays above 10,000 jobs/s."""

    def run_all():
        return [_run_once() for _ in range(REPEATS)]

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    best_wall = min(wall for wall, _ in runs)
    result = runs[0][1]

    rows = [
        [NUM_SERVERS, UTILIZATION, JOBS, f"{JOBS / best_wall:,.0f}", result.mean_sojourn_time]
    ]
    table = format_table(
        ["N", "rho", "jobs", "jobs/s (best of 3)", "mean delay (seed 42)"],
        rows,
        title=(
            "cluster DES throughput, SQ(2) — micro-opt ledger: 42.9k jobs/s "
            "before ISSUE 4 (list-buffered variates, hoisted handlers, tuple heap)"
        ),
    )
    report("cluster_throughput", table)

    # All runs are the same seeded simulation: identical laws, and the
    # throughput must not have regressed catastrophically (loose 2x guard
    # against accidental re-introduction of per-event allocation).
    delays = {r.mean_sojourn_time for _, r in runs}
    assert len(delays) == 1
    assert JOBS / best_wall > 10_000, f"cluster DES at {JOBS / best_wall:,.0f} jobs/s"
