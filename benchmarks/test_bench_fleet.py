"""Benchmark harness for the occupancy fleet engine: kernels head to head.

Two claims are asserted per kernel (see ISSUE 4 and ``docs/performance.md``):

* **flat in N** — one event costs O(queue depth) regardless of pool size,
  so events/s must stay within a small constant factor across three decades
  of ``N``;
* **uniformized speedup** — the numpy chunk kernel must deliver at least
  3x the events/s of the scalar ``python`` reference at ``N = 10^5``
  (relaxed to "not slower" under ``REPRO_BENCH_SMOKE=1``, the CI smoke
  job's reduced workload on shared runners).  The ratio is best run over
  best run of ``SPEEDUP_PAIRS`` interleaved python/uniformized pairs,
  alternating which kernel goes first: load from other work only ever
  slows a run down, so a single back-to-back run per kernel lets that
  load, not the kernels, decide the gate.

Each kernel's mean delay must also land on the mean-field prediction and on
the other kernel's estimate — throughput that changes the answer is a bug,
not a speedup.

Results are written both as a text table (``fleet_throughput.txt``) and as
a machine-readable ``BENCH_fleet.json`` with git SHA, so the performance
trajectory is trackable across PRs.

Run with::

    pytest benchmarks/test_bench_fleet.py --benchmark-only
"""

from __future__ import annotations

from conftest import env_int, smoke_mode

from repro.core.asymptotic import relative_error_percent
from repro.fleet.engine import simulate_fleet
from repro.fleet.meanfield import meanfield_delay
from repro.utils.tables import format_table

EVENTS = env_int("REPRO_BENCH_FLEET_EVENTS", 300_000)
SERVER_COUNTS = (100, 1_000, 10_000, 100_000)
SPEEDUP_AT = 100_000
SPEEDUP_PAIRS = 3
UTILIZATION = 0.9
D = 2
KERNELS = ("python", "uniformized")


def _simulate(kernel, num_servers):
    return simulate_fleet(
        num_servers=num_servers,
        d=D,
        utilization=UTILIZATION,
        num_events=EVENTS,
        seed=20160627 + num_servers,
        kernel=kernel,
    )


def _run_sweep():
    """Each kernel over the smaller pools once, then interleaved pairs at
    ``SPEEDUP_AT``; the per-kernel results list the fastest pair run last."""
    results = {kernel: [_simulate(kernel, n) for n in SERVER_COUNTS[:-1]] for kernel in KERNELS}
    pairs = {kernel: [] for kernel in KERNELS}
    for index in range(SPEEDUP_PAIRS):
        for kernel in KERNELS if index % 2 == 0 else KERNELS[::-1]:
            pairs[kernel].append(_simulate(kernel, SPEEDUP_AT))
    for kernel in KERNELS:
        results[kernel].append(max(pairs[kernel], key=lambda result: result.events_per_second))
    return results, pairs


def test_fleet_throughput_flat_in_n_and_uniformized_speedup(benchmark, report, report_json):
    """Events/s flat from N=10^2 to 10^5; uniformized >= 3x python at 10^5."""
    results, pairs = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    prediction = meanfield_delay(UTILIZATION, D)
    rows = []
    json_rows = []
    for kernel in KERNELS:
        for result in results[kernel]:
            rows.append(
                [
                    kernel,
                    result.num_servers,
                    f"{result.events_per_second:,.0f}",
                    result.mean_delay,
                    relative_error_percent(result.mean_delay, prediction),
                ]
            )
            json_rows.append(
                {
                    "kernel": kernel,
                    "num_servers": result.num_servers,
                    "events_per_second": result.events_per_second,
                    "wall_seconds": result.wall_seconds,
                    "num_events": result.num_events,
                    "mean_delay": result.mean_delay,
                }
            )
    table = format_table(
        ["kernel", "N", "events/s", "fleet delay", "err% vs mean-field"],
        rows,
        title=(
            f"fleet engine throughput by kernel, SQ({D}) at rho={UTILIZATION}, "
            f"{EVENTS} events/point (mean-field delay {prediction:.4f})"
        ),
    )
    report("fleet_throughput", table)

    speedups = {
        n: uni.events_per_second / py.events_per_second
        for n, py, uni in zip(SERVER_COUNTS, results["python"], results["uniformized"])
    }
    report_json(
        "fleet",
        {
            "workload": {
                "d": D,
                "utilization": UTILIZATION,
                "events_per_point": EVENTS,
                "policy": "sqd",
            },
            "results": json_rows,
            "speedup_uniformized_vs_python": {str(n): s for n, s in speedups.items()},
            "speedup_pairs_events_per_second": {
                kernel: [result.events_per_second for result in runs]
                for kernel, runs in pairs.items()
            },
            "smoke_mode": smoke_mode(),
        },
    )

    for kernel in KERNELS:
        throughputs = [result.events_per_second for result in results[kernel]]
        assert min(throughputs) > 0
        # Flat in N: across three decades the spread must stay within a small
        # constant factor.  O(N) scaling would show a ~1000x ratio, so the
        # bound is loose enough to absorb timer noise on shared CI runners.
        assert max(throughputs) / min(throughputs) < 5.0, (kernel, throughputs)
        # The large-N run sits on the mean-field prediction.
        assert relative_error_percent(results[kernel][-1].mean_delay, prediction) < 5.0

    # Kernels answer the same question: per-N delays within a few percent
    # (each is a ~300k-event estimate of the same stationary mean).
    for py, uni in zip(results["python"], results["uniformized"]):
        assert abs(uni.mean_delay - py.mean_delay) / py.mean_delay < 0.03, (
            py.num_servers, py.mean_delay, uni.mean_delay,
        )

    # ISSUE 4 acceptance: >= 3x events/s at N=10^5 (>= 1x in CI smoke mode),
    # best uniformized run over best python run of the interleaved pairs.
    floor = 1.0 if smoke_mode() else 3.0
    assert speedups[SPEEDUP_AT] >= floor, (
        f"uniformized kernel {speedups[SPEEDUP_AT]:.2f}x python at N={SPEEDUP_AT}, "
        f"needed >= {floor}x"
    )
