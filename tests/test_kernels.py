"""The kernel layer contract: one law, many loops.

Three things make a kernel admissible (ISSUE 4):

1. **statistical parity** — seeded ``python`` and ``uniformized`` runs of
   the same configuration agree within ensemble confidence intervals (the
   kernels share the occupancy CTMC's law, not its sample paths);
2. **bitwise determinism** — each kernel is a deterministic function of the
   seed, across repeated runs and across ensemble worker counts;
3. **capability honesty** — an incapable (kernel, policy, configuration)
   combination raises :class:`~repro.api.spec.SpecError`, never crashes or
   silently substitutes another kernel.
"""

import math

import numpy as np
import pytest

import repro.kernels.uniformized as uniformized
from repro import ExperimentSpec, SpecError, run
from repro.ensemble.runner import run_ensemble
from repro.fleet.engine import FleetSimulation, run_scenario, simulate_fleet
from repro.fleet.scenarios import get_scenario
from repro.kernels import (
    available_kernels,
    get_kernel_class,
    kernel_why_unsupported,
    resolve_kernel,
    select_kernel,
)

PARITY_SPEC = dict(num_servers=1000, d=2, utilization=0.9)


class TestRegistry:
    def test_builtin_kernels_are_registered(self):
        assert available_kernels() == ["python", "uniformized"]

    def test_unknown_kernel_is_a_spec_error(self):
        with pytest.raises(SpecError, match="unknown kernel"):
            get_kernel_class("turbo")

    def test_auto_prefers_uniformized_where_capable(self):
        assert select_kernel("sqd", 2, False) == "uniformized"
        assert select_kernel("jsq", 2, False) == "uniformized"
        assert select_kernel("random", 1, False) == "uniformized"
        assert select_kernel("sqd", 5, True) == "uniformized"

    def test_auto_falls_back_to_python_for_deep_distinct_polling(self):
        assert select_kernel("sqd", 3, False) == "python"
        assert select_kernel("sqd", 50, False) == "python"

    def test_why_unsupported_names_the_reason(self):
        reason = kernel_why_unsupported("uniformized", "sqd", 3, False)
        assert reason is not None and "d <= 2" in reason
        assert kernel_why_unsupported("python", "sqd", 50, False) is None
        assert kernel_why_unsupported("auto", "sqd", 50, False) is None

    def test_resolve_rejects_incapable_combination(self):
        with pytest.raises(SpecError, match="cannot run policy"):
            resolve_kernel("uniformized", "sqd", 3, False)


class TestCapabilityErrors:
    def test_fleet_simulation_rejects_incapable_kernel(self):
        with pytest.raises(SpecError):
            FleetSimulation(num_servers=100, d=3, utilization=0.8, kernel="uniformized")

    def test_simulate_fleet_rejects_unknown_kernel(self):
        with pytest.raises(SpecError, match="unknown kernel"):
            simulate_fleet(num_servers=50, utilization=0.8, num_events=1000, kernel="warp")

    def test_api_surfaces_kernel_capability_as_spec_error(self):
        spec = ExperimentSpec.create(
            num_servers=100, d=3, utilization=0.8, num_events=2000, kernel="uniformized"
        )
        with pytest.raises(SpecError, match="uniformized"):
            run(spec, backend="fleet")

    def test_auto_kernel_runs_deep_distinct_polling_on_python(self):
        result = simulate_fleet(
            num_servers=100, d=3, utilization=0.8, num_events=5000, seed=1
        )
        assert result.kernel == "python"

    def test_grid_config_rejects_incapable_kernel_eagerly(self):
        from repro.ensemble.grid import GridConfig

        with pytest.raises(SpecError, match="d=3"):
            GridConfig(choices=(2, 3), kernel="uniformized")
        with pytest.raises(SpecError, match="unknown kernel"):
            GridConfig(kernel="unifromized")
        GridConfig(choices=(2, 3), kernel="auto")  # auto always resolves


class TestDeterminism:
    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_repeated_seeded_runs_are_bitwise_identical(self, kernel):
        results = [
            simulate_fleet(
                num_servers=400, d=2, utilization=0.9, num_events=30_000,
                seed=97, kernel=kernel,
            )
            for _ in range(2)
        ]
        first, second = results
        assert first.kernel == kernel
        assert first.mean_sojourn_time == second.mean_sojourn_time
        assert first.mean_jobs_in_system == second.mean_jobs_in_system
        assert first.simulated_time == second.simulated_time
        assert first.arrivals == second.arrivals
        assert first.departures == second.departures
        assert list(first.occupancy_fractions) == list(second.occupancy_fractions)

    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_ensemble_records_identical_across_worker_counts(self, kernel):
        spec = ExperimentSpec.create(
            num_servers=200, d=2, utilization=0.85, num_events=10_000,
            seed=5, kernel=kernel,
        )
        serial = run_ensemble(spec=spec, backend="fleet", replications=3, workers=1, seed=5)
        parallel = run_ensemble(spec=spec, backend="fleet", replications=3, workers=2, seed=5)
        assert serial.simulation_records() == parallel.simulation_records()
        assert all(record["kernel"] == kernel for record in serial.records)

    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_different_seeds_differ(self, kernel):
        a = simulate_fleet(num_servers=300, utilization=0.9, num_events=20_000, seed=1, kernel=kernel)
        b = simulate_fleet(num_servers=300, utilization=0.9, num_events=20_000, seed=2, kernel=kernel)
        assert a.mean_sojourn_time != b.mean_sojourn_time


class TestParity:
    """ISSUE 4 acceptance: seeded kernel agreement at (N=1000, d=2, rho=0.9)."""

    @pytest.fixture(scope="class")
    def estimates(self):
        results = {}
        for kernel in ("python", "uniformized"):
            spec = ExperimentSpec.create(
                num_events=60_000, seed=20160627, kernel=kernel, **PARITY_SPEC
            )
            results[kernel] = run(spec, backend="fleet", replications=5)
        return results

    def test_kernels_agree_within_confidence_intervals(self, estimates):
        py, uni = estimates["python"], estimates["uniformized"]
        assert math.isfinite(py.half_width) and math.isfinite(uni.half_width)
        gap = abs(py.mean_delay - uni.mean_delay)
        allowance = 1.5 * (py.half_width + uni.half_width)
        assert gap <= allowance, (
            f"python {py.mean_delay:.4f}±{py.half_width:.4f} vs "
            f"uniformized {uni.mean_delay:.4f}±{uni.half_width:.4f}: "
            f"gap {gap:.4f} > allowance {allowance:.4f}"
        )

    def test_kernel_recorded_in_extras_and_records(self, estimates):
        for kernel, result in estimates.items():
            assert result.extras["kernel"] == kernel
            assert all(record["kernel"] == kernel for record in result.records)

    def test_uniformized_estimate_inside_the_qbd_bracket(self):
        spec = ExperimentSpec.create(
            num_servers=50, d=2, utilization=0.85, num_events=60_000,
            seed=20160627, threshold=2, kernel="uniformized",
        )
        estimate = run(spec, backend="fleet", replications=4)
        bracket = run(spec, backend="qbd_bounds")
        lower = bracket.extras["lower_delay"]
        upper = bracket.extras["upper_delay"]
        assert lower <= estimate.mean_delay <= upper

    @pytest.mark.parametrize(
        "policy,kwargs",
        [
            ("jsq", {}),
            ("random", {}),
            ("sqd", {"with_replacement": True, "d": 3}),
        ],
    )
    def test_other_policies_agree_loosely(self, policy, kwargs):
        shared = dict(num_servers=500, utilization=0.85, num_events=60_000,
                      seed=7, policy=policy, **kwargs)
        py = simulate_fleet(kernel="python", **shared)
        uni = simulate_fleet(kernel="uniformized", **shared)
        assert uni.mean_delay == pytest.approx(py.mean_delay, rel=0.10)


class TestScenariosAndWindows:
    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_scenario_playback_runs_and_records_kernel(self, kernel):
        result = run_scenario(
            get_scenario("flash-crowd"), num_servers=300, seed=11, kernel=kernel
        )
        assert result.kernel == kernel
        assert result.total_events > 0
        assert math.isfinite(result.overall_mean_delay)

    def test_scenario_delays_agree_loosely_across_kernels(self):
        delays = {
            kernel: run_scenario(
                get_scenario("flash-crowd"), num_servers=300, seed=11, kernel=kernel
            ).overall_mean_delay
            for kernel in ("python", "uniformized")
        }
        assert delays["uniformized"] == pytest.approx(delays["python"], rel=0.15)

    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_until_time_lands_exactly_on_the_clock(self, kernel):
        simulation = FleetSimulation(num_servers=200, utilization=0.8, seed=3, kernel=kernel)
        simulation.advance(until_time=5.0)
        assert simulation.now == 5.0
        simulation.advance(until_time=7.5)
        assert simulation.now == 7.5

    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_max_events_is_exact(self, kernel):
        simulation = FleetSimulation(num_servers=200, utilization=0.8, seed=3, kernel=kernel)
        executed = simulation.advance(max_events=12_345)
        assert executed == 12_345
        assert simulation.events_executed == 12_345

    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_dead_state_jumps_to_until_time(self, kernel):
        simulation = FleetSimulation(num_servers=50, utilization=0.0, seed=3, kernel=kernel)
        executed = simulation.advance(until_time=4.0)
        assert executed == 0
        assert simulation.now == 4.0

    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_statistics_windows_reset_cleanly(self, kernel):
        simulation = FleetSimulation(num_servers=200, utilization=0.9, seed=9, kernel=kernel)
        simulation.advance(max_events=5_000)
        simulation.reset_statistics()
        simulation.advance(max_events=20_000)
        result = simulation.statistics()
        assert result.num_events == 20_000
        assert result.kernel == kernel
        assert result.mean_servers == pytest.approx(200.0)
        fractions = list(result.occupancy_fractions)
        assert fractions[0] == pytest.approx(1.0)
        assert all(f >= -1e-12 for f in fractions)


class TestSlicedPreparation:
    """The ``uniformized`` kernel prepares each scan slice just before its scan.

    That is only sound if slicing a chunk changes no bit of what the scan
    sees: times carried through the prefix sum, payloads and event types.
    """

    # (n, lam, mu, policy, d, with_replacement): every payload branch.
    LAWS = [
        (1000, 0.9, 1.0, "jsq", 2, False),
        (1000, 0.9, 1.0, "random", 1, False),
        (300, 0.8, 1.0, "sqd", 3, True),
        (1000, 0.95, 1.0, "sqd", 2, False),
        (50, 0.0, 1.0, "sqd", 2, False),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: f"{law[3]}-d{law[4]}-lam{law[1]}")
    def test_any_slicing_gives_the_bits_of_one_preparation(self, law):
        rng = np.random.default_rng(2016)
        size = uniformized.CHUNK_SIZE
        u1 = rng.random(size)
        u2 = rng.random(size)
        base = 17.3125
        whole = uniformized._prepare(u1, u2, base, 0.0, None, *law)
        # Random cut points, plus slices of one event at both ends.
        cuts = sorted({1, 2, size - 1, *rng.integers(3, size - 1, size=40).tolist()})
        parts = []
        carry = 0.0
        for lo, hi in zip([0, *cuts], [*cuts, size]):
            times, payload, is_arrival, carry = uniformized._prepare(
                u1[lo:hi], u2[lo:hi], base, carry, None, *law
            )
            parts.append((times, payload, is_arrival))
        for index, name in enumerate(("times", "payload", "is_arrival")):
            sliced = np.concatenate([part[index] for part in parts])
            assert np.array_equal(sliced, whole[index]), name
        assert carry == whole[3]

    def test_until_time_cuts_the_slice_before_its_payloads(self):
        rng = np.random.default_rng(7)
        u1 = rng.random(4096)
        u2 = rng.random(4096)
        law = self.LAWS[3]
        times, payload, is_arrival, _ = uniformized._prepare(u1, u2, 3.0, 0.0, None, *law)
        cap = float(times[1234])
        capped = uniformized._prepare(u1, u2, 3.0, 0.0, cap, *law)
        assert np.array_equal(capped[0], times[:1235])
        assert np.array_equal(capped[1], payload[:1235])
        assert np.array_equal(capped[2], is_arrival[:1235])

    def test_short_runs_prepare_only_what_they_scan(self, monkeypatch):
        prepared = []
        prepare = uniformized._prepare

        def counting_prepare(u1, *args):
            prepared.append(u1.shape[0])
            return prepare(u1, *args)

        monkeypatch.setattr(uniformized, "_prepare", counting_prepare)
        result = simulate_fleet(
            num_servers=1000, utilization=0.9, num_events=2000, seed=3, kernel="uniformized"
        )
        assert result.num_events == 1800  # the warm-up tenth is not measured
        # Every raw event yields at most one event, phantoms are ~5% at
        # rho = 0.9: a whole-chunk preparation would pass ~32,500 here.
        assert 2000 <= sum(prepared) < 4000

    def test_budget_spent_at_the_time_cap_still_closes_the_clock(self):
        # Seed 0: the raw event after the 98th event lies past t = 0.5, so a
        # budget of 98 runs out exactly where the time cap falls.  The stop
        # is then time-capped too, although the slice scanned never saw the
        # event past the cap.
        capped = FleetSimulation(num_servers=200, utilization=0.9, seed=0, kernel="uniformized")
        executed = capped.advance(until_time=0.5)
        both = FleetSimulation(num_servers=200, utilization=0.9, seed=0, kernel="uniformized")
        assert both.advance(max_events=executed, until_time=0.5) == executed == 98
        assert both.now == capped.now == 0.5
        assert both.state.levels == capped.state.levels

    @pytest.mark.parametrize("kernel", ["python", "uniformized"])
    def test_reslicing_keeps_the_sample_path(self, kernel):
        def simulation():
            return FleetSimulation(num_servers=200, utilization=0.9, seed=4, kernel=kernel)

        once = simulation()
        once.advance(max_events=10_000)
        twice = simulation()
        twice.advance(max_events=5_000)
        twice.advance(max_events=5_000)
        a, b = once.statistics(), twice.statistics()
        assert once.state.levels == twice.state.levels
        assert (a.arrivals, a.departures, a.num_events) == (b.arrivals, b.departures, b.num_events)
        assert once.events_executed == twice.events_executed == 10_000
        # Each advance restarts the clock's prefix sum, so the two sides
        # agree to round-off, not bitwise.
        assert twice.now == pytest.approx(once.now, rel=1e-12)
        assert b.mean_jobs_in_system == pytest.approx(a.mean_jobs_in_system, rel=1e-12)
