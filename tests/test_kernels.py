"""The fleet's one event kernel: its join law, its contract, a reference loop.

Four things make the ``uniformized`` kernel admissible:

1. **exact inversion** — distinct-server SQ(d) arrivals join by the
   threshold that exact rational arithmetic gives, for every ``d``;
2. **statistical parity** — seeded runs agree, within ensemble confidence
   intervals, with the scalar reference loop kept under ``tests/``
   (:mod:`reference_kernel`), an independent implementation of the same
   occupancy CTMC (the two share its law, not its sample paths);
3. **bitwise determinism** — results are a deterministic function of the
   seed, across repeated runs and across ensemble worker counts;
4. **one kernel** — the ``kernel`` spec option selects nothing: ``"auto"``
   and ``"uniformized"`` build the same run, and the removed ``"python"``
   kernel fails with :class:`~repro.api.spec.SpecError`.

Tests parametrized by ``kernel`` run the stop-rule and statistics contract
on both loops: ``python`` swaps the reference loop in, ``uniformized`` is
the package's kernel.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import repro.kernels.uniformized as uniformized
from reference_kernel import use_reference_loop
from repro import ExperimentSpec, SpecError, run
from repro.ensemble.runner import run_ensemble
from repro.fleet.engine import FleetSimulation, run_scenario, simulate_fleet
from repro.fleet.scenarios import get_scenario
from repro.kernels import available_kernels

PARITY_SPEC = dict(num_servers=1000, utilization=0.9)
KERNELS = ["python", "uniformized"]


@pytest.fixture
def kernel(request, monkeypatch):
    """``python`` runs the reference loop, ``uniformized`` the package's kernel."""
    if request.param == "python":
        use_reference_loop(monkeypatch)
    return request.param


class TestRegistry:
    def test_builtin_kernels_are_registered(self):
        assert available_kernels() == ["uniformized"]

    def test_unknown_kernel_is_a_spec_error(self):
        with pytest.raises(SpecError, match="kernel"):
            ExperimentSpec.create(num_servers=10, utilization=0.5, kernel="turbo")

    def test_auto_prefers_uniformized_where_capable(self):
        # Neither value selects anything: both name the one kernel, run the
        # same bits and record it.
        results = [
            run(
                ExperimentSpec.create(
                    num_servers=50, d=d, utilization=0.8, num_events=5_000, seed=3,
                    **({} if kernel is None else {"kernel": kernel}),
                ),
                backend="fleet",
            )
            for d in (2, 3, 50)
            for kernel in (None, "auto", "uniformized")
        ]
        for index in range(0, len(results), 3):
            group = results[index:index + 3]
            assert len({result.mean_delay for result in group}) == 1
            assert all(result.extras["kernel"] == "uniformized" for result in group)

    def test_why_unsupported_names_the_reason(self):
        with pytest.raises(SpecError, match="'auto' or 'uniformized', got 'python'"):
            ExperimentSpec.create(num_servers=100, d=3, utilization=0.8, kernel="python")


class TestCapabilityErrors:
    def test_api_surfaces_kernel_capability_as_spec_error(self):
        # repro.run's front door: a JSON or mapping spec naming the removed
        # python kernel fails before any backend runs.
        payload = ExperimentSpec.create(num_servers=100, d=3, utilization=0.8).to_dict()
        payload["options"] = {"kernel": "python"}
        for spec in (payload, json.dumps(payload)):
            with pytest.raises(SpecError, match="kernel"):
                run(spec, backend="fleet")

    def test_deep_distinct_polling_runs_on_the_one_kernel(self):
        spec = ExperimentSpec.create(
            num_servers=100, d=3, utilization=0.8, num_events=5000, seed=1
        )
        result = run(spec, backend="fleet", replications=2)
        assert all(record["kernel"] == "uniformized" for record in result.records)

    def test_grid_config_rejects_incapable_kernel_eagerly(self):
        # A stored campaign grid naming the removed kernel fails when it is
        # read back, before any point is built.
        from repro.campaigns.manifest import grid_from_dict, grid_to_dict
        from repro.ensemble.grid import GridConfig

        payload = grid_to_dict(GridConfig(choices=(2, 3)))
        assert payload["kernel"] == "auto"
        for stored in ("auto", "uniformized"):
            assert grid_from_dict({**payload, "kernel": stored}) == GridConfig(choices=(2, 3))
        for stored in ("python", "unifromized"):
            with pytest.raises(SpecError, match="kernel"):
                grid_from_dict({**payload, "kernel": stored})


def _exact_threshold(v: float, n: int, d: int) -> int:
    """Largest ``s`` with ``s(s-1)...(s-d+1) <= v n(n-1)...(n-d+1)``, exactly."""
    target = Fraction(v) * math.perm(n, d)
    low, high = d - 1, n  # perm(d - 1, d) = 0 <= target < perm(n, d) as v < 1
    while high - low > 1:
        middle = (low + high) // 2
        if math.perm(middle, d) <= target:
            low = middle
        else:
            high = middle
    return low


class TestDistinctInversion:
    """SQ(d >= 3) without replacement: the arrival's join threshold.

    An arrival joins above level ``k`` iff ``P(F[k]) > v``, with ``P(s)`` the
    chance that ``d`` distinct polls all land among ``s`` servers, so the
    kernel's threshold must be the largest integer ``s`` with ``P(s) <= v``.
    """

    LAM, MU = 0.9, 1.0

    def _thresholds(self, v, n, d):
        """The thresholds ``_prepare`` hands the scan, and the ``v`` it saw."""
        p_arr = self.LAM / (self.LAM + self.MU)
        u2 = np.asarray(v) * p_arr
        u1 = np.full_like(u2, 0.5)
        _, payload, is_arrival, _ = uniformized._prepare(
            u1, u2, 0.0, 0.0, None, n, self.LAM, self.MU, "sqd", d, False
        )
        assert is_arrival.all()
        return -1.0 - payload, u2 * (1.0 / p_arr)

    @pytest.mark.parametrize(
        "n,d",
        [(n, d) for d in (3, 4, 5, 10, 50) for n in sorted({d, 10, 250, 100_000}) if n >= d],
        ids=lambda value: str(value),
    )
    def test_thresholds_equal_the_exact_rational_ones(self, n, d):
        rng = np.random.default_rng(1000 * d + n)
        # Draws on either side of P(s) for s spread over [d, N].
        boundaries = []
        for s in sorted({d, d + 1, n - 1, n, *rng.integers(d, n + 1, size=60).tolist()}):
            p = math.perm(s, d) / math.perm(n, d)
            boundaries += [p * (1.0 + 1e-12), p * (1.0 - 1e-12)]
        draws = np.concatenate([rng.random(500), [b for b in boundaries if 0.0 <= b < 1.0]])
        thresholds, v = self._thresholds(draws, n, d)
        exact = [_exact_threshold(float(x), n, d) for x in v]
        assert thresholds.tolist() == exact

    @pytest.mark.parametrize("d", [3, 5, 10, 50])
    def test_polling_every_server_is_jsq(self, d):
        thresholds, _ = self._thresholds(np.random.default_rng(d).random(2000), d, d)
        assert set(thresholds.tolist()) == {d - 1.0}


class TestDeterminism:
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_repeated_seeded_runs_are_bitwise_identical(self, kernel):
        results = [
            simulate_fleet(
                num_servers=400, d=2, utilization=0.9, num_events=30_000, seed=97,
            )
            for _ in range(2)
        ]
        first, second = results
        assert first.mean_sojourn_time == second.mean_sojourn_time
        assert first.mean_jobs_in_system == second.mean_jobs_in_system
        assert first.simulated_time == second.simulated_time
        assert first.arrivals == second.arrivals
        assert first.departures == second.departures
        assert list(first.occupancy_fractions) == list(second.occupancy_fractions)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_ensemble_records_identical_across_worker_counts(self, kernel):
        spec = ExperimentSpec.create(
            num_servers=200, d=2, utilization=0.85, num_events=10_000, seed=5,
        )
        serial = run_ensemble(spec=spec, backend="fleet", replications=3, workers=1, seed=5)
        parallel = run_ensemble(spec=spec, backend="fleet", replications=3, workers=2, seed=5)
        assert serial.simulation_records() == parallel.simulation_records()

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_different_seeds_differ(self, kernel):
        a = simulate_fleet(num_servers=300, utilization=0.9, num_events=20_000, seed=1)
        b = simulate_fleet(num_servers=300, utilization=0.9, num_events=20_000, seed=2)
        assert a.mean_sojourn_time != b.mean_sojourn_time


class TestParity:
    """Seeded agreement with the reference loop at N=1000, rho=0.9."""

    @pytest.fixture(scope="class")
    def estimates(self):
        estimates = {}
        for d in (2, 3, 5):
            spec = ExperimentSpec.create(d=d, num_events=60_000, seed=20160627, **PARITY_SPEC)
            for kernel in KERNELS:
                with pytest.MonkeyPatch.context() as monkeypatch:
                    if kernel == "python":
                        use_reference_loop(monkeypatch)
                    estimates[kernel, d] = run(spec, backend="fleet", replications=5)
        return estimates

    def test_kernels_agree_within_confidence_intervals(self, estimates):
        for d in (2, 3, 5):
            py, uni = estimates["python", d], estimates["uniformized", d]
            assert math.isfinite(py.half_width) and math.isfinite(uni.half_width)
            # Two loops, two sample paths: equal bits would mean the
            # reference never ran.
            assert py.mean_delay != uni.mean_delay
            gap = abs(py.mean_delay - uni.mean_delay)
            allowance = 1.5 * (py.half_width + uni.half_width)
            assert gap <= allowance, (
                f"d={d}: python {py.mean_delay:.4f}±{py.half_width:.4f} vs "
                f"uniformized {uni.mean_delay:.4f}±{uni.half_width:.4f}: "
                f"gap {gap:.4f} > allowance {allowance:.4f}"
            )

    def test_kernel_recorded_in_extras_and_records(self, estimates):
        result = estimates["uniformized", 3]
        assert result.extras["kernel"] == "uniformized"
        assert all(record["kernel"] == "uniformized" for record in result.records)

    def test_uniformized_estimate_inside_the_qbd_bracket(self):
        spec = ExperimentSpec.create(
            num_servers=50, d=2, utilization=0.85, num_events=60_000,
            seed=20160627, threshold=2,
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
    def test_other_policies_agree_loosely(self, policy, kwargs, monkeypatch):
        shared = dict(num_servers=500, utilization=0.85, num_events=60_000,
                      seed=7, policy=policy, **kwargs)
        uni = simulate_fleet(**shared)
        use_reference_loop(monkeypatch)
        py = simulate_fleet(**shared)
        assert uni.mean_delay == pytest.approx(py.mean_delay, rel=0.10)


class TestScenariosAndWindows:
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_scenario_playback_runs_and_records_kernel(self, kernel):
        result = run_scenario(get_scenario("flash-crowd"), num_servers=300, seed=11)
        assert result.total_events > 0
        assert math.isfinite(result.overall_mean_delay)

    def test_scenario_delays_agree_loosely_across_kernels(self, monkeypatch):
        def delay():
            return run_scenario(
                get_scenario("flash-crowd"), num_servers=300, seed=11
            ).overall_mean_delay

        uni = delay()
        use_reference_loop(monkeypatch)
        assert uni == pytest.approx(delay(), rel=0.15)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_until_time_lands_exactly_on_the_clock(self, kernel):
        simulation = FleetSimulation(num_servers=200, utilization=0.8, seed=3)
        simulation.advance(until_time=5.0)
        assert simulation.now == 5.0
        simulation.advance(until_time=7.5)
        assert simulation.now == 7.5

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_max_events_is_exact(self, kernel):
        simulation = FleetSimulation(num_servers=200, utilization=0.8, seed=3)
        executed = simulation.advance(max_events=12_345)
        assert executed == 12_345
        assert simulation.events_executed == 12_345

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_spent_budget_stops_at_last_event(self, kernel, seed):
        # m = the events up to T.  With both limits the budget runs out at the
        # m-th event, before T, so the clock stays there, as with the budget
        # alone, even where the next event would fall past T.
        def simulation():
            return FleetSimulation(num_servers=200, utilization=0.9, seed=seed)

        capped = simulation()
        m = capped.advance(until_time=0.5)
        budget = simulation()
        budget.advance(max_events=m)
        both = simulation()
        assert both.advance(max_events=m, until_time=0.5) == m
        assert both.state.levels == capped.state.levels
        assert both.now == budget.now < 0.5
        # A budget the time cap beats ends at T with the same m events.
        more = simulation()
        assert more.advance(max_events=m + 1, until_time=0.5) == m
        assert more.state.levels == capped.state.levels
        assert more.now == capped.now == 0.5

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_dead_state_jumps_to_until_time(self, kernel):
        simulation = FleetSimulation(num_servers=50, utilization=0.0, seed=3)
        executed = simulation.advance(until_time=4.0)
        assert executed == 0
        assert simulation.now == 4.0

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_statistics_windows_reset_cleanly(self, kernel):
        simulation = FleetSimulation(num_servers=200, utilization=0.9, seed=9)
        simulation.advance(max_events=5_000)
        simulation.reset_statistics()
        simulation.advance(max_events=20_000)
        result = simulation.statistics()
        assert result.num_events == 20_000
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
        (1000, 0.95, 1.0, "sqd", 5, False),
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
        result = simulate_fleet(num_servers=1000, utilization=0.9, num_events=2000, seed=3)
        assert result.num_events == 1800  # the warm-up tenth is not measured
        # Every raw event yields at most one event, phantoms are ~5% at
        # rho = 0.9: a whole-chunk preparation would pass ~32,500 here.
        assert 2000 <= sum(prepared) < 4000

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_reslicing_keeps_the_sample_path(self, kernel):
        def simulation():
            return FleetSimulation(num_servers=200, utilization=0.9, seed=4)

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
