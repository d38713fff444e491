"""The fleet's one event kernel: its join law, its contract, a reference loop.

Five things make the ``uniformized`` kernel admissible:

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
   kernel fails with :class:`~repro.api.spec.SpecError`;
5. **two scans, one answer** — the speculative level scan that large pools
   run leaves the scalar scan's occupancy and per-level integrals bit for
   bit, slice by slice and over whole runs.

Tests parametrized by ``kernel`` run the stop-rule and statistics contract
on both loops: ``python`` swaps the reference loop in, ``uniformized`` is
the package's kernel.
"""

import json
import math
from array import array
from fractions import Fraction

import numpy as np
import pytest

import repro.kernels.uniformized as uniformized
from reference_kernel import use_reference_loop
from repro import ExperimentSpec, SpecError, run
from repro.ensemble.runner import run_ensemble
from repro.fleet.engine import FleetSimulation, _stationary_start, run_scenario, simulate_fleet
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


def _slice(law, size=uniformized.CHUNK_SIZE, seed=2016, until_time=None):
    """``(times, payload, is_arrival)`` of one prepared slice under ``law``."""
    rng = np.random.default_rng(seed)
    u1, u2 = rng.random(size), rng.random(size)
    return uniformized._prepare(u1, u2, 5.0, 0.0, until_time, *law)[:3]


def _occupancy(n, policy="sqd", d=2, utilization=0.9):
    """A near-stationary occupancy list (busy even for a law with lambda = 0)."""
    return list(_stationary_start(n, d, utilization, policy).levels)


def _while_scan(lv, co, times, payload):
    """The scalar scan as it was before the level table: the bitwise reference.

    One level walk per event from level 1, comparing the payload itself.
    """
    guard = len(lv) - 2
    for t, p in zip(times, payload):
        if p >= 0.0:
            if p < lv[1]:
                k = 1
                while lv[k + 1] > p:
                    k += 1
                lv[k] -= 1
                co[k] += t
        else:
            thr = -1.0 - p
            k = 1
            while lv[k] > thr:
                k += 1
            lv[k] += 1
            co[k] -= t
            if k >= guard:
                lv.extend([0] * 64)
                co.extend([0.0] * 64)
                guard = len(lv) - 2


def _scan_both(levels, times, payload, is_arrival, speculate=True):
    """Scan one slice as the kernel does and by the reference loop; compare.

    The kernel side runs the speculative scan (unless ``speculate`` is
    false), hands what it leaves to the table-driven scalar scan and folds
    the levels, as ``advance`` does.  Both sides must end with equal
    occupancy lists and per-level integrals equal by ``float.hex``.
    Returns the speculated length.
    """
    pad = max(96, 2 * len(levels) + 16)
    reference = list(levels) + [0] * (pad - len(levels))
    kernel = list(reference)
    reference_co = [0.0] * len(reference)
    _while_scan(reference, reference_co, times.tolist(), payload.tolist())
    x = uniformized._values(payload, is_arrival)
    level = np.empty(times.shape[0], np.intp)
    done = uniformized._speculative_scan(kernel, x, is_arrival, level) if speculate else 0
    table = uniformized._level_table(kernel, levels[0])
    tail = array("q")
    uniformized._scalar_scan(kernel, table, uniformized._codes(x[done:], is_arrival[done:]), tail)
    level[done:] = np.frombuffer(tail, dtype=np.int64)
    co = uniformized._fold(level, times, payload, len(kernel))
    assert kernel == reference
    assert [c.hex() for c in co] == [c.hex() for c in reference_co]
    assert table == uniformized._level_table(kernel, levels[0])
    return done


def _digest(result):
    """The numbers of a fleet result, floats by hex."""
    return (
        result.mean_delay.hex(),
        result.mean_jobs_in_system.hex(),
        result.simulated_time.hex(),
        [float(f).hex() for f in result.occupancy_fractions],
        result.arrivals,
        result.departures,
        result.num_events,
    )


class TestSpeculativeScan:
    """Both level scans must give the bits of the loop they replaced.

    ``_speculative_scan`` classifies each event against the occupancy at the
    start of a stretch and walks only the suspects, the events near a
    level's drift band; ``_scalar_scan`` looks each level up in a table.
    Slice by slice and over whole runs they must leave the occupancy and
    the bits of the per-level integrals of ``_while_scan``, the per-event
    loop, and of each other.
    """

    LARGE = 40_000

    @pytest.mark.parametrize("large", [False, True], ids=["own-n", "n40000"])
    @pytest.mark.parametrize(
        "law", TestSlicedPreparation.LAWS, ids=lambda law: f"{law[3]}-d{law[4]}-lam{law[1]}"
    )
    def test_every_payload_branch_gives_the_scalar_bits(self, law, large):
        if large:
            law = (self.LARGE, *law[1:])
        n, lam, _, policy, d, _ = law
        done = _scan_both(_occupancy(n, policy, d), *_slice(law))
        if large and lam:  # a draining pool (lam = 0) moves too far to speculate
            assert done > 0

    @pytest.mark.parametrize(
        "law", TestSlicedPreparation.LAWS, ids=lambda law: f"{law[3]}-d{law[4]}-lam{law[1]}"
    )
    def test_the_table_scan_is_the_reference_loop(self, law):
        n, _, _, policy, d, _ = law
        assert _scan_both(_occupancy(n, policy, d), *_slice(law), speculate=False) == 0

    @pytest.mark.parametrize("n", [50, 200, 1000])
    def test_small_pools_correct_levels_and_restart(self, n, monkeypatch):
        # Walk however many suspects there are; suspects abound at small N,
        # so levels get corrected and stretches outgrow the allowance.
        monkeypatch.setattr(uniformized, "_SUSPECT_SHARE", 1)
        corrections = []
        speculate = uniformized._speculate

        def recording(lv, x, is_arrival, top, out):
            f0 = np.array(lv[1:top], dtype=float)
            walked = speculate(lv, x, is_arrival, top, out)
            tentative = (x[:walked, None] < f0).sum(axis=1) + is_arrival[:walked]
            corrections.append(int(np.count_nonzero(tentative != out[:walked])))
            return walked

        monkeypatch.setattr(uniformized, "_speculate", recording)
        law = (n, 0.9, 1.0, "sqd", 2, False)
        assert _scan_both(_occupancy(n), *_slice(law)) == uniformized.CHUNK_SIZE
        assert len(corrections) > 1  # the scan restarted
        assert sum(corrections) > 0

    def test_small_pools_hand_the_slice_to_the_scalar_scan(self):
        law = (1000, 0.9, 1.0, "sqd", 2, False)
        assert _scan_both(_occupancy(1000), *_slice(law)) == 0

    def test_a_slice_that_opens_new_levels(self):
        # From one occupied level at rho = 0.99 the slice opens two more, so
        # a stretch stops before the arrival that opens the second.
        n = self.LARGE
        law = (n, 0.99, 1.0, "sqd", 2, False)
        levels = [n, n // 2]
        times, payload, is_arrival = _slice(law)
        assert _scan_both(levels, times, payload, is_arrival) == times.shape[0]
        reference = levels + [0] * 94
        _while_scan(reference, [0.0] * 96, times.tolist(), payload.tolist())
        assert reference[3] > 0

    def test_phantom_only_slices(self, monkeypatch):
        # lambda = 0: every event is a departure attempt.  On an idle pool
        # all are phantoms; a busy pool drains too fast to speculate by the
        # default share, so walk all its suspects.
        law = (self.LARGE, 0.0, 1.0, "sqd", 2, False)
        times, payload, is_arrival = _slice(law)
        assert _scan_both([self.LARGE], times, payload, is_arrival) == times.shape[0]
        monkeypatch.setattr(uniformized, "_SUSPECT_SHARE", 1)
        assert _scan_both(_occupancy(self.LARGE), times, payload, is_arrival) == times.shape[0]

    @pytest.mark.parametrize("seed", range(12))
    def test_one_event_slices(self, seed):
        law = (self.LARGE, 0.9, 1.0, "sqd", 2, False)
        assert _scan_both(_occupancy(self.LARGE), *_slice(law, size=1, seed=seed)) == 1

    def test_a_slice_cut_at_until_time(self):
        law = (self.LARGE, 0.9, 1.0, "sqd", 2, False)
        times, payload, is_arrival = _slice(law, until_time=5.1)
        assert 0 < times.shape[0] < uniformized.CHUNK_SIZE
        assert _scan_both(_occupancy(self.LARGE), times, payload, is_arrival) == times.shape[0]

    def test_an_occupancy_hundreds_of_levels_deep(self):
        # Every server holds at least 300 jobs: levels past 127 and 255 must
        # not overflow a narrow integer type.
        n = self.LARGE
        levels = [n] * 301 + [int(n * 0.9 ** k) for k in range(1, 60)]
        law = (n, 0.9, 1.0, "random", 1, False)
        assert _scan_both(levels, *_slice(law)) > 0

    def test_slices_near_the_padding_go_to_the_scalar_scan(self):
        levels = _occupancy(self.LARGE) + [0]
        times, payload, is_arrival = _slice((self.LARGE, 0.9, 1.0, "sqd", 2, False))
        x = uniformized._values(payload, is_arrival)
        before = list(levels)
        assert uniformized._speculative_scan(levels, x, is_arrival, np.empty(x.shape, np.intp)) == 0
        assert levels == before

    def test_the_level_table_follows_speculated_slices(self):
        # The scalar scan's table, built before a speculated slice, is
        # shifted by the levels it moved rather than rebuilt.
        n = self.LARGE
        law = (n, 0.9, 1.0, "sqd", 2, False)
        levels = _occupancy(n) + [0] * 96
        table = uniformized._level_table(levels, n)
        for seed in range(3):
            times, payload, is_arrival = _slice(law, seed=seed)
            before = list(levels)
            x = uniformized._values(payload, is_arrival)
            done = uniformized._speculative_scan(levels, x, is_arrival, np.empty(x.shape, np.intp))
            assert done == times.shape[0]
            uniformized._shift_table(table, before, levels)
            assert table == uniformized._level_table(levels, n)

    @pytest.fixture
    def speculated(self, monkeypatch):
        """The events each ``_speculative_scan`` call took, in call order."""
        taken = []
        scan = uniformized._speculative_scan

        def counting(*args):
            done = scan(*args)
            taken.append(done)
            return done

        monkeypatch.setattr(uniformized, "_speculative_scan", counting)
        return taken

    @pytest.mark.parametrize(
        "config",
        [
            {"policy": "sqd", "d": 2},
            {"policy": "sqd", "d": 3},
            {"policy": "sqd", "d": 2, "with_replacement": True},
            {"policy": "jsq"},
            {"policy": "random", "utilization": 0.7},
            {"policy": "sqd", "d": 2, "start": "empty"},
        ],
        ids=["sqd2", "sqd3", "replacement", "jsq", "random", "empty-start"],
    )
    def test_simulate_fleet_gives_the_scalar_bits(self, config, speculated, monkeypatch):
        kwargs = {"num_servers": self.LARGE, "utilization": 0.9, "num_events": 120_000,
                  "seed": 29, **config}
        fast = simulate_fleet(**kwargs)
        assert sum(speculated) > 0
        monkeypatch.setattr(uniformized, "_SPECULATE_MIN_SERVERS", math.inf)
        slow = simulate_fleet(**kwargs)
        assert _digest(fast) == _digest(slow)

    @pytest.mark.parametrize(
        "name,durations",
        [
            ("constant", {"duration": 2.0}),
            ("ramp", {"total_duration": 2.0}),
            ("flash-crowd", {"base_duration": 0.5, "peak_duration": 0.5, "recovery_duration": 1.0}),
            ("resize", {"phase_duration": 0.5}),
        ],
    )
    def test_scenarios_give_the_scalar_bits(self, name, durations, speculated, monkeypatch):
        scenario = get_scenario(name, warmup_time=0.5, **durations)

        def play():
            result = run_scenario(scenario, num_servers=self.LARGE, seed=31)
            return result.overall_mean_delay.hex(), [_digest(phase) for phase in result.phases]

        fast = play()
        assert sum(speculated) > 0
        monkeypatch.setattr(uniformized, "_SPECULATE_MIN_SERVERS", math.inf)
        assert play() == fast


class TestPaddingGrowth:
    """An overloaded one-server pool outgrows the scan's padded levels.

    One advance pads the occupancy list to 96 levels; a queue that grows past
    them makes the scalar scan extend the list mid-advance.  Twenty short
    advances re-pad each time and never reach that branch, so the two runs
    check it against each other.
    """

    @pytest.mark.parametrize("policy", ["random", "jsq", "sqd"])
    def test_growing_the_padding_keeps_the_sample_path(self, policy):
        def simulation():
            return FleetSimulation(num_servers=1, d=1, utilization=5.0, policy=policy, seed=3)

        once = simulation()
        once.advance(max_events=2000)
        assert len(once.state.levels) > 1000
        steps = simulation()
        for _ in range(20):
            steps.advance(max_events=100)
        a, b = once.statistics(), steps.statistics()
        assert once.state.levels == steps.state.levels
        assert (a.arrivals, a.departures, a.num_events) == (b.arrivals, b.departures, b.num_events)
        assert once.events_executed == steps.events_executed == 2000
        # Each advance restarts the clock's prefix sum: equal to round-off.
        assert steps.now == pytest.approx(once.now, rel=1e-12)
        assert b.mean_jobs_in_system == pytest.approx(a.mean_jobs_in_system, rel=1e-12)
