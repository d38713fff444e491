"""Tests for the occupancy-based fleet engine: closed forms, cross-validation
against the per-job simulator on small clusters, large N and scenarios."""

import math

import numpy as np
import pytest

from repro.core.asymptotic import asymptotic_delay
from repro.core.delay import mm1_sojourn_time, mmn_sojourn_time
from repro.fleet.engine import FleetSimulation, _stationary_start, run_scenario, simulate_fleet
from repro.fleet.meanfield import meanfield_delay
from repro.fleet.occupancy import OccupancyState
from repro.fleet.scenarios import Scenario, ScenarioPhase, get_scenario
from repro.policies.sqd import PowerOfD
from repro.simulation.cluster import ClusterSimulation
from repro.simulation.workloads import poisson_exponential_workload
from repro.utils.validation import ValidationError


class TestBasics:
    def test_deterministic_given_seed(self):
        first = simulate_fleet(50, d=2, utilization=0.8, num_events=50_000, seed=11)
        second = simulate_fleet(50, d=2, utilization=0.8, num_events=50_000, seed=11)
        assert first.mean_sojourn_time == second.mean_sojourn_time
        assert first.num_events == second.num_events

    def test_seed_changes_realization(self):
        first = simulate_fleet(50, d=2, utilization=0.8, num_events=50_000, seed=11)
        second = simulate_fleet(50, d=2, utilization=0.8, num_events=50_000, seed=12)
        assert first.mean_sojourn_time != second.mean_sojourn_time

    def test_arrivals_balance_departures_and_jobs(self):
        simulation = FleetSimulation(num_servers=20, d=2, utilization=0.7, seed=3)
        simulation.advance(max_events=30_000)
        result = simulation.statistics()
        assert result.arrivals - result.departures == simulation.state.total_jobs
        assert result.num_events == result.arrivals + result.departures == 30_000

    def test_advance_until_time(self):
        simulation = FleetSimulation(num_servers=10, d=2, utilization=0.5, seed=5)
        simulation.advance(until_time=25.0)
        assert simulation.now == pytest.approx(25.0)

    def test_advance_requires_a_stop_condition(self):
        simulation = FleetSimulation(num_servers=10, d=2, utilization=0.5, seed=5)
        with pytest.raises(ValidationError):
            simulation.advance()

    def test_zero_rate_jumps_to_horizon(self):
        simulation = FleetSimulation(num_servers=10, d=2, utilization=0.0, seed=5)
        executed = simulation.advance(until_time=10.0)
        assert executed == 0
        assert simulation.now == pytest.approx(10.0)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValidationError):
            FleetSimulation(num_servers=10, policy="least-loaded")

    def test_shrink_below_d_rejected_without_mutation(self):
        simulation = FleetSimulation(num_servers=10, d=5, utilization=0.5, seed=1)
        with pytest.raises(ValidationError):
            simulation.set_num_servers(2)
        assert simulation.state.num_servers == 10  # failed resize left state intact

    @pytest.mark.parametrize("policy", ["jsq", "random"])
    def test_d_is_not_bounded_where_it_is_not_read(self, policy):
        # d defaults to 2 and neither policy reads it: N = 1 runs, with the
        # bits of d = 1, and an idle pool shrinks below d.
        result = simulate_fleet(1, policy=policy, utilization=0.5, num_events=2_000, seed=3)
        same = simulate_fleet(1, d=1, policy=policy, utilization=0.5, num_events=2_000, seed=3)
        assert result.mean_sojourn_time.hex() == same.mean_sojourn_time.hex()
        simulation = FleetSimulation(num_servers=10, d=5, utilization=0.5, policy=policy, seed=1)
        assert simulation.set_num_servers(2) == 2
        with pytest.raises(ValidationError):
            simulate_fleet(1, d=0, policy=policy, utilization=0.5, num_events=2_000)

    def test_scenario_service_rate_scales_time(self):
        """Phase utilizations are relative to the service rate, not divided by it."""
        scenario = Scenario(
            name="steady",
            description="one phase",
            phases=(ScenarioPhase(duration=10.0, utilization=0.8),),
            warmup_time=5.0,
        )
        fast = run_scenario(scenario, num_servers=500, d=2, service_rate=2.0, seed=17)
        slow = run_scenario(scenario, num_servers=500, d=2, service_rate=1.0, seed=17)
        # same rho: identical occupancy statistics, delays scaled by 1/mu
        assert fast.phases[0].mean_queue_length == pytest.approx(
            slow.phases[0].mean_queue_length, rel=0.15
        )
        assert fast.phases[0].mean_sojourn_time == pytest.approx(
            slow.phases[0].mean_sojourn_time / 2.0, rel=0.15
        )

    def test_initial_state_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            FleetSimulation(num_servers=10, initial_state=OccupancyState.empty(9))

    def test_occupancy_fractions_are_a_profile(self):
        result = simulate_fleet(100, d=2, utilization=0.9, num_events=100_000, seed=2)
        fractions = result.occupancy_fractions
        assert fractions[0] == pytest.approx(1.0)
        assert all(b <= a + 1e-9 for a, b in zip(fractions, fractions[1:]))
        # time-average of total jobs equals the sum over level tails
        assert fractions[1:].sum() * result.mean_servers == pytest.approx(
            result.mean_jobs_in_system, rel=1e-6
        )

    def test_waiting_plus_service_equals_sojourn(self):
        result = simulate_fleet(3, d=2, utilization=0.6, num_events=100_000, seed=8)
        assert result.mean_sojourn_time == pytest.approx(result.mean_waiting_time + 1.0)

    def test_littles_law_consistency(self):
        # Little's law with the observed arrival rate, the one the engine uses.
        result = simulate_fleet(3, d=2, utilization=0.6, num_events=100_000, seed=9)
        arrival_rate = result.arrivals / result.simulated_time
        assert result.mean_jobs_in_system == pytest.approx(
            result.mean_sojourn_time * arrival_rate, rel=1e-9
        )

    @pytest.mark.parametrize(
        "d,utilization", [(2, 1.0), (4, 0.5)], ids=["unstable", "d-above-n"]
    )
    def test_invalid_stationary_run_rejected(self, d, utilization):
        with pytest.raises(ValidationError):
            simulate_fleet(3, d=d, utilization=utilization, num_events=1_000)


class TestAgainstClosedForms:
    @pytest.mark.parametrize(
        "num_servers,utilization,num_events,seed", [(4, 0.7, 400_000, 3), (1, 0.5, 200_000, 4)]
    )
    def test_d1_matches_mm1(self, num_servers, utilization, num_events, seed):
        # SQ(1) is N independent M/M/1 queues, whatever N is.
        result = simulate_fleet(
            num_servers, d=1, utilization=utilization, num_events=num_events, seed=seed
        )
        assert result.mean_delay == pytest.approx(mm1_sojourn_time(utilization), rel=0.05)

    def test_jsq_close_to_mmn_lower_envelope(self):
        # SQ(N) is JSQ, within a few percent of the (unattainable)
        # central-queue M/M/N at moderate load, and never below it.  d = 3
        # exercises distinct polling of more than two servers.
        n, rho = 3, 0.8
        result = simulate_fleet(n, d=n, utilization=rho, num_events=500_000, seed=5)
        reference = mmn_sojourn_time(n, rho)
        assert result.mean_delay >= reference * 0.97
        assert result.mean_delay <= reference * 1.35

    def test_more_choices_reduce_delay(self):
        delays = [
            simulate_fleet(8, d=d, utilization=0.9, num_events=300_000, seed=6).mean_delay
            for d in (1, 2, 4)
        ]
        assert delays[0] > delays[1] > delays[2]


class TestCrossValidation:
    """The occupancy chain has the *same law* as the per-job simulator."""

    def test_agrees_with_cluster_simulation_small_n(self):
        # The law, not one draw: 16 replications a side on fixed disjoint
        # seeds, and the means within 4 combined standard errors, for SQ(d)
        # with d = 2 and the d >= 3 inversion of distinct polls.
        n, rho, replications = 10, 0.9, 16
        workload = poisson_exponential_workload(num_servers=n, utilization=rho)
        for d in (2, 3, 5):
            fleet = [
                simulate_fleet(n, d=d, utilization=rho, num_events=100_000, seed=7_000 + k).mean_delay
                for k in range(replications)
            ]
            cluster = [
                ClusterSimulation(workload, PowerOfD(d), seed=8_000 + k, warmup_jobs=5_000)
                .run(50_000)
                .mean_sojourn_time
                for k in range(replications)
            ]
            error = math.hypot(np.std(fleet, ddof=1), np.std(cluster, ddof=1)) / math.sqrt(replications)
            gap = np.mean(fleet) - np.mean(cluster)
            assert abs(gap) <= 4 * error, (d, np.mean(fleet), np.mean(cluster), error)
            assert 4 * error < 0.08 * np.mean(cluster), (d, error)

    def test_random_policy_matches_mm1(self):
        result = simulate_fleet(50, utilization=0.8, num_events=300_000, seed=5, policy="random")
        assert result.mean_sojourn_time == pytest.approx(1.0 / (1.0 - 0.8), rel=0.08)

    def test_random_start_reaches_the_geometric_tail(self):
        # At N = 10^4 and rho = 0.99, N rho^k rounds to zero only past
        # k = 985; a start cut at 200 levels piles 13% of the servers there
        # and reads a mean of 85.7 jobs.
        start = _stationary_start(10_000, 2, 0.99, "random")
        assert start.mean_queue_length() == pytest.approx(0.99 / 0.01, rel=0.01)

    def test_random_policy_matches_mm1_near_saturation(self):
        delays = [
            simulate_fleet(10_000, utilization=0.99, num_events=200_000, seed=seed, policy="random").mean_delay
            for seed in (13, 14, 15)
        ]
        assert np.mean(delays) == pytest.approx(mm1_sojourn_time(0.99), rel=0.015)

    def test_jsq_beats_sqd_beats_random(self):
        kwargs = dict(num_servers=100, utilization=0.9, num_events=200_000)
        jsq = simulate_fleet(policy="jsq", seed=21, **kwargs).mean_delay
        sq2 = simulate_fleet(d=2, policy="sqd", seed=21, **kwargs).mean_delay
        rnd = simulate_fleet(policy="random", seed=21, **kwargs).mean_delay
        assert jsq < sq2 < rnd


class TestLargeN:
    def test_large_n_matches_meanfield(self):
        """At N = 10^5 the finite-N delay sits on the mean-field prediction."""
        result = simulate_fleet(100_000, d=2, utilization=0.9, num_events=500_000, seed=6)
        prediction = meanfield_delay(0.9, 2)
        assert result.mean_delay == pytest.approx(prediction, rel=0.03)
        assert result.mean_delay == pytest.approx(asymptotic_delay(0.9, 2), rel=0.03)

    @pytest.mark.parametrize("d", [3, 5])
    def test_large_n_deep_polling_matches_meanfield(self, d):
        """Distinct-server SQ(d >= 3) at N = 10^5 sits on the mean-field
        prediction too (its with-replacement law differs by O(d^2/N))."""
        result = simulate_fleet(100_000, d=d, utilization=0.9, num_events=500_000, seed=6)
        assert result.mean_delay == pytest.approx(meanfield_delay(0.9, d), rel=0.03)

    def test_event_cost_independent_of_n(self):
        """The whole point: events/sec must not degrade with N."""
        small = simulate_fleet(100, d=2, utilization=0.9, num_events=100_000, seed=8)
        large = simulate_fleet(100_000, d=2, utilization=0.9, num_events=100_000, seed=8)
        assert large.wall_seconds < 10 * small.wall_seconds


class TestScenarios:
    def test_flash_crowd_builds_and_drains(self):
        scenario = get_scenario("flash-crowd", base_utilization=0.6, peak_utilization=1.5)
        result = run_scenario(scenario, num_servers=1_000, d=2, seed=13)
        by_label = dict(zip(result.labels, result.phases))
        assert by_label["spike"].mean_queue_length > by_label["base"].mean_queue_length
        assert result.total_events == sum(p.num_events for p in result.phases)
        assert math.isfinite(result.overall_mean_delay)

    def test_resize_only_drops_idle_servers(self):
        scenario = get_scenario("resize", utilization=0.9, scale_down=0.1)
        result = run_scenario(scenario, num_servers=500, d=2, seed=14)
        scaled_down = dict(zip(result.labels, result.phases))["scaled down"]
        # with rho=0.9 roughly 90% of servers are busy; shrinking to 10% clamps
        assert scaled_down.num_servers > 50

    def test_ramp_increases_delay(self):
        scenario = get_scenario("ramp", start_utilization=0.3, end_utilization=0.95, steps=4)
        result = run_scenario(scenario, num_servers=1_000, d=2, seed=15)
        delays = [phase.mean_sojourn_time for phase in result.phases]
        assert delays[-1] > delays[0]

    def test_custom_scenario_and_table(self):
        scenario = Scenario(
            name="two-step",
            description="half then busy",
            phases=(
                ScenarioPhase(duration=5.0, utilization=0.5, label="calm"),
                ScenarioPhase(duration=5.0, utilization=0.9, label="busy"),
            ),
            warmup_time=2.0,
        )
        result = run_scenario(scenario, num_servers=200, d=2, seed=16)
        assert result.labels == ("calm", "busy")
        assert result.total_time == pytest.approx(10.0, rel=1e-6)
