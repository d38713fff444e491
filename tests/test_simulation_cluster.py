"""Tests for the job-level cluster simulator."""

import math

import numpy as np
import pytest

from repro.core.delay import mm1_sojourn_time, mmn_sojourn_time
from repro.core.exact import solve_exact_truncated
from repro.core.model import SQDModel
from repro.markov.arrival_processes import PoissonArrivals, RenewalArrivals, solve_sigma
from repro.markov.map_ph_queue import mg1_pollaczek_khinchine_waiting_time
from repro.markov.service_distributions import (
    DeterministicService,
    ErlangService,
    ExponentialService,
    ServiceDistribution,
)
from repro.policies import JoinShortestQueue, LeastWorkLeft, PowerOfD, RoundRobin, UniformRandom
from repro.simulation.cluster import ClusterSimulation
from repro.simulation.workloads import Workload, poisson_exponential_workload
from repro.traces import ArrivalTrace, TraceArrivals


class FixedSizes(ServiceDistribution):
    """Job sizes handed out in the given order, whatever the generator."""

    def __init__(self, sizes):
        self._sizes = np.asarray(sizes, dtype=float)

    @property
    def mean(self) -> float:
        return float(self._sizes.mean())

    @property
    def variance(self) -> float:
        return float(self._sizes.var())

    def sample(self, rng, size):
        return np.resize(self._sizes, size)

    def lst(self, s):
        raise NotImplementedError


def replayed(arrival_times, num_servers, service):
    """A workload replaying ``arrival_times`` as recorded (no rescaling)."""
    return Workload(num_servers, TraceArrivals(ArrivalTrace(arrival_times)), service)


class TestBasicBehaviour:
    def test_all_jobs_complete(self):
        workload = poisson_exponential_workload(num_servers=2, utilization=0.5)
        simulation = ClusterSimulation(workload, PowerOfD(2), seed=1)
        result = simulation.run(2_000)
        assert result.completed_jobs == 2_000
        assert simulation.queue_lengths.sum() == 0

    def test_warmup_jobs_are_discarded_from_stats(self):
        workload = poisson_exponential_workload(num_servers=2, utilization=0.5)
        result = ClusterSimulation(workload, PowerOfD(2), seed=1, warmup_jobs=500).run(2_000)
        assert result.completed_jobs == 1_500
        assert result.discarded_jobs == 500

    def test_sojourn_is_waiting_plus_service_on_average(self):
        workload = Workload(3, PoissonArrivals(1.5), ExponentialService(1.0))
        result = ClusterSimulation(workload, JoinShortestQueue(), seed=3, warmup_jobs=1_000).run(20_000)
        assert result.mean_sojourn_time == pytest.approx(result.mean_waiting_time + 1.0, rel=0.05)

    def test_results_are_reproducible_with_same_seed(self):
        workload = poisson_exponential_workload(num_servers=3, utilization=0.7)
        first = ClusterSimulation(workload, PowerOfD(2), seed=11).run(3_000)
        second = ClusterSimulation(workload, PowerOfD(2), seed=11).run(3_000)
        assert first.mean_sojourn_time == second.mean_sojourn_time

    def test_different_seeds_differ(self):
        workload = poisson_exponential_workload(num_servers=3, utilization=0.7)
        first = ClusterSimulation(workload, PowerOfD(2), seed=11).run(3_000)
        second = ClusterSimulation(workload, PowerOfD(2), seed=12).run(3_000)
        assert first.mean_sojourn_time != second.mean_sojourn_time

    def test_invalid_job_count_rejected(self):
        workload = poisson_exponential_workload(num_servers=2, utilization=0.5)
        with pytest.raises(Exception):
            ClusterSimulation(workload, PowerOfD(2), seed=1).run(0)

    def test_second_run_on_same_instance_rejected(self):
        # State and statistics are not reset between runs; a silent second
        # run would mix both runs' statistics.
        workload = poisson_exponential_workload(num_servers=2, utilization=0.5)
        simulation = ClusterSimulation(workload, PowerOfD(2), seed=1)
        simulation.run(500)
        with pytest.raises(RuntimeError, match="once per instance"):
            simulation.run(500)

    def test_failed_run_does_not_mark_instance_as_used(self):
        workload = poisson_exponential_workload(num_servers=2, utilization=0.5)
        simulation = ClusterSimulation(workload, PowerOfD(2), seed=1)
        with pytest.raises(Exception):
            simulation.run(0)  # validation fails before any state mutates
        assert simulation.run(500).completed_jobs == 500


class TestWarmup:
    def test_warmup_discards_the_first_arrivals(self):
        # Arrivals at t = 1, 2, 3, 3, 3 with unit service wait 0, 0, 0, 1, 2;
        # discarding the first three arrivals leaves the waits 1 and 2.
        workload = replayed([0.0, 1.0, 2.0, 3.0, 3.0, 3.0], 1, DeterministicService(1.0))
        result = ClusterSimulation(workload, UniformRandom(), warmup_jobs=3).run(5)
        assert (result.completed_jobs, result.discarded_jobs) == (2, 3)
        assert result.mean_waiting_time == 1.5
        assert result.mean_sojourn_time == 2.5

    def test_warmup_covering_the_run_reports_nan(self):
        workload = poisson_exponential_workload(num_servers=2, utilization=0.5)
        result = ClusterSimulation(workload, PowerOfD(2), seed=1, warmup_jobs=50).run(20)
        assert (result.completed_jobs, result.discarded_jobs) == (0, 20)
        assert math.isnan(result.mean_waiting_time)
        assert math.isnan(result.mean_sojourn_time)

    def test_negative_warmup_rejected(self):
        workload = poisson_exponential_workload(num_servers=2, utilization=0.5)
        with pytest.raises(ValueError):
            ClusterSimulation(workload, PowerOfD(2), seed=1, warmup_jobs=-1)


class TestDeterministicPaths:
    def test_departures_at_t_leave_before_arrivals_at_t(self):
        # One server, unit service, arrivals at t = 1, 2, 3, 3, 3.  Jobs 2 and
        # 3 arrive exactly as their predecessor leaves and wait 0; the two
        # arrivals tied with job 3 queue behind it in trace order and wait 1
        # and 2, seeing 1 and 2 jobs.
        workload = replayed([0.0, 1.0, 2.0, 3.0, 3.0, 3.0], 1, DeterministicService(1.0))
        result = ClusterSimulation(workload, UniformRandom()).run(5)
        assert result.completed_jobs == 5
        assert result.mean_waiting_time == 0.6
        assert result.mean_queue_length_seen == 0.6
        assert result.simulated_time == 6.0

    def test_least_work_left_reads_residual_work(self):
        # Two servers, arrivals at t = 1, 8, 9 with sizes 10, 4, 1.  Job 1
        # holds one server until 11 and job 2 the other until 12, so at t = 9
        # the residual work is 2 and 3: job 3 joins job 1's server and waits
        # 2.  The full sizes 10 and 4 would send it behind job 2 (a wait of 3).
        workload = replayed([0.0, 1.0, 8.0, 9.0], 2, FixedSizes([10.0, 4.0, 1.0]))
        result = ClusterSimulation(workload, LeastWorkLeft(2), seed=1).run(3)
        assert result.mean_waiting_time == pytest.approx(2.0 / 3.0)


def _erlang_renewal_sojourn(num_servers: int, utilization: float) -> float:
    # Round-robin hands each server every N-th arrival of a Poisson stream of
    # rate rho * N: an E_N/M/1 queue with sojourn 1 / (mu (1 - sigma)).
    interarrival = ErlangService(stages=num_servers, mean=1.0 / utilization)
    return 1.0 / (1.0 - solve_sigma(RenewalArrivals(interarrival)))


def _exact_sqd_sojourn(num_servers: int, d: int, utilization: float) -> float:
    # The exact CTMC solve truncated at B = 30 jobs a server; at rho = 0.7
    # and N = 3, B = 40 moves the mean by under 3e-13 relative.
    model = SQDModel(num_servers=num_servers, d=d, utilization=utilization)
    return solve_exact_truncated(model, buffer_size=30).mean_delay


ARRIVALS = {"poisson": PoissonArrivals}
POLICIES = {
    "random": lambda num_servers: UniformRandom(),
    "round_robin": lambda num_servers: RoundRobin(),
    "least_work_left": LeastWorkLeft,  # polls d = N servers
    "sqd2": lambda num_servers: PowerOfD(2),
    "sqd3": lambda num_servers: PowerOfD(3),
}
SERVICES = {"exponential": ExponentialService(1.0), "deterministic": DeterministicService(1.0)}

#: The closed forms the cluster DES must reproduce, keyed by (policy,
#: arrival, service, N, rho), each with the metric it predicts, the jobs per
#: replication and the relative width its 4-standard-error band must stay
#: under.  ``random`` splits a Poisson stream into independent M/M/1 (or, at
#: N = 1, M/D/1) queues; ``round_robin`` makes each server E_N/M/1;
#: ``least_work_left`` with d = N is the M/M/N central FCFS queue (Erlang C);
#: ``sqd2``/``sqd3`` (SQ(d) over distinct servers) at N = 3 is the ``exact``
#: oracle.  No row covers ``jiq``, ``sqd`` at N > 3, MAP (``mmpp2``) input or
#: trace replay.
ORACLE_TABLE = {
    ("random", "poisson", "exponential", 4, 0.6): (
        "mean_sojourn_time", lambda: mm1_sojourn_time(0.6), 20_000, 0.08),
    ("random", "poisson", "deterministic", 1, 0.5): (
        "mean_waiting_time",
        lambda: mg1_pollaczek_khinchine_waiting_time(0.5, DeterministicService(1.0)),
        10_000,
        0.10,
    ),
    ("round_robin", "poisson", "exponential", 4, 0.9): (
        "mean_sojourn_time", lambda: _erlang_renewal_sojourn(4, 0.9), 100_000, 0.10),
    ("least_work_left", "poisson", "exponential", 5, 0.7): (
        "mean_sojourn_time", lambda: mmn_sojourn_time(5, 0.7), 20_000, 0.04),
    ("sqd2", "poisson", "exponential", 3, 0.7): (
        "mean_sojourn_time", lambda: _exact_sqd_sojourn(3, 2, 0.7), 20_000, 0.04),
    ("sqd3", "poisson", "exponential", 3, 0.7): (
        "mean_sojourn_time", lambda: _exact_sqd_sojourn(3, 3, 0.7), 20_000, 0.04),
}
REPLICATIONS = 16


@pytest.mark.parametrize(
    "row, key",
    list(enumerate(ORACLE_TABLE)),
    ids=["-".join(map(str, key)) for key in ORACLE_TABLE],
)
def test_oracle_row(row, key):
    policy, arrival, service, num_servers, utilization = key
    metric, oracle, jobs, band = ORACLE_TABLE[key]
    workload = Workload(
        num_servers, ARRIVALS[arrival](utilization * num_servers), SERVICES[service]
    )
    means = [
        getattr(
            ClusterSimulation(
                workload, POLICIES[policy](num_servers), seed=1_000 * (row + 1) + k,
                warmup_jobs=jobs // 10,
            ).run(jobs),
            metric,
        )
        for k in range(REPLICATIONS)
    ]
    standard_error = np.std(means, ddof=1) / math.sqrt(REPLICATIONS)
    expected = oracle()
    assert abs(np.mean(means) - expected) <= 4 * standard_error
    assert 4 * standard_error < band * expected


class TestAgainstKnownResults:
    def test_jsq_beats_random_dispatch(self):
        workload = poisson_exponential_workload(num_servers=4, utilization=0.85)
        random_result = ClusterSimulation(workload, UniformRandom(), seed=21, warmup_jobs=3_000).run(40_000)
        jsq_result = ClusterSimulation(workload, JoinShortestQueue(), seed=21, warmup_jobs=3_000).run(40_000)
        assert jsq_result.mean_sojourn_time < random_result.mean_sojourn_time

    def test_sq2_between_random_and_jsq(self):
        workload = poisson_exponential_workload(num_servers=6, utilization=0.85)
        random_result = ClusterSimulation(workload, UniformRandom(), seed=31, warmup_jobs=3_000).run(40_000)
        sq2_result = ClusterSimulation(workload, PowerOfD(2), seed=31, warmup_jobs=3_000).run(40_000)
        jsq_result = ClusterSimulation(workload, JoinShortestQueue(), seed=31, warmup_jobs=3_000).run(40_000)
        assert jsq_result.mean_sojourn_time <= sq2_result.mean_sojourn_time <= random_result.mean_sojourn_time

    def test_round_robin_beats_random_for_poisson_input(self):
        workload = poisson_exponential_workload(num_servers=4, utilization=0.8)
        random_result = ClusterSimulation(workload, UniformRandom(), seed=41, warmup_jobs=3_000).run(40_000)
        rr_result = ClusterSimulation(workload, RoundRobin(), seed=41, warmup_jobs=3_000).run(40_000)
        assert rr_result.mean_sojourn_time < random_result.mean_sojourn_time
