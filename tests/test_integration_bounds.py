"""Integration tests: the bounds sandwich the true SQ(d) delay.

These tests tie the whole pipeline together — state space, bound models, QBD
solver, exact oracle, simulator and asymptotic formula — and check the
relations the paper's evaluation (Section V) rests on.
"""

import pytest

from repro import ExperimentSpec, run
from repro.core.analysis import analyze_sqd
from repro.core.asymptotic import asymptotic_delay
from repro.core.bound_models import LowerBoundModel, UpperBoundModel
from repro.core.delay import mm1_sojourn_time
from repro.core.exact import solve_exact_truncated
from repro.core.improved_lower import solve_improved_lower_bound
from repro.core.model import SQDModel
from repro.core.qbd_solver import UnstableBoundModelError, solve_bound_model
from repro.fleet.engine import simulate_fleet


class TestSandwichAgainstExactOracle:
    @pytest.mark.parametrize("utilization", [0.3, 0.6, 0.8, 0.9])
    def test_n3_d2_bounds_contain_exact_delay(self, utilization):
        model = SQDModel(num_servers=3, d=2, utilization=utilization)
        exact = solve_exact_truncated(model, buffer_size=25).mean_delay
        for threshold in (2, 3):
            lower = solve_improved_lower_bound(model, threshold).mean_delay
            assert lower <= exact + 1e-6
            try:
                upper = solve_bound_model(UpperBoundModel(model, threshold).qbd_blocks()).mean_delay
                assert exact <= upper + 1e-6
            except UnstableBoundModelError:
                pass  # an unstable upper bound model bounds the delay by +infinity

    def test_n2_jsq_bounds_contain_exact_delay(self):
        # d = N = 2 is the JSQ case the bound construction generalizes.
        model = SQDModel(num_servers=2, d=2, utilization=0.8)
        exact = solve_exact_truncated(model, buffer_size=40).mean_delay
        lower = solve_improved_lower_bound(model, 3).mean_delay
        upper = solve_bound_model(UpperBoundModel(model, 3).qbd_blocks()).mean_delay
        assert lower <= exact + 1e-6 <= upper + 2e-6

    def test_n4_d2_bounds_contain_exact_delay(self):
        model = SQDModel(num_servers=4, d=2, utilization=0.7)
        exact = solve_exact_truncated(model, buffer_size=14).mean_delay
        lower = solve_improved_lower_bound(model, 2).mean_delay
        upper = solve_bound_model(UpperBoundModel(model, 2).qbd_blocks()).mean_delay
        assert lower <= exact + 1e-6 <= upper + 1e-6

    def test_n3_d2_high_load_bracket_contains_converged_exact_delay(self):
        # At rho = 0.95 the truncation must be deep: B=40 gives 7.571, below
        # the T=5 lower bound of 7.616, while B=60 gives 7.665 (7.671 at
        # B=80).  The B=60 solve (39,711 states) takes a few seconds.
        analysis = analyze_sqd(num_servers=3, d=2, utilization=0.95, threshold=5)
        model = SQDModel(num_servers=3, d=2, utilization=0.95)
        exact = solve_exact_truncated(model, buffer_size=60).mean_delay
        assert analysis.lower_delay <= exact <= analysis.upper_delay

    def test_lower_bound_tightness_reported_by_paper(self):
        # Section V: "the lower bounds are remarkably accurate".  Against the
        # exact oracle the T=3 lower bound for N=3 stays within ~12% up to
        # rho=0.9.
        model = SQDModel(num_servers=3, d=2, utilization=0.9)
        exact = solve_exact_truncated(model, buffer_size=30).mean_delay
        lower = solve_improved_lower_bound(model, 3).mean_delay
        assert lower <= exact
        assert (exact - lower) / exact < 0.12


class TestSandwichAgainstSimulation:
    @pytest.mark.parametrize("num_servers,threshold", [(3, 2), (6, 2)])
    def test_simulation_respects_bounds(self, num_servers, threshold):
        utilization = 0.8
        model = SQDModel(num_servers=num_servers, d=2, utilization=utilization)
        lower = solve_improved_lower_bound(model, threshold).mean_delay
        simulated = simulate_fleet(
            num_servers=num_servers, d=2, utilization=utilization, num_events=300_000, seed=99
        ).mean_delay
        assert lower <= simulated * 1.02  # 2% slack for Monte-Carlo noise
        try:
            upper = solve_bound_model(UpperBoundModel(model, threshold).qbd_blocks()).mean_delay
            assert simulated <= upper * 1.02
        except UnstableBoundModelError:
            pass


class TestDegenerateCases:
    def test_d1_lower_bound_below_mm1(self):
        # SQ(1) is exactly N independent M/M/1 queues; the lower bound model
        # (which balances queues) must stay below the M/M/1 sojourn time.
        model = SQDModel(num_servers=3, d=1, utilization=0.7)
        lower = solve_improved_lower_bound(model, 2).mean_delay
        assert lower <= mm1_sojourn_time(0.7) + 1e-9

    def test_asymptotic_is_a_lower_envelope_for_small_n_high_load(self):
        # Figure 10's visual message: for small N and high utilization the
        # asymptotic curve sits below simulation and even below our lower bound.
        model = SQDModel(num_servers=3, d=2, utilization=0.9)
        lower = solve_improved_lower_bound(model, 3).mean_delay
        assert asymptotic_delay(0.9, 2) < lower

    def test_lower_bound_decreases_with_more_servers(self):
        # Larger clusters are better balanced, so the finite-N delay (and its
        # lower bound) decreases towards the asymptotic value.
        delays = []
        for num_servers in (3, 6, 12):
            model = SQDModel(num_servers=num_servers, d=2, utilization=0.9)
            delays.append(solve_improved_lower_bound(model, 3).mean_delay)
        assert delays[0] > delays[1] > delays[2]

    def test_jsq_lower_bound_below_sq2_lower_bound(self):
        sq2 = solve_improved_lower_bound(SQDModel(4, 2, 0.85), 2).mean_delay
        jsq = solve_improved_lower_bound(SQDModel(4, 4, 0.85), 2).mean_delay
        assert jsq <= sq2 + 1e-9


class TestEndToEndAnalysis:
    def test_full_analysis_consistency(self):
        analysis = analyze_sqd(num_servers=3, d=2, utilization=0.75, threshold=3)
        spec = ExperimentSpec.create(
            num_servers=3, d=2, utilization=0.75, num_events=150_000, seed=17, buffer_size=25
        )
        simulated = run(spec, backend="fleet").mean_delay
        exact = run(spec, backend="exact").mean_delay
        assert analysis.lower_delay <= exact + 1e-9
        assert exact <= analysis.upper_delay + 1e-9
        assert simulated == pytest.approx(exact, rel=0.08)
        assert analysis.asymptotic_delay < exact
