"""The spec-keyed QBD solver cache: one solve per distinct configuration.

ISSUE 4 acceptance: a grid sweep with the solver cache performs exactly one
QBD solve per distinct ``(system, policy)`` configuration and reproduces
the pre-cache numbers bitwise.
"""

import numpy as np
import pytest

from repro.core.analysis import analyze_sqd
from repro.core.bound_models import UpperBoundModel
from repro.core.improved_lower import solve_improved_lower_bound
from repro.core.model import SQDModel
from repro.core.qbd_solver import UnstableBoundModelError, solve_bound_model
from repro.core.solver_cache import (
    CacheStats,
    SolverCache,
    bound_solve_key,
    clear_solver_cache,
    solver_cache,
)
from repro.cli import main
from repro.ensemble.grid import GridConfig, run_grid


def direct_solves(num_servers, d, utilization, threshold):
    """The lower and upper delays of ``analyze_sqd``, solved without the cache."""
    model = SQDModel(num_servers, d, utilization)
    lower = solve_improved_lower_bound(model, threshold).mean_delay
    try:
        upper = solve_bound_model(UpperBoundModel(model, threshold).qbd_blocks()).mean_delay
    except UnstableBoundModelError:
        upper = None
    return lower, upper


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_solver_cache()
    yield
    clear_solver_cache()


class TestSolverCacheObject:
    def test_get_or_compute_caches_and_counts(self):
        cache = SolverCache(maxsize=4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 41) == 41
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 41
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.solves == 1
        assert cache.stats.lookups == 2

    def test_lru_eviction(self):
        cache = SolverCache(maxsize=2)
        for key in ("a", "b", "c"):  # evicts "a"
            cache.get_or_compute(key, lambda k=key: k.upper())
        assert cache.stats.evictions == 1
        calls = []
        cache.get_or_compute("a", lambda: calls.append(1) or "A2")
        assert calls  # "a" was re-solved

    def test_maxsize_zero_disables_storage(self):
        cache = SolverCache(maxsize=0)
        calls = []
        for _ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1) or 1)
        assert len(calls) == 3
        assert len(cache) == 0

    def test_clear_resets_entries_and_stats(self):
        cache = SolverCache()
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_plans_are_kept_apart_from_solves(self):
        cache = SolverCache()
        built = []
        for _ in range(2):
            assert cache.plan("p", lambda: built.append(1) or "plan") == "plan"
        assert built == [1]
        assert len(cache) == 0
        assert cache.stats == CacheStats()
        cache.clear()
        cache.plan("p", lambda: built.append(1) or "plan")
        assert built == [1, 1]

    def test_maxsize_zero_keeps_no_plan(self):
        cache = SolverCache(maxsize=0)
        built = []
        for _ in range(2):
            cache.plan("p", lambda: built.append(1) or "plan")
        assert built == [1, 1]

    def test_key_distinguishes_every_model_parameter(self):
        base = dict(num_servers=6, d=2, utilization=0.9, service_rate=1.0, threshold=3)
        key = bound_solve_key("lower", **base)
        assert bound_solve_key("upper", **base) != key
        for field, value in [("num_servers", 7), ("d", 3), ("utilization", 0.8),
                             ("service_rate", 2.0), ("threshold", 2)]:
            changed = {**base, field: value}
            assert bound_solve_key("lower", **changed) != key


class TestAnalyzeSqdCaching:
    def test_cached_and_uncached_results_are_bitwise_identical(self):
        fresh_lower, fresh_upper = direct_solves(4, 2, 0.9, 2)
        assert solver_cache().stats.lookups == 0
        cached = analyze_sqd(num_servers=4, d=2, utilization=0.9, threshold=2)
        replay = analyze_sqd(num_servers=4, d=2, utilization=0.9, threshold=2)
        for analysis in (cached, replay):
            assert analysis.lower_delay == fresh_lower
            assert analysis.upper_delay == fresh_upper
        # the replay answered from the cache: two bound solves total
        assert solver_cache().stats.solves == 2
        assert solver_cache().stats.hits == 2

    def test_unstable_upper_bound_outcome_is_cached(self):
        # (N=3, T=2, rho=0.95) violates the upper model's drift condition.
        first = analyze_sqd(num_servers=3, d=2, utilization=0.95, threshold=2)
        assert first.upper_bound_unstable
        solves_after_first = solver_cache().stats.solves
        second = analyze_sqd(num_servers=3, d=2, utilization=0.95, threshold=2)
        assert second.upper_bound_unstable
        assert solver_cache().stats.solves == solves_after_first

    def test_cold_then_warm_pass_counts_solves_not_plans(self):
        # The perfbench analytic_bounds grid: 30 brackets, 12 plans.
        import repro
        from repro import ExperimentSpec

        specs = [
            ExperimentSpec.create(num_servers=n, d=2, utilization=rho, threshold=3)
            for n in range(3, 9) for rho in (0.5, 0.7, 0.8, 0.9, 0.95)
        ]
        cold = [repro.run(spec, backend="qbd_bounds").extras for spec in specs]
        assert (solver_cache().stats.misses, solver_cache().stats.hits) == (60, 0)
        assert len(solver_cache()) == 60
        warm = [repro.run(spec, backend="qbd_bounds").extras for spec in specs]
        assert (solver_cache().stats.misses, solver_cache().stats.hits) == (60, 60)
        assert warm == cold
        solver_cache().clear()
        assert len(solver_cache()) == 0 and solver_cache().stats.lookups == 0
        again = [repro.run(spec, backend="qbd_bounds").extras for spec in specs]
        assert solver_cache().stats.misses == 60
        assert again == cold

    def test_uncached_solves_share_the_plan_and_the_bits(self):
        cached = analyze_sqd(num_servers=5, d=2, utilization=0.7, threshold=3)
        solver_cache().clear()
        first = direct_solves(5, 2, 0.7, 3)
        second = direct_solves(5, 2, 0.7, 3)
        assert len(solver_cache()) == 0 and solver_cache().stats.lookups == 0
        for lower, upper in (first, second):
            assert lower.hex() == cached.lower_delay.hex()
            assert upper.hex() == cached.upper_delay.hex()

    def test_bound_side_is_the_only_split_of_one_system(self):
        # The lower and upper solves of one system have their own keys,
        # and equal systems share them, however their numbers are typed.
        system = dict(num_servers=4, d=2, utilization=0.9, service_rate=1.0, threshold=2)
        lower, upper = bound_solve_key("lower", **system), bound_solve_key("upper", **system)
        assert lower != upper
        same = dict(num_servers=np.int64(4), d=2.0, utilization=np.float64(0.9), service_rate=1, threshold=2)
        assert (bound_solve_key("lower", **same), bound_solve_key("upper", **same)) == (lower, upper)
        analyze_sqd(num_servers=4, d=2, utilization=0.9, threshold=2)
        analyze_sqd(num_servers=4, d=2, utilization=0.9, threshold=2, service_rate=1.0)
        assert solver_cache().stats == CacheStats(hits=2, misses=2, evictions=0)


class TestSweepAndGridCaching:
    def test_sweep_rerun_is_fully_cached_and_bitwise_stable(self, tmp_path, capsys):
        def sweep(name):
            path = tmp_path / name
            main(["sweep", "--servers", "3", "4", "--choices", "2",
                  "--utilizations", "0.7", "0.9", "--thresholds", "2", "--csv", str(path)])
            return path.read_bytes()

        first = sweep("first.csv")
        solves = solver_cache().stats.solves
        # 4 configurations x (lower + upper) = 8 distinct solves
        assert solves == 8
        second = sweep("second.csv")
        assert solver_cache().stats.solves == solves  # zero new solves
        assert second == first                         # bitwise replay

    def test_grid_sweep_solves_each_distinct_system_once(self):
        config = GridConfig(
            server_counts=(4,),
            choices=(2,),
            utilizations=(0.8, 0.9),
            num_events=4_000,
            replications=3,
            seed=11,
            bounds=True,
            threshold=2,
        )
        result = run_grid(config)
        # 2 distinct (system, policy) configurations, lower + upper each —
        # independent of the 3 replications per point.
        assert solver_cache().stats.solves == 4
        rows = result.records()
        assert len(rows) == 2
        for row in rows:
            assert row["lower_bound"] > 0
            if row["upper_bound"] is not None:  # None = drift-unstable upper model
                assert row["lower_bound"] <= row["upper_bound"]
        # a re-run reuses every solve and reproduces the bracket bitwise
        again = run_grid(config)
        assert solver_cache().stats.solves == 4
        assert again.records() == rows

    def test_grid_bounds_skip_intractable_and_non_sqd_points(self):
        huge = GridConfig(server_counts=(5000,), utilizations=(0.9,),
                          num_events=2_000, replications=1, bounds=True)
        row = run_grid(huge).records()[0]
        assert "lower_bound" not in row
        assert solver_cache().stats.solves == 0

        jsq = GridConfig(server_counts=(4,), utilizations=(0.9,), policy="jsq",
                         num_events=2_000, replications=1, bounds=True)
        row = run_grid(jsq).records()[0]
        assert "lower_bound" not in row
        assert solver_cache().stats.solves == 0

    def test_grid_without_bounds_is_unchanged(self):
        config = GridConfig(server_counts=(4,), utilizations=(0.9,),
                            num_events=2_000, replications=1)
        row = run_grid(config).records()[0]
        assert "lower_bound" not in row
        assert solver_cache().stats.lookups == 0
