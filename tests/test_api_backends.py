"""Tests for the backend registry: capabilities, auto-selection, SpecError."""

import pytest

from repro.api import (
    ExperimentSpec,
    SpecError,
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
    run,
    select_backend,
)
from repro.api.backends import Capabilities, require_capable
from repro.api.spec import ScenarioSpec, SystemSpec


def spec(**kwargs):
    kwargs.setdefault("num_servers", 20)
    kwargs.setdefault("utilization", 0.8)
    return ExperimentSpec.create(**kwargs)


class TestRegistry:
    def test_five_backends_registered(self):
        assert available_backends() == [
            "cluster",
            "exact",
            "fleet",
            "meanfield",
            "qbd_bounds",
        ]

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="unknown backend"):
            get_backend("quantum")
        # The per-server CTMC simulator is gone; the fleet engine runs its law.
        with pytest.raises(SpecError, match="unknown backend"):
            run(spec(), backend="ctmc")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SpecError, match="already registered"):
            @register_backend("fleet")
            class Impostor:
                capabilities = Capabilities(description="", policies=("sqd",))

                def run_once(self, spec, seed):
                    return {"mean_delay": 0.0}

    def test_capabilities_table_is_complete(self):
        table = backend_capabilities()
        assert set(table) == set(available_backends())
        for capabilities in table.values():
            assert capabilities.answer in {"estimate", "exact", "bounds", "limit"}
            assert capabilities.description


class TestCapabilityGates:
    def test_exact_rejects_large_pools(self):
        with pytest.raises(SpecError, match="up to N=3"):
            require_capable("exact", spec(num_servers=50))

    def test_exact_rejects_intractable_buffers_before_solving(self, monkeypatch):
        import repro.core.exact

        def never(*args, **kwargs):
            raise AssertionError("the solver ran on a gated spec")

        monkeypatch.setattr(repro.core.exact, "solve_exact_truncated", never)
        deep = ExperimentSpec.create(num_servers=3, d=2, utilization=0.9, buffer_size=10_000)
        # C(10003, 3) ordered states: refused on the count, not on memory.
        with pytest.raises(SpecError, match="C\\(N\\+B, N\\) = 166766685001 exceeds 100000"):
            run(deep, backend="exact")
        assert select_backend(deep).name == "fleet"

    def test_qbd_bounds_reject_intractable_blocks(self):
        # N=50 at the default threshold T=3 would need a C(52, 3) block.
        with pytest.raises(SpecError, match="block size"):
            require_capable("qbd_bounds", spec(num_servers=50))
        # Lowering the threshold makes the same pool tractable.
        require_capable("qbd_bounds", spec(num_servers=50, threshold=2))

    def test_qbd_bounds_reject_non_sqd_policies(self):
        with pytest.raises(SpecError, match="policy"):
            require_capable("qbd_bounds", spec(policy="jsq"))

    def test_fleet_rejects_work_aware_policies(self):
        with pytest.raises(SpecError, match="policy"):
            require_capable("fleet", spec(policy="least_work_left"))

    def test_only_cluster_runs_hyperexponential_service(self):
        bursty = spec(
            service="hyperexponential",
            service_params={"probabilities": [0.5, 0.5], "rates": [2.0, 2.0 / 3.0]},
        )
        require_capable("cluster", bursty)
        for name in ("fleet", "qbd_bounds", "exact", "meanfield"):
            with pytest.raises(SpecError, match="service"):
                require_capable(name, bursty)

    def test_only_fleet_plays_scenarios(self):
        playback = ExperimentSpec(
            system=SystemSpec(num_servers=100), scenario=ScenarioSpec("ramp")
        )
        require_capable("fleet", playback)
        with pytest.raises(SpecError, match="scenario"):
            require_capable("cluster", playback)

    def test_unknown_backend_options_rejected_consistently(self):
        # Rejected when the spec is built, before any backend sees it.
        with pytest.raises(SpecError, match="unknown spec options"):
            spec(num_servers=5, num_events=1000, typo_option=1)

    def test_foreign_options_ride_along_harmlessly(self):
        # One spec, many engines: 'threshold' belongs to qbd_bounds but must
        # not stop a simulator from running the same spec.
        metrics = get_backend("fleet").run_once(
            spec(num_servers=10, num_events=2_000, threshold=2), seed=3
        )
        assert metrics["mean_delay"] > 1.0


class TestAutoSelection:
    def test_tiny_pools_go_exact(self):
        assert select_backend(spec(num_servers=3)).name == "exact"

    def test_standard_pools_go_fleet(self):
        assert select_backend(spec(num_servers=100)).name == "fleet"
        assert select_backend(spec(num_servers=500_000)).name == "fleet"

    def test_non_default_workloads_go_cluster(self):
        chosen = select_backend(spec(service="deterministic"))
        assert chosen.name == "cluster"

    def test_work_aware_policies_go_cluster(self):
        assert select_backend(spec(policy="least_work_left")).name == "cluster"

    def test_limit_and_bounds_backends_never_auto_selected(self):
        for n in (3, 100, 10_000):
            assert select_backend(spec(num_servers=n)).name not in {"meanfield", "qbd_bounds"}

    def test_replicable_only_skips_deterministic_backends(self):
        assert select_backend(spec(num_servers=3), replicable_only=True).name == "fleet"

    def test_impossible_spec_explains_every_candidate(self):
        impossible = spec(policy="round_robin", service="deterministic", num_servers=50_000)
        with pytest.raises(SpecError, match="cluster"):
            select_backend(impossible)


class TestBackendAnswers:
    def test_deterministic_backends_ignore_the_seed(self):
        bounds_spec = spec(num_servers=6, threshold=2)
        a = get_backend("qbd_bounds").run_once(bounds_spec, seed=1)
        b = get_backend("qbd_bounds").run_once(bounds_spec, seed=2)
        assert a == b

    def test_bounds_bracket_and_asymptote(self):
        metrics = get_backend("qbd_bounds").run_once(spec(num_servers=6, threshold=2), seed=None)
        assert metrics["lower_delay"] == metrics["mean_delay"]
        assert metrics["lower_delay"] <= metrics["upper_delay"]
        assert metrics["asymptotic_delay"] > 1.0

    def test_meanfield_matches_closed_form(self):
        from repro.fleet.meanfield import meanfield_delay

        metrics = get_backend("meanfield").run_once(spec(num_servers=9999, d=2), seed=None)
        assert metrics["mean_delay"] == pytest.approx(meanfield_delay(0.8, 2))

    def test_meanfield_jsq_limit_is_bare_service_time(self):
        metrics = get_backend("meanfield").run_once(spec(policy="jsq"), seed=None)
        assert metrics["mean_delay"] == 1.0

    def test_stochastic_backends_report_mean_delay(self):
        fast = spec(num_servers=10, num_events=2_000, num_jobs=2_000)
        for name in ("cluster", "fleet"):
            metrics = get_backend(name).run_once(fast, seed=5)
            assert metrics["mean_delay"] > 1.0  # sojourn >= one service time

    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.1, 0.5])
    def test_cluster_discards_the_horizon_warmup(self, warmup_fraction):
        # The cluster DES reads horizon.warmup_fraction as the fleet engine
        # does: the first int(num_jobs * fraction) arrivals go unmeasured.
        from repro.simulation.cluster import ClusterSimulation

        backend = get_backend("cluster")
        warmed = spec(num_servers=10, num_jobs=5_000, warmup_fraction=warmup_fraction)
        expected = ClusterSimulation(
            backend._workload(warmed), backend._policy(warmed), seed=3, warmup_jobs=int(5_000 * warmup_fraction)
        ).run(5_000)
        assert backend.run_once(warmed, seed=3)["mean_delay"] == expected.mean_sojourn_time


class TestFleetMetrics:
    #: The keys of a stationary fleet record (what the CLI and campaigns read).
    STATIONARY_KEYS = {
        "mean_delay", "mean_waiting_time", "mean_queue_length", "mean_jobs_in_system",
        "simulated_time", "num_events", "events_per_second", "kernel",
    }

    def test_stationary_records_keep_their_keys(self):
        metrics = get_backend("fleet").run_once(spec(num_servers=50, num_events=2_000), seed=3)
        assert set(metrics) == self.STATIONARY_KEYS
        replicated = run(spec(num_servers=50, num_events=2_000), backend="fleet", replications=2)
        for record in replicated.records:
            assert set(record) == self.STATIONARY_KEYS | {"replication", "seed", "wall_seconds"}

    @pytest.mark.parametrize("name", ["flash-crowd", "resize", "ramp"])
    def test_scenario_metrics_are_the_playback_phases(self, name):
        from repro.fleet.engine import run_scenario
        from repro.fleet.scenarios import get_scenario

        metrics = get_backend("fleet").run_once(
            ExperimentSpec.create(num_servers=200, d=2, scenario=name), seed=9
        )
        playback = run_scenario(get_scenario(name), num_servers=200, d=2, seed=9)
        # The overall answer is unchanged ...
        assert metrics["mean_delay"] == playback.overall_mean_delay
        assert metrics["simulated_time"] == playback.total_time
        assert metrics["num_events"] == playback.total_events
        # ... and each measured phase adds four scalars, equal bit for bit.
        expected = {}
        for index, phase in enumerate(playback.phases, start=1):
            expected[f"phase{index}_mean_delay"] = phase.mean_sojourn_time
            expected[f"phase{index}_mean_queue_length"] = phase.mean_queue_length
            expected[f"phase{index}_num_servers"] = float(phase.num_servers)
            expected[f"phase{index}_num_events"] = float(phase.num_events)
        assert {key: value for key, value in metrics.items() if key.startswith("phase")} == expected

    def test_phase_keys_sort_in_playback_order(self):
        ramp = ExperimentSpec.create(
            num_servers=50, scenario="ramp",
            scenario_params={"steps": 12, "total_duration": 6.0, "warmup_time": 1.0},
        )
        metrics = get_backend("fleet").run_once(ramp, seed=2)
        delays = [key for key in sorted(metrics) if key.startswith("phase") and key.endswith("_mean_delay")]
        assert delays == [f"phase{index:02d}_mean_delay" for index in range(1, 13)]

    def test_replicated_scenarios_put_an_interval_on_every_phase(self):
        from repro.ensemble.runner import run_ensemble

        playback = ExperimentSpec.create(num_servers=100, scenario="flash-crowd", seed=5)
        ensemble = run_ensemble(playback, backend="fleet", replications=3)
        result = run(playback, backend="fleet", replications=3)
        for metric in ("phase2_mean_delay", "phase2_mean_queue_length"):
            statistics = ensemble.statistics(metric)
            assert statistics.half_width > 0.0
            assert result.extras[metric] == statistics.mean
