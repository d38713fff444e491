"""Tests for the declarative experiment spec: validation and round-tripping."""

import json
from dataclasses import replace

import pytest

from repro.api.spec import (
    DistributionSpec,
    ExperimentSpec,
    HorizonSpec,
    ScenarioSpec,
    SpecError,
    SystemSpec,
    WorkloadSpec,
)
from repro.utils.validation import ValidationError


class TestValidation:
    def test_spec_error_is_a_validation_error(self):
        # One exception type across the API, compatible with existing handlers.
        assert issubclass(SpecError, ValidationError)
        assert issubclass(SpecError, ValueError)

    def test_num_servers_must_be_positive_integer(self):
        with pytest.raises(SpecError, match="num_servers"):
            SystemSpec(num_servers=0)
        with pytest.raises(SpecError, match="num_servers"):
            SystemSpec(num_servers=2.5)

    def test_d_bounded_by_num_servers(self):
        # d <= N holds where d is a poll count: under sqd, at spec build.
        with pytest.raises(SpecError, match="d must"):
            ExperimentSpec(system=SystemSpec(num_servers=3, d=4, utilization=0.5))
        with pytest.raises(SpecError, match="d must"):
            SystemSpec(num_servers=3, d=0)

    def test_sqd_with_more_polls_than_servers_fails_at_spec_build(self):
        with pytest.raises(SpecError, match=r"d must be an integer in \[1, num_servers=3\] under policy 'sqd'"):
            ExperimentSpec.create(num_servers=3, d=4, utilization=0.5)

    @pytest.mark.parametrize("policy", ["jsq", "random", "least_work_left"])
    def test_d_is_not_bounded_where_no_d_servers_are_polled(self, policy):
        # jsq and random never read d (the default is 2); least_work_left
        # polls every server once d >= N.
        spec = ExperimentSpec.create(num_servers=1, policy=policy, utilization=0.5)
        assert spec.system.d == 2
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        with pytest.raises(SpecError, match="d must"):
            ExperimentSpec.create(num_servers=1, d=0, policy=policy, utilization=0.5)

    def test_utilization_strictly_inside_unit_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(SpecError, match="utilization"):
                SystemSpec(num_servers=3, utilization=bad)

    def test_utilization_required_without_scenario(self):
        with pytest.raises(SpecError, match="utilization"):
            ExperimentSpec(system=SystemSpec(num_servers=10))

    def test_scenario_releases_utilization_requirement(self):
        spec = ExperimentSpec(
            system=SystemSpec(num_servers=10), scenario=ScenarioSpec("constant")
        )
        assert spec.system.utilization is None

    def test_scenario_and_utilization_together_rejected(self):
        # Scenarios carry their own loads; a spec utilization would be
        # silently ignored, so the combination must fail loudly.
        with pytest.raises(SpecError, match="scenario"):
            ExperimentSpec.create(num_servers=10, utilization=0.9, scenario="ramp")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SpecError, match="scenario.name"):
            ScenarioSpec("black-friday")

    @pytest.mark.parametrize(
        "section, field",
        [("horizon", "num_events"), ("horizon", "num_jobs"), ("horizon", "warmup_fraction"), ("options", "start")],
    )
    def test_scenario_rejects_the_fields_its_backend_ignores(self, section, field):
        # The fleet engine, the one backend that plays scenarios, reads no
        # horizon and no start for one: the spec fails instead of ignoring them.
        value = {"start": "empty", "warmup_fraction": 0.2}.get(field, 1000)
        with pytest.raises(SpecError, match=f"{field}.*cannot be combined with a scenario"):
            ExperimentSpec.create(num_servers=10, scenario="ramp", **{field: value})
        payload = ExperimentSpec.create(num_servers=10, scenario="ramp").to_dict()
        payload[section][field] = value
        with pytest.raises(SpecError, match=field):
            ExperimentSpec.from_dict(payload)

    def test_scenario_keeps_the_options_it_reads(self):
        spec = ExperimentSpec.create(num_servers=10, scenario="ramp", with_replacement=True)
        assert spec.option("with_replacement") is True

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"service": {"name": "erlang", "params": [3]}}, "erlang.params must be a mapping"),
            ({"arrival": {"name": "erlang", "params": "x"}}, "erlang.params must be a mapping"),
        ],
        ids=["service-list", "arrival-string"],
    )
    def test_distribution_params_must_be_a_mapping(self, payload, fragment):
        spec = ExperimentSpec.create(num_servers=10, utilization=0.5).to_dict()
        spec["workload"] = payload
        with pytest.raises(SpecError, match=fragment):
            ExperimentSpec.from_dict(spec)

    @pytest.mark.parametrize(
        "params, fragment",
        [
            ([3], r"params must be a mapping"),
            ({"bogus": 1}, "bogus"),
            ({"steps": "x"}, "steps"),
            ({"steps": 1}, "steps"),
        ],
        ids=["list", "unknown-name", "wrong-type", "out-of-range"],
    )
    def test_scenario_params_build_the_scenario_when_the_spec_is_built(self, params, fragment):
        with pytest.raises(SpecError, match=fragment):
            ScenarioSpec("ramp", params)
        with pytest.raises(SpecError, match=fragment):
            ExperimentSpec.from_dict(
                {"system": {"num_servers": 10}, "scenario": {"name": "ramp", "params": params}}
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(SpecError, match="policy"):
            ExperimentSpec.create(num_servers=5, utilization=0.5, policy="psychic")

    def test_unknown_distributions_rejected(self):
        with pytest.raises(SpecError, match="arrival"):
            WorkloadSpec(arrival=DistributionSpec("uniform"))
        with pytest.raises(SpecError, match="service"):
            WorkloadSpec(service=DistributionSpec("pareto"))

    def test_horizon_validation(self):
        with pytest.raises(SpecError, match="num_events"):
            HorizonSpec(num_events=0)
        with pytest.raises(SpecError, match="warmup_fraction"):
            HorizonSpec(warmup_fraction=0.95)

    def test_options_must_be_json_compatible(self):
        with pytest.raises(SpecError, match="options"):
            ExperimentSpec.create(num_servers=5, utilization=0.5, callback=print)

    @pytest.mark.parametrize(
        "options",
        [
            {"with_replacement": "false"},
            {"threshold": "x"},
            {"threshold": 0},
            {"threshold": True},
            {"buffer_size": 2.5},
            {"warmup_jobs": -5},
            {"warmup_jobs": 100},  # gone: horizon.warmup_fraction sets the cluster warm-up
            {"start": "warm"},
            {"kernel": 3},
            {"treshold": 3},
            {"kernel": "python"},
        ],
    )
    def test_options_checked_when_the_spec_is_built(self, options):
        name = next(iter(options))
        with pytest.raises(SpecError, match=name):
            ExperimentSpec.create(num_servers=3, utilization=0.5, **options)
        valid = ExperimentSpec.create(num_servers=3, utilization=0.5)
        payload = valid.to_dict()
        payload["options"] = options
        with pytest.raises(SpecError, match=name):
            ExperimentSpec.from_dict(payload)
        with pytest.raises(SpecError, match=name):
            ExperimentSpec.from_json(json.dumps(payload))
        with pytest.raises(SpecError, match=name):
            replace(valid, options=options)

    def test_every_option_accepts_its_values(self):
        spec = ExperimentSpec.create(
            num_servers=3, utilization=0.5, threshold=1, buffer_size=1,
            start="empty", with_replacement=True, kernel="uniformized",
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="JSON"):
            ExperimentSpec.from_json("{not json")

    def test_unknown_top_level_field_rejected(self):
        payload = ExperimentSpec.create(num_servers=5, utilization=0.5).to_dict()
        payload["surprise"] = 1
        with pytest.raises(SpecError, match="surprise"):
            ExperimentSpec.from_dict(payload)


class TestRoundTrip:
    def test_json_round_trip_is_bitwise_identical(self):
        spec = ExperimentSpec.create(
            num_servers=50,
            d=3,
            utilization=0.85,
            policy="jsq",
            num_events=123_456,
            seed=99,
            start="empty",
        )
        text = spec.to_json()
        rebuilt = ExperimentSpec.from_json(text)
        assert rebuilt == spec
        assert rebuilt.to_json() == text

    def test_round_trip_with_scenario_and_workload(self):
        spec = ExperimentSpec(
            system=SystemSpec(num_servers=200, d=2),
            policy="random",
            scenario=ScenarioSpec("flash-crowd", {"peak_utilization": 1.2}),
            seed=7,
        )
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.to_json() == spec.to_json()

    def test_round_trip_normalizes_sequences_to_tuples(self):
        # JSON has no tuples; both construction spellings must compare equal.
        spec = ExperimentSpec.create(
            num_servers=10,
            utilization=0.8,
            service="hyperexponential",
            service_params={"probabilities": [0.9, 0.1], "rates": [1.8, 0.36]},
        )
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.workload.service.params["probabilities"] == (0.9, 0.1)

    def test_to_json_is_canonical(self):
        spec = ExperimentSpec.create(num_servers=5, utilization=0.5)
        payload = json.loads(spec.to_json())
        assert list(payload) == sorted(payload)
        assert payload["system"]["num_servers"] == 5

    def test_specs_are_hashable_free_but_comparable(self):
        a = ExperimentSpec.create(num_servers=5, utilization=0.5)
        b = ExperimentSpec.create(num_servers=5, utilization=0.5)
        c = ExperimentSpec.create(num_servers=6, utilization=0.5)
        assert a == b and a != c


class TestConveniences:
    def test_create_routes_extra_kwargs_to_options(self):
        spec = ExperimentSpec.create(
            num_servers=5, utilization=0.5, threshold=2, start="empty"
        )
        assert spec.options == {"threshold": 2, "start": "empty"}
        assert spec.option("threshold") == 2
        assert spec.option("absent", 42) == 42

    def test_with_seed(self):
        spec = ExperimentSpec.create(num_servers=5, utilization=0.5, seed=1)
        reseeded = spec.with_seed(2)
        assert reseeded.seed == 2
        assert reseeded.system == spec.system

    def test_describe_mentions_the_essentials(self):
        stationary = ExperimentSpec.create(num_servers=50, d=3, utilization=0.85)
        assert "N=50" in stationary.describe()
        assert "d=3" in stationary.describe()
        assert "rho=0.85" in stationary.describe()
        scenario = ExperimentSpec(
            system=SystemSpec(num_servers=10), scenario=ScenarioSpec("ramp")
        )
        assert "scenario=ramp" in scenario.describe()

    def test_specs_pickle(self):
        import pickle

        spec = ExperimentSpec.create(num_servers=5, utilization=0.5, threshold=2)
        assert pickle.loads(pickle.dumps(spec)) == spec
