"""Tests for the repro-lb command-line interface."""

import csv
import json

import pytest

from repro import ExperimentSpec, run
from repro.cli import main


class TestAnalyzeCommand:
    def test_prints_bounds_table(self, capsys):
        exit_code = main(["analyze", "-N", "3", "-d", "2", "-u", "0.7", "-T", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "lower bound" in output
        assert "upper bound" in output
        assert "asymptotic" in output

    def test_reports_unstable_upper_bound(self, capsys):
        main(["analyze", "-N", "3", "-d", "2", "-u", "0.9", "-T", "1"])
        assert "unstable" in capsys.readouterr().out

    def test_with_simulation_and_exact(self, capsys):
        exit_code = main(
            ["analyze", "-N", "3", "-d", "2", "-u", "0.5", "-T", "2", "--simulate", "--events", "30000", "--exact"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "simulation" in output
        assert "exact" in output

    def test_missing_required_arguments(self):
        with pytest.raises(SystemExit):
            main(["analyze", "-N", "3"])

    def test_simulation_and_exact_rows_come_from_the_backends(self, capsys, tmp_path):
        out = tmp_path / "analysis.json"
        main(["analyze", "-N", "3", "-d", "2", "-u", "0.7", "-T", "2", "--simulate",
              "--events", "20000", "--seed", "7", "--exact", "--json", str(out)])
        results = json.loads(out.read_text())["results"]
        spec = ExperimentSpec.create(num_servers=3, d=2, utilization=0.7, num_events=20_000, seed=7)
        assert results["simulation"] == run(spec, backend="fleet").mean_delay
        assert results["exact"] == run(spec, backend="exact").mean_delay

    def test_exact_beyond_its_tractable_pool_size_exits_cleanly(self):
        # The dense exact chain at N=4 would need a 16 GiB generator.
        with pytest.raises(SystemExit, match="N=3"):
            main(["analyze", "-N", "4", "-u", "0.5", "--exact"])


class TestFigureCommands:
    def test_figure9_small_run(self, capsys):
        exit_code = main(
            ["figure9", "-u", "0.75", "--choices", "2", "--servers", "5", "10", "--events", "10000"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 9" in output and "d=2 err%" in output

    def test_figure10_panel_without_simulation(self, capsys):
        exit_code = main(["figure10", "--panel", "a", "--no-simulation"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 10" in output and "N=3" in output

    def test_unknown_panel_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure10", "--panel", "z"])


class TestSweepCommand:
    def test_sweep_with_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        exit_code = main(
            [
                "sweep",
                "--servers", "3",
                "--choices", "2",
                "--utilizations", "0.5", "0.8",
                "--thresholds", "2",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "sweep" in output.lower()
        assert csv_path.exists()
        assert len(json.loads(json_path.read_text())) == 2

    @staticmethod
    def sweep_records(tmp_path, *flags):
        path = tmp_path / "sweep.json"
        assert main(["sweep", *flags, "--json", str(path)]) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (  # d > N is skipped: (N=2, d=3) drops out
                ["--servers", "2", "4", "--choices", "2", "3", "--utilizations", "0.5"],
                [(2, 2, 0.5, 2), (4, 2, 0.5, 2), (4, 3, 0.5, 2)],
            ),
            (  # thresholds are a cartesian axis too
                ["--servers", "3", "--utilizations", "0.3", "0.6", "--thresholds", "1", "2"],
                [(3, 2, 0.3, 1), (3, 2, 0.3, 2), (3, 2, 0.6, 1), (3, 2, 0.6, 2)],
            ),
        ],
        ids=["skips-d-above-n", "cartesian-thresholds"],
    )
    def test_grid_expansion(self, capsys, tmp_path, flags, expected):
        records = self.sweep_records(tmp_path, *flags)
        assert [(r["N"], r["d"], r["utilization"], r["T"]) for r in records] == expected

    def test_rows_carry_the_bounds(self, capsys, tmp_path):
        records = self.sweep_records(tmp_path, "--servers", "3", "--utilizations", "0.4", "0.7")
        assert [record["utilization"] for record in records] == [0.4, 0.7]
        assert all(record["lower_bound"] > 1.0 for record in records)
        assert all(record["simulation"] is None and record["exact"] is None for record in records)

    def test_table_title(self, capsys):
        assert main(["sweep", "--servers", "3", "--utilizations", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "SQ(d) finite-regime sweep" in output and "lower_bound" in output

    @pytest.mark.parametrize("export", ["csv", "json"])
    def test_export_round_trip(self, capsys, tmp_path, export):
        path = tmp_path / f"sweep.{export}"
        main(["sweep", "--servers", "3", "--utilizations", "0.5", "0.8", f"--{export}", str(path)])
        if export == "csv":
            with path.open() as handle:
                # Empty cells are the None columns (simulation, exact).
                rows = [
                    {key: float(value) for key, value in row.items() if value}
                    for row in csv.DictReader(handle)
                ]
        else:
            rows = json.loads(path.read_text())
        assert len(rows) == 2
        assert rows[0]["lower_bound"] > 1.0
        assert rows[1]["utilization"] == pytest.approx(0.8)

    def test_simulation_is_a_fleet_run_seeded_per_point(self, capsys, tmp_path):
        records = self.sweep_records(
            tmp_path, "--servers", "3", "--utilizations", "0.5", "0.8", "--simulate",
            "--events", "20000", "--seed", "7",
        )
        assert [record["simulation"] for record in records] == [
            run(ExperimentSpec.create(num_servers=3, d=2, utilization=rho, num_events=20_000,
                                      seed=7 + index), backend="fleet").mean_delay
            for index, rho in enumerate([0.5, 0.8])
        ]

    @pytest.mark.parametrize("export", ["none", "csv"])
    def test_empty_sweep_exits_cleanly(self, tmp_path, export):
        flags = ["--csv", str(tmp_path / "empty.csv")] if export == "csv" else []
        with pytest.raises(SystemExit, match="no point"):
            main(["sweep", "--servers", "2", "--choices", "3", *flags])
        assert not (tmp_path / "empty.csv").exists()

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestSeedFlags:
    def test_analyze_seed_is_reproducible(self, capsys):
        args = ["analyze", "-N", "3", "-d", "2", "-u", "0.5", "-T", "2", "--simulate",
                "--events", "20000", "--seed", "99"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_sweep_accepts_seed(self, capsys):
        exit_code = main(
            ["sweep", "--servers", "3", "--choices", "2", "--utilizations", "0.5",
             "--thresholds", "2", "--simulate", "--events", "20000", "--seed", "7"]
        )
        assert exit_code == 0
        assert "sweep" in capsys.readouterr().out.lower()


def _simulated_lines(text):
    """Every line but the wall-clock diagnostics (the determinism contract)."""
    return [line for line in text.splitlines() if not line.startswith("wall-clock")]


class TestFleetCommand:
    def test_stationary_run_reports_comparison(self, capsys):
        exit_code = main(
            ["fleet", "-N", "1000", "-d", "2", "-u", "0.9", "--events", "100000", "--seed", "5"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "fleet [estimate]" in output and "mean_delay" in output
        assert "mean-field limit" in output
        assert "relative error of the limit (%)" in output

    def test_comparison_rows_come_from_repro_run(self, capsys):
        from repro.core.asymptotic import relative_error_percent
        from repro.utils.tables import format_table

        assert main(["fleet", "-N", "400", "-d", "3", "-u", "0.85", "--events", "30000",
                     "--seed", "8"]) == 0
        spec = ExperimentSpec.create(num_servers=400, d=3, utilization=0.85, num_events=30_000, seed=8)
        simulated = run(spec, backend="fleet").mean_delay
        limit = run(spec, backend="meanfield").mean_delay
        # Figure 9's relative error: the limit measured against the simulation.
        rows = [
            ["mean-field limit", limit],
            ["relative error of the limit (%)", relative_error_percent(limit, simulated)],
        ]
        table = format_table(["N -> infinity", "value"], rows, title="fleet vs the mean-field limit")
        assert table in capsys.readouterr().out

    def test_seed_is_reproducible(self, capsys):
        args = ["fleet", "-N", "500", "-u", "0.8", "--events", "50000", "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        # Everything except the trailing wall-clock diagnostics line is a
        # deterministic function of the seed.
        assert _simulated_lines(first) == _simulated_lines(second)
        assert any(line.startswith("wall-clock") for line in first.splitlines())

    def test_scenario_run(self, capsys):
        exit_code = main(
            ["fleet", "-N", "500", "--scenario", "flash-crowd", "--seed", "4"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario=flash-crowd" in output
        # One row per phase metric, in playback order (base, spike, recovery).
        delays = [line.split()[0] for line in output.splitlines() if "_mean_delay" in line]
        assert delays == ["phase1_mean_delay", "phase2_mean_delay", "phase3_mean_delay"]
        assert "mean-field limit" not in output  # no limit for a time-varying load

    def test_utilization_required_without_scenario(self):
        with pytest.raises(SystemExit, match="utilization is required"):
            main(["fleet", "-N", "100"])

    def test_scenario_rejects_stationary_flags(self):
        # --utilization/--events/--cold-start set spec fields a scenario run
        # would silently ignore; the spec rejects them by their field names.
        with pytest.raises(SystemExit, match=r"repro-lb fleet: spec\.system\.utilization"):
            main(["fleet", "-N", "100", "--scenario", "constant", "-u", "0.99"])
        with pytest.raises(SystemExit, match=r"repro-lb fleet: spec\.horizon\.num_events"):
            main(["fleet", "-N", "100", "--scenario", "constant", "--events", "1000"])
        with pytest.raises(SystemExit, match=r"repro-lb fleet: spec\.options\['start'\]"):
            main(["fleet", "-N", "100", "--scenario", "constant", "--cold-start"])

    def test_jsq_policy(self, capsys):
        exit_code = main(
            ["fleet", "-N", "200", "-u", "0.7", "--policy", "jsq", "--events", "50000"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "jsq" in output


class TestEnsembleCommand:
    """Replicated runs: ``fleet -K`` with the flags of the former ``ensemble`` command."""

    def test_reports_mean_delay_with_confidence_interval(self, capsys):
        exit_code = main(
            ["fleet", "-N", "300", "-d", "2", "-u", "0.9",
             "--replications", "4", "--events", "20000", "--seed", "5"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mean delay" in output
        assert "±" in output and "95% CI" in output and "4 replications" in output
        verdicts = [line for line in output.splitlines() if "the 95% CI [" in line]
        assert len(verdicts) == 1
        assert verdicts[0].startswith("mean-field limit 2.61406 — ")
        assert " inside the " in verdicts[0] or " outside the " in verdicts[0]

    def test_replicated_run_prints_the_numbers_of_repro_run(self, capsys):
        assert main(["fleet", "-N", "300", "-u", "0.9", "-K", "3", "--events", "20000",
                     "--seed", "17"]) == 0
        output = capsys.readouterr().out
        spec = ExperimentSpec.create(num_servers=300, d=2, utilization=0.9, num_events=20_000, seed=17)
        result = run(spec, backend="fleet", replications=3)
        assert result.as_table() in output
        assert f"mean delay {result}" in output

    def test_seed_is_reproducible(self, capsys):
        args = ["fleet", "-N", "200", "-u", "0.8", "--replications", "2",
                "--events", "10000", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert _simulated_lines(first) == _simulated_lines(second)
        assert any(line.startswith("wall-clock") for line in first.splitlines())

    def test_scenario_ensemble(self, capsys):
        exit_code = main(
            ["fleet", "-N", "200", "--scenario", "constant",
             "--replications", "2", "--seed", "6"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario=constant — 2 replications" in output
        assert "phase1_mean_delay" in output

    def test_single_replication_reports_missing_ci_not_a_verdict(self, capsys):
        exit_code = main(
            ["fleet", "-N", "100", "-u", "0.8", "--replications", "1",
             "--events", "5000", "--seed", "1"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mean-field limit" in output
        assert "±" not in output  # one replication has no interval
        assert "inside" not in output and "outside" not in output  # no interval, no verdict

    def test_target_precision_adds_replications(self, capsys):
        exit_code = main(
            ["fleet", "-N", "100", "-u", "0.7", "--replications", "2",
             "--events", "5000", "--seed", "3",
             "--target-precision", "0.0000001", "--max-replications", "4"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "4 replications" in output

    def test_utilization_required_without_scenario(self):
        with pytest.raises(SystemExit, match="utilization is required"):
            main(["fleet", "-N", "100", "--replications", "2"])

    def test_scenario_rejects_stationary_flags(self):
        with pytest.raises(SystemExit, match=r"repro-lb fleet: spec\.system\.utilization"):
            main(["fleet", "-N", "100", "--scenario", "constant", "-K", "2", "-u", "0.9"])
        with pytest.raises(SystemExit, match=r"repro-lb fleet: spec\.horizon\.num_events"):
            main(["fleet", "-N", "100", "--scenario", "constant", "-K", "2", "--events", "1000"])

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (["-K", "8", "--target-precision", "0.01", "--max-replications", "4"], "max_replications"),
            (["--confidence", "2"], "confidence"),
            (["-w", "0"], "workers"),
        ],
        ids=["cap-below-k", "confidence", "workers"],
    )
    def test_invalid_arguments_exit_with_one_line(self, flags, fragment):
        with pytest.raises(SystemExit, match=f"^repro-lb fleet: {fragment}"):
            main(["fleet", "-N", "100", "-u", "0.9", "--events", "1000", *flags])

    def test_ensemble_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["ensemble", "-N", "100", "-u", "0.9"])
        assert raised.value.code == 2
        assert "invalid choice: 'ensemble'" in capsys.readouterr().err

    def test_figure_commands_accept_replications(self, capsys):
        exit_code = main(
            ["figure9", "-u", "0.75", "--choices", "2", "--servers", "10",
             "--events", "10000", "--replications", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "d=2 ±err%" in output
        exit_code = main(
            ["figure10", "--panel", "a", "--events", "10000", "--replications", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "sim ±CI" in output


class TestRunCommand:
    def _write_spec(self, tmp_path, **overrides):
        from repro import ExperimentSpec

        kwargs = dict(num_servers=50, utilization=0.8, num_events=5_000, seed=11)
        kwargs.update(overrides)
        spec = ExperimentSpec.create(**kwargs)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(indent=2))
        return path

    def test_runs_a_spec_file_with_auto_backend(self, capsys, tmp_path):
        path = self._write_spec(tmp_path)
        exit_code = main(["run", "--spec", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "fleet" in output and "mean_delay" in output
        assert "wall-clock" in output

    def test_explicit_backend_and_replications(self, capsys, tmp_path):
        path = self._write_spec(tmp_path, num_jobs=5_000)
        exit_code = main(
            ["run", "--spec", str(path), "--backend", "cluster", "--replications", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "cluster" in output and "95% CI" in output

    def test_json_export_shares_the_result_schema(self, capsys, tmp_path):
        path = self._write_spec(tmp_path)
        out = tmp_path / "result.json"
        exit_code = main(["run", "--spec", str(path), "--json", str(out)])
        assert exit_code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["backend"] == "fleet"
        assert payload["spec"]["system"]["num_servers"] == 50
        assert payload["mean_delay"] > 1.0

    def test_missing_spec_file_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["run", "--spec", "/nonexistent/spec.json"])

    def test_incapable_backend_is_a_clean_error(self, tmp_path):
        path = self._write_spec(tmp_path)
        with pytest.raises(SystemExit, match="cannot run this spec"):
            main(["run", "--spec", str(path), "--backend", "exact"])

    def test_malformed_spec_is_a_clean_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": {"num_servers": -3}}')
        with pytest.raises(SystemExit, match="num_servers"):
            main(["run", "--spec", str(path)])

    def test_invalid_run_arguments_are_a_clean_error(self, tmp_path):
        path = self._write_spec(tmp_path)
        with pytest.raises(SystemExit, match="^repro-lb run: workers"):
            main(["run", "--spec", str(path), "-w", "0"])
        with pytest.raises(SystemExit, match="^repro-lb run: confidence"):
            main(["run", "--spec", str(path), "--confidence", "1.5"])

    def test_table_holds_no_wall_clock_number(self, capsys, tmp_path):
        main(["run", "--spec", str(self._write_spec(tmp_path))])
        output = capsys.readouterr().out
        assert "events_per_second" not in output and "wall_seconds" not in output


class TestOneLineErrors:
    """Out-of-range input ends any command in one line, not a traceback."""

    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (["analyze", "-N", "3", "-u", "1.5"], "repro-lb analyze: model is unstable"),
            (["sweep", "--servers", "3", "--utilizations", "1.5"],
             "repro-lb sweep: model is unstable"),
            (["figure9", "-u", "1.5", "--servers", "10", "--events", "1000"],
             "repro-lb figure9: utilization must be in"),
            (["figure10", "--events", "0"], "repro-lb figure10: horizon.num_events"),
            (["campaign", "run", "--dir", "{tmp}", "--servers", "0", "--utilizations", "0.8",
              "--events", "100"], "repro-lb campaign run: N must be >= 1"),
        ],
        ids=["analyze", "sweep", "figure9", "figure10", "campaign-run"],
    )
    def test_validation_error_exits_with_the_command_and_message(self, argv, prefix, tmp_path):
        argv = [arg.format(tmp=tmp_path / "campaign") for arg in argv]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        message = raised.value.code
        assert isinstance(message, str) and message.startswith(prefix)
        assert "\n" not in message


class TestBackendsCommand:
    def test_lists_all_five_backends(self, capsys):
        exit_code = main(["backends"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "ctmc" not in output
        for name in ("qbd_bounds", "exact", "cluster", "fleet", "meanfield"):
            assert name in output
        assert "answer" in output and "policies" in output


class TestJsonExports:
    def test_analyze_json_export(self, capsys, tmp_path):
        out = tmp_path / "analysis.json"
        exit_code = main(
            ["analyze", "-N", "3", "-d", "2", "-u", "0.7", "-T", "2", "--json", str(out)]
        )
        assert exit_code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["command"] == "analyze"
        assert payload["results"]["lower_bound"] > 1.0
        assert payload["results"]["N"] == 3
        assert "provenance" in payload

    #: Top-level keys of ``RunResult.to_dict()``, the one result schema.
    RUN_RESULT_KEYS = {
        "spec", "backend", "answer", "mean_delay", "half_width", "confidence",
        "replications", "extras", "records", "provenance", "wall_seconds",
    }

    def test_fleet_json_export(self, capsys, tmp_path):
        out = tmp_path / "fleet.json"
        exit_code = main(
            ["fleet", "-N", "200", "-u", "0.8", "--events", "20000",
             "--seed", "5", "--json", str(out)]
        )
        assert exit_code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert set(payload) == self.RUN_RESULT_KEYS
        assert payload["backend"] == "fleet" and payload["replications"] == 1
        assert payload["spec"]["system"]["num_servers"] == 200
        spec = ExperimentSpec.create(num_servers=200, utilization=0.8, num_events=20_000, seed=5)
        assert ExperimentSpec.from_dict(payload["spec"]) == spec
        assert payload["mean_delay"] == run(spec, backend="fleet").mean_delay

    def test_fleet_scenario_json_export(self, capsys, tmp_path):
        out = tmp_path / "scenario.json"
        exit_code = main(
            ["fleet", "-N", "100", "--scenario", "constant", "--seed", "4",
             "--json", str(out)]
        )
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == self.RUN_RESULT_KEYS
        assert payload["spec"]["scenario"]["name"] == "constant"
        assert payload["extras"]["phase1_mean_delay"] > 0.0
