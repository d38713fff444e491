"""Command-line interface for the library.

Installed as the ``repro-lb`` console script; also runnable as
``python -m repro.cli``.  Subcommands:

* ``run``       — execute a JSON experiment spec on any registered backend,
* ``backends``  — list the registered backends and their capabilities,
* ``analyze``   — bounds / asymptotics for one configuration, plus optional
  ``fleet`` simulation and ``exact`` rows through :func:`repro.run`,
* ``figure9``   — regenerate one panel of the paper's Figure 9,
* ``figure10``  — regenerate one panel of the paper's Figure 10,
* ``sweep``     — ``analyze`` over a custom ``(N, d, rho, T)`` grid, exported as
  CSV/JSON,
* ``fleet``     — occupancy-based large-N simulation or scenario playback,
  optionally replicated with confidence intervals, next to the mean-field
  limit,
* ``trace``     — trace-driven workloads: ``trace stats`` (burstiness
  summary of a trace file), ``trace fit`` (fit an analyzable arrival model
  and emit a runnable spec), ``trace run`` (replay a trace through the
  cluster simulator),
* ``campaign``  — durable, resumable sweep campaigns: ``campaign run``
  (create a campaign directory and drive it), ``campaign status``
  (read-only progress snapshot), ``campaign resume`` (finish an
  interrupted campaign; results are bitwise identical to an
  uninterrupted run).

``analyze``, ``sweep`` and ``fleet`` take every simulated, exact or limit
number from :func:`repro.run` (``fleet`` is a spec builder over it, and its
``--json`` is ``run --json``'s ``RunResult``);
:func:`repro.core.analysis.analyze_sqd` supplies only the bounds and the
asymptote.  Every ``--json <path>`` export goes through one shared
serialization helper (:mod:`repro.api.serialize`), so every machine-readable
result file follows the same dialect.

Every line of simulation output is a deterministic function of the seed;
wall-clock diagnostics (elapsed seconds) are printed on separate lines
prefixed ``wall-clock`` so scripted comparisons can filter them.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.api import (
    DistributionSpec,
    ExperimentSpec,
    WorkloadSpec,
    backend_capabilities,
    run,
    write_json,
)
from repro.core.analysis import analyze_sqd
from repro.core.asymptotic import relative_error_percent
from repro.ensemble.results import provenance
from repro.experiments.figure9 import Figure9Config, run_figure9
from repro.experiments.figure10 import panel_config, run_figure10
from repro.fleet.scenarios import available_scenarios
from repro.utils.tables import format_table
from repro.utils.validation import ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lb",
        description="Finite-regime delay bounds for SQ(d) randomized load balancing (ICDCS 2016 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="execute a JSON experiment spec on any registered backend"
    )
    run_parser.add_argument("--spec", type=str, required=True,
                            help="path to an ExperimentSpec JSON file (see docs/api.md)")
    run_parser.add_argument("--backend", type=str, default="auto",
                            help="backend name, or 'auto' for the cheapest capable engine")
    run_parser.add_argument("--replications", "-K", type=int, default=None,
                            help="independent replications (>= 2 adds confidence intervals)")
    run_parser.add_argument("--workers", "-w", type=int, default=1, help="worker processes")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the spec's seed for this run")
    run_parser.add_argument("--confidence", type=float, default=0.95, help="two-sided CI level")
    run_parser.add_argument("--json", type=str, default=None,
                            help="write the full RunResult to this JSON file")

    subparsers.add_parser("backends", help="list registered backends and their capabilities")

    analyze = subparsers.add_parser("analyze", help="bounds and baselines for one configuration")
    analyze.add_argument("--servers", "-N", type=int, required=True, help="number of servers N")
    analyze.add_argument("--choices", "-d", type=int, default=2, help="number of polled servers d")
    analyze.add_argument("--utilization", "-u", type=float, required=True, help="per-server load rho")
    analyze.add_argument("--threshold", "-T", type=int, default=3, help="imbalance threshold T of the bound models")
    analyze.add_argument("--simulate", action="store_true", help="also run a fleet simulation")
    analyze.add_argument("--events", type=int, default=200_000, help="simulated events when --simulate is given")
    analyze.add_argument("--exact", action="store_true", help="also solve the truncated exact chain (small N only)")
    analyze.add_argument("--seed", type=int, default=12345, help="simulation seed for reproducible runs")
    analyze.add_argument("--arrival", choices=["poisson", "erlang", "hyperexponential", "mmpp2"],
                         default="poisson",
                         help="arrival process for the Theorem 2 asymptotics "
                              "(sigma root, decay factor, improved lower bound)")
    analyze.add_argument("--arrival-param", action="append", default=[], metavar="KEY=VALUE",
                         help="arrival shape parameter, repeatable — e.g. "
                              "--arrival-param stages=4, or the mmpp2 shape "
                              "rate_high/rate_low/switch_to_low/switch_to_high")
    analyze.add_argument("--json", type=str, default=None,
                         help="also write the analysis to this JSON file")

    figure9 = subparsers.add_parser("figure9", help="relative error of the asymptotic delay vs simulation")
    figure9.add_argument("--utilization", "-u", type=float, default=0.95, help="per-server load rho")
    figure9.add_argument("--choices", type=int, nargs="+", default=[2, 5, 10, 25, 50])
    figure9.add_argument("--servers", type=int, nargs="+", default=[10, 25, 50, 100, 175, 250])
    figure9.add_argument("--events", type=int, default=120_000, help="simulated events per point")
    figure9.add_argument("--replications", type=int, default=1,
                         help="independent replications per point (>= 2 adds CI half-widths)")
    figure9.add_argument("--workers", type=int, default=1, help="worker processes for the replications")

    figure10 = subparsers.add_parser("figure10", help="average delay vs utilization for SQ(2)")
    figure10.add_argument("--panel", choices=["a", "b", "c", "d"], default="a", help="paper panel: a=(3,2) b=(3,3) c=(6,3) d=(12,3)")
    figure10.add_argument("--events", type=int, default=120_000, help="simulated events per point")
    figure10.add_argument("--no-simulation", action="store_true", help="skip the simulation curve")
    figure10.add_argument("--replications", type=int, default=1,
                          help="independent replications per point (>= 2 adds CI half-widths)")
    figure10.add_argument("--workers", type=int, default=1, help="worker processes for the replications")

    sweep = subparsers.add_parser("sweep", help="custom (N, d, rho, T) sweep with CSV/JSON export")
    sweep.add_argument("--servers", type=int, nargs="+", default=[3, 6])
    sweep.add_argument("--choices", type=int, nargs="+", default=[2])
    sweep.add_argument("--utilizations", type=float, nargs="+", default=[0.5, 0.7, 0.9])
    sweep.add_argument("--thresholds", type=int, nargs="+", default=[2])
    sweep.add_argument("--simulate", action="store_true")
    sweep.add_argument("--events", type=int, default=100_000)
    sweep.add_argument("--csv", type=str, default=None, help="write results to this CSV file")
    sweep.add_argument("--json", type=str, default=None, help="write results to this JSON file")
    sweep.add_argument("--seed", type=int, default=20160627, help="base simulation seed for reproducible runs")

    fleet = subparsers.add_parser(
        "fleet",
        help="occupancy-based large-N fleet simulation (replicated, or a scenario) "
             "vs the mean-field limit",
    )
    fleet.add_argument("--servers", "-N", type=int, required=True, help="number of servers N (up to ~10^6)")
    fleet.add_argument("--choices", "-d", type=int, default=2, help="number of polled servers d")
    fleet.add_argument("--utilization", "-u", type=float, default=None,
                       help="per-server load rho (required unless --scenario is given)")
    fleet.add_argument("--policy", choices=["sqd", "jsq", "random"], default="sqd", help="dispatching policy")
    fleet.add_argument("--events", type=int, default=None,
                       help="simulated events per replication (default max(400000, 10N))")
    fleet.add_argument("--scenario", choices=available_scenarios(), default=None,
                       help="play a time-varying scenario instead of a stationary run")
    fleet.add_argument("--cold-start", action="store_true",
                       help="start from an empty cluster instead of the mean-field profile")
    fleet.add_argument("--replications", "-K", type=int, default=1,
                       help="independent replications (>= 2 adds confidence intervals)")
    fleet.add_argument("--workers", "-w", type=int, default=1, help="worker processes")
    fleet.add_argument("--seed", type=int, default=12345,
                       help="simulation seed (replication seeds are derived from it)")
    fleet.add_argument("--confidence", type=float, default=0.95, help="two-sided CI level")
    fleet.add_argument("--target-precision", type=float, default=None,
                       help="relative CI half-width to stop at (adds replications adaptively)")
    fleet.add_argument("--max-replications", type=int, default=64,
                       help="replication cap for --target-precision")
    fleet.add_argument("--json", type=str, default=None,
                       help="write the full RunResult to this JSON file")

    trace = subparsers.add_parser(
        "trace",
        help="trace-driven workloads: burstiness statistics, model fitting, replay",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    trace_stats = trace_commands.add_parser(
        "stats", help="burstiness summary of a trace file (rate, SCV, autocorrelation, IDC)"
    )
    trace_stats.add_argument("--trace", type=str, required=True,
                             help="trace file (.csv, .jsonl or .npz; see docs/traces.md)")
    trace_stats.add_argument("--lags", type=int, nargs="+", default=[1, 2, 5, 10],
                             help="autocorrelation lags to report")
    trace_stats.add_argument("--json", type=str, default=None,
                             help="also write the summary to this JSON file")

    trace_fit = trace_commands.add_parser(
        "fit", help="fit an analyzable arrival model and emit a runnable experiment spec"
    )
    trace_fit.add_argument("--trace", type=str, required=True, help="trace file to fit")
    trace_fit.add_argument("--family", choices=["auto", "mmpp2", "hyperexponential", "erlang", "poisson"],
                           default="auto", help="arrival family (auto picks by burstiness)")
    trace_fit.add_argument("--servers", "-N", type=int, required=True,
                           help="pool size N of the emitted spec")
    trace_fit.add_argument("--choices", "-d", type=int, default=2, help="polled servers d")
    trace_fit.add_argument("--policy", default="sqd", help="dispatching policy of the spec")
    trace_fit.add_argument("--service-rate", type=float, default=1.0,
                           help="per-server service rate mu (sets rho = rate / (N mu))")
    trace_fit.add_argument("--jobs", type=int, default=None,
                           help="job horizon stored in the spec (cluster backend)")
    trace_fit.add_argument("--seed", type=int, default=12345, help="seed stored in the spec")
    trace_fit.add_argument("--spec-out", type=str, default=None,
                           help="write the fitted ExperimentSpec JSON here "
                                "(ready for `repro-lb run --spec`)")
    trace_fit.add_argument("--json", type=str, default=None,
                           help="also write the fit diagnostics to this JSON file")

    trace_run = trace_commands.add_parser(
        "run", help="replay a trace through the cluster simulator via repro.run"
    )
    trace_run.add_argument("--trace", type=str, required=True, help="trace file to replay")
    trace_run.add_argument("--servers", "-N", type=int, required=True, help="pool size N")
    trace_run.add_argument("--choices", "-d", type=int, default=2, help="polled servers d")
    trace_run.add_argument("--policy", default="sqd", help="dispatching policy")
    trace_run.add_argument("--utilization", "-u", type=float, default=None,
                           help="replay rescaled to this per-server load "
                                "(default: the load the trace's own rate implies)")
    trace_run.add_argument("--service-rate", type=float, default=1.0,
                           help="per-server service rate mu")
    trace_run.add_argument("--jobs", type=int, default=None, help="jobs to simulate")
    trace_run.add_argument("--replications", "-K", type=int, default=None,
                           help="independent replications (service/policy streams re-seeded; "
                                "the arrival sequence is the trace, replayed identically)")
    trace_run.add_argument("--workers", "-w", type=int, default=1, help="worker processes")
    trace_run.add_argument("--seed", type=int, default=12345, help="base seed")
    trace_run.add_argument("--json", type=str, default=None,
                           help="write the full RunResult to this JSON file")

    campaign = subparsers.add_parser(
        "campaign",
        help="durable, resumable sweep campaigns with adaptive replication allocation",
    )
    campaign_commands = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_commands.add_parser(
        "run", help="create a campaign directory for a sweep grid and drive it"
    )
    campaign_run.add_argument("--dir", type=str, required=True,
                              help="campaign directory (manifest, journal, records)")
    campaign_run.add_argument("--servers", "-N", type=int, nargs="+", default=[100, 1000],
                              help="swept pool sizes N")
    campaign_run.add_argument("--choices", "-d", type=int, nargs="+", default=[2],
                              help="swept poll counts d")
    campaign_run.add_argument("--utilizations", "-u", type=float, nargs="+", default=[0.9],
                              help="swept per-server loads rho")
    campaign_run.add_argument("--policy", choices=["sqd", "jsq", "random"], default="sqd",
                              help="dispatching policy for every point")
    campaign_run.add_argument("--events", type=int, default=200_000,
                              help="simulated events per replication")
    campaign_run.add_argument("--replications", "-K", type=int, default=4,
                              help="initial replications per grid point")
    campaign_run.add_argument("--workers", "-w", type=int, default=1, help="worker processes")
    campaign_run.add_argument("--seed", type=int, default=12345,
                              help="grid seed (per-point seeds are content-derived)")
    campaign_run.add_argument("--confidence", type=float, default=0.95,
                              help="two-sided CI level of the per-point intervals")
    campaign_run.add_argument("--target-precision", type=float, default=None,
                              help="per-point relative CI half-width to stop at "
                                   "(extra replications go where intervals are widest)")
    campaign_run.add_argument("--max-replications", type=int, default=64,
                              help="per-point replication cap for --target-precision")
    campaign_run.add_argument("--batch-size", type=int, default=4,
                              help="replications enqueued per adaptive extension round")
    campaign_run.add_argument("--max-tasks", type=int, default=None,
                              help="stop (durably) after this many task completions; "
                                   "finish later with `campaign resume`")
    campaign_run.add_argument("--task-timeout", type=float, default=None,
                              help="per-task wall-clock watchdog in seconds: a worker "
                                   "silent past this while holding tasks is presumed "
                                   "hung, killed, and its tasks re-queued (default: off)")
    campaign_run.add_argument("--quarantine-after", type=int, default=3,
                              help="a task that kills its worker this many times is "
                                   "quarantined and the campaign completes degraded "
                                   "instead of crash-looping")

    campaign_status_parser = campaign_commands.add_parser(
        "status", help="read-only progress snapshot of a campaign directory"
    )
    campaign_status_parser.add_argument("--dir", type=str, required=True, help="campaign directory")
    campaign_status_parser.add_argument("--json", type=str, default=None,
                                        help="also write the snapshot to this JSON file")

    campaign_resume = campaign_commands.add_parser(
        "resume", help="resume an interrupted campaign from its directory"
    )
    campaign_resume.add_argument("--dir", type=str, required=True, help="campaign directory")
    campaign_resume.add_argument("--workers", "-w", type=int, default=None,
                                 help="worker processes (default: the manifest's)")
    campaign_resume.add_argument("--max-tasks", type=int, default=None,
                                 help="stop again after this many task completions")

    return parser


def _report(result, args: argparse.Namespace, *blocks: str) -> int:
    """Print one ``RunResult`` the way every spec-running command does."""
    print(result.as_table())
    print(f"mean delay {result}")
    for block in blocks:
        print(block)
    if args.json:
        print(f"wrote {result.write_json(args.json)}")
    print(f"wall-clock: {result.wall_seconds:.2f}s on {args.workers} worker(s)")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise SystemExit(f"repro-lb run: spec file not found: {spec_path}")
    spec = ExperimentSpec.from_json(spec_path.read_text(encoding="utf-8"))
    result = run(
        spec,
        backend=args.backend,
        replications=args.replications,
        workers=args.workers,
        confidence=args.confidence,
        seed=args.seed,
    )
    return _report(result, args)


def _command_backends(args: argparse.Namespace) -> int:
    rows = []
    for name, capabilities in backend_capabilities().items():
        n_range = f"{capabilities.min_servers}..{capabilities.max_servers or 'inf'}"
        rows.append(
            [
                name,
                capabilities.answer,
                "yes" if capabilities.deterministic else "no",
                "yes" if capabilities.supports_scenarios else "no",
                n_range,
                " ".join(capabilities.policies),
                " ".join(capabilities.arrivals),
                " ".join(capabilities.services),
            ]
        )
    print(
        format_table(
            ["backend", "answer", "deterministic", "scenarios", "N range", "policies",
             "arrivals", "services"],
            rows,
            title="registered backends (auto picks the cheapest capable estimator)",
        )
    )
    return 0


def _parse_param_pairs(pairs: Sequence[str], what: str) -> dict:
    """``KEY=VALUE`` flags into a params dict (ints, then floats, then strings)."""
    params = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key.strip():
            raise SystemExit(f"{what}: expected KEY=VALUE, got {pair!r}")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key.strip()] = value
    return params


def _arrival_asymptotics(args: argparse.Namespace) -> dict:
    """Theorem 2 asymptotics of a non-Poisson arrival spec (``analyze --arrival``).

    Builds the arrival process exactly as the engines would — through the
    workload spec layer — then reports the GI/M/1-type sigma root, the
    ``sigma^N`` decay factor, the improved lower bound it induces, and (for
    MAPs) the analytic burstiness statistics.
    """
    from repro.api.engines import build_arrival_process
    from repro.core.improved_lower import solve_improved_lower_bound
    from repro.core.model import SQDModel
    from repro.markov.arrival_processes import (
        MarkovianArrivalProcess,
        beta_coefficients,
        solve_sigma,
    )

    from repro.linalg.logarithmic_reduction import QBDSolveError

    params = _parse_param_pairs(args.arrival_param, "repro-lb analyze --arrival-param")
    workload = WorkloadSpec(arrival=DistributionSpec(args.arrival, params))
    total_rate = args.utilization * args.servers
    process = build_arrival_process(workload.arrival, total_rate)
    sigma = solve_sigma(process, service_rate=float(args.servers))
    decay = sigma ** args.servers
    betas = beta_coefficients(process, service_rate=float(args.servers), max_k=8)
    model = SQDModel(num_servers=args.servers, d=args.choices, utilization=args.utilization)
    try:
        improved = solve_improved_lower_bound(model, args.threshold, decay_factor=decay)
        lower_bound = improved.mean_delay
    except QBDSolveError:
        # Bursty inputs can push the decay factor beyond where the scalar-
        # geometric boundary solve keeps positivity — report the root and
        # flag the bound instead of crashing.
        lower_bound = None
    rows = [
        ["sigma (Thm 2 root)", sigma],
        ["decay factor sigma^N", decay],
        [
            "improved lower bound (Thm 2)",
            "not computable (boundary solve fails at this decay)"
            if lower_bound is None
            else lower_bound,
        ],
    ]
    payload = {
        "arrival": workload.arrival.to_dict(),
        "sigma": sigma,
        "decay_factor": decay,
        "improved_lower_bound": lower_bound,
        "beta_coefficients": betas,
    }
    if isinstance(process, MarkovianArrivalProcess):
        rows.extend(
            [
                ["interarrival SCV", process.interarrival_scv],
                ["lag-1 autocorrelation", process.lag_autocorrelation(1)],
                ["IDC (limit)", process.asymptotic_idc()],
            ]
        )
        payload.update(
            {
                "interarrival_scv": process.interarrival_scv,
                "lag1_autocorrelation": process.lag_autocorrelation(1),
                "asymptotic_idc": process.asymptotic_idc(),
            }
        )
    print(
        format_table(
            ["statistic", "value"],
            rows,
            title=f"{args.arrival} arrivals: Theorem 2 asymptotics (renewal "
            "approximation for MAPs)",
        )
    )
    return payload


def _command_analyze(args: argparse.Namespace) -> int:
    analysis = analyze_sqd(
        num_servers=args.servers,
        d=args.choices,
        utilization=args.utilization,
        threshold=args.threshold,
    )
    results = analysis.summary_row()

    def mean_delay_on(backend: str) -> float:
        spec = ExperimentSpec.create(
            num_servers=args.servers,
            d=args.choices,
            utilization=args.utilization,
            num_events=args.events,
            seed=args.seed,
        )
        return run(spec, backend=backend).mean_delay

    results["exact"] = mean_delay_on("exact") if args.exact else None
    results["simulation"] = mean_delay_on("fleet") if args.simulate else None
    rows = [
        ["asymptotic (Eq. 16)", analysis.asymptotic_delay],
        ["lower bound (Thm 3)", analysis.lower_delay],
    ]
    if results["exact"] is not None:
        rows.append(["exact (truncated)", results["exact"]])
    if results["simulation"] is not None:
        rows.append(["simulation", results["simulation"]])
    rows.append(
        ["upper bound (Thm 1)", analysis.upper_delay if analysis.upper_delay is not None else "unstable"]
    )
    title = (
        f"SQ({args.choices}) with N={args.servers}, rho={args.utilization}, T={args.threshold}: "
        "mean delay (sojourn time)"
    )
    print(format_table(["method", "mean delay"], rows, title=title))
    arrival_payload = None
    if args.arrival != "poisson" or args.arrival_param:
        arrival_payload = _arrival_asymptotics(args)
    if args.json:
        payload = {
            "command": "analyze",
            "parameters": {
                "num_servers": args.servers,
                "d": args.choices,
                "utilization": args.utilization,
                "threshold": args.threshold,
                "seed": args.seed if args.simulate else None,
                "simulation_events": args.events if args.simulate else None,
            },
            "results": results,
            "upper_bound_unstable": analysis.upper_bound_unstable,
            "provenance": provenance(),
        }
        if arrival_payload is not None:
            payload["arrival_asymptotics"] = arrival_payload
        print(f"wrote {write_json(args.json, payload)}")
    return 0


def _command_figure9(args: argparse.Namespace) -> int:
    config = Figure9Config(
        utilization=args.utilization,
        choices=tuple(args.choices),
        server_counts=tuple(args.servers),
        num_events=args.events,
        replications=args.replications,
        workers=args.workers,
    )
    print(run_figure9(config).as_table())
    return 0


def _command_figure10(args: argparse.Namespace) -> int:
    config = panel_config(
        args.panel,
        simulation_events=args.events,
        replications=args.replications,
        workers=args.workers,
    )
    if args.no_simulation:
        config = replace(config, run_simulation=False)
    print(run_figure10(config).as_table())
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    points = [
        (n, d, utilization, threshold)
        for n, d, utilization, threshold in itertools.product(
            args.servers, args.choices, args.utilizations, args.thresholds
        )
        if d <= n
    ]
    if not points:
        raise SystemExit("repro-lb sweep: no point to sweep (every --choices d exceeds every --servers N)")
    records = []
    for index, (n, d, utilization, threshold) in enumerate(points):
        record = analyze_sqd(num_servers=n, d=d, utilization=utilization, threshold=threshold).summary_row()
        record["simulation"] = None
        if args.simulate:
            spec = ExperimentSpec.create(
                num_servers=n, d=d, utilization=utilization, num_events=args.events, seed=args.seed + index
            )
            record["simulation"] = run(spec, backend="fleet").mean_delay
        record["exact"] = None  # the column `analyze --exact` fills; sweeps never solve it
        records.append(record)
    headers = list(records[0])
    rows = [[record[h] for h in headers] for record in records]
    print(format_table(headers, rows, title="SQ(d) finite-regime sweep"))
    if args.csv:
        path = Path(args.csv)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=headers)
            writer.writeheader()
            writer.writerows(records)
        print(f"wrote {path}")
    if args.json:
        print(f"wrote {write_json(args.json, records)}")
    return 0


def _command_fleet(args: argparse.Namespace) -> int:
    stationary = args.scenario is None
    events = args.events
    if stationary and events is None:
        events = max(400_000, 10 * args.servers)
    spec = ExperimentSpec.create(
        num_servers=args.servers,
        d=args.choices,
        utilization=args.utilization,
        policy=args.policy,
        scenario=args.scenario,
        num_events=events,
        seed=args.seed,
        **({"start": "empty"} if args.cold_start else {}),
    )
    result = run(
        spec,
        backend="fleet",
        replications=args.replications,
        workers=args.workers,
        confidence=args.confidence,
        target_relative_half_width=args.target_precision,
        max_replications=args.max_replications,
    )
    # The N -> infinity limit answers stationary runs only.
    limit = run(spec, backend="meanfield").mean_delay if stationary else None
    if limit is None:
        return _report(result, args)
    rows = [
        ["mean-field limit", limit],
        # Figure 9's definition: the limit's error relative to the simulation.
        ["relative error of the limit (%)", relative_error_percent(limit, result.mean_delay)],
    ]
    comparison = format_table(["N -> infinity", "value"], rows, title="fleet vs the mean-field limit")
    if math.isfinite(result.half_width):
        low, high = result.confidence_interval()
        verdict = "inside" if low <= limit <= high else "outside"
        comparison += (
            f"\nmean-field limit {limit:.6g} — {verdict} the {result.confidence:.0%} CI "
            f"[{low:.6g}, {high:.6g}]"
        )
    return _report(result, args, comparison)


def _command_trace(args: argparse.Namespace) -> int:
    from repro.traces import ArrivalTrace, fit_arrival, summarize_trace

    trace = ArrivalTrace.load(args.trace)
    trace_path = Path(args.trace).resolve()

    if args.trace_command == "stats":
        summary = summarize_trace(trace, lags=args.lags)
        print(summary.as_table(title=f"{trace_path.name}: burstiness summary"))
        if trace.meta:
            for key in sorted(trace.meta):
                print(f"meta {key}: {trace.meta[key]}")
        if args.json:
            payload = {
                "command": "trace stats",
                "trace": str(trace_path),
                "meta": trace.meta,
                "results": summary.to_dict(),
                "provenance": provenance(),
            }
            print(f"wrote {write_json(args.json, payload)}")
        return 0

    if args.trace_command == "fit":
        fit = fit_arrival(trace, family=args.family)
        spec = fit.experiment_spec(
            num_servers=args.servers,
            d=args.choices,
            policy=args.policy,
            service_rate=args.service_rate,
            num_jobs=args.jobs,
            seed=args.seed,
        )
        print(fit.as_table())
        print(f"spec: {spec.describe()} (rho = {spec.system.utilization:.6g})")
        if args.spec_out:
            spec_path = Path(args.spec_out)
            spec_path.parent.mkdir(parents=True, exist_ok=True)
            spec_path.write_text(spec.to_json(indent=2) + "\n", encoding="utf-8")
            print(f"wrote {spec_path}")
        if args.json:
            payload = {
                "command": "trace fit",
                "trace": str(trace_path),
                "family": fit.family,
                "converged": fit.converged,
                "target": dict(fit.target),
                "achieved": dict(fit.achieved),
                "spec": spec.to_dict(),
                "provenance": provenance(),
            }
            print(f"wrote {write_json(args.json, payload)}")
        return 0

    # trace run: replay through the cluster DES via repro.run.
    mu = args.service_rate
    if args.utilization is not None:
        utilization = args.utilization
    else:
        utilization = trace.rate / (args.servers * mu)
        if not 0.0 < utilization < 1.0:
            raise SystemExit(
                f"repro-lb trace run: the trace's rate implies rho = {utilization:.4g} "
                f"on N={args.servers} at mu={mu:g}; pass --utilization (the replay is "
                "rescaled) or resize the pool"
            )
    spec = ExperimentSpec.create(
        num_servers=args.servers,
        d=args.choices,
        utilization=utilization,
        service_rate=mu,
        arrival="trace",
        arrival_params={"path": str(trace_path)},
        policy=args.policy,
        num_jobs=args.jobs,
        seed=args.seed,
    )
    result = run(
        spec,
        backend="cluster",
        replications=args.replications,
        workers=args.workers,
    )
    return _report(result, args)


def _raise_keyboard_interrupt(signum, frame):  # noqa: ARG001 - handler shape
    raise KeyboardInterrupt


def _command_campaign(args: argparse.Namespace) -> int:
    from repro.campaigns import (
        CampaignError,
        campaign_status,
        resume_campaign,
        run_campaign,
    )
    from repro.campaigns.manifest import MANIFEST_FILENAME
    from repro.ensemble.grid import GridConfig

    directory = Path(args.dir)
    if args.campaign_command in ("run", "resume"):
        # SIGTERM (systemd stop, `timeout`, a batch scheduler preemption)
        # gets the same graceful path as Ctrl-C: the scheduler stops
        # feeding, workers finish their task in flight, and the campaign
        # directory is left cleanly resumable.
        signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    try:
        if args.campaign_command == "run":
            if (directory / MANIFEST_FILENAME).exists():
                raise SystemExit(
                    f"repro-lb campaign run: {directory} already holds a campaign — "
                    "use `repro-lb campaign resume --dir ...` to continue it, or pick "
                    "a fresh directory"
                )
            grid = GridConfig(
                server_counts=tuple(args.servers),
                choices=tuple(args.choices),
                utilizations=tuple(args.utilizations),
                policy=args.policy,
                num_events=args.events,
                replications=args.replications,
                workers=args.workers,
                seed=args.seed,
                confidence=args.confidence,
            )
            result = run_campaign(
                grid=grid,
                directory=directory,
                target_relative_half_width=args.target_precision,
                max_replications=args.max_replications,
                batch_size=args.batch_size,
                task_timeout_seconds=args.task_timeout,
                quarantine_after=args.quarantine_after,
                max_tasks=args.max_tasks,
            )
        elif args.campaign_command == "resume":
            result = resume_campaign(
                directory, workers=args.workers, max_tasks=args.max_tasks
            )
        else:  # status
            snapshot = campaign_status(directory)
            print(snapshot.as_table())
            if args.json:
                payload = {
                    "directory": str(snapshot.directory),
                    "grid_digest": snapshot.grid_digest,
                    "counts": dict(snapshot.counts),
                    "complete": snapshot.complete,
                    "status": snapshot.status,
                    "quarantined": list(snapshot.quarantined),
                    "points": [point.summary_row() for point in snapshot.points],
                }
                print(f"wrote {write_json(args.json, payload)}")
            return 0
    except CampaignError as error:
        raise SystemExit(f"repro-lb campaign {args.campaign_command}: {error}")
    print(result.as_table())
    if not result.complete:
        print(
            f"interrupted after {result.executed_tasks} task(s); "
            f"resume with: repro-lb campaign resume --dir {directory}"
        )
    elif result.quarantined:
        print(
            f"degraded: {len(result.quarantined)} poison task(s) quarantined "
            f"(details in {directory / 'quarantined.jsonl'})"
        )
    print(f"wall-clock: {result.wall_seconds:.2f}s")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-lb`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _command_run,
        "backends": _command_backends,
        "analyze": _command_analyze,
        "figure9": _command_figure9,
        "figure10": _command_figure10,
        "sweep": _command_sweep,
        "fleet": _command_fleet,
        "trace": _command_trace,
        "campaign": _command_campaign,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as error:
        # Out-of-range input of any command (SpecError and the trace errors
        # are ValidationErrors too) ends in one line, not a traceback.
        subcommand = getattr(args, f"{args.command}_command", None)
        prefix = " ".join(filter(None, ("repro-lb", args.command, subcommand)))
        raise SystemExit(f"{prefix}: {error}")


if __name__ == "__main__":
    sys.exit(main())
