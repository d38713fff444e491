"""Benchmark of record: end-to-end and per-layer metrics of five workloads.

Usage (from the repository root)::

    python3 perfbench/run.py                                   # every workload
    python3 perfbench/run.py --workload fleet_long --seed 3 --seconds 26 --trace 0
    python3 perfbench/run.py --trace 1                         # per-layer metrics
    python3 perfbench/compare.py OLD NEW                       # verdicts

Each workload is measured for ``--seconds`` by several sessions, fresh
interpreters (``session.py``) that each set up once and then repeat ~1 s
passes with the same seed, so every pass repeats the same timed pieces
(replications, tasks, solves).  The machines this runs on share their
cores, and interference only ever slows a piece down, so time metrics
take each piece at its *best* over the run (see :func:`run_values`): a
sample of the code's cost, not of its neighbours' load.  Set-up time and
peak memory are medians over the sessions.  With ``--trace 1`` one session
is untraced and one traced, and the per-layer metrics (medians over traced
passes) replace the end-to-end ones.

The command prints a table per workload, writes one result file per
workload under ``--out`` and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when a
correctness check fails, and 2 when the sources of the package are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from summary import describe, median
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The whole command must end within this many seconds.
DEADLINE_S = 170.0
#: Sessions per untraced run: each one is one set-up time sample.
SESSIONS = 3


def cpu_model() -> Any:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(versions: Dict[str, Any]) -> Dict[str, Any]:
    """The machine and software a result was measured on (``versions`` and
    ``git describe`` come from a session)."""
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git": None,
        **versions,
    }


def child_environment() -> Dict[str, str]:
    # Fault plans and campaign test hooks travel through REPRO_* variables;
    # a measured pass must run the clean path.
    return {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}


def run_session(name: str, args, traced: bool, until: float, out: Path, scratch: Path,
                program_start: float) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "session.py"),
        "--workload", name, "--seed", str(args.seed), "--scale", repr(args.scale),
        "--scratch", str(scratch), "--until", repr(until),
    ]
    if traced:
        command += ["--trace", "--spans", str(out / f"{name}-seed{args.seed}-spans.jsonl")]
    timeout = max(5.0, DEADLINE_S - (time.monotonic() - program_start))
    command += ["--started", repr(time.monotonic())]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_environment(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"traced": traced, "error": f"session timed out after {timeout:.0f} s"}
    finally:
        try:  # reap anything the session left behind in its process group
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return {"traced": traced, "error": f"session exited {process.returncode}: {tail}"}
    return json.loads(lines[-1])


def measure(name: str, args, out: Path, scratch: Path, program_start: float) -> List[Dict[str, Any]]:
    """Split ``--seconds`` between the sessions of one workload."""
    plan = (False, True) if args.trace else (False,) * SESSIONS
    started = time.monotonic()
    sessions = []
    for index, traced in enumerate(plan):
        until = min(started + args.seconds * (index + 1) / len(plan), program_start + DEADLINE_S)
        sessions.append(run_session(name, args, traced, until, out, scratch, program_start))
    return sessions


def end_to_end(passes: List[Dict[str, Any]], sessions: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-pass (per-session for set-up and memory) samples of each metric."""
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "work_per_s": [p["work"] / p["wall_s"] for p in passes],
        "unit_p50_ms": [median(list(p["units_ms"].values())) for p in passes],
        "setup_s": [s["setup_s"] for s in sessions],
        "peak_rss_mb": [s["peak_rss_mb"] for s in sessions],
    }


def best_times(passes: List[Dict[str, Any]], field: str) -> Dict[str, float]:
    """The best time of every timed piece over the passes, which all repeat
    the same pieces (one seed)."""
    best: Dict[str, float] = {}
    for p in passes:
        for key, ms in p[field].items():
            best[key] = min(ms, best.get(key, math.inf))
    return best


def run_values(passes: List[Dict[str, Any]], sessions: List[Dict[str, Any]]) -> Dict[str, float]:
    """A run's value of each end-to-end metric.

    A pass whose pieces run one after another is rebuilt from each piece's
    best time over the run plus the best time outside the pieces: the pass
    as it runs when no neighbour interferes.  A pass with concurrent units
    counts as a whole, its best.  Set-up and memory are session medians.
    """
    if all("parts_ms" in p for p in passes):
        outside = min(p["wall_s"] - sum(p["parts_ms"].values()) / 1e3 for p in passes)
        wall = sum(best_times(passes, "parts_ms").values()) / 1e3 + outside
    else:
        wall = min(p["wall_s"] for p in passes)
    return {
        "wall_s": wall,
        "work_per_s": passes[0]["work"] / wall,
        "unit_p50_ms": median(list(best_times(passes, "units_ms").values())),
        "setup_s": median([s["setup_s"] for s in sessions]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in sessions]),
    }


def summarize(name: str, sessions: List[Dict[str, Any]], traced_run: bool) -> Dict[str, Any]:
    """Metric values, their samples and the correctness verdict of one workload."""
    good = [s for s in sessions if "error" not in s]
    errors = [s["error"] for s in sessions if "error" in s]
    passes = [dict(p, traced=s["traced"]) for s in good for p in s["passes"]]
    checks = [dict(check, traced=p["traced"]) for p in passes for check in p["checks"]]
    digests = sorted({p["digest"] for p in passes})
    failed_checks = [check for check in checks if not check["ok"]]
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(failed_checks) + len(errors) + (len(digests) > 1)
    summary: Dict[str, Any] = {
        "workload": name,
        "unit": WORKLOADS[name].unit,
        "sessions": len(sessions),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and bool(passes),
        "errors": errors,
        "checks": checks,
        "deterministic": len(digests) <= 1,
        "solver_cache_at_start": sorted({p["solver_cache_at_start"] for p in passes}),
        "samples": {},
        "metrics": {},
    }
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not traced_run and plain:
        untraced = [s for s in good if not s["traced"]]
        summary["samples"] = end_to_end(plain, untraced)
        summary["metrics"] = run_values(plain, untraced)
    if traced_run and traced and plain:
        samples = {key: [p["layers"][key] for p in traced] for key in traced[0]["layers"]}
        summary["samples"] = samples
        summary["metrics"] = {key: median(values) for key, values in samples.items()}
        best_traced = min(p["wall_s"] for p in traced)
        summary["metrics"]["trace.overhead_ratio"] = best_traced / min(p["wall_s"] for p in plain) - 1.0
        summary["span_counts"] = traced[-1]["span_counts"]
    return summary


def print_table(summary: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {summary['workload']} (work unit: {summary['unit']}) - "
          f"{summary['sessions']} sessions, {summary['passes']} passes, "
          f"{summary['attempted']} units attempted, {summary['failed']} failed")
    print(f"   {'metric':40} {'unit':11} {'value':>12} {'n':>4} {'median':>12} {'spread':>8}")
    for key, value in summary["metrics"].items():
        samples = summary["samples"].get(key, [value])
        if not any(samples):
            continue  # a layer the workload does not use
        stats = describe(samples)
        print(f"   {key:40} {units.get(key, ''):11} {value:>12.6g} {stats['n']:>4} "
              f"{stats['median']:>12.6g} {stats['spread']:>8.2%}")
    for check in summary["checks"]:
        if not check["ok"]:
            print(f"   FAILED check {check['name']}: {check['detail']}")
    for error in summary["errors"]:
        print(f"   FAILED session: {error}")
    if not summary["deterministic"]:
        print("   FAILED determinism: passes with the same seed disagree")


def main(argv=None) -> int:
    program_start = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the package sources (src/repro) are missing under {ROOT}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies events/jobs per unit (1 = the benchmark of record)")
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    scratch = out / f"scratch-{os.getpid()}"
    summaries = []
    try:
        for name in names:
            sessions = measure(name, args, out, scratch, program_start)
            summary = summarize(name, sessions, bool(args.trace))
            versions = next((s["versions"] for s in sessions if "versions" in s), {})
            summary.update(seed=args.seed, seconds=args.seconds, scale=args.scale,
                           trace=args.trace, fingerprint=fingerprint(versions), records=sessions)
            path = out / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
            print_table(summary, units)
            summaries.append(summary)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else f"{summary['workload']}."
        for key in units:
            if key in summary["metrics"]:
                metrics[prefix + key] = {"value": summary["metrics"][key], "unit": units[key]}
    correct = all(
        summary["correct"] and all(key in summary["metrics"] for key in units)
        for summary in summaries
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": sum(summary["failed"] for summary in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
