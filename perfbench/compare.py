"""Compare two sets of benchmark runs metric by metric, one verdict each.

Usage (from the repository root)::

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are result files written by ``run.py --out DIR``, or
directories of them (for instance ten seeds each).  Every result file is
one run and gives one value per metric; for every (workload, metric) the
command prints the median and quartiles of those values on both sides, the
relative change and, for the metrics ``BENCHMARK.json`` gives a bound, a
verdict:

``regressed``   NEW's median is worse than OLD's by more than the bound
``improved``    NEW's median is better by more than the bound, with at
                least three runs a side, NEW beating at least nine tenths
                of all (OLD, NEW) pairs, and the medians differing by more
                than OLD's IQR
``unresolved``  NEW is better by more than the bound without that
                evidence, or either side's spread (IQR / median) exceeds
                the bound
``unchanged``   none of the above

The bound is the benchmark's own tolerance for drift of the host, so a
smaller gain is reported ``unchanged``: show it with interleaved runs of
both sides instead.

A workload whose NEW runs fail more units or checks than its OLD runs is
also a regression.  The command exits 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from summary import describe

HERE = Path(__file__).resolve().parent
#: Runs a side needs before a gain can be claimed.
MIN_RUNS_FOR_GAIN = 3


def verdict(old: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    """The verdict on one metric from its per-run values on both sides."""
    before, after = describe(old), describe(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (after["median"] - before["median"]) / abs(before["median"])
    if worse > bound:
        return "regressed"
    if -worse > bound:
        wins = sum(1 for a in old for b in new if sign * (b - a) < 0)
        if (
            min(len(old), len(new)) >= MIN_RUNS_FOR_GAIN
            and wins >= 0.9 * len(old) * len(new)
            and -sign * (after["median"] - before["median"]) > before["q3"] - before["q1"]
        ):
            return "improved"
        return "unresolved"
    if max(before["spread"], after["spread"]) > bound:
        return "unresolved"
    return "unchanged"


def load(path: Path) -> Dict[Tuple[str, int], Dict]:
    """Result files under ``path``, grouped per (workload, trace flag)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    grouped: Dict[Tuple[str, int], Dict] = {}
    for file in files:
        result = json.loads(file.read_text())
        if "metrics" not in result or "workload" not in result:
            continue
        entry = grouped.setdefault(
            (result["workload"], result["trace"]),
            {"values": {}, "failed": 0, "fingerprint": result["fingerprint"]},
        )
        entry["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            entry["values"].setdefault(metric, []).append(value)
    return grouped


def compare(old_path: Path, new_path: Path, benchmark: Dict) -> Tuple[List[List[str]], bool]:
    """Table rows and whether any (workload, metric) regressed."""
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    old, new = load(old_path), load(new_path)
    rows, regressed = [], False
    for key in sorted(set(old) & set(new)):
        workload = key[0]
        before, after = old[key], new[key]
        if after["failed"] > before["failed"]:
            regressed = True
            rows.append([workload, "failed", "count", str(before["failed"]), "",
                         str(after["failed"]), "", "", "regressed"])
        for metric, spec in declared.items():
            if metric not in before["values"] or metric not in after["values"]:
                continue
            a, b = before["values"][metric], after["values"][metric]
            x, y = describe(a), describe(b)
            change = (y["median"] - x["median"]) / abs(x["median"]) if x["median"] else 0.0
            outcome = verdict(a, b, spec["bound"], spec["better"]) if "bound" in spec else "-"
            regressed |= outcome == "regressed"
            rows.append([
                workload, metric, spec["unit"],
                f"{x['median']:.6g}", f"[{x['q1']:.4g}, {x['q3']:.4g}] n={x['n']}",
                f"{y['median']:.6g}", f"[{y['q1']:.4g}, {y['q3']:.4g}] n={y['n']}",
                f"{change:+.2%}", outcome,
            ])
        for field in ("cores", "cpu", "python", "numpy"):
            if before["fingerprint"].get(field) != after["fingerprint"].get(field):
                rows.append([workload, f"machine {field} differs", "",
                             str(before["fingerprint"].get(field)), "",
                             str(after["fingerprint"].get(field)), "", "", "-"])
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rows, regressed = compare(Path(argv[0]), Path(argv[1]), benchmark)
    if not rows:
        print("error: no workload appears in both results", file=sys.stderr)
        return 2
    header = ["workload", "metric", "unit", "old median", "old q1-q3", "new median", "new q1-q3",
              "change", "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
