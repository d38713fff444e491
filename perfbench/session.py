"""One measuring session of one workload, in a fresh interpreter.

``run.py`` starts several sessions per workload.  A session measures its
own start-up once — ``setup_s`` runs from the parent's clock reading just
before the spawn to the end of the workload's warm-up call — and then runs
measured passes, all with the same seed, until the next one would end past
``--until``.  It prints one JSON line: the set-up time, the peak RSS of
the session (or of the pool workers it joined) and every pass record::

    python3 perfbench/session.py --workload fleet_long --seed 1 --scratch DIR \
        --started <time.monotonic()> --until <time.monotonic()> [--trace] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.scratch.mkdir(parents=True, exist_ok=True)
    import numpy
    import scipy

    import repro
    from repro.api.backends import available_backends
    from repro.core.solver_cache import solver_cache
    from repro.ensemble.results import git_describe
    from repro.kernels import available_kernels

    available_backends()
    available_kernels()
    workload.setup(args.scratch)
    setup_s = time.monotonic() - args.started

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        fire_ns = tracing.maybe_fire_ns(max(10_000, round(1_000_000 * min(args.scale, 1.0))))
    passes = []
    while True:
        began = time.monotonic()
        if tracer is not None:
            tracer.reset()
        # Every pass starts with a cold solver cache; only analytic_bounds
        # warms it (its second half).
        solver_cache().clear()
        cold = solver_cache().stats.lookups == 0
        record = workload.run(args.seed, args.scale, args.scratch)
        record["solver_cache_at_start"] = "cold" if cold else "warm"
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer, record, fire_ns)
            record["span_counts"] = tracing.span_counts(tracer)
        passes.append(record)
        now = time.monotonic()
        if now + (now - began) > args.until:
            break
    if tracer is not None and args.spans is not None:
        tracing.write_spans(tracer, args.spans)

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "workload": args.workload,
        "traced": args.trace,
        "setup_s": setup_s,
        "peak_rss_mb": usage / 1024.0,
        "versions": {
            "repro": repro.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git": git_describe(),  # None outside a git checkout
        },
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
