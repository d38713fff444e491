#!/usr/bin/env python3
"""Quickstart: one experiment spec, every engine the library has.

Reproduces, for one configuration, what the paper's Figure 10 shows across a
whole utilization sweep: the asymptotic (N -> infinity) approximation can be
noticeably off for a small cluster, while the lower/upper bounds of the paper
sandwich the true (simulated / exactly solved) delay.

The experiment is described once, as an :class:`repro.ExperimentSpec`, and
then handed to four different backends through :func:`repro.run` — the
"one spec, many engines" API.

Run with::

    python examples/quickstart.py

Set ``REPRO_EXAMPLES_SCALE`` (e.g. ``0.01``) to shrink the simulated event
counts for smoke runs.
"""

import os

from repro import ExperimentSpec, run

SCALE = float(os.environ.get("REPRO_EXAMPLES_SCALE", "1"))


def main() -> None:
    spec = ExperimentSpec.create(
        num_servers=3,
        d=2,
        utilization=0.85,
        num_events=max(2_000, int(300_000 * SCALE)),
        seed=12345,
        threshold=3,     # imbalance threshold T of the QBD bound models
        buffer_size=30,  # per-server head-room of the exact truncation
    )

    print(f"Experiment: SQ({spec.system.d}) cluster, {spec.describe()}")
    print(f"Bound models use imbalance threshold T={spec.option('threshold')}\n")

    bracket = run(spec, backend="qbd_bounds")
    exact = run(spec, backend="exact")       # auto would pick this too (N=3)
    simulated = run(spec, backend="fleet", replications=4)
    limit = run(spec, backend="meanfield")

    print(f"  asymptotic / mean-field (Eq. 16)  : {limit.mean_delay:8.4f}")
    print(f"  lower bound (Theorem 3)           : {bracket.extras['lower_delay']:8.4f}")
    print(f"  exact (truncated chain)           : {exact.mean_delay:8.4f}")
    print(f"  simulation (fleet, {simulated.replications} replications): "
          f"{simulated.mean_delay:8.4f} ± {simulated.half_width:.4f}")
    upper = bracket.extras["upper_delay"]
    if upper != float("inf"):
        print(f"  upper bound (Theorem 1)           : {upper:8.4f}")
    else:
        print("  upper bound (Theorem 1)           : model unstable at this utilization/threshold")

    print("\nReading:")
    print("  * The lower bound tracks the exact delay closely (the paper calls it")
    print("    'remarkably accurate').")
    print("  * The asymptotic formula underestimates the delay of this 3-server")
    print("    cluster — exactly the finite-regime gap the paper addresses.")
    print("  * `run(spec)` with backend='auto' would pick the exact solver here;")
    print("    the fleet simulator runs the same spec at N=10^6 unchanged.")


if __name__ == "__main__":
    main()
