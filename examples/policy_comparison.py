#!/usr/bin/env python3
"""Comparing dispatching policies on the same workload, including non-exponential service.

The paper's analysis covers SQ(d) with exponential service; its future-work
section points at more general service-time distributions.  The job-level
``cluster`` backend is distribution-agnostic, so this example compares
uniform random, round-robin, SQ(2), SQ(3), JSQ, join-idle-queue and
least-work-left dispatching on both the paper's exponential workload and a
high-variance (hyperexponential) workload, where queue-length information
alone is less informative.

Every row is the *same* :class:`repro.ExperimentSpec` with only the policy
(and for SQ(d)/least-work-left the poll count ``d``) swapped — the sweep the
stringly-typed pre-spec entry points could not express uniformly.

Run with::

    python examples/policy_comparison.py

Set ``REPRO_EXAMPLES_SCALE`` (e.g. ``0.01``) to shrink the simulated job
counts for smoke runs.
"""

import os

from repro import ExperimentSpec, run
from repro.utils.tables import format_table

SCALE = float(os.environ.get("REPRO_EXAMPLES_SCALE", "1"))

POLICIES = [
    ("random (SQ(1))", "random", 1),
    ("round-robin", "round_robin", 1),
    ("SQ(2)", "sqd", 2),
    ("SQ(3)", "sqd", 3),
    ("JSQ", "jsq", 1),
    ("join-idle-queue", "jiq", 1),
    ("least-work-left(2)", "least_work_left", 2),
]


def compare(title: str, num_servers: int, utilization: float, num_jobs: int, **workload) -> None:
    rows = []
    for name, policy, d in POLICIES:
        spec = ExperimentSpec.create(
            num_servers=num_servers,
            d=d,
            utilization=utilization,
            policy=policy,
            num_jobs=num_jobs,
            seed=2024,
            **workload,
        )
        result = run(spec, backend="cluster")
        rows.append([name, result.extras["mean_waiting_time"], result.mean_delay])
    print(format_table(["policy", "mean waiting time", "mean delay"], rows, title=title))
    print()


def main() -> None:
    num_servers = 10
    utilization = 0.9
    num_jobs = max(2_000, int(50_000 * SCALE))

    compare(
        f"Exponential service, N={num_servers}, rho={utilization} (the paper's model)",
        num_servers,
        utilization,
        num_jobs,
    )

    compare(
        f"Hyperexponential service (SCV=10), N={num_servers}, rho={utilization}",
        num_servers,
        utilization,
        num_jobs,
        service="hyperexponential",
        service_params={"scv": 10.0},
    )

    print("Reading:")
    print("  * Under exponential service, SQ(2) already captures most of JSQ's gain")
    print("    over random dispatching — the finite-N power of two choices.")
    print("  * Under high service-time variability, queue length is a weaker signal;")
    print("    least-work-left (which sees remaining work) regains part of the gap,")
    print("    and the advantage of polling more servers grows.")


if __name__ == "__main__":
    main()
