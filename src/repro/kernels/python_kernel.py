"""The scalar reference kernel: one event at a time, plain-Python state.

This is the original hot loop of :class:`repro.fleet.engine.FleetSimulation`
(PR 1), extracted unchanged: exponential clocks from pre-drawn uniform
blocks converted to plain lists, an O(queue depth) join/departure level scan
per event, and lazy per-level statistics flushing.  It supports every
policy the fleet engine knows — including distinct-server SQ(d) polling for
arbitrary ``d`` — and is the semantic reference the vectorized kernels are
tested against.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.kernels.base import FleetKernel, register_kernel

__all__ = ["PythonKernel"]

_BLOCK_SIZE = 1 << 16


@register_kernel
class PythonKernel(FleetKernel):
    """Scalar event loop over buffered uniforms (the PR-1 reference)."""

    name = "python"

    def __init__(self) -> None:
        self._block: List[float] = []
        self._index = 0

    def advance(self, simulation, max_events: Optional[int], until_time: Optional[float]) -> int:
        sim = simulation
        state = sim._state
        levels = state.levels
        rng = sim._rng
        block = self._block
        block_limit = len(block) - 1
        idx = self._index
        now = sim._now
        total_jobs = state.total_jobs
        weighted_jobs = 0.0
        events = 0
        arrivals = 0
        departures = 0
        level_weight = sim._level_weight
        level_last = sim._level_last

        n = levels[0]
        d = sim._d
        jsq = sim._policy == "jsq"
        with_replacement = sim._with_replacement
        inv_d = 1.0 / d
        pair_inv = 1.0 / (n * (n - 1)) if n > 1 else 0.0
        mu = sim._service_rate
        arrival_rate = sim._arrival_rate_per_server * n
        log = math.log

        while True:
            if max_events is not None and events >= max_events:
                break
            busy = levels[1] if len(levels) > 1 else 0
            total_rate = arrival_rate + mu * busy
            if total_rate <= 0.0:
                if until_time is not None and now < until_time:
                    weighted_jobs += total_jobs * (until_time - now)
                    now = until_time
                break
            if idx >= block_limit:
                # Each event takes two uniforms, so a max_events budget needs
                # at most twice its size; the stream itself does not depend
                # on the block size (one double per 64-bit draw).
                size = _BLOCK_SIZE
                if max_events is not None:
                    size = min(size, 2 * (max_events - events))
                block = rng.random(size).tolist()
                block_limit = len(block) - 1
                idx = 0
            u1 = block[idx]
            u2 = block[idx + 1]
            idx += 2
            holding = -log(1.0 - u1) / total_rate
            if until_time is not None and now + holding > until_time:
                weighted_jobs += total_jobs * (until_time - now)
                now = until_time
                break
            weighted_jobs += total_jobs * holding
            now += holding
            x = u2 * total_rate
            if x < arrival_rate:
                # Arrival.  Conditioned on the branch, x / arrival_rate is
                # again U(0,1) and drives the join-level scan.
                v = x / arrival_rate
                k = 0
                if jsq:
                    while k + 1 < len(levels) and levels[k + 1] == n:
                        k += 1
                elif d == 1:
                    threshold = v * n
                    while k + 1 < len(levels) and levels[k + 1] > threshold:
                        k += 1
                elif with_replacement:
                    threshold = (v**inv_d) * n
                    while k + 1 < len(levels) and levels[k + 1] > threshold:
                        k += 1
                elif d == 2:
                    while k + 1 < len(levels):
                        m = levels[k + 1]
                        if m < 2 or m * (m - 1) * pair_inv <= v:
                            break
                        k += 1
                else:
                    while k + 1 < len(levels):
                        m = levels[k + 1]
                        if m < d:
                            break
                        p = 1.0
                        for j in range(d):
                            p *= (m - j) / (n - j)
                        if p <= v:
                            break
                        k += 1
                target = k + 1
                if target == len(levels):
                    levels.append(1)
                    if target == len(level_weight):
                        level_weight.append(0.0)
                        level_last.append(now)
                    else:
                        level_last[target] = now
                else:
                    level_weight[target] += levels[target] * (now - level_last[target])
                    level_last[target] = now
                    levels[target] += 1
                total_jobs += 1
                arrivals += 1
            else:
                # Departure from a uniformly random busy server; the residual
                # uniform (x - arrival_rate) / (mu * busy) picks its level.
                r = (x - arrival_rate) / mu
                k = 1
                while k + 1 < len(levels) and levels[k + 1] > r:
                    k += 1
                level_weight[k] += levels[k] * (now - level_last[k])
                level_last[k] = now
                levels[k] -= 1
                if levels[k] == 0 and k == len(levels) - 1:
                    levels.pop()
                total_jobs -= 1
                departures += 1
            events += 1

        sim._now = now
        self._index = idx
        self._block = block
        state.total_jobs = total_jobs
        sim._weighted_jobs += weighted_jobs
        sim._arrivals += arrivals
        sim._departures += departures
        sim._window_events += events
        sim._events_total += events
        return events
