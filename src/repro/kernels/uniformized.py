"""Uniformized numpy chunk kernel: vectorized clocks, scalar level scans.

The occupancy CTMC jumps at the state-dependent rate ``lambda*N + mu*F[1]``
(arrivals plus one departure stream per busy server).  *Uniformization*
replaces it by a chain jumping at the constant dominating rate

    ``Lambda = (lambda + mu) * N  >=  lambda*N + mu*F[1]``

whose jumps are, independently of the state,

* an **arrival** with probability ``lambda / (lambda + mu)``,
* a **departure attempt** at a uniformly random server otherwise — a real
  departure when the polled server is busy (probability ``F[1]/N``), a
  **phantom** self-loop when it is idle.

The embedded chain with phantom self-loops and iid ``Exp(Lambda)`` holding
times has exactly the law of the original CTMC (see
``docs/performance.md``), and because the rates no longer depend on the
state, the events of a scan slice can be prepared vectorized:

* holding times: one ``log1p`` + prefix sum over the slice, the sum carried
  from the previous slice of the same chunk,
* arrival/departure classification: one comparison per event,
* the arrival's join threshold and the departure's server rank: closed
  forms in the residual uniform, computed for the whole slice at once.

Raw uniforms are drawn in chunks of ``CHUNK_SIZE`` events, but a chunk is
prepared slice by slice — a slice is what one scan may consume under the
``max_events`` budget — so a short ``advance`` prepares only the events it
can scan.

Only the O(queue depth) level scan — which needs the live occupancy vector
— stays scalar, and the scalar loop is stripped to its bones: the padded
``levels`` list needs no ``len()``/``append``/``pop`` (trailing zeros are
natural scan sentinels), and per-level time-averages are reconstructed at
slice boundaries from start/end snapshots plus signed event-time sums
(``integral = F_j(t0)*(t1-t0) + (F_j(t1)-F_j(t0))*t1 - sum_e delta_e t_e``,
one float accumulate per event instead of four).

Distinct-server SQ(d) polling inverts its join law per arrival: in closed
form for ``d <= 2`` (``d = 2`` by the quadratic formula), and for ``d >= 3``
by a few vectorized integer steps up from the with-replacement root
(:func:`_distinct_threshold`).  Throughput is measured by the benchmark of
record (``work_per_s`` on the ``fleet_long`` workload of ``perfbench/``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["UniformizedKernel"]

#: Events drawn per chunk.  Large enough to amortize the numpy pipeline,
#: small enough to keep the per-chunk lists cache-resident.
CHUNK_SIZE = 1 << 14

#: Minimum padded depth of the in-loop occupancy list.
_MIN_PAD = 96


def _distinct_threshold(v, n, d):
    """Per draw, the largest integer ``s`` with ``P(s) <= v``, for ``d >= 3``.

    ``P(s) = s(s-1)...(s-d+1) / (n(n-1)...(n-d+1))`` is the chance that ``d``
    distinct polls all land among the ``s`` servers holding ``>= k`` jobs, so
    an arrival joins above level ``k`` iff ``F[k] > s``.  ``P(s) <= (s/n)^d``,
    so the with-replacement root ``s0 = floor(n v^(1/d))`` has ``P(s0) <= v``,
    and ``P(s0 + d) >= ((s0 + 1)/n)^d > v``: the answer lies in
    ``[s0, s0 + d - 1]``.  The search starts one below ``s0`` (absorbing the
    root's rounding) and no lower than ``d - 1`` (``P(d - 1) = 0``), then
    steps up with ``P(t + 1) = P(t) (t + 1) / (t + 1 - d)`` while any draw
    still has ``P(t) <= v``.  ``P`` is a product of ratios, accurate to about
    ``2d`` ulps, so only a draw that close to some ``P(s)`` can fall on the
    other side of it than exact rational arithmetic puts it.
    """
    s = np.floor(n * v ** (1.0 / d))
    s -= 1.0
    np.maximum(s, d - 1.0, out=s)
    t = s + 1.0  # the candidate; p = P(t)
    p = np.ones_like(v)
    factor = t.copy()
    for j in range(d):
        p *= factor
        p *= 1.0 / (n - j)
        factor -= 1.0
    for _ in range(d + 1):
        below = p <= v
        if not below.any():
            break
        s += below
        t += 1.0
        p *= t / (t - d)
    return s


def _prepare(u1, u2, base, carry, until_time, n, lam, mu, policy, d, with_replacement):
    """Vectorize one scan slice of raw events.

    ``u1``/``u2`` are the slice's raw uniforms.  Event times are ``base``
    plus the sequential prefix sum of the holding times, continued from
    ``carry`` (the previous slice's last prefix value, ``0.0`` on a fresh
    chunk or advance).  Adding ``carry`` to the first holding time before
    the sum, never ``base + cumsum(slice)`` afterwards, makes any slicing of
    a chunk give the bits of one whole-chunk preparation.

    Events past ``until_time`` are cut off before their payloads are built.
    Returns ``(times, payload, is_arrival, carry)`` for the kept events,
    ``carry`` being the prefix value at the end of the whole slice.
    """
    p_arr = lam / (lam + mu)
    inv_rate = 1.0 / ((lam + mu) * n)  # 1 / Lambda
    holding = np.log1p(-u1)
    holding *= -inv_rate
    holding[0] += carry
    np.cumsum(holding, out=holding)
    carry = float(holding[-1])
    times = holding
    times += base
    if until_time is not None and times[-1] > until_time:
        keep = int(np.searchsorted(times, until_time, side="right"))
        times = times[:keep]
        u2 = u2[:keep]

    is_arrival = u2 < p_arr
    dep_scale = n / (1.0 - p_arr)
    if p_arr > 0.0:
        v = u2 * (1.0 / p_arr)  # conditional U(0,1) on the arrival branch
        if policy == "jsq":
            threshold = np.full_like(v, n - 0.5)
        elif d == 1:
            threshold = v * n
        elif with_replacement:
            threshold = (v ** (1.0 / d)) * n
        elif d == 2:  # distinct servers: invert m(m-1) <= v n(n-1)
            threshold = np.sqrt(1.0 + (4.0 * n * (n - 1.0)) * v)
            threshold += 1.0
            threshold *= 0.5
        else:
            threshold = np.zeros_like(v)
            threshold[is_arrival] = _distinct_threshold(v[is_arrival], n, d)
        # Arrivals ride as -(threshold + 1) <= -1, departure attempts as the
        # raw server rank r in [0, N) — one payload lane, and the sign is
        # the event type.
        payload = np.where(is_arrival, -1.0 - threshold, (u2 - p_arr) * dep_scale)
    else:
        payload = (u2 - p_arr) * dep_scale
    return times, payload, is_arrival, carry


class UniformizedKernel:
    """Vectorized uniformized kernel (numpy chunks, scalar residual loop).

    One instance drives one :class:`~repro.fleet.engine.FleetSimulation` for
    its lifetime and mutates the simulation's window accumulators directly.
    """

    #: The name every fleet record carries under ``"kernel"``.
    name = "uniformized"

    def __init__(self) -> None:
        # Raw uniform buffers; the unconsumed tail carries across advance()
        # calls so seeded runs stay bitwise deterministic even when phases
        # change the rates mid-stream (the tail is re-derived under the new
        # rates — raw uniforms are rate-agnostic).
        self._u1: Optional[np.ndarray] = None
        self._u2: Optional[np.ndarray] = None
        self._offset = 0

    def advance(self, simulation, max_events: Optional[int], until_time: Optional[float]) -> int:
        """Jump the simulation until a stop condition; return events executed.

        Advances ``simulation``'s clock and occupancy state, accumulates the
        per-level time-averages and event counters of the current statistics
        window, and returns the number of *real* events (arrivals +
        departures).  With both limits, whichever comes first stops the loop:
        a spent budget leaves the clock at the last event, a reached time cap
        moves it to ``until_time``.  Argument validation is the caller's job
        (:meth:`FleetSimulation.advance`).
        """
        sim = simulation
        state = sim._state
        levels = state.levels
        rng = sim._rng
        now = sim._now

        n = levels[0]
        lam = sim._arrival_rate_per_server  # per-server arrival rate
        law = (n, lam, sim._service_rate, sim._policy, sim._d, sim._with_replacement)

        # Pad the live occupancy list with trailing zeros: scans stop at the
        # first zero level (every threshold/rank is >= 0), so the hot loop
        # needs no bounds checks; trimmed again before returning.
        lv = levels
        pad = max(_MIN_PAD, 2 * len(lv) + 16)
        lv.extend([0] * (pad - len(lv)))
        guard = len(lv) - 2

        #: Per-level time integrals of this advance (index 0 = pool size).
        weight_add = [0.0] * len(lv)

        events = 0
        arrivals = 0
        departures = 0

        while True:
            if max_events is not None and events >= max_events:
                break
            if lam == 0.0 and lv[1] == 0:
                # Dead state: no arrivals and nothing in service.  Jump the
                # clock instead of burning chunks of phantom events.
                if until_time is not None and now < until_time:
                    weight_add[0] += n * (until_time - now)
                    now = until_time
                break
            if self._u1 is None or self._offset >= self._u1.shape[0]:
                self._u1 = rng.random(CHUNK_SIZE)
                self._u2 = rng.random(CHUNK_SIZE)
                self._offset = 0
            u1 = self._u1
            u2 = self._u2
            size = u1.shape[0]
            position = self._offset
            # Event times restart from the clock on each advance and each
            # fresh chunk; the slices of one chunk carry its prefix sum.
            base = now
            carry = 0.0
            time_capped = False

            # -------- scan slices, each vectorized just before its scan -------- #
            while position < size and not time_capped:
                if max_events is None:
                    hi = size
                else:
                    budget = max_events - events
                    if budget <= 0:
                        break
                    # Every raw event yields at most one real event, so a
                    # budget-sized slice can never overshoot max_events.
                    hi = min(size, position + budget)
                times, payload, is_arrival, carry = _prepare(
                    u1[position:hi], u2[position:hi], base, carry, until_time, *law
                )
                count = times.shape[0]
                time_capped = position + count < hi
                if not count:
                    break  # the slice's first event lies past until_time
                start_levels = list(lv)
                jobs_before = sum(lv[1:])
                co = [0.0] * len(lv)
                t0 = now
                times_l = times.tolist()
                for t, p in zip(times_l, payload.tolist()):
                    if p >= 0.0:
                        # Departure attempt at server rank p; real only if
                        # the rank lands on one of the F[1] busy servers.
                        if p < lv[1]:
                            k = 1
                            while lv[k + 1] > p:
                                k += 1
                            lv[k] -= 1
                            co[k] += t
                    else:
                        thr = -1.0 - p
                        k1 = 1
                        while lv[k1] > thr:
                            k1 += 1
                        lv[k1] += 1
                        co[k1] -= t
                        if k1 >= guard:  # pragma: no cover - needs depth ~90
                            grow = 64
                            lv.extend([0] * grow)
                            co.extend([0.0] * grow)
                            start_levels.extend([0] * grow)
                            weight_add.extend([0.0] * grow)
                            guard = len(lv) - 2
                t1 = times_l[-1]
                now = t1
                span = t1 - t0
                for j in range(len(lv)):
                    s = start_levels[j]
                    e = lv[j]
                    c = co[j]
                    if s or e or c:
                        weight_add[j] += s * span + (e - s) * t1 + c
                jobs_after = sum(lv[1:])
                arrival_count = int(np.count_nonzero(is_arrival))
                departure_count = arrival_count - (jobs_after - jobs_before)
                arrivals += arrival_count
                departures += departure_count
                events += arrival_count + departure_count
                position += count

            self._offset = position
            if time_capped:
                # Every event at or before until_time is in; the occupancy
                # is constant on (now, until_time], so close the integrals
                # with a rectangle and stop.
                if now < until_time:
                    span = until_time - now
                    for j in range(len(lv)):
                        if lv[j]:
                            weight_add[j] += lv[j] * span
                    now = until_time
                break
            if position < size:
                break  # max_events reached mid-chunk; tail stays pending

        # Trim the padding, restore the occupancy invariants.
        while len(levels) > 1 and levels[-1] == 0:
            levels.pop()
        state.total_jobs = sum(levels[1:])

        # Fold the per-level integrals into the simulation's lazy window
        # accumulators, fully flushed up to `now` (so a later flush adds 0).
        level_weight = sim._level_weight
        level_last = sim._level_last
        depth = len(weight_add)
        while len(level_weight) < depth and any(weight_add[len(level_weight):]):
            level_weight.append(0.0)
            level_last.append(now)
        for j in range(len(level_weight)):
            if j < depth:
                level_weight[j] += weight_add[j]
            level_last[j] = now

        sim._now = now
        sim._weighted_jobs += sum(weight_add[1:])
        sim._arrivals += arrivals
        sim._departures += departures
        sim._window_events += events
        sim._events_total += events
        return events
