"""Uniformized numpy chunk kernel: vectorized clocks, two level scans.

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

The level scan needs the live occupancy vector, so it cannot be prepared
ahead.  Two scans give the same levels and bits:

* :func:`_scalar_scan`, event by event, stripped to its bones: a table of
  how many levels reach each value (:func:`_level_table`) makes an event's
  level one lookup at any depth, and the padded ``levels`` list needs no
  ``len()``/``append``/``pop``;
* :func:`_speculative_scan`, for large pools with few occupied levels
  (:func:`_speculates`): over a stretch of events each level moves by
  ``O(sqrt(stretch))`` while the thresholds and ranks compared with it
  spread over ``[0, N)``, so the stretch's start occupancy decides almost
  every event's level.  Every event is classified against it at once, and
  only the *suspects*, the events near some level's drift band, are walked
  in Python.  It hands the rest of a slice to the scalar scan where the
  bands are not thin.

Both scans record each event's level.  Per-level time-averages are then
reconstructed at slice boundaries from start/end snapshots plus signed
event-time sums (``integral = F_j(t0)*(t1-t0) + (F_j(t1)-F_j(t0))*t1 -
sum_e delta_e t_e``), folded with one ``np.bincount`` (:func:`_fold`),
which adds in event order.

Distinct-server SQ(d) polling inverts its join law per arrival: in closed
form for ``d <= 2`` (``d = 2`` by the quadratic formula), and for ``d >= 3``
by a few vectorized integer steps up from the with-replacement root
(:func:`_distinct_threshold`).  Throughput is measured by the benchmark of
record (``work_per_s`` on the ``fleet_long`` workload of ``perfbench/``).
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

__all__ = ["UniformizedKernel"]

#: Events drawn per chunk.  Large enough to amortize the numpy pipeline,
#: small enough to keep the per-chunk lists cache-resident.
CHUNK_SIZE = 1 << 14

#: Minimum padded depth of the in-loop occupancy list.
_MIN_PAD = 96

#: The speculation rule (:func:`_speculates`): pools of at least this many
#: servers ...
_SPECULATE_MIN_SERVERS = 10_000
#: ... with at least this many per occupied level.
_SERVERS_PER_LEVEL = 640
#: ``r``: how far a level's true drift may stray from its tentative one
#: before the speculative scan restarts.
_ALLOWANCE = 16
#: Events per block when bounding a level's tentative drift.
_BAND_BLOCK = 32
#: A stretch with more than one suspect in this many events goes to the
#: scalar scan.
_SUSPECT_SHARE = 8


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


def _speculates(n, depth):
    """The speculation rule, for a pool of ``n`` with ``depth`` occupied levels.

    The scalar scan costs one table lookup an event at any depth; the
    speculative scan compares every event with every occupied level and
    walks more suspects the more levels share ``[0, n)``.  It pays from
    ``_SPECULATE_MIN_SERVERS`` servers on, with ``_SERVERS_PER_LEVEL`` of
    them per level; ``docs/performance.md`` has the measurements.
    """
    return n >= _SPECULATE_MIN_SERVERS and depth * _SERVERS_PER_LEVEL <= n


def _values(payload, is_arrival):
    """Each event's value to compare with the levels, for both scans.

    An arrival joins above every level higher than its threshold ``-1 - p``,
    which is ``|p| - 1`` exactly (``|p| >= 1``); a departure leaves the
    highest level above its rank ``p``.
    """
    x = np.abs(payload)
    x -= is_arrival
    return x


def _level_table(lv, n):
    """``table[m]``: how many levels ``k >= 1`` hold ``lv[k] >= m``, ``1 <= m <= n + 1``."""
    depth = lv.index(0, 1) - 1
    counts = np.bincount(np.array(lv[1:depth + 1], dtype=np.intp), minlength=n + 1)
    table = np.append(np.cumsum(counts[::-1])[::-1], 0)
    table[0] = 0  # unused: codes start at 1
    return table.tolist()


def _shift_table(table, before, after):
    """Keep a :func:`_level_table` in step with levels moved from ``before``."""
    for k in range(1, len(after)):
        a, b = before[k], after[k]
        if b > a:
            for m in range(a + 1, b + 1):
                table[m] += 1
        elif b < a:
            for m in range(b + 1, a + 1):
                table[m] -= 1


def _codes(x, is_arrival):
    """The scalar scan's events: ``floor(x) + 1``, negated for arrivals.

    A level ``F`` is above a value ``x >= 0`` iff ``F >= floor(x) + 1``, so
    the code indexes :func:`_level_table` directly.
    """
    code = x.astype(np.intp)
    code += 1
    code *= 1 - 2 * is_arrival.astype(np.intp)
    return code.tolist()


def _scalar_scan(lv, table, codes, out):
    """Level events one at a time against the live occupancy list ``lv``.

    ``table`` is ``lv``'s :func:`_level_table`, kept in step, so an event's
    level is one lookup: a departure's is the number of levels above its
    rank (``0``, a phantom, when there is none), an arrival's one more than
    the number above its threshold.  ``codes`` is a list (see
    :func:`_codes`).  Each real event moves one level of ``lv`` in place;
    every event's level is appended to ``out``.  An arrival that reaches
    the last two padded levels grows ``lv`` by 64.
    """
    guard = len(lv) - 2
    append = out.append
    for c in codes:
        if c > 0:
            k = table[c]
            if k:
                a = lv[k]
                lv[k] = a - 1
                table[a] -= 1
        else:
            k = table[-c] + 1
            a = lv[k] + 1
            lv[k] = a
            table[a] += 1
            if k >= guard:
                lv.extend([0] * 64)
                guard = len(lv) - 2
        append(k)


def _fold(level, times, payload, depth):
    """Per level ``0..depth-1``, the signed event times ``+t``/``-t``, in order.

    ``np.bincount`` adds each weight to its bin in index order, starting
    from zero: per level, the float additions of a loop that folds event by
    event.  Phantoms land on level 0, which gets ``0.0``.
    """
    co = np.bincount(level, weights=np.copysign(times, payload), minlength=depth).tolist()
    co[0] = 0.0
    return co


def _speculative_scan(lv, x, is_arrival, out):
    """Level a slice stretch by stretch against each stretch's start occupancy.

    Gives :func:`_scalar_scan`'s levels where it runs, and stops where a
    stretch's bands are not thin (too many suspects) or could reach the
    padding.  ``x`` holds each event's value compared with the levels (see
    :func:`_values`).  Returns ``done``: ``out[:done]`` holds the first
    ``done`` events' levels and ``lv`` the occupancy after them, for the
    scalar scan to continue from.
    """
    count = x.shape[0]
    done = 0
    while done < count:
        top = lv.index(0, 1)  # the highest level an event can take
        if top + 2 >= len(lv):
            break  # the scalar scan grows the padding
        walked = _speculate(lv, x[done:], is_arrival[done:], top, out[done:])
        if not walked:
            break
        done += walked
    return done


def _speculate(lv, x, is_arrival, top, out):
    """Level one stretch of events: classify against ``lv``, walk the suspects.

    Every event is first classified against the start occupancy ``F0 = lv``
    (its tentative level, ``0`` for a phantom).  Over a block of
    ``_BAND_BLOCK`` events a level moves by at most its arrivals and
    departures there, so per-block counts bound each level's tentative drift
    to ``[low, high]``.  While every level's true drift stays within
    ``_ALLOWANCE`` of its tentative one, an event whose value lies outside
    ``[F0 + low - r, F0 + high + r)`` for every level compares with each
    level as it does with ``F0`` and keeps its tentative level; the others,
    the suspects, are walked in order against ``F0`` plus the tentative
    drift of the events between them plus the walked suspects' own moves.
    The stretch ends early after a suspect whose correction would exceed
    the allowance, or before an arrival that would open a second new level.

    Writes the levels into ``out``, moves ``lv`` to the occupancy after the
    stretch and returns its length; ``0`` when more than one event in
    ``_SUSPECT_SHARE`` is a suspect.
    """
    size = x.shape[0]
    width = top + 2
    r = _ALLOWANCE
    # count: the levels 1..top-1 above an event's value, against F0.
    count = np.zeros(size, np.min_scalar_type(top))
    for k in range(1, top):
        count += x < lv[k]
    level = count + is_arrival

    blocks = -(-size // _BAND_BLOCK)
    key = level.astype(np.intp)
    key *= 2
    key += is_arrival
    key *= blocks
    key += np.arange(size) // _BAND_BLOCK
    moves = np.bincount(key, minlength=2 * width * blocks).reshape(width, 2, blocks)
    departures = moves[1:top + 1, 0]
    arrivals = moves[1:top + 1, 1]
    before = np.cumsum(arrivals - departures, axis=1)
    before -= arrivals
    before += departures  # each level's drift before each block
    f0 = np.array(lv[1:top + 1], dtype=float)
    # Level k's band is [floor_k, ceiling_k).  An event with count c lies
    # below F0 of the levels 1..c and at or above F0 of the others, so it is
    # a suspect iff it reaches the lowest floor of the levels above it or
    # the highest ceiling of the levels below it.
    floor = f0 + (before - departures).min(axis=1) - r
    ceiling = f0 + (before + arrivals).max(axis=1) + r
    lowest_floor = np.empty(top)
    lowest_floor[0] = np.inf
    np.minimum.accumulate(floor[:-1], out=lowest_floor[1:])
    highest_ceiling = np.maximum.accumulate(ceiling[::-1])[::-1]
    suspect = x >= lowest_floor[count]
    suspect |= x < highest_ceiling[count]
    index = np.flatnonzero(suspect)
    suspects = index.shape[0]
    if suspects * _SUSPECT_SHARE > size:
        return 0

    # rows[j]: F0 plus the tentative moves of the non-suspects before
    # suspect j (rows[-1]: all of them).
    step = is_arrival.view(np.int8) * 2 - 1
    step *= level > 0
    step[index] = 0
    segment = np.repeat(
        np.arange(suspects + 1) * width, np.diff(index, prepend=-1, append=size - 1)
    )
    segment += level
    drift = np.bincount(segment, weights=step, minlength=(suspects + 1) * width)
    drift = drift.reshape(suspects + 1, width).cumsum(axis=0)
    drift += lv[:width]
    rows = drift.astype(np.intp).tolist()

    moved = [0] * (width + 1)  # the walked suspects' moves
    excess = [0] * (width + 1)  # true minus tentative drift
    walked = []
    end = size
    for j, (row, value, arrive, guess) in enumerate(
        zip(rows, x[index].tolist(), is_arrival[index].tolist(), level[index].tolist())
    ):
        # Start from the tentative level: corrections are a level or two.
        k = guess
        if arrive:
            while k > 1 and row[k - 1] + moved[k - 1] <= value:
                k -= 1
            while row[k] + moved[k] > value:
                k += 1
            if k > top:
                end = int(index[j])
                break
            moved[k] += 1
            walked.append(k)
            if k != guess:
                excess[k] += 1
                excess[guess] -= 1
                if excess[k] > r or excess[guess] < -r:
                    end = int(index[j]) + 1
                    break
        else:
            while k and row[k] + moved[k] <= value:
                k -= 1
            while row[k + 1] + moved[k + 1] > value:
                k += 1
            if k:
                moved[k] -= 1
            walked.append(k)
            if k != guess:
                excess[k] -= 1
                excess[guess] += 1
                if (k and excess[k] < -r) or (guess and excess[guess] > r):
                    end = int(index[j]) + 1
                    break
    else:
        j = suspects
    level[index[:len(walked)]] = walked
    out[:end] = level[:end]
    row = rows[j]
    for k in range(1, top + 1):
        lv[k] = row[k] + moved[k]
    return end


class UniformizedKernel:
    """Vectorized uniformized kernel (numpy chunks, speculative or scalar scan).

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

        #: Per-level time integrals of this advance (index 0 = pool size).
        weight_add = [0.0] * len(lv)
        #: The scalar scan's level table, built when it first runs.
        table = None

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
                t0 = now
                x = _values(payload, is_arrival)
                level = np.empty(count, np.intp)
                done = 0
                if _speculates(n, lv.index(0, 1) - 1):
                    done = _speculative_scan(lv, x, is_arrival, level)
                    if done and table is not None:
                        _shift_table(table, start_levels, lv)
                if done < count:
                    if table is None:
                        table = _level_table(lv, n)
                    tail = array("q")
                    _scalar_scan(lv, table, _codes(x[done:], is_arrival[done:]), tail)
                    level[done:] = np.frombuffer(tail, dtype=np.int64)
                    if len(lv) > len(start_levels):  # the scan grew the padding
                        grow = len(lv) - len(start_levels)
                        start_levels.extend([0] * grow)
                        weight_add.extend([0.0] * grow)
                co = _fold(level, times, payload, len(lv))
                t1 = float(times[-1])
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
