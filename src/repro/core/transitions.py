"""Exact SQ(d) transition rates on ordered states (Section II.A of the paper).

Arrivals
--------
With every arrival the dispatcher polls ``d`` of the ``N`` servers uniformly
at random without replacement.  On the ordered state the polled job joins
position ``i`` (1-indexed) — i.e. the ``i``-th longest queue — with rate

.. math:: \\lambda(m, m + e_i) = \\frac{\\binom{i-1}{d-1}}{\\binom{N}{d}} \\lambda N

when all components of ``m`` are distinct.  When positions ``i .. i+j`` form
a tie group the paper's convention places the arrival at the *first* position
of the group, with aggregate rate

.. math:: \\lambda(m, m + e_i) =
          \\frac{\\binom{i+j}{d} - \\binom{i-1}{d}}{\\binom{N}{d}} \\lambda N .

The distinct case is the special case of a singleton group (the identity
``C(i, d) - C(i-1, d) = C(i-1, d-1)`` connects the two forms), so the group
formula is the only one implemented.

Departures
----------
Each busy server completes work at rate ``mu``.  On the ordered state a
departure from a tie group of size ``g`` occurs at rate ``g * mu`` and, by
the paper's second convention, is recorded at the *last* position of the
group, which keeps the state sorted.

Array form
----------
:func:`transition_arrays` applies the same law to every row of a ``K x N``
integer array of ordered states at once, in the per-state order of
:func:`all_transitions`; the bound models and the exact chain assemble their
generators from it, while the per-state functions stay the statement of the
law that the ordering proofs and the introspection API read.  Its rates
come from :func:`transition_rates`, which the bound models' assembly plans
also call to re-rate a fixed set of transitions at a new load.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.core.model import SQDModel
from repro.core.state import State, decrement_position, increment_position, tie_groups
from repro.utils.combinatorics import binomial


def arrival_transitions(state: State, model: SQDModel) -> List[Tuple[State, float]]:
    """Arrival transitions ``(target, rate)`` out of ``state`` under SQ(d).

    The rates over all targets sum to the total arrival rate ``lambda * N``.
    """
    n = model.num_servers
    d = model.d
    if len(state) != n:
        raise ValueError(f"state {state} does not match num_servers={n}")
    total_combinations = binomial(n, d)
    transitions: List[Tuple[State, float]] = []
    for start, end, _value in tie_groups(state):
        # 1-indexed group positions are [start+1, end+1].
        favourable = binomial(end + 1, d) - binomial(start, d)
        if favourable <= 0:
            continue
        rate = model.total_arrival_rate * favourable / total_combinations
        transitions.append((increment_position(state, start), rate))
    return transitions


def departure_transitions(state: State, model: SQDModel) -> List[Tuple[State, float]]:
    """Departure transitions ``(target, rate)`` out of ``state``.

    The rates sum to ``mu`` times the number of busy servers.
    """
    n = model.num_servers
    if len(state) != n:
        raise ValueError(f"state {state} does not match num_servers={n}")
    transitions: List[Tuple[State, float]] = []
    for start, end, value in tie_groups(state):
        if value == 0:
            continue
        group_size = end - start + 1
        rate = model.service_rate * group_size
        transitions.append((decrement_position(state, end), rate))
    return transitions


def all_transitions(state: State, model: SQDModel) -> List[Tuple[State, float]]:
    """All outgoing transitions (arrivals then departures) of ``state``."""
    return arrival_transitions(state, model) + departure_transitions(state, model)


class TransitionArrays(NamedTuple):
    """Every transition out of a batch of states, one entry a transition."""

    source: np.ndarray  #: row of the source state in the input array
    target: np.ndarray  #: the target state (one row per transition)
    coefficient: np.ndarray  #: favourable poll sets (arrival) or group size (departure)
    rate: np.ndarray  #: the rate of :func:`all_transitions`, bit for bit
    arrival: np.ndarray  #: True for an arrival, False for a departure


def transition_arrays(states: np.ndarray, model: SQDModel) -> TransitionArrays:
    """The transitions of :func:`all_transitions` for every row of ``states``.

    ``states`` is a ``K x N`` integer array of ordered states.  Each tie group
    ``[s, e]`` (0-based) of each row yields an arrival at ``s`` with
    coefficient ``C(e + 1, d) - C(s, d)`` when that is positive, and a
    departure at ``e`` with coefficient ``e - s + 1`` when the group is busy.
    The entries come row by row, each row's arrivals then its departures in
    group order, which is the order of :func:`all_transitions`; the rates
    are formed with the same floating-point operations, so they are equal
    bit for bit.
    """
    states = np.asarray(states, dtype=np.int64)
    n, d = model.num_servers, model.d
    if states.ndim != 2 or states.shape[1] != n:
        raise ValueError(f"states of shape {states.shape} do not match num_servers={n}")
    # Tie groups: a group starts where an entry differs from its left
    # neighbour and ends where it differs from its right one.
    starts = np.ones(states.shape, dtype=bool)
    np.not_equal(states[:, 1:], states[:, :-1], out=starts[:, 1:])
    ends = np.ones(states.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    row, start = np.nonzero(starts)
    end = np.nonzero(ends)[1]
    # C(k, d) for k = 0..N; past int64 the exact integers are kept as objects.
    total_combinations = binomial(n, d)
    dtype = np.int64 if total_combinations < 2**63 else object
    choose = np.array([binomial(k, d) for k in range(n + 1)], dtype=dtype)
    favourable = choose[end + 1] - choose[start]
    arrives = favourable > 0
    departs = states[row, start] > 0
    coefficient = np.concatenate([favourable[arrives], (end - start + 1)[departs]])
    count = int(arrives.sum())
    source = np.concatenate([row[arrives], row[departs]])
    position = np.concatenate([start[arrives], end[departs]])
    # Within a row the arrivals precede the departures; a stable sort keeps that.
    order = np.argsort(source, kind="stable")
    source, position, arrival = source[order], position[order], order < count
    target = np.repeat(states, np.bincount(source, minlength=len(states)), axis=0)
    target.reshape(-1)[np.arange(len(source)) * n + position] += np.where(arrival, 1, -1)
    coefficient = coefficient[order]
    return TransitionArrays(source, target, coefficient, transition_rates(coefficient, arrival, model), arrival)


def transition_rates(coefficient: np.ndarray, arrival: np.ndarray, model: SQDModel) -> np.ndarray:
    """The rates of transitions with these coefficients, as :func:`all_transitions` forms them.

    An arrival's rate is ``lambda N * c / C(N, d)``, a departure's ``mu * g``;
    each element takes the per-state floating-point operations, so the rates
    are equal bit for bit wherever the element sits.
    """
    scaled = np.asarray(coefficient, dtype=np.float64)
    total_combinations = float(binomial(model.num_servers, model.d))
    return np.where(
        arrival,
        model.total_arrival_rate * scaled / total_combinations,
        model.service_rate * scaled,
    )


def transition_rate_map(state: State, model: SQDModel) -> Dict[State, float]:
    """Outgoing transitions aggregated by target state."""
    rates: Dict[State, float] = {}
    for target, rate in all_transitions(state, model):
        rates[target] = rates.get(target, 0.0) + rate
    return rates


def arrival_position_probabilities(state: State, model: SQDModel) -> Dict[int, float]:
    """Probability that an arrival joins each (0-based, group-first) position.

    Useful for tests and for the routing-probability view of the policy: the
    probabilities over group-leading positions sum to one.
    """
    probabilities: Dict[int, float] = {}
    total_combinations = binomial(model.num_servers, model.d)
    for start, end, _value in tie_groups(state):
        favourable = binomial(end + 1, model.d) - binomial(start, model.d)
        if favourable <= 0:
            continue
        probabilities[start] = favourable / total_combinations
    return probabilities
