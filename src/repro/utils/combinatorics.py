"""Combinatorial primitives used by the state-space and transition machinery.

The SQ(d) transition rates are ratios of binomial coefficients, and the
threshold-restricted state space of the bound models is enumerated as bounded
non-increasing integer tuples (equivalently, partitions with a bounded number
of parts and bounded part size).  Everything here is exact integer
arithmetic; the array forms hold the tuples as rows of an ``int64`` array.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np


def binomial(n: int, k: int) -> int:
    """Return the binomial coefficient ``C(n, k)``.

    Out-of-range arguments (``k < 0`` or ``k > n`` or ``n < 0``) return 0,
    which matches the convention used in the paper's transition rates, where
    terms such as ``C(i - 1, d)`` vanish when ``i - 1 < d``.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multiset_permutation_count(counts: Sequence[int]) -> int:
    """Number of distinct permutations of a multiset given element counts.

    Used to map ordered (sorted) states of the SQ(d) Markov process back to
    the number of raw, per-server labelled states they represent.
    """
    total = sum(counts)
    result = math.factorial(total)
    for count in counts:
        if count < 0:
            raise ValueError("counts must be non-negative")
        result //= math.factorial(count)
    return result


def descending_tuples(length: int, max_value: int, min_value: int = 0) -> Iterator[Tuple[int, ...]]:
    """Yield all non-increasing integer tuples of a given length.

    Every component lies in ``[min_value, max_value]`` and the tuple is
    sorted in non-increasing order.  Tuples are produced in lexicographically
    decreasing order of their components (the rows of
    :func:`descending_array`).

    >>> list(descending_tuples(2, 1))
    [(1, 1), (1, 0), (0, 0)]
    """
    yield from map(tuple, descending_array(length, max_value, min_value).tolist())


def descending_array(length: int, max_value: int, min_value: int = 0) -> np.ndarray:
    """The tuples of :func:`descending_tuples` as the rows of an ``int64`` array.

    Adding ``length - 1 - i`` to entry ``i`` maps the non-increasing tuples
    one-to-one onto the strictly decreasing ones, the ``length``-subsets of
    ``{0, ..., max_value - min_value + length - 1}``, and preserves
    lexicographic order; ``itertools.combinations`` lists those subsets of a
    decreasing range in lexicographically decreasing order.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    span = range(max_value - min_value + length - 1, -1, -1)
    flat = np.fromiter(itertools.chain.from_iterable(itertools.combinations(span, length)), dtype=np.int64)
    return flat.reshape(math.comb(len(span), length), length) - np.arange(length - 1, -1, -1) + min_value


def descending_rank(tuples: np.ndarray, max_value: int) -> np.ndarray:
    """Row index of each non-increasing tuple in ``descending_array(k, max_value)``.

    Through the map of :func:`descending_array` a tuple ``s`` is the subset
    ``c_j = s_j + k - 1 - j``, whose rank in the combinatorial number system
    (increasing order) is ``sum_j C(c_j, k - j)``; the rows come in the
    opposite order.  Every term is below the number of tuples, so the ranks
    are exact in ``int64`` whenever that number is.
    """
    tuples = np.asarray(tuples, dtype=np.int64)
    width = tuples.shape[1]
    ranks = np.full(len(tuples), binomial(width + max_value, width) - 1, dtype=np.int64)
    for j in range(width):
        table = np.array([binomial(x + width - 1 - j, width - j) for x in range(max_value + 1)], dtype=np.int64)
        ranks -= table[tuples[:, j]]
    return ranks


def bounded_partitions(
    num_parts: int,
    max_part: int,
    total: int | None = None,
    max_total: int | None = None,
) -> List[Tuple[int, ...]]:
    """Enumerate non-increasing tuples with bounded parts and optional sums.

    Parameters
    ----------
    num_parts:
        Number of components in each tuple (zero parts are allowed as
        components, i.e. these are partitions of *at most* ``num_parts``
        positive parts padded with zeros).
    max_part:
        Upper bound on each component.
    total:
        If given, only tuples whose components sum exactly to ``total`` are
        returned.
    max_total:
        If given, only tuples whose components sum to at most ``max_total``
        are returned.
    """
    results: List[Tuple[int, ...]] = []
    for candidate in descending_tuples(num_parts, max_part):
        candidate_sum = sum(candidate)
        if total is not None and candidate_sum != total:
            continue
        if max_total is not None and candidate_sum > max_total:
            continue
        results.append(candidate)
    return results


def compositions(total: int, num_parts: int) -> Iterator[Tuple[int, ...]]:
    """Yield all tuples of ``num_parts`` non-negative integers summing to ``total``."""
    if num_parts < 1:
        raise ValueError("num_parts must be at least 1")
    if num_parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, num_parts - 1):
            yield (first,) + rest


def num_bounded_descending_tuples(length: int, max_value: int) -> int:
    """Count non-increasing tuples of ``length`` components in ``[0, max_value]``.

    This equals ``C(length + max_value, max_value)`` and is the size of the
    repeating QBD block in the paper (with ``length = N - 1`` free offsets and
    ``max_value = T``): ``C(N + T - 1, T)``.
    """
    return binomial(length + max_value, max_value)
