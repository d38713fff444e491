"""Deterministic random-number-stream management.

Simulations in :mod:`repro.simulation` take a single integer seed and derive
independent streams for arrivals, services and the dispatcher's polling
choices, so experiments are reproducible and the streams stay decoupled when
one component draws a different number of variates.
"""

from __future__ import annotations

from typing import List

import numpy as np


def spawn_rngs(seed: int | None, count: int) -> List[np.random.Generator]:
    """Return ``count`` independent NumPy generators derived from ``seed``.

    ``seed=None`` produces non-deterministic streams (seeded from OS entropy),
    which is convenient for exploratory runs but should be avoided in tests.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    seed_seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in seed_seq.spawn(count)]


def spawn_seeds(seed: int | None, count: int, start: int = 0) -> List[int]:
    """Return ``count`` independent *integer* seeds derived from ``seed``.

    Parameters
    ----------
    seed : int or None
        Root seed.  ``None`` derives the children from OS entropy
        (non-reproducible); any integer gives a deterministic sequence.
    count : int
        Number of child seeds to return.
    start : int, optional
        Index of the first child.  ``spawn_seeds(s, k, start=j)`` returns
        exactly the slice ``[j : j + k]`` of the infinite child sequence of
        ``s``, so callers can extend an ensemble adaptively (more
        replications later) without re-running or re-seeding the earlier
        ones.

    Returns
    -------
    list of int
        Plain integers (picklable, printable, storable in JSON) suitable as
        the ``seed`` argument of any simulator in this package.  Child
        ``i`` is derived from ``SeedSequence(seed).spawn(...)[i]``, so the
        streams are statistically independent of each other and of the
        parent — unlike ``seed + i`` arithmetic, which correlates PCG64
        streams in the low bits.  Child ``i`` is built straight from its
        spawn key, so the cost is O(count) whatever ``start`` is.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if start < 0:
        raise ValueError("start must be >= 0")
    root = np.random.SeedSequence(seed)
    return [
        int(np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (index,),
                                   pool_size=root.pool_size).generate_state(1, np.uint64)[0])
        for index in range(start, start + count)
    ]
