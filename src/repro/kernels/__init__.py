"""repro.kernels — the event kernel of the fleet hot loop.

:class:`repro.fleet.engine.FleetSimulation` jumps the occupancy CTMC with
one kernel, :class:`~repro.kernels.uniformized.UniformizedKernel`: a numpy
chunk kernel that uniformizes the chain at ``Lambda = (lambda + mu) * N``,
prepares whole slices of events vectorized and scans the occupancy levels
event by event or, in large pools, speculatively: each event is classified
against the stretch's start occupancy and only the events near a moving
level are walked one by one.  It runs every policy the fleet engine knows
(``jsq``, ``random`` and SQ(d) for any ``d``, with or without
replacement).  Every fleet record names it under ``"kernel"``; the spec
option ``kernel`` accepts ``"auto"`` or ``"uniformized"`` and selects
nothing.  See ``docs/performance.md`` for the uniformization argument.
"""

from typing import List

from repro.kernels.uniformized import UniformizedKernel

__all__ = ["UniformizedKernel", "available_kernels"]


def available_kernels() -> List[str]:
    """The fleet kernel names, sorted: ``["uniformized"]``."""
    return [UniformizedKernel.name]
