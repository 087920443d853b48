"""PUMA-style baseline compiler (Ankit et al., ASPLOS 2019).

PUMA focuses on **operator duplication and pipeline scheduling**: weights
of consecutive operators are mapped onto the crossbars, spare crossbars
replicate the bottleneck operator, and operators stream through a
pipeline.  Segmentation is a simple greedy packing — operators are added
to the current segment until the chip runs out of arrays — without the
mode-switch- or spill-aware dynamic program of CMSwitch, and every array
stays in compute mode.
"""

from __future__ import annotations

from typing import Sequence

from ..core.segmentation import FlattenedUnit
from ..hardware.deha import DualModeHardwareAbstraction
from .base import BaselineCompiler, Boundaries, policy_passes

#: Maximum operators per pipeline stage group — the same pipeline-depth
#: limit the control hardware imposes on every compiler under test.
MAX_GROUP_OPERATORS = 8


def puma_boundaries(
    units: Sequence[FlattenedUnit], hardware: DualModeHardwareAbstraction
) -> Boundaries:
    """Pack consecutive operators until the arrays are exhausted."""
    boundaries: Boundaries = []
    start = used = 0
    for unit in units:
        need = unit.profile.compute_floor(hardware)
        full = used + need > hardware.num_arrays
        if unit.index > start and (full or unit.index - start >= MAX_GROUP_OPERATORS):
            boundaries.append((start, unit.index - 1))
            start, used = unit.index, 0
        used += need
    if units:
        boundaries.append((start, len(units) - 1))
    return boundaries


class PUMACompiler(BaselineCompiler):
    """Greedy-packing, duplication + pipelining, all-compute baseline."""

    name = "puma"
    pipelined = True
    passes = policy_passes(puma_boundaries)
