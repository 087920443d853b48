"""OCC-style baseline compiler (Siemieniuk et al., TCAD 2021).

OCC is an MLIR-based end-to-end compiler that optimises **operator mapping
via tiling and loop unrolling**.  Each operator is mapped and executed on
its own: the tiling uses the whole chip for the running operator (so
per-operator latency is competitive — the spare arrays duplicate its
weights), but there is no cross-operator pipelining and no segment
packing, and every array is a compute array.
"""

from __future__ import annotations

from typing import Sequence

from ..core.segmentation import FlattenedUnit
from ..hardware.deha import DualModeHardwareAbstraction
from .base import BaselineCompiler, Boundaries, policy_passes


def occ_boundaries(
    units: Sequence[FlattenedUnit], hardware: DualModeHardwareAbstraction
) -> Boundaries:
    """Every operator forms its own segment (serial execution)."""
    return [(unit.index, unit.index) for unit in units]


class OCCCompiler(BaselineCompiler):
    """One-operator-at-a-time, tiling-only, all-compute baseline."""

    name = "occ"
    pipelined = False
    passes = policy_passes(occ_boundaries)
