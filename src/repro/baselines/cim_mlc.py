"""CIM-MLC-style baseline compiler (Qu et al., ASPLOS 2024).

CIM-MLC is the paper's main baseline and the state of the art it builds
on: a multi-level compilation stack with **multi-grained pipelining and
operator duplication**.  CMSwitch explicitly adopts CIM-MLC's kernel
optimisations, so this baseline is literally a *configuration* of the
CMSwitch pass pipeline (:mod:`repro.pipeline`) — the same ``Flatten``,
``PartitionOversized``, ``Segment``, ``Allocate``, ``Refine`` and
``Codegen`` passes — with a single difference: every array is pinned to
compute mode (``allow_memory_mode=False``).  Any performance difference
between the two is therefore attributable to the dual-mode dimension of
the optimisation space, which is exactly the comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..core.cache import AllocationCache
from ..core.compiler import CMSwitchCompiler, CompilerOptions
from ..hardware.deha import DualModeHardwareAbstraction


class CIMMLCCompiler(CMSwitchCompiler):
    """DP segmentation + pipelining + duplication with fixed compute mode.

    ``options`` are the caller's with ``pipelined=True`` and
    ``allow_memory_mode=False`` pinned; every other field (the DP window,
    the engine, refinement, code generation) is honoured.
    """

    name = "cim-mlc"

    def __init__(
        self,
        hardware: DualModeHardwareAbstraction,
        options: Optional[CompilerOptions] = None,
        cache: Optional[AllocationCache] = None,
        obs=None,
    ) -> None:
        pinned = replace(
            options or CompilerOptions(), pipelined=True, allow_memory_mode=False
        )
        super().__init__(hardware, pinned, cache=cache, obs=obs)
