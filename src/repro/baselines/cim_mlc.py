"""CIM-MLC-style baseline compiler (Qu et al., ASPLOS 2024).

CIM-MLC is the paper's main baseline and the state of the art it builds
on: a multi-level compilation stack with **multi-grained pipelining and
operator duplication**.  CMSwitch explicitly adopts CIM-MLC's kernel
optimisations, so this baseline is literally a *configuration* of the
CMSwitch pass pipeline (:mod:`repro.pipeline`) — the same ``Flatten``,
``PartitionOversized``, ``Segment``, ``Allocate``, ``Refine`` and
``Codegen`` passes — with a single difference: every array is pinned to
compute mode (``allow_memory_mode=False``).  Any performance difference between the two is therefore attributable to the
dual-mode dimension of the optimisation space, which is exactly the
comparison the paper makes.
"""

from __future__ import annotations

from typing import Optional

from ..core.compiler import CMSwitchCompiler, CompilerOptions
from ..core.program import CompiledProgram
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph


class CIMMLCCompiler:
    """DP segmentation + pipelining + duplication with fixed compute mode."""

    name = "cim-mlc"

    def __init__(
        self,
        hardware: DualModeHardwareAbstraction,
        options: Optional[CompilerOptions] = None,
        generate_code: bool = False,
    ) -> None:
        base = options or CompilerOptions()
        self.options = CompilerOptions(
            max_segment_operators=base.max_segment_operators,
            pipelined=True,
            include_switch_cost=base.include_switch_cost,
            use_milp=base.use_milp,
            refine=base.refine,
            allow_memory_mode=False,
            generate_code=generate_code,
        )
        self.hardware = hardware
        self._inner = CMSwitchCompiler(hardware, self.options)

    def compile(self, graph: Graph) -> CompiledProgram:
        """Compile ``graph`` with the fixed-mode CIM-MLC strategy."""
        program = self._inner.compile(graph)
        program.compiler_name = self.name
        return program
