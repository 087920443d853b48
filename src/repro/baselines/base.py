"""Shared machinery of the fixed-mode baseline compilers.

The paper compares CMSwitch against three prior CIM compilers — PUMA,
OCC and CIM-MLC.  All three treat every CIM array as a *compute* resource
(no memory mode), so streamed data is served by the native buffer and the
off-chip link only, and all intermediate data that exceeds the native
buffer spills to main memory between segments.  They differ in their
scheduling strategy:

* **PUMA** — operator duplication plus cross-operator pipelining, with a
  simple greedy segmentation that packs consecutive operators until the
  chip is full.
* **OCC** — per-operator mapping with tiling / loop unrolling; operators
  execute one after another (no cross-operator pipeline, no duplication).
* **CIM-MLC** — the strongest baseline: the same dynamic-programming
  segmentation and pipelined scheduling CMSwitch uses (CMSwitch adopts its
  kernel optimisations), but with every array fixed in compute mode.

All of them reuse the CMSwitch cost model with ``allow_memory_mode=False``
so comparisons isolate exactly the contribution the paper claims: the
dual-mode dimension of the optimisation space.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..cost.arithmetic import OperatorProfile
from ..cost.latency import OperatorAllocation, segment_latency_cycles
from ..core.program import CompiledProgram
from ..core.segmentation import FlattenedUnit
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph


class BaselineCompiler:
    """Base class for fixed-mode (all-compute) baseline compilers."""

    name = "baseline"
    #: Whether operators within a segment execute as a pipeline.
    pipelined = True
    #: Whether spare arrays are used for weight duplication.
    duplication = True

    def __init__(
        self,
        hardware: DualModeHardwareAbstraction,
        generate_code: bool = False,
    ) -> None:
        self.hardware = hardware
        self.generate_code = generate_code

    # ------------------------------------------------------------------ #
    # strategy hooks
    # ------------------------------------------------------------------ #
    def segment_boundaries(self, units: Sequence[FlattenedUnit]) -> List[List[int]]:
        """Group unit indices into segments.  Overridden per baseline."""
        raise NotImplementedError

    def allocate(self, profiles: Dict[str, OperatorProfile]) -> Dict[str, OperatorAllocation]:
        """Fixed-mode allocation: minimum footprint plus optional duplication."""
        allocations = {
            name: OperatorAllocation(
                compute_arrays=max(1, profile.min_compute_arrays(self.hardware)),
                memory_arrays=0,
            )
            for name, profile in profiles.items()
        }
        if not self.duplication:
            return allocations
        # Spare arrays duplicate the bottleneck operator's weights.
        from ..core.allocation import AllocationResult

        interim = AllocationResult(
            allocations=allocations,
            latency_cycles=segment_latency_cycles(
                profiles, allocations, self.hardware, pipelined=self.pipelined
            ),
            feasible=True,
            solver=self.name,
        )
        refined = _refine_compute_only(interim, profiles, self.hardware, self.pipelined)
        return refined.allocations

    # ------------------------------------------------------------------ #
    # compilation (a pipeline configuration)
    # ------------------------------------------------------------------ #
    def build_pipeline(self):
        """The baseline's pass sequence.

        Shares ``Flatten`` and ``PartitionOversized`` with CMSwitch and
        swaps in the baseline segmentation / allocation / codegen
        passes (:mod:`repro.baselines.passes`).  Subclasses may
        override to customise further.
        """
        from ..pipeline import Flatten, PartitionOversized, Pipeline
        from .passes import BaselineAllocate, BaselineCodegen, BaselineSegment

        return Pipeline(
            [
                Flatten(),
                PartitionOversized(),
                BaselineSegment(self),
                BaselineAllocate(self),
                BaselineCodegen(),
            ]
        )

    def compile(self, graph: Graph) -> CompiledProgram:
        """Compile ``graph`` with this baseline's scheduling strategy.

        Runs :meth:`build_pipeline` over a fresh context — the same
        runner, context and instrumentation the CMSwitch compiler uses,
        so baseline programs carry ``stats["pass_seconds"]`` too.  The
        emitted plans are bit-identical to the pre-pipeline fused loop
        (asserted by the baseline parity tests).
        """
        from ..core.compiler import CompilerOptions
        from ..pipeline import PipelineContext

        start = time.perf_counter()
        options = CompilerOptions(
            pipelined=self.pipelined,
            refine=self.duplication,
            allow_memory_mode=False,
            generate_code=self.generate_code,
        )
        ctx = PipelineContext(
            graph=graph,
            hardware=self.hardware,
            options=options,
            compiler_name=self.name,
            started=start,
        )
        self.build_pipeline().run(ctx)
        elapsed = time.perf_counter() - start
        return CompiledProgram(
            graph_name=graph.name,
            compiler_name=self.name,
            hardware=self.hardware,
            segments=ctx.result.segments,
            block_repeat=float(graph.metadata.get("block_repeat", 1.0)),
            compile_seconds=elapsed,
            metadata={
                "graph_metadata": dict(graph.metadata),
                "passes": list(ctx.pass_seconds),
            },
            stats={
                "wall_seconds": elapsed,
                "pass_seconds": dict(ctx.pass_seconds),
            },
            meta_program=ctx.meta_program,
        )

    # ------------------------------------------------------------------ #
    # helpers shared by subclasses
    # ------------------------------------------------------------------ #
    def _greedy_pack(self, units: Sequence[FlattenedUnit], limit: Optional[int] = None) -> List[List[int]]:
        """Pack consecutive units into segments until the chip is full."""
        groups: List[List[int]] = []
        current: List[int] = []
        used = 0
        for unit in units:
            need = max(1, unit.profile.min_compute_arrays(self.hardware))
            too_many_ops = limit is not None and len(current) >= limit
            if current and (used + need > self.hardware.num_arrays or too_many_ops):
                groups.append(current)
                current = []
                used = 0
            current.append(unit.index)
            used += need
        if current:
            groups.append(current)
        return groups


def _refine_compute_only(result, profiles, hardware, pipelined):
    """Duplication refinement restricted to compute-mode growth."""
    from ..core.allocation import AllocationResult
    from ..cost.latency import operator_latency_cycles

    allocations = dict(result.allocations)
    remaining = hardware.num_arrays - sum(a.total_arrays for a in allocations.values())

    def latency_of(name: str) -> float:
        return operator_latency_cycles(profiles[name], allocations[name], hardware)

    while remaining > 0:
        bottleneck = max(allocations, key=latency_of)
        current = allocations[bottleneck]
        grown = OperatorAllocation(current.compute_arrays + 1, 0)
        if operator_latency_cycles(profiles[bottleneck], grown, hardware) >= latency_of(bottleneck) - 1e-9:
            break
        allocations[bottleneck] = grown
        remaining -= 1
    latency = segment_latency_cycles(profiles, allocations, hardware, pipelined=pipelined)
    return AllocationResult(allocations, latency, True, result.solver)
