"""Timing simulator: replay a meta-operator flow and account cycles.

The compiler predicts latency from its analytical cost model; the timing
simulator provides an independent estimate by *replaying the generated
meta-operator flow* against the hardware abstraction:

* ``CM.switch`` operators cost the per-array switch latency (Eq. 1),
* weight loads cost the array-programming latency per written array,
* memory reads/writes cost elements divided by the bandwidth of their
  source/destination (memory-mode arrays vs. the off-chip path),
* compute operators cost MACs divided by the throughput of the arrays
  they occupy,
* operators inside one ``parallel { ... }`` block overlap (pipeline), so a
  block costs its longest stage plus the pipeline fill time.

The resulting totals should track the compiler's prediction; tests check
they agree within a modelling tolerance, which guards against the compiler
optimising for a cost it would not actually achieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.metaop import (
    ComputeOp,
    MemoryReadOp,
    MemoryWriteOp,
    MetaProgram,
    ParallelBlock,
    SwitchOp,
    SwitchType,
    WeightLoadOp,
)
from ..core.program import CompiledProgram
from ..hardware.chip import CIMChip
from ..hardware.deha import ArrayMode, DualModeHardwareAbstraction


@dataclass
class TimingBreakdown:
    """Cycle totals per activity category."""

    compute: float = 0.0
    memory_read: float = 0.0
    memory_write: float = 0.0
    weight_load: float = 0.0
    mode_switch: float = 0.0
    pipeline_fill: float = 0.0

    @property
    def total(self) -> float:
        """Sum over all categories."""
        return (
            self.compute
            + self.memory_read
            + self.memory_write
            + self.weight_load
            + self.mode_switch
            + self.pipeline_fill
        )


@dataclass
class TimingReport:
    """Result of replaying one compiled program."""

    graph_name: str
    block_cycles: List[float] = field(default_factory=list)
    breakdown: TimingBreakdown = field(default_factory=TimingBreakdown)
    switch_events: int = 0
    #: Cycles of meta-operators issued outside any parallel block.
    top_level_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        """Total cycles of one pass over the program."""
        return sum(self.block_cycles) + self.top_level_cycles

    def summary(self) -> str:
        """Human-readable summary used by examples."""
        b = self.breakdown
        return (
            f"timing for {self.graph_name}: {self.total_cycles:,.0f} cycles "
            f"(compute {b.compute:,.0f}, reads {b.memory_read:,.0f}, "
            f"writes {b.memory_write:,.0f}, weight loads {b.weight_load:,.0f}, "
            f"switches {b.mode_switch:,.0f})"
        )


class TimingSimulator:
    """Replays meta-operator flows against the DEHA parameters."""

    def __init__(self, hardware: DualModeHardwareAbstraction) -> None:
        self.hardware = hardware

    # ------------------------------------------------------------------ #
    # meta-operator costs
    # ------------------------------------------------------------------ #
    def _read_cycles(self, op: MemoryReadOp) -> float:
        if op.source == "cim-memory" and op.array_addresses:
            bandwidth = self.hardware.d_main + len(op.array_addresses) * self.hardware.d_cim
        else:
            bandwidth = self.hardware.d_main
        return op.elements / bandwidth if bandwidth > 0 else float("inf")

    def _write_cycles(self, op: MemoryWriteOp) -> float:
        if op.destination == "cim-memory" and op.array_addresses:
            bandwidth = self.hardware.d_main + len(op.array_addresses) * self.hardware.d_cim
        else:
            bandwidth = self.hardware.d_main
        return op.elements / bandwidth if bandwidth > 0 else float("inf")

    def _compute_cycles(self, op: ComputeOp) -> float:
        arrays = max(1, len(op.array_addresses))
        rate = arrays * self.hardware.op_cim
        return op.macs / rate if rate > 0 else float("inf")

    def _weight_load_cycles(self, op: WeightLoadOp) -> float:
        return len(op.array_addresses) * self.hardware.array_write_latency_cycles

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def run(self, program_or_meta: object) -> TimingReport:
        """Replay a compiled program (or a bare meta program)."""
        if isinstance(program_or_meta, CompiledProgram):
            meta = program_or_meta.meta_program
            name = program_or_meta.graph_name
            if meta is None:
                raise ValueError(
                    "compiled program has no meta program; compile with generate_code=True"
                )
            if not isinstance(meta, MetaProgram):
                raise ValueError(
                    "compiled program carries its meta program as text only (decoded "
                    "from the wire or served from a cache_dir program store); compile "
                    "it in-process without cache_dir to get an executable flow"
                )
        elif isinstance(program_or_meta, MetaProgram):
            meta = program_or_meta
            name = program_or_meta.graph_name
        else:
            raise TypeError(f"cannot simulate object of type {type(program_or_meta)!r}")

        chip = CIMChip(self.hardware)
        report = TimingReport(graph_name=name)
        for item in meta.items:
            if isinstance(item, ParallelBlock):
                report.block_cycles.append(self._run_block(item, chip, report))
            elif isinstance(item, SwitchOp):
                cycles = self._switch(item, chip, report)
                report.breakdown.mode_switch += cycles
                report.top_level_cycles += cycles
            elif isinstance(item, WeightLoadOp):
                cycles = self._weight_load_cycles(item)
                report.breakdown.weight_load += cycles
                report.top_level_cycles += cycles
        return report

    def _switch(self, op: SwitchOp, chip: CIMChip, report: TimingReport) -> float:
        mode = ArrayMode.MEMORY if op.switch_type is SwitchType.TO_MEMORY else ArrayMode.COMPUTE
        cycles = chip.switch_mode(op.array_addresses, mode)
        report.switch_events += len(op.array_addresses)
        return cycles

    def _run_block(self, block: ParallelBlock, chip: CIMChip, report: TimingReport) -> float:
        """Cost of one segment: pipelined stages overlap, switches serialise."""
        stage_cycles: Dict[str, float] = {}
        switch_cycles = 0.0
        weight_cycles: Dict[str, float] = {}
        for op in block.body:
            if isinstance(op, SwitchOp):
                switch_cycles += self._switch(op, chip, report)
            elif isinstance(op, WeightLoadOp):
                weight_cycles[op.operator] = (
                    weight_cycles.get(op.operator, 0.0) + self._weight_load_cycles(op)
                )
            elif isinstance(op, MemoryReadOp):
                cycles = self._read_cycles(op)
                stage_cycles[op.operator] = stage_cycles.get(op.operator, 0.0) + cycles
                report.breakdown.memory_read += cycles
            elif isinstance(op, MemoryWriteOp):
                cycles = self._write_cycles(op)
                stage_cycles[op.operator] = stage_cycles.get(op.operator, 0.0) + cycles
                report.breakdown.memory_write += cycles
            elif isinstance(op, ComputeOp):
                cycles = self._compute_cycles(op)
                stage_cycles[op.operator] = stage_cycles.get(op.operator, 0.0) + cycles
                report.breakdown.compute += cycles
        report.breakdown.mode_switch += switch_cycles
        # Weight loads of different operators overlap (per-array ports);
        # the longest one is exposed before the pipeline starts.
        exposed_weight = max(weight_cycles.values(), default=0.0)
        report.breakdown.weight_load += exposed_weight
        fill = len(stage_cycles) * self.hardware.compute_latency_cycles
        report.breakdown.pipeline_fill += fill
        longest_stage = max(stage_cycles.values(), default=0.0)
        return longest_stage + fill + exposed_weight + switch_cycles
