"""The flow interpreter: walk a meta-operator flow on a chip, check it, price it.

The compiler predicts latency from its analytical cost model; the timing
simulator provides an independent estimate by *replaying the generated
meta-operator flow* against the hardware abstraction.  It is the one walk
of a flow: :class:`~repro.sim.functional.FunctionalSimulator` takes its
switch accounting from it.  Each meta-operator is applied to one
:class:`~repro.hardware.chip.CIMChip` and priced where it sits:

* ``CM.switch`` operators set array modes and cost the per-array switch
  latency (Eq. 1),
* weight loads claim compute-mode arrays and cost the array-programming
  latency per written array,
* memory reads/writes cost elements divided by the bandwidth of their
  source/destination (memory-mode arrays, which they claim, vs. the
  off-chip path),
* compute operators claim compute-mode arrays and cost MACs divided by
  the throughput of the arrays they occupy,
* operators inside one ``parallel { ... }`` block overlap (pipeline), so a
  block costs its longest stage plus the pipeline fill time; operators
  outside any block run one after another.

An illegal claim raises :class:`FlowError` naming the segment, the
meta-operator and the array: a weight load or compute on an array not in
compute mode, a ``cim-memory`` read or write on an array not in memory
mode, or one array claimed by two operators inside one ``parallel``
block (claims are released at the start of every block; modes carry
over).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.metaop import (
    ComputeOp,
    MemoryReadOp,
    MetaOperator,
    MetaProgram,
    ParallelBlock,
    SwitchOp,
    SwitchType,
    WeightLoadOp,
)
from ..core.program import CompiledProgram
from ..hardware.chip import ChipStateError, CIMChip
from ..hardware.deha import ArrayMode, DualModeHardwareAbstraction


class FunctionalSimulationError(RuntimeError):
    """Raised when a compiled program cannot be simulated."""


class FlowError(FunctionalSimulationError, ValueError):
    """The meta-operator flow cannot run: it is missing, text only, or
    makes an illegal array claim.  Both simulators raise it."""


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


def _executable_flow(program: CompiledProgram) -> MetaProgram:
    """The program's flow, or :class:`FlowError` saying why it cannot run."""
    meta = program.meta_program
    if meta is None:
        raise FlowError(
            f"{program.graph_name!r} was compiled without a meta-operator flow; "
            "compile with generate_code=True"
        )
    if not isinstance(meta, MetaProgram):
        raise FlowError(
            f"the meta-operator flow of {program.graph_name!r} is text-only "
            "(the program was decoded from the wire or served from a "
            "cache_dir program store) and cannot be executed; compile it "
            "in-process without cache_dir to get an executable flow"
        )
    return meta


def _claim(chip: CIMChip, op: MetaOperator, mode: ArrayMode) -> None:
    """Assign ``op``'s arrays to its operator; each must already be in ``mode``."""
    for index in op.array_addresses:
        if not 0 <= index < len(chip.arrays) or chip.arrays[index].mode is not mode:
            raise ChipStateError(f"array {index} is not in {mode.value} mode")
    chip.assign(op.array_addresses, op.operator, mode)


class TimingSimulator:
    """Replays meta-operator flows against the DEHA parameters."""

    def __init__(self, hardware: DualModeHardwareAbstraction) -> None:
        self.hardware = hardware

    def run(self, program_or_meta: object) -> TimingReport:
        """Replay a compiled program (or a bare meta program).

        Raises:
            FlowError: The program has no executable flow, or the flow
                makes an illegal array claim.
        """
        if isinstance(program_or_meta, CompiledProgram):
            meta = _executable_flow(program_or_meta)
        elif isinstance(program_or_meta, MetaProgram):
            meta = program_or_meta
        else:
            raise TypeError(f"cannot simulate object of type {type(program_or_meta)!r}")

        chip = CIMChip(self.hardware)
        report = TimingReport(graph_name=program_or_meta.graph_name)
        for item in meta.items:
            if isinstance(item, ParallelBlock):
                chip.release()
                report.block_cycles.append(self._run_block(item, chip, report))
            else:
                term, cycles = self._step(chip, "top level", item, report)
                setattr(report.breakdown, term, getattr(report.breakdown, term) + cycles)
                report.top_level_cycles += cycles
        return report

    def _step(
        self, chip: CIMChip, where: str, op: MetaOperator, report: TimingReport
    ) -> Tuple[str, float]:
        """Apply one meta-operator to the chip; return its breakdown term and cycles."""
        hardware = self.hardware
        try:
            if isinstance(op, SwitchOp):
                to_memory = op.switch_type is SwitchType.TO_MEMORY
                mode = ArrayMode.MEMORY if to_memory else ArrayMode.COMPUTE
                cycles = chip.switch_mode(op.array_addresses, mode)
                report.switch_events += len(op.array_addresses)
                return "mode_switch", cycles
            if isinstance(op, WeightLoadOp):
                _claim(chip, op, ArrayMode.COMPUTE)
                return "weight_load", len(op.array_addresses) * hardware.array_write_latency_cycles
            if isinstance(op, ComputeOp):
                _claim(chip, op, ArrayMode.COMPUTE)
                rate = max(1, len(op.array_addresses)) * hardware.op_cim
                return "compute", op.macs / rate if rate > 0 else float("inf")
            reading = isinstance(op, MemoryReadOp)
            bandwidth = hardware.d_main
            if (op.source if reading else op.destination) == "cim-memory" and op.array_addresses:
                _claim(chip, op, ArrayMode.MEMORY)
                bandwidth = hardware.d_main + len(op.array_addresses) * hardware.d_cim
            cycles = op.elements / bandwidth if bandwidth > 0 else float("inf")
            return ("memory_read" if reading else "memory_write"), cycles
        except ChipStateError as error:
            raise FlowError(f"{where}: {op.render()}: {error}") from error

    def _run_block(self, block: ParallelBlock, chip: CIMChip, report: TimingReport) -> float:
        """Cost of one segment: pipelined stages overlap, switches serialise."""
        stage_cycles: Dict[str, float] = {}
        switch_cycles = 0.0
        weight_cycles: Dict[str, float] = {}
        where = f"segment {block.segment_index}"
        for op in block.body:
            term, cycles = self._step(chip, where, op, report)
            if term == "mode_switch":
                switch_cycles += cycles
            elif term == "weight_load":
                weight_cycles[op.operator] = weight_cycles.get(op.operator, 0.0) + cycles
            else:
                stage_cycles[op.operator] = stage_cycles.get(op.operator, 0.0) + cycles
                setattr(report.breakdown, term, getattr(report.breakdown, term) + cycles)
        report.breakdown.mode_switch += switch_cycles
        # Weight loads of different operators overlap (per-array ports);
        # the longest one is exposed before the pipeline starts.
        exposed_weight = max(weight_cycles.values(), default=0.0)
        report.breakdown.weight_load += exposed_weight
        fill = len(stage_cycles) * self.hardware.compute_latency_cycles
        report.breakdown.pipeline_fill += fill
        longest_stage = max(stage_cycles.values(), default=0.0)
        return longest_stage + fill + exposed_weight + switch_cycles
