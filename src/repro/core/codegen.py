"""Lowering segment plans to the meta-operator flow (code generation).

This is the engine behind the pipeline's ``Codegen`` pass
(:class:`repro.pipeline.passes.Codegen`, for CMSwitch and the baselines
alike).
The code generator walks the segment plans produced by the DP + MIP
optimisation, assigns *physical* array indices on a
:class:`~repro.hardware.chip.CIMChip`, and emits the meta-operator flow of
§4.4: mode switches only for arrays whose mode actually changes, weight
loads for static operands, memory read/write operators for streamed data
and one ``parallel { ... }`` block per segment.

Physical assignment greedily reuses arrays that are already in the target
mode, which is what keeps the number of emitted ``CM.switch`` operators —
and therefore the run-time switching overhead — low.  Ours meets neither
reading of §5.5 (3–5 % for the whole switch process, < 1 % for the
driver switch): ledger row ``sec5.5.paper-value`` (``deviates``) in
``tests/test_paper_claims.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..hardware.chip import ChipStateError, CIMChip
from ..hardware.deha import ArrayMode, DualModeHardwareAbstraction
from .metaop import (
    ComputeOp,
    MemoryReadOp,
    MemoryWriteOp,
    MetaProgram,
    ParallelBlock,
    SwitchOp,
    SwitchType,
    WeightLoadOp,
)
from .program import SegmentPlan


class CodeGenerationError(RuntimeError):
    """Raised when a segment plan cannot be placed onto the chip."""


def generate_program(
    graph_name: str,
    segments: Sequence[SegmentPlan],
    hardware: DualModeHardwareAbstraction,
    chip: Optional[CIMChip] = None,
) -> MetaProgram:
    """Lower segment plans to a :class:`MetaProgram`.

    Args:
        graph_name: Name recorded in the program header.
        segments: Segment plans in execution order.
        hardware: Hardware abstraction (used to create the chip model when
            ``chip`` is not supplied).
        chip: Optional pre-existing chip state to generate against.

    Raises:
        CodeGenerationError: If a segment requires more arrays than exist.
    """
    chip = chip or CIMChip(hardware)
    program = MetaProgram(graph_name=graph_name)

    for segment in segments:
        # Release the previous segment's ownership but keep array modes, so
        # mode reuse across segments minimises switching.
        chip.release()

        block = ParallelBlock(segment_index=segment.index)
        switch_to_compute: List[int] = []
        switch_to_memory: List[int] = []
        placements: Dict[str, Dict[str, List[int]]] = {}

        for name in segment.operator_names:
            allocation = segment.allocations[name]
            profile = segment.profiles[name]
            try:
                compute_indices, to_compute = chip.allocate_free(
                    allocation.compute_arrays, name, ArrayMode.COMPUTE
                )
                memory_indices, to_memory = chip.allocate_free(
                    allocation.memory_arrays, name, ArrayMode.MEMORY
                )
            except ChipStateError as error:
                raise CodeGenerationError(f"segment {segment.index}: {error}") from error
            switch_to_compute.extend(to_compute)
            switch_to_memory.extend(to_memory)
            placements[name] = {"compute": compute_indices, "memory": memory_indices}

        # Mode switches are issued before the segment body (step 2 of the
        # inter-segment procedure, Fig. 10).
        if switch_to_compute:
            block.append(SwitchOp(SwitchType.TO_COMPUTE, tuple(sorted(switch_to_compute))))
        if switch_to_memory:
            block.append(SwitchOp(SwitchType.TO_MEMORY, tuple(sorted(switch_to_memory))))

        # Weight loads, data movement and compute, operator by operator.
        for name in segment.operator_names:
            profile = segment.profiles[name]
            placement = placements[name]
            if profile.has_static_weight and placement["compute"]:
                block.append(
                    WeightLoadOp(
                        operator=name,
                        array_addresses=tuple(placement["compute"]),
                        elements=profile.weight_elements,
                    )
                )
            source = "cim-memory" if placement["memory"] else "main-memory"
            block.append(
                MemoryReadOp(
                    operator=name,
                    elements=profile.streamed_input_elements + profile.extra_streamed_elements,
                    source=source,
                    array_addresses=tuple(placement["memory"]),
                )
            )
            block.append(
                ComputeOp(
                    operator=name,
                    array_addresses=tuple(placement["compute"]),
                    macs=profile.macs,
                    m=profile.matmul_m,
                    k=profile.matmul_k,
                    n=profile.matmul_n,
                )
            )
            destination = "cim-memory" if placement["memory"] else "main-memory"
            block.append(
                MemoryWriteOp(
                    operator=name,
                    elements=profile.output_elements,
                    destination=destination,
                    array_addresses=tuple(placement["memory"]),
                )
            )
        program.append(block)
    return program
