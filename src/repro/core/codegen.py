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
and therefore the run-time switching overhead — low.  What share §5.5
reports (3–5 % or < 1 %) is unsettled: ledger row ``sec5.5.paper-value``
(``untested``) in ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.chip import CIMChip
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


def _take_arrays(
    chip: CIMChip, count: int, mode: ArrayMode, owner: str
) -> Tuple[List[int], List[int]]:
    """Claim ``count`` free arrays for ``owner``; prefer mode matches.

    Returns:
        ``(indices, switched)`` — all claimed indices and the subset whose
        mode had to change.
    """
    free = chip.free_arrays()
    if len(free) < count:
        raise CodeGenerationError(
            f"segment needs {count} arrays for {owner!r} but only {len(free)} are free"
        )
    free.sort(key=lambda array: (array.mode is not mode, array.index))
    chosen = free[:count]
    switched = [array.index for array in chosen if array.mode is not mode]
    indices = [array.index for array in chosen]
    chip.assign(indices, owner=owner, mode=mode, content=owner)
    return indices, switched


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
        for array in chip.arrays:
            array.owner = None
            array.content = None

        block = ParallelBlock(segment_index=segment.index)
        switch_to_compute: List[int] = []
        switch_to_memory: List[int] = []
        placements: Dict[str, Dict[str, List[int]]] = {}

        for name in segment.operator_names:
            allocation = segment.allocations[name]
            profile = segment.profiles[name]
            compute_indices: List[int] = []
            memory_indices: List[int] = []
            if allocation.compute_arrays > 0:
                compute_indices, switched = _take_arrays(
                    chip, allocation.compute_arrays, ArrayMode.COMPUTE, name
                )
                switch_to_compute.extend(switched)
            if allocation.memory_arrays > 0:
                memory_indices, switched = _take_arrays(
                    chip, allocation.memory_arrays, ArrayMode.MEMORY, name
                )
                switch_to_memory.extend(switched)
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
