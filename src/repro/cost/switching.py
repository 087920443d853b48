"""Inter-segment overhead model (Eqs. 1, 2 and 4 of the paper).

When execution moves from segment ``S'`` to segment ``S`` three costs
arise (Fig. 10):

1. **Write-back** ``T_wb`` — live intermediate data held in memory-mode
   arrays of ``S'`` that the next segments still need, but that does not
   fit in the memory capacity carried into ``S``, must be stored to main
   memory (and later re-loaded).
2. **Mode switch** ``T_swc`` — arrays changing between compute and memory
   mode pay the per-array switch latency (Eq. 1).
3. **Weight reload** ``T_rw`` — compute arrays of ``S`` must be programmed
   with the weights of the new segment's operators (Eq. 2); the off-chip
   fetch of those weights is overlapped.

Their sum is ``T_inter`` (Eq. 4).  ``T_wb`` and ``T_swc`` are defined once,
on counts (:func:`spill_cycles`, :func:`switch_cycles`): the segmenter's
``NetworkSegmenter._edge_price`` calls them directly, and
:func:`writeback_cycles` / :func:`mode_switch_cycles` apply them to
:class:`SegmentResources` for the independent re-pricer
``repro.core._reference.reprice_segments`` that checks the plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from ..hardware.deha import DualModeHardwareAbstraction
from .arithmetic import OperatorProfile, ProfileVectors
from .latency import OperatorAllocation


@dataclass(frozen=True)
class SegmentResources:
    """Aggregate mode allocation of one segment.

    Attributes:
        compute_arrays: Total arrays in compute mode across the segment.
        memory_arrays: Total arrays in memory mode across the segment
            (operator buffers plus boundary buffers).
        live_output_elements: Elements produced by the segment that later
            segments (or the graph output) still need.
        static_weight_elements: Static weights the segment's compute arrays
            must be programmed with.
        idle_arrays: Arrays the segment leaves unused.  A dual-mode
            compiler can switch them to memory mode to keep live data on
            chip across the segment boundary; a fixed-mode compiler cannot.
    """

    compute_arrays: int
    memory_arrays: int
    live_output_elements: int = 0
    static_weight_elements: int = 0
    idle_arrays: int = 0

    @property
    def total_arrays(self) -> int:
        """Total arrays the segment occupies."""
        return self.compute_arrays + self.memory_arrays


#: What the first segment is entered from (``previous`` None): nothing.
INITIAL_RESOURCES = SegmentResources(0, 0)


def aggregate_resources(
    profiles: Mapping[str, OperatorProfile],
    allocations: Mapping[str, OperatorAllocation],
    live_output_elements: int = 0,
    num_arrays_total: Optional[int] = None,
) -> SegmentResources:
    """Summarise a segment's allocation for the inter-segment cost model."""
    compute = sum(allocations[name].compute_arrays for name in profiles)
    memory = sum(allocations[name].memory_arrays for name in profiles)
    idle = max(0, num_arrays_total - compute - memory) if num_arrays_total is not None else 0
    return SegmentResources(
        compute_arrays=compute,
        memory_arrays=memory,
        live_output_elements=live_output_elements,
        static_weight_elements=sum(
            p.weight_elements for p in profiles.values() if p.has_static_weight
        ),
        idle_arrays=idle,
    )


def window_totals(
    vectors: ProfileVectors,
    start: int,
    stop: int,
    pairs: Sequence[Tuple[int, int]],
    hardware: DualModeHardwareAbstraction,
) -> Tuple[int, int, float]:
    """``(compute_arrays, memory_arrays, T_rw)`` of operators ``start..stop-1``
    under ``pairs`` (a window result's), in one walk over the columns: the
    integers and Eq. 2 maximum of :func:`aggregate_resources` and
    :func:`weight_reload_cycles`, priced per DP edge without profile objects."""
    has_static_weight = vectors.has_static_weight
    required_arrays = vectors.required_arrays
    write_latency = hardware.array_write_latency_cycles
    compute = memory = 0
    reload = 0.0
    for index, (compute_arrays, memory_arrays) in zip(range(start, stop), pairs):
        compute += compute_arrays
        memory += memory_arrays
        if has_static_weight[index]:
            required = required_arrays[index]
            arrays_written = min(compute_arrays, required) or required
            reload = max(reload, arrays_written * write_latency)
    return compute, memory, reload


def switch_counts(
    previous_compute: int, previous_memory: int, compute: int, memory: int
) -> Tuple[int, int]:
    """``(memory_to_compute, compute_to_memory)`` arrays switching mode.

    Arrays keep their mode whenever possible (the code generator assigns
    physical arrays to maximise reuse), so only the *net* growth of each
    mode switches arrays, taken from the other mode's first.  The first
    segment, entered from :data:`INITIAL_RESOURCES`, switches nothing.
    """
    return (
        min(max(0, compute - previous_compute), previous_memory),
        min(max(0, memory - previous_memory), previous_compute),
    )


def switch_cycles(
    previous_compute: int,
    previous_memory: int,
    compute: int,
    memory: int,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """``T_swc`` (Eq. 1) on array counts, its one definition: per-array
    switch latency times :func:`switch_counts`."""
    to_compute, to_memory = switch_counts(previous_compute, previous_memory, compute, memory)
    return to_compute * hardware.switch_latency_m2c + to_memory * hardware.switch_latency_c2m


def spill_cycles(
    live_elements: int,
    previous_idle: int,
    memory: int,
    idle: int,
    hardware: DualModeHardwareAbstraction,
    allow_boundary_buffering: bool = True,
) -> float:
    """``T_wb`` on counts, its one definition (see :func:`writeback_cycles`):
    the previous segment's live elements and idle arrays, the entered
    segment's memory-mode and idle arrays."""
    if live_elements == 0:
        return 0.0
    retained_capacity = hardware.buffer_elements
    if allow_boundary_buffering:
        retained_capacity += memory * hardware.array_capacity_elements
        boundary_arrays = min(previous_idle, idle)
        retained_capacity += boundary_arrays * hardware.array_capacity_elements
    overflow = max(0, live_elements - retained_capacity)
    if overflow == 0:
        return 0.0
    # store + reload across the external link
    return 2.0 * overflow / hardware.d_extern


def mode_switch_cycles(
    previous: Optional[SegmentResources],
    current: SegmentResources,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """``T_swc`` (Eq. 1): per-array switch latency times switch counts."""
    previous = previous or INITIAL_RESOURCES
    return switch_cycles(
        previous.compute_arrays, previous.memory_arrays,
        current.compute_arrays, current.memory_arrays, hardware,
    )


def writeback_cycles(
    previous: Optional[SegmentResources],
    current: SegmentResources,
    hardware: DualModeHardwareAbstraction,
    allow_boundary_buffering: bool = True,
) -> float:
    """``T_wb``: spilling live data that no longer fits on chip.

    The previous segment's live outputs preferentially stay on chip — in
    the native buffer and, for a dual-mode compiler, in arrays switched to
    memory mode: the operator buffers of the next segment plus any arrays
    both segments leave idle (boundary buffers).  The overflow is written
    back to main memory and read again when consumed, both over the
    external link.  Data that is consumed immediately and never reused
    (e.g. softmax probabilities) never appears in ``live_output_elements``.

    Args:
        allow_boundary_buffering: Whether idle arrays may be repurposed as
            memory-mode boundary buffers.  Fixed-mode baselines pass False
            — their idle arrays cannot hold data.
    """
    previous = previous or INITIAL_RESOURCES
    return spill_cycles(
        previous.live_output_elements, previous.idle_arrays,
        current.memory_arrays, current.idle_arrays, hardware, allow_boundary_buffering,
    )


def weight_reload_cycles(
    profiles: Mapping[str, OperatorProfile],
    allocations: Mapping[str, OperatorAllocation],
    hardware: DualModeHardwareAbstraction,
) -> float:
    """``T_rw`` (Eq. 2): programming the new segment's compute arrays.

    Per Eq. 2 the reload of different operators overlaps (write ports are
    per-array), so the array-programming term is the maximum over
    operators of ``Com_Oi x Latency_write``.  Following the paper, the
    off-chip transfer of those weights is assumed to be prefetched /
    overlapped.
    """
    per_operator = 0.0
    for name, profile in profiles.items():
        if not profile.has_static_weight:
            continue
        required = profile.min_compute_arrays(hardware)
        arrays_written = min(allocations[name].compute_arrays, required) or required
        per_operator = max(per_operator, arrays_written * hardware.array_write_latency_cycles)
    return per_operator
