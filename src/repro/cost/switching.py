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
   with the weights of the new segment's operators (Eq. 2), bounded from
   below by the time to fetch those weights over the off-chip link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

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


def aggregate_resources(
    profiles: Mapping[str, OperatorProfile],
    allocations: Mapping[str, OperatorAllocation],
    live_output_elements: int = 0,
    num_arrays_total: Optional[int] = None,
    static_weight_elements: Optional[int] = None,
) -> SegmentResources:
    """Summarise a segment's allocation for the inter-segment cost model.

    ``static_weight_elements`` optionally carries the window's
    already-aggregated static weights (the segmentation DP precomputes
    them as prefix sums); when omitted they are summed from the profiles
    here — both paths are the same integer sum.
    """
    compute = sum(allocations[name].compute_arrays for name in profiles)
    memory = sum(allocations[name].memory_arrays for name in profiles)
    weights = (
        static_weight_elements
        if static_weight_elements is not None
        else sum(p.weight_elements for p in profiles.values() if p.has_static_weight)
    )
    idle = max(0, num_arrays_total - compute - memory) if num_arrays_total is not None else 0
    return SegmentResources(
        compute_arrays=compute,
        memory_arrays=memory,
        live_output_elements=live_output_elements,
        static_weight_elements=weights,
        idle_arrays=idle,
    )


def window_resources_and_reload(
    vectors: ProfileVectors,
    start: int,
    stop: int,
    allocations: Mapping[str, OperatorAllocation],
    hardware: DualModeHardwareAbstraction,
    live_output_elements: int = 0,
) -> Tuple[SegmentResources, float]:
    """:func:`aggregate_resources` and :func:`weight_reload_cycles` of one window.

    The window is operators ``start..stop-1`` of ``vectors`` (built with
    the hardware; ``allocations`` is keyed by ``vectors.names``).  The
    segmentation DP prices every edge it relaxes, so both facts come
    from **one** walk over the window that reads the per-operator
    columns — static-weight flag, stationary footprint — instead of two
    walks over profile objects; the static weights are a prefix-sum
    difference.  Same integers, same Eq. 2 maximum as the mapping-based
    functions (``tests/test_segmentation.py`` compares them).
    """
    names = vectors.names
    has_static_weight = vectors.has_static_weight
    required_arrays = vectors.required_arrays
    write_latency = hardware.array_write_latency_cycles
    compute = memory = 0
    reload = 0.0
    for index in range(start, stop):
        allocation = allocations[names[index]]
        compute_arrays = allocation.compute_arrays
        compute += compute_arrays
        memory += allocation.memory_arrays
        if has_static_weight[index]:
            required = required_arrays[index]
            arrays_written = min(compute_arrays, required) or required
            reload = max(reload, arrays_written * write_latency)
    resources = SegmentResources(
        compute_arrays=compute,
        memory_arrays=memory,
        live_output_elements=live_output_elements,
        static_weight_elements=vectors.window_static_weight_elements(start, stop - 1),
        idle_arrays=max(0, hardware.num_arrays - compute - memory),
    )
    return resources, reload


def mode_switch_counts(
    previous: Optional[SegmentResources], current: SegmentResources
) -> Dict[str, int]:
    """Number of arrays switching mode between two adjacent segments.

    Arrays keep their mode whenever possible (the code generator assigns
    physical arrays to maximise reuse), so only the *net* change in each
    direction incurs switches:

    * memory -> compute: the new segment needs more compute arrays than the
      previous one had, and they are taken from former memory arrays first.
    * compute -> memory: symmetric.
    """
    if previous is None:
        # The first segment configures idle arrays; the paper charges no
        # switch cost for initial configuration.
        return {"memory_to_compute": 0, "compute_to_memory": 0}
    extra_compute = max(0, current.compute_arrays - previous.compute_arrays)
    extra_memory = max(0, current.memory_arrays - previous.memory_arrays)
    memory_to_compute = min(extra_compute, previous.memory_arrays)
    compute_to_memory = min(extra_memory, previous.compute_arrays)
    return {
        "memory_to_compute": memory_to_compute,
        "compute_to_memory": compute_to_memory,
    }


def mode_switch_cycles(
    previous: Optional[SegmentResources],
    current: SegmentResources,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """``T_swc`` (Eq. 1): per-array switch latency times switch counts."""
    counts = mode_switch_counts(previous, current)
    return (
        counts["memory_to_compute"] * hardware.switch_latency_m2c
        + counts["compute_to_memory"] * hardware.switch_latency_c2m
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
    if previous is None or previous.live_output_elements == 0:
        return 0.0
    retained_capacity = hardware.buffer_elements
    if allow_boundary_buffering:
        retained_capacity += current.memory_arrays * hardware.array_capacity_elements
        boundary_arrays = min(previous.idle_arrays, current.idle_arrays)
        retained_capacity += boundary_arrays * hardware.array_capacity_elements
    overflow = max(0, previous.live_output_elements - retained_capacity)
    if overflow == 0:
        return 0.0
    # store + reload across the external link
    return 2.0 * overflow / hardware.d_extern


def weight_reload_cycles(
    profiles: Mapping[str, OperatorProfile],
    allocations: Mapping[str, OperatorAllocation],
    hardware: DualModeHardwareAbstraction,
    include_offchip_transfer: bool = False,
) -> float:
    """``T_rw`` (Eq. 2): programming the new segment's compute arrays.

    Per Eq. 2 the reload of different operators overlaps (write ports are
    per-array), so the array-programming term is the maximum over
    operators of ``Com_Oi x Latency_write``.  Following the paper, the
    off-chip transfer of those weights is assumed to be prefetched /
    overlapped; pass ``include_offchip_transfer=True`` to additionally
    bound the reload by the external-link transfer time (used by the
    corresponding ablation benchmark).
    """
    if not profiles:
        return 0.0
    per_operator = 0.0
    static_weight_elements = 0
    for name, profile in profiles.items():
        if not profile.has_static_weight:
            continue
        allocation = allocations[name]
        required = profile.min_compute_arrays(hardware)
        arrays_written = min(allocation.compute_arrays, required) or required
        per_operator = max(per_operator, arrays_written * hardware.array_write_latency_cycles)
        static_weight_elements += profile.weight_elements
    if include_offchip_transfer and static_weight_elements:
        transfer = static_weight_elements / hardware.d_extern
        return max(per_operator, transfer)
    return per_operator


def inter_segment_cycles(
    previous: Optional[SegmentResources],
    current: SegmentResources,
    profiles: Mapping[str, OperatorProfile],
    allocations: Mapping[str, OperatorAllocation],
    hardware: DualModeHardwareAbstraction,
    include_switch_cost: bool = True,
    allow_boundary_buffering: bool = True,
) -> float:
    """``T_inter`` (Eq. 4): write-back + mode switch + weight reload."""
    total = writeback_cycles(
        previous, current, hardware, allow_boundary_buffering=allow_boundary_buffering
    )
    if include_switch_cost:
        total += mode_switch_cycles(previous, current, hardware)
    total += weight_reload_cycles(profiles, allocations, hardware)
    return total


def inter_segment_breakdown(
    previous: Optional[SegmentResources],
    current: SegmentResources,
    profiles: Mapping[str, OperatorProfile],
    allocations: Mapping[str, OperatorAllocation],
    hardware: DualModeHardwareAbstraction,
    allow_boundary_buffering: bool = True,
) -> Dict[str, float]:
    """Per-component inter-segment overhead (used by reports and §5.5)."""
    return {
        "writeback": writeback_cycles(
            previous, current, hardware, allow_boundary_buffering=allow_boundary_buffering
        ),
        "mode_switch": mode_switch_cycles(previous, current, hardware),
        "weight_reload": weight_reload_cycles(profiles, allocations, hardware),
    }
