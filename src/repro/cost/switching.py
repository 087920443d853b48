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

Their sum is ``T_inter`` (Eq. 4).  Each term is defined once, on counts:
``T_wb`` and ``T_swc`` by :func:`spill_cycles` and :func:`switch_cycles`,
which the segmenter's ``NetworkSegmenter._edge_price`` calls directly and
:func:`writeback_cycles` / :func:`mode_switch_cycles` apply to
:class:`SegmentResources`; ``T_rw`` and a segment's array totals by
:func:`window_totals`, over the columns of
:class:`~repro.cost.arithmetic.ProfileVectors`.  The segmenter and the
independent oracle that checks its plans (``reprice_segments`` and
``cheapest_cut_set`` in ``tests/oracle.py``) both price through them.
``T_wb``'s retention rule is :func:`offchip_round_trip_cycles` and
:func:`arrays_beyond_buffer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..hardware.deha import DualModeHardwareAbstraction
from .arithmetic import ProfileVectors


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


def window_totals(
    vectors: ProfileVectors,
    start: int,
    stop: int,
    pairs: Sequence[Tuple[int, int]],
    hardware: DualModeHardwareAbstraction,
) -> Tuple[int, int, float]:
    """``(compute_arrays, memory_arrays, T_rw)`` of operators ``start..stop-1``
    under ``pairs`` (one ``(compute, memory)`` per operator), in one walk
    over the columns.

    ``T_rw`` is Eq. 2: programming the segment's compute arrays.  Write
    ports are per-array, so the reload of different operators overlaps
    and the term is the maximum, over operators with static weights, of
    the arrays written times ``Latency_write``.  An operator is charged
    ``min(Com, required)`` arrays — its weights once, duplicate copies
    not charged — or ``required`` when it holds no compute array.
    Following the paper, the off-chip fetch of the weights is overlapped.
    """
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


def offchip_round_trip_cycles(elements: int, hardware: DualModeHardwareAbstraction) -> float:
    """Storing ``elements`` off-chip and reading them back (a spill)."""
    return 2.0 * elements / hardware.d_extern


def arrays_beyond_buffer(live: np.ndarray, hardware: DualModeHardwareAbstraction) -> np.ndarray:
    """Memory-mode arrays that retain the ``live`` elements (elementwise)
    beyond what the native buffer holds, so that nothing spills."""
    overflow = np.maximum(live - hardware.buffer_elements, 0)
    return -(-overflow // hardware.array_capacity_elements)


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
    return offchip_round_trip_cycles(overflow, hardware)


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
