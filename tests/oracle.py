"""An independent oracle for the compiler: pricing, window and segmentation.

Each leg is derived from the cost model (:mod:`repro.cost`) alone.  This
module imports :mod:`repro.cost`, :mod:`repro.hardware` and :mod:`repro.ir`
and nothing of the compiler it checks (``tests/test_layering.py`` pins
that), so a verdict here never repeats an assumption of the engine:

* **pricing** — :func:`reprice_segments` re-derives a plan's Eq. 9 intra
  cycles, its Eq. 1/2/4 charges, resources and boundary buffers from the
  flattened units and the plan's allocations;
* **window** — :func:`window_optimum` is the Eq. 8/9 optimum of one window
  over the *full* integer ``(compute, memory)`` grid (compute at or above
  each operator's floor, every pick within the chip), by a vectorised
  min–max knapsack in O(w·N²) for ``w`` operators on an ``N``-array chip;
* **segmentation** — :func:`cheapest_cut_set` tries every cut set of the
  units into windows of at most ``max_segment_operators`` units (Eq. 3 by
  exhaustion, not by a dynamic program), each window carrying the one
  allocation the caller solved for it.

Units are what ``repro.core.segmentation.flatten_graph`` returns — objects
with ``name``, ``profile`` and ``live_until`` — handed in by the caller:
flattening has properties of its own.  ``options`` is anything with the
``CompilerOptions`` attributes a leg reads.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cost.arithmetic import OperatorProfile, ProfileVectors
from repro.cost.latency import (
    INFEASIBLE_LATENCY,
    combine_operator_latencies,
    guard_infeasible_batch,
    operator_latency_factors_batch,
    pipeline_fill_cycles,
)
from repro.cost.switching import (
    SegmentResources,
    mode_switch_cycles,
    window_totals,
    writeback_cycles,
)
from repro.hardware.deha import DualModeHardwareAbstraction

#: One operator's allocation by position: ``(compute_arrays, memory_arrays)``.
Pair = Tuple[int, int]


# ---------------------------------------------------------------------- #
# shared derivations
# ---------------------------------------------------------------------- #
def latency_rows(
    vectors: ProfileVectors, hardware: DualModeHardwareAbstraction
) -> Tuple[np.ndarray, np.ndarray]:
    """``(compute_time, supply_time)``: Eq. 10's two factors of every
    operator of ``vectors`` over the array counts ``0..num_arrays``, one
    row per operator.  Operator ``k`` at ``(c, m)`` takes
    ``max(compute_time[k, c], supply_time[k, m])`` cycles."""
    counts = np.arange(hardware.num_arrays + 1)
    compute_time, supply_time = operator_latency_factors_batch(vectors, counts, counts, hardware)
    return guard_infeasible_batch(compute_time), guard_infeasible_batch(supply_time)


def live_elements(units: Sequence) -> List[int]:
    """Entry ``b``: the output elements of units ``0..b`` that a unit after
    ``b`` still needs (Eq. 4's live volume after boundary ``b``), walked
    from each unit's ``live_until``."""
    expiring = [0] * (len(units) + 1)
    live, volumes = 0, []
    for index, unit in enumerate(units):
        if unit.live_until > index:
            live += unit.profile.output_elements
            expiring[unit.live_until] += unit.profile.output_elements
        live -= expiring[index]
        volumes.append(live)
    return volumes


def _resources(
    vectors: ProfileVectors,
    hardware: DualModeHardwareAbstraction,
    start: int,
    stop: int,
    pairs: Sequence[Pair],
    live: int,
) -> Tuple[SegmentResources, float]:
    """Window ``[start, stop)`` under ``pairs``: its resources and Eq. 2's ``T_rw``."""
    compute, memory, reload = window_totals(vectors, start, stop, pairs, hardware)
    resources = SegmentResources(
        compute,
        memory,
        live,
        vectors.window_static_weight_elements(start, stop - 1),
        max(0, hardware.num_arrays - compute - memory),
    )
    return resources, reload


def _breakdown(
    previous: Optional[SegmentResources],
    resources: SegmentResources,
    reload: float,
    hardware: DualModeHardwareAbstraction,
    options,
) -> Dict[str, float]:
    """Eq. 4's three terms of entering ``resources`` from ``previous``."""
    switch = mode_switch_cycles(previous, resources, hardware)
    return {
        "writeback": writeback_cycles(
            previous, resources, hardware, allow_boundary_buffering=options.allow_memory_mode
        ),
        "mode_switch": switch if options.include_switch_cost else 0.0,
        "weight_reload": reload,
    }


# ---------------------------------------------------------------------- #
# pricing
# ---------------------------------------------------------------------- #
class PricedSegment(NamedTuple):
    """The priced terms of one segment, named as ``SegmentPlan`` names them."""

    index: int
    intra_cycles: float
    inter_breakdown: Dict[str, float]
    inter_cycles: float
    resources: SegmentResources
    boundary_memory_arrays: int
    profiles: List[OperatorProfile]


def reprice_segments(
    units: Sequence,
    hardware: DualModeHardwareAbstraction,
    options,
    segments: Sequence[Tuple[Sequence[str], Sequence[Tuple[int, int]]]],
) -> List[PricedSegment]:
    """Price ``(operator_names, pairs)`` segments over ``units``: one
    ``(compute, memory)`` pair per operator, by position.

    Each segment gets its Eq. 9 intra cycles (``options.pipelined``), its
    Eq. 4 breakdown (the Eq. 1 switch term is 0.0 when
    ``options.include_switch_cost`` is off; write-back credits memory-mode
    arrays only when ``options.allow_memory_mode`` is on), its resources
    and its boundary memory arrays.

    Raises:
        ValueError: Naming the segment, if the plan does not cover the
            units exactly once, in order, or a segment's pairs are not
            one per operator or overflow the chip.
    """
    vectors = ProfileVectors([unit.profile for unit in units], hardware)
    compute_time, supply_time = (rows.tolist() for rows in latency_rows(vectors, hardware))
    liveness = live_elements(units)
    capacity = hardware.array_capacity_elements
    priced: List[PricedSegment] = []
    previous: Optional[SegmentResources] = None
    start = 0
    for index, (names, pairs) in enumerate(segments):
        members = units[start : start + len(names)]
        expected = [unit.name for unit in members]
        if not names or list(names) != expected or len(pairs) != len(expected):
            raise ValueError(
                f"segment {index}: operators {list(names)} with {len(pairs)} pairs "
                f"are not the next flattened units {expected}"
            )
        used = sum(compute + memory for compute, memory in pairs)
        if used > hardware.num_arrays:
            raise ValueError(
                f"segment {index}: allocations occupy {used} of {hardware.num_arrays} arrays"
            )
        stop = start + len(names)
        live = liveness[stop - 1] if stop < len(units) else 0
        resources, reload = _resources(vectors, hardware, start, stop, pairs, live)
        breakdown = _breakdown(previous, resources, reload, hardware, options)
        latencies = [
            max(compute_time[k][c], supply_time[k][m])
            for k, (c, m) in zip(range(start, stop), pairs)
        ]
        boundary_memory = 0
        if options.allow_memory_mode and live > 0:
            boundary_memory = min(resources.idle_arrays, -(-live // capacity))
        priced.append(
            PricedSegment(
                index=index,
                intra_cycles=combine_operator_latencies(latencies, hardware, options.pipelined),
                inter_breakdown=breakdown,
                inter_cycles=sum(breakdown.values()),
                resources=resources,
                boundary_memory_arrays=boundary_memory,
                profiles=[unit.profile for unit in members],
            )
        )
        previous = resources
        start = stop
    if start != len(units):
        raise ValueError(
            f"segment {len(priced)}: missing; the plan covers {start} of "
            f"{len(units)} flattened units"
        )
    return priced


# ---------------------------------------------------------------------- #
# window
# ---------------------------------------------------------------------- #
def best_latency_per_budget(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
) -> np.ndarray:
    """Row ``k``, column ``t``: operator ``k``'s best Eq. 10 latency on at
    most ``t`` arrays, over every ``(c, m)`` with ``c`` at or above its
    floor and ``c + m <= t`` (``m = 0`` in fixed mode); ``inf`` where
    no such pair exists."""
    vectors = ProfileVectors(profiles, hardware)
    compute_time, supply_time = latency_rows(vectors, hardware)
    counts = np.arange(hardware.num_arrays + 1)
    # Cell (k, c, t): c compute arrays and t - c memory arrays.
    memory = counts[None, :] - counts[:, None]
    grid = np.maximum(
        compute_time[:, :, None], supply_time[:, np.clip(memory, 0, hardware.num_arrays)]
    )
    outside = (memory < 0) if allow_memory_mode else (memory != 0)
    grid[np.broadcast_to(outside, grid.shape)] = INFEASIBLE_LATENCY
    grid[counts[None, :] < vectors.floors[:, None]] = INFEASIBLE_LATENCY
    return np.minimum.accumulate(grid.min(axis=1), axis=1)


def window_optimum(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
    pipelined: bool = True,
) -> Optional[Tuple[float, int]]:
    """``(intra_cycles, arrays)``: the least Eq. 9 latency any allocation
    of the window's operators within the chip achieves, then the fewest
    arrays that achieve it; None when no allocation fits.

    A min–max (serial: min–sum) multiple-choice knapsack over the array
    budget: entry ``b`` of the running row is the best combined latency
    of the operators so far on at most ``b`` arrays.  Pipelined, Eq. 9 is
    the largest operator latency plus the pipeline fill, which does not
    depend on the allocation.
    """
    best = best_latency_per_budget(profiles, hardware, allow_memory_mode)
    combine = np.maximum if pipelined else np.add
    counts = np.arange(hardware.num_arrays + 1)
    rest = counts[None, :] - counts[:, None]  # (a, b): b - a arrays for the earlier operators
    row = best[0]
    for operator in best[1:]:
        table = combine(operator[:, None], row[np.clip(rest, 0, None)])
        table[rest < 0] = INFEASIBLE_LATENCY
        row = table.min(axis=0)
    latency = float(row[-1])
    if latency == INFEASIBLE_LATENCY:
        return None
    arrays = int(np.argmax(row <= latency))
    if pipelined:
        latency += pipeline_fill_cycles(profiles, hardware)
    return latency, arrays


# ---------------------------------------------------------------------- #
# segmentation
# ---------------------------------------------------------------------- #
#: ``solved(start, stop)``: the window's ``(pairs, intra_cycles)``, or None
#: when it does not fit.
WindowSolve = Callable[[int, int], Optional[Tuple[Sequence[Pair], float]]]


def cheapest_cut_set(
    units: Sequence, hardware: DualModeHardwareAbstraction, options, solved: WindowSolve
) -> Tuple[float, int]:
    """The cheapest plan over every cut set of ``units`` (Eq. 3 by exhaustion).

    A cut set is a sequence of consecutive windows of at most
    ``options.max_segment_operators`` units covering ``units``.  Window
    ``[i, j)`` costs its intra cycles from ``solved(i, j)`` plus Eq. 4 of
    entering it from the window before it (nothing before the first).
    Each ``(previous window, window)`` edge is priced once; a cut set's
    cost is the sum of its edges.

    Returns:
        The least cost and the number of cut sets tried.
    """
    vectors = ProfileVectors([unit.profile for unit in units], hardware)
    liveness = live_elements(units)
    cap = options.max_segment_operators
    windows: Dict[Tuple[int, int], Optional[Tuple[SegmentResources, float, float]]] = {}
    edges: Dict[Tuple[Optional[Tuple[int, int]], Tuple[int, int]], float] = {}

    def window(start: int, stop: int):
        if (start, stop) not in windows:
            solve = solved(start, stop)
            if solve is None:
                windows[start, stop] = None
            else:
                pairs, intra = solve
                live = liveness[stop - 1] if stop < len(units) else 0
                resources, reload = _resources(vectors, hardware, start, stop, pairs, live)
                windows[start, stop] = resources, reload, intra
        return windows[start, stop]

    def edge(previous: Optional[Tuple[int, int]], current: Tuple[int, int]) -> float:
        if (previous, current) not in edges:
            resources, reload, intra = windows[current]
            before = None if previous is None else windows[previous][0]
            breakdown = _breakdown(before, resources, reload, hardware, options)
            edges[previous, current] = intra + sum(breakdown.values())
        return edges[previous, current]

    def costs(previous: Optional[Tuple[int, int]], start: int, cost: float):
        """The cost of every cut set of ``units[start:]`` entered from ``previous``."""
        if start == len(units):
            yield cost
            return
        for stop in range(start + 1, min(len(units), start + cap) + 1):
            if window(start, stop) is not None:
                yield from costs((start, stop), stop, cost + edge(previous, (start, stop)))

    count, cheapest = 0, INFEASIBLE_LATENCY
    for cost in costs(None, 0, 0.0):
        count, cheapest = count + 1, min(cheapest, cost)
    return cheapest, count
