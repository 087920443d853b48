"""The independent re-pricer and the frozen scalar kernels — test oracles.

:func:`reprice_segments` re-derives a plan's prices from its operator
names and allocations with :mod:`repro.cost` and two flattening helpers,
sharing no code with the plan builder it checks.  The PUMA/OCC oracle,
:func:`reference_baseline_compile`, is a policy's boundaries, the frozen
scalar hand-out and the re-pricer.  The scalar kernels are the
allocation engine's pre-vectorisation bodies.  Nothing outside the tests
should import this module.
"""

from __future__ import annotations

import time
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cost.arithmetic import ProfileVectors
from ..cost.latency import (
    INFEASIBLE_LATENCY,
    OperatorAllocation,
    combine_operator_latencies,
    guard_infeasible_batch,
    operator_latency_factors_batch,
)
from ..cost.switching import (
    SegmentResources,
    mode_switch_cycles,
    window_totals,
    writeback_cycles,
)
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from .allocation import AllocationCandidate, AllocationResult, _geometric_range, infeasible_result
from .codegen import generate_program
from .program import CompiledProgram, SegmentPlan
from .segmentation import CompilerOptions, flatten_graph, live_elements_vector


def _factor_rows(vectors: ProfileVectors, hardware: DualModeHardwareAbstraction):
    """``(compute_time, supply_time)``: the Eq. 10 factors of every
    operator of ``vectors``, one list per operator indexed by the array
    count ``0..num_arrays``.  Eq. 10 at ``(c, m)`` for operator ``k`` is
    ``max(compute_time[k][c], supply_time[k][m])``."""
    counts = np.arange(hardware.num_arrays + 1)
    return tuple(
        guard_infeasible_batch(table).tolist()
        for table in operator_latency_factors_batch(vectors, counts, counts, hardware)
    )


def reprice_segments(
    graph: Graph,
    hardware: DualModeHardwareAbstraction,
    options: CompilerOptions,
    segments: Sequence[Tuple[Sequence[str], Mapping[str, OperatorAllocation]]],
) -> List[SegmentPlan]:
    """Price ``(operator_names, allocations)`` segments from the cost model.

    Each segment gets its Eq. 9 intra cycles (``options.pipelined``), its
    Eq. 4 breakdown (the Eq. 1 switch term is 0.0 when
    ``options.include_switch_cost`` is off; write-back credits memory-mode
    arrays only when ``options.allow_memory_mode`` is on), its resources
    and its boundary memory arrays.  The plan's units are one column set
    (:class:`~repro.cost.arithmetic.ProfileVectors`), priced from its
    Eq. 10 factor tables, :func:`~repro.cost.switching.window_totals`
    and :func:`~repro.cost.latency.combine_operator_latencies`.

    Raises:
        ValueError: Naming the segment, if the plan does not cover the
            flattened units exactly once, in order, or a segment's
            allocations do not name exactly its operators or overflow the chip.
    """
    units = flatten_graph(graph, hardware)
    vectors = ProfileVectors([unit.profile for unit in units], hardware)
    compute_time, supply_time = _factor_rows(vectors, hardware)
    liveness = live_elements_vector(units).tolist()
    capacity = hardware.array_capacity_elements
    plans: List[SegmentPlan] = []
    previous: Optional[SegmentResources] = None
    start = 0
    for index, (names, allocations) in enumerate(segments):
        members = units[start : start + len(names)]
        expected = [unit.name for unit in members]
        if not names or list(names) != expected or sorted(allocations) != sorted(expected):
            raise ValueError(
                f"segment {index}: operators {list(names)} with allocations for "
                f"{sorted(allocations)} are not the next flattened units {expected}"
            )
        used = sum(allocation.total_arrays for allocation in allocations.values())
        if used > hardware.num_arrays:
            raise ValueError(
                f"segment {index}: allocations occupy {used} of {hardware.num_arrays} arrays"
            )
        stop = start + len(names)
        pairs = [
            (allocations[name].compute_arrays, allocations[name].memory_arrays)
            for name in expected
        ]
        compute, memory, reload = window_totals(vectors, start, stop, pairs, hardware)
        live = liveness[stop - 1] if stop < len(units) else 0
        resources = SegmentResources(
            compute,
            memory,
            live,
            vectors.window_static_weight_elements(start, stop - 1),
            max(0, hardware.num_arrays - compute - memory),
        )
        switch = mode_switch_cycles(previous, resources, hardware)
        breakdown = {
            "writeback": writeback_cycles(
                previous, resources, hardware, allow_boundary_buffering=options.allow_memory_mode
            ),
            "mode_switch": switch if options.include_switch_cost else 0.0,
            "weight_reload": reload,
        }
        latencies = [
            max(compute_time[k][c], supply_time[k][m])
            for k, (c, m) in zip(range(start, stop), pairs)
        ]
        boundary_memory = 0
        if options.allow_memory_mode and live > 0:
            boundary_memory = min(resources.idle_arrays, -(-live // capacity))
        plans.append(
            SegmentPlan(
                index=index,
                operator_names=expected,
                allocations=dict(allocations),
                profiles={unit.name: unit.profile for unit in members},
                intra_cycles=combine_operator_latencies(latencies, hardware, options.pipelined),
                inter_cycles=sum(breakdown.values()),
                inter_breakdown=breakdown,
                resources=resources,
                boundary_memory_arrays=boundary_memory,
            )
        )
        previous = resources
        start = stop
    if start != len(units):
        raise ValueError(
            f"segment {len(plans)}: missing; the plan covers {start} of "
            f"{len(units)} flattened units"
        )
    return plans


# -- frozen scalar allocator kernels: oracles of repro.core.allocation ------ #
def reference_candidate_allocations(
    profile,
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
    max_candidates: int = 24,
):
    """The pre-vectorisation ``candidate_allocations`` body, frozen.

    A Python double loop over the candidate grid up to the chip, each
    cell read from the profile's Eq. 10 factor tables (one evaluation
    per call).  The vectorised rewrite must reproduce this output
    exactly (including sort stability and the 1e-9 Pareto tolerance) on
    every feasible grid; the two differ deliberately only for the
    all-infeasible grid, where this body returned a useless
    infinite-latency candidate (the dead-fallback bug) and the rewrite
    returns an empty list.
    """
    max_arrays = hardware.num_arrays
    (compute_time,), (supply_time,) = _factor_rows(ProfileVectors([profile], hardware), hardware)
    min_compute = max(1, profile.min_compute_arrays(hardware))
    if min_compute > max_arrays:
        return []
    mem_cap = profile.memory_arrays_for_working_set(hardware) if allow_memory_mode else 0
    mem_cap = min(mem_cap, max_arrays - min_compute)
    memory_options = [0] + _geometric_range(1, mem_cap) if mem_cap > 0 else [0]
    raw = []
    for compute in _geometric_range(min_compute, max_arrays):
        for memory in memory_options:
            if compute + memory <= max_arrays:
                latency = max(compute_time[compute], supply_time[memory])
                raw.append(AllocationCandidate(compute, memory, latency))
    raw.sort(key=lambda c: (c.total_arrays, c.latency_cycles))
    pareto = []
    best_latency = INFEASIBLE_LATENCY
    for candidate in raw:
        if candidate.latency_cycles < best_latency - 1e-9:
            pareto.append(candidate)
            best_latency = candidate.latency_cycles
    if not pareto and raw:
        pareto = [raw[0]]
    if len(pareto) > max_candidates:
        indices = np.linspace(0, len(pareto) - 1, max_candidates).round().astype(int)
        pareto = [pareto[i] for i in sorted(set(indices.tolist()))]
    return pareto


def _pairs(allocations: Mapping[str, OperatorAllocation]) -> Tuple[Tuple[int, int], ...]:
    """``allocations`` by position, as an :class:`AllocationResult` holds them."""
    return tuple((a.compute_arrays, a.memory_arrays) for a in allocations.values())


def _latency_reader(profiles, hardware: DualModeHardwareAbstraction):
    """``latency(name, allocation)``: Eq. 10 of operator ``name`` of
    ``profiles``, read from their factor tables (one evaluation)."""
    compute_time, supply_time = _factor_rows(ProfileVectors(profiles.values(), hardware), hardware)
    rows = {name: k for k, name in enumerate(profiles)}

    def latency(name, allocation):
        k = rows[name]
        return max(
            compute_time[k][allocation.compute_arrays], supply_time[k][allocation.memory_arrays]
        )

    return latency


def _segment_latency(latency, allocations, hardware, pipelined):
    """Eq. 9 of ``allocations`` (``name -> OperatorAllocation``)."""
    latencies = [latency(name, allocation) for name, allocation in allocations.items()]
    return combine_operator_latencies(latencies, hardware, pipelined)


def named_allocations(names, result) -> dict:
    """``result``'s pairs as ``name -> OperatorAllocation`` over ``names``."""
    return {name: OperatorAllocation(*pair) for name, pair in zip(names, result.pairs)}


def reference_greedy_allocate(
    profiles, hardware: DualModeHardwareAbstraction, pipelined: bool = True,
    allow_memory_mode: bool = True,
):
    """The pre-vectorisation ``GreedyAllocator.allocate`` body, frozen:
    every operator at its minimum compute footprint, then the scalar
    refinement hands out the rest of the chip.  The result holds one
    pair per operator of ``profiles``, in its order."""
    if not profiles:
        return AllocationResult((), 0.0, True, "greedy")
    floors = {
        name: OperatorAllocation(max(1, profile.min_compute_arrays(hardware)), 0)
        for name, profile in profiles.items()
    }
    if sum(a.total_arrays for a in floors.values()) > hardware.num_arrays:
        return infeasible_result()
    latency = _segment_latency(_latency_reader(profiles, hardware), floors, hardware, pipelined)
    return reference_refine_with_spare_arrays(
        AllocationResult(_pairs(floors), latency, True, "greedy"),
        profiles, hardware, pipelined=pipelined, allow_memory_mode=allow_memory_mode,
    )


def reference_refine_with_spare_arrays(
    result,
    profiles,
    hardware: DualModeHardwareAbstraction,
    pipelined: bool = True,
    allow_memory_mode: bool = True,
):
    """The pre-vectorisation ``refine_with_spare_arrays`` body, frozen;
    ``result``'s pairs belong to ``profiles``' operators, in order."""
    if not result.feasible or not result.pairs:
        return result
    allocations = named_allocations(profiles, result)
    used = sum(a.total_arrays for a in allocations.values())
    remaining = hardware.num_arrays - used
    if remaining <= 0:
        return result
    latency = _latency_reader(profiles, hardware)

    def latency_of(name):
        return latency(name, allocations[name])

    improved = False
    while remaining > 0:
        bottleneck = max(allocations, key=latency_of)
        current = allocations[bottleneck]
        grown = [OperatorAllocation(current.compute_arrays + 1, current.memory_arrays)]
        if allow_memory_mode:
            grown.append(OperatorAllocation(current.compute_arrays, current.memory_arrays + 1))
        best_latency, best_allocation = min(
            ((latency(bottleneck, a), a) for a in grown),
            key=lambda item: item[0],
        )
        if best_latency >= latency_of(bottleneck) - 1e-9:
            break
        allocations[bottleneck] = best_allocation
        remaining -= 1
        improved = True
    if not improved:
        return result
    return AllocationResult(
        _pairs(allocations),
        _segment_latency(latency, allocations, hardware, pipelined),
        True,
        result.solver,
    )


def reference_baseline_compile(baseline, graph: Graph) -> CompiledProgram:
    """A PUMA/OCC-style compile as one scalar loop — their oracle.

    Of ``baseline`` it reads only its ``segment`` pass's ``policy``,
    ``pipelined``, ``name``, ``hardware`` and ``options.generate_code``:
    :func:`reference_greedy_allocate` in compute mode hands out each
    segment and :func:`reprice_segments` prices the fixed-mode plan.
    """
    hardware = baseline.hardware
    start = time.perf_counter()
    units = flatten_graph(graph, hardware)
    segment = next(p for p in baseline.passes if p.name == "segment")
    plan = []
    for first, last in segment.policy(units, hardware) if units else []:
        profiles = {unit.name: unit.profile for unit in units[first : last + 1]}
        allocated = reference_greedy_allocate(
            profiles, hardware, pipelined=baseline.pipelined, allow_memory_mode=False
        )
        plan.append((list(profiles), named_allocations(profiles, allocated)))
    fixed_mode = CompilerOptions(pipelined=baseline.pipelined, allow_memory_mode=False)
    segments = reprice_segments(graph, hardware, fixed_mode, plan)
    generate = baseline.options.generate_code and segments
    return CompiledProgram(
        graph_name=graph.name,
        compiler_name=baseline.name,
        hardware=hardware,
        segments=segments,
        block_repeat=float(graph.metadata.get("block_repeat", 1.0)),
        compile_seconds=time.perf_counter() - start,
        metadata={"graph_metadata": dict(graph.metadata)},
        meta_program=generate_program(graph.name, segments, hardware) if generate else None,
    )
