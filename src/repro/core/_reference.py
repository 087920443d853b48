"""Frozen pre-pipeline compile paths — the parity oracles.

This module preserves, verbatim, the *fused* compile loops that
:class:`~repro.core.compiler.CMSwitchCompiler` and
:class:`~repro.baselines.base.BaselineCompiler` ran before the compile
path was decomposed into the named passes of :mod:`repro.pipeline`.
The parity test suite compiles every model through both the pass-based
pipeline and these references and asserts the programs are bit-identical
(:meth:`~repro.core.program.CompiledProgram.fingerprint`), which is what
lets the pipeline refactor claim "same compiler, new shape".

Nothing outside the tests should import this module.  It intentionally
calls the same primitives the passes call (segmenter, allocators, cost
model, code generator) — the point of the oracle is to prove that
*re-ordering and splitting* the orchestration changed nothing, not to
duplicate the numerics.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from .cache import AllocationCache
from .codegen import generate_program
from .program import CompiledProgram, SegmentPlan
from .segmentation import NetworkSegmenter, NoFeasiblePlanError


def reference_compile(
    graph: Graph,
    hardware: DualModeHardwareAbstraction,
    options=None,
    cache: Optional[AllocationCache] = None,
) -> CompiledProgram:
    """The pre-refactor ``CMSwitchCompiler.compile`` body, frozen.

    Segmentation, feasibility check, code generation — all in one fused
    function, as the compiler ran it before :mod:`repro.pipeline`
    existed (minus the second, fixed-mode DP the pipeline dropped too:
    parity here means "same orchestration").
    """
    from .compiler import CompilerOptions, plan_cost

    options = options or CompilerOptions()
    start = time.perf_counter()
    segmenter = NetworkSegmenter(
        hardware, options.to_segmentation_options(), cache=cache
    )
    result = segmenter.segment(graph)
    allocation_calls = result.allocation_calls
    cache_hits = result.cache_hits
    final_cost = plan_cost(result)
    if result.segments and not math.isfinite(final_cost):
        attempts = allocation_calls + cache_hits
        raise NoFeasiblePlanError(
            f"no feasible execution plan for graph {graph.name!r} on "
            f"{hardware.name!r}: every evaluated plan has infinite cost",
            stats={
                "allocator_solves": allocation_calls,
                "allocation_cache_hits": cache_hits,
                "allocation_cache_hit_rate": (
                    cache_hits / attempts if attempts else 0.0
                ),
                "wall_seconds": time.perf_counter() - start,
            },
        )
    meta_program = None
    if options.generate_code and result.segments:
        meta_program = generate_program(graph.name, result.segments, hardware)
    elapsed = time.perf_counter() - start
    block_repeat = float(graph.metadata.get("block_repeat", 1.0))
    solve_attempts = allocation_calls + cache_hits
    stats = {
        "allocator_solves": allocation_calls,
        "allocation_cache_hits": cache_hits,
        "allocation_disk_hits": 0,
        "allocation_cache_hit_rate": (
            cache_hits / solve_attempts if solve_attempts else 0.0
        ),
        "wall_seconds": elapsed,
    }
    return CompiledProgram(
        graph_name=graph.name,
        compiler_name="cmswitch",
        hardware=hardware,
        segments=result.segments,
        block_repeat=block_repeat,
        compile_seconds=elapsed,
        metadata={
            "graph_metadata": dict(graph.metadata),
            "options": {
                "max_segment_operators": options.max_segment_operators,
                "pipelined": options.pipelined,
                "include_switch_cost": options.include_switch_cost,
                "use_milp": options.use_milp,
                "refine": options.refine,
                "allow_memory_mode": options.allow_memory_mode,
            },
            "num_flattened_units": len(result.units),
            "allocation_calls": allocation_calls,
            "dp_seconds": result.dp_seconds,
        },
        stats=stats,
        meta_program=meta_program,
    )


# ---------------------------------------------------------------------- #
# frozen scalar allocator kernels — parity oracles for the vectorised
# rewrites in repro.core.allocation
# ---------------------------------------------------------------------- #
def reference_candidate_allocations(
    profile,
    hardware: DualModeHardwareAbstraction,
    max_arrays: int,
    allow_memory_mode: bool = True,
    max_candidates: int = 24,
):
    """The pre-vectorisation ``candidate_allocations`` body, frozen.

    A Python double loop over the candidate grid with one scalar Eq. 10
    call per cell.  The vectorised rewrite must reproduce this output
    exactly (including sort stability and the 1e-9 Pareto tolerance) on
    every feasible grid; the two differ deliberately only for the
    all-infeasible grid, where this body returned a useless
    infinite-latency candidate (the dead-fallback bug) and the rewrite
    returns an empty list.
    """
    import numpy as np

    from ..cost.latency import INFEASIBLE_LATENCY, operator_latency_cycles
    from .allocation import AllocationCandidate, OperatorAllocation, _geometric_range

    min_compute = max(1, profile.min_compute_arrays(hardware))
    if min_compute > max_arrays:
        return []
    mem_cap = profile.memory_arrays_for_working_set(hardware) if allow_memory_mode else 0
    mem_cap = min(mem_cap, max_arrays - min_compute)

    compute_options = _geometric_range(min_compute, max_arrays)
    memory_options = [0] + _geometric_range(1, mem_cap) if mem_cap > 0 else [0]

    raw = []
    for compute in compute_options:
        for memory in memory_options:
            if compute + memory > max_arrays:
                continue
            latency = operator_latency_cycles(
                profile, OperatorAllocation(compute, memory), hardware
            )
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


def reference_greedy_allocate(
    profiles, hardware: DualModeHardwareAbstraction, pipelined: bool = True,
    allow_memory_mode: bool = True,
):
    """The pre-vectorisation ``GreedyAllocator.allocate`` body, frozen.

    Re-scores every operator on every iteration (O(n) per hand-out).
    The incremental rewrite must produce identical allocations and
    latency.
    """
    from ..cost.latency import OperatorAllocation, operator_latency_cycles, segment_latency_cycles
    from .allocation import AllocationResult, infeasible_result

    if not profiles:
        return AllocationResult({}, 0.0, True, "greedy")
    allocations = {}
    for name, profile in profiles.items():
        allocations[name] = OperatorAllocation(
            compute_arrays=max(1, profile.min_compute_arrays(hardware)), memory_arrays=0
        )
    used = sum(a.total_arrays for a in allocations.values())
    if used > hardware.num_arrays:
        return infeasible_result()

    def latency_of(name, allocation):
        return operator_latency_cycles(profiles[name], allocation, hardware)

    remaining = hardware.num_arrays - used
    while remaining > 0:
        bottleneck = max(allocations, key=lambda n: latency_of(n, allocations[n]))
        current = allocations[bottleneck]
        current_latency = latency_of(bottleneck, current)
        grow_compute = OperatorAllocation(current.compute_arrays + 1, current.memory_arrays)
        options = [(latency_of(bottleneck, grow_compute), grow_compute)]
        if allow_memory_mode:
            grow_memory = OperatorAllocation(current.compute_arrays, current.memory_arrays + 1)
            options.append((latency_of(bottleneck, grow_memory), grow_memory))
        best_latency, best_allocation = min(options, key=lambda item: item[0])
        if best_latency >= current_latency - 1e-9:
            break
        allocations[bottleneck] = best_allocation
        remaining -= 1

    latency = segment_latency_cycles(profiles, allocations, hardware, pipelined=pipelined)
    return AllocationResult(allocations, latency, True, "greedy")


def reference_refine_with_spare_arrays(
    result,
    profiles,
    hardware: DualModeHardwareAbstraction,
    pipelined: bool = True,
    allow_memory_mode: bool = True,
    reserve_arrays: int = 0,
):
    """The pre-vectorisation ``refine_with_spare_arrays`` body, frozen."""
    from ..cost.latency import OperatorAllocation, operator_latency_cycles, segment_latency_cycles
    from .allocation import AllocationResult

    if not result.feasible or not result.allocations:
        return result
    allocations = dict(result.allocations)
    used = sum(a.total_arrays for a in allocations.values())
    remaining = hardware.num_arrays - used - max(0, reserve_arrays)
    if remaining <= 0:
        return result

    def latency_of(name):
        return operator_latency_cycles(profiles[name], allocations[name], hardware)

    improved = False
    while remaining > 0:
        bottleneck = max(allocations, key=latency_of)
        current = allocations[bottleneck]
        current_latency = latency_of(bottleneck)
        grow_compute = OperatorAllocation(current.compute_arrays + 1, current.memory_arrays)
        options = [
            (operator_latency_cycles(profiles[bottleneck], grow_compute, hardware), grow_compute),
        ]
        if allow_memory_mode:
            grow_memory = OperatorAllocation(current.compute_arrays, current.memory_arrays + 1)
            options.append(
                (operator_latency_cycles(profiles[bottleneck], grow_memory, hardware), grow_memory)
            )
        best_latency, best_allocation = min(options, key=lambda item: item[0])
        if best_latency >= current_latency - 1e-9:
            break
        allocations[bottleneck] = best_allocation
        remaining -= 1
        improved = True
    if not improved:
        return result
    latency = segment_latency_cycles(profiles, allocations, hardware, pipelined=pipelined)
    return AllocationResult(allocations, latency, True, result.solver)


def reference_baseline_compile(baseline, graph: Graph) -> CompiledProgram:
    """The pre-refactor ``BaselineCompiler.compile`` body, frozen.

    ``baseline`` is a live PUMA/OCC/CIM-MLC-style instance — its
    ``segment_boundaries`` and ``allocate`` strategy hooks are invoked
    exactly as the fused loop invoked them.
    """
    from ..cost.latency import segment_latency_cycles
    from ..cost.switching import (
        SegmentResources,
        aggregate_resources,
        inter_segment_breakdown,
    )
    from .segmentation import flatten_graph, live_elements_at_boundary

    hardware = baseline.hardware
    start = time.perf_counter()
    units = flatten_graph(graph, hardware)
    groups = baseline.segment_boundaries(units) if units else []
    segments: List[SegmentPlan] = []
    previous_resources: Optional[SegmentResources] = None
    for seg_index, indices in enumerate(groups):
        members = [units[i] for i in indices]
        profiles = {unit.name: unit.profile for unit in members}
        allocations = baseline.allocate(profiles)
        intra = segment_latency_cycles(
            profiles, allocations, hardware, pipelined=baseline.pipelined
        )
        boundary = indices[-1]
        live = (
            live_elements_at_boundary(units, boundary)
            if boundary + 1 < len(units)
            else 0
        )
        resources = aggregate_resources(
            profiles,
            allocations,
            live_output_elements=live,
            num_arrays_total=hardware.num_arrays,
        )
        breakdown = inter_segment_breakdown(
            previous_resources,
            resources,
            profiles,
            allocations,
            hardware,
            allow_boundary_buffering=False,
        )
        segments.append(
            SegmentPlan(
                index=seg_index,
                operator_names=[unit.name for unit in members],
                allocations=allocations,
                profiles=profiles,
                intra_cycles=intra,
                inter_cycles=sum(breakdown.values()),
                inter_breakdown=breakdown,
                resources=resources,
            )
        )
        previous_resources = resources
    meta_program = None
    if baseline.options.generate_code and segments:
        meta_program = generate_program(graph.name, segments, hardware)
    elapsed = time.perf_counter() - start
    return CompiledProgram(
        graph_name=graph.name,
        compiler_name=baseline.name,
        hardware=hardware,
        segments=segments,
        block_repeat=float(graph.metadata.get("block_repeat", 1.0)),
        compile_seconds=elapsed,
        metadata={"graph_metadata": dict(graph.metadata)},
        meta_program=meta_program,
    )
