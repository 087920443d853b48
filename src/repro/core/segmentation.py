"""Dual-mode-aware network segmentation (§4.3.1, Algorithm 1).

The topologically sorted CIM-mappable operators ``O_1 ... O_m`` are cut
into consecutive segments.  Operators whose stationary operand exceeds the
whole chip are first partitioned greedily into sub-operators that fit
(the "Flatten(G)" step).  A dynamic program then chooses the segment
boundaries minimising

    L[j] = min_i { L[i-1] + T_intra(i, j) + T_inter(i-1, i) }        (Eq. 3)

where ``T_intra`` comes from the per-segment allocator and ``T_inter`` is
the write-back + mode-switch + weight-reload overhead (Eq. 4).  The DP
memoises per-segment allocations so every candidate segment is solved at
most once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cost.arithmetic import OperatorProfile, profile_operator
from ..cost.latency import INFEASIBLE_LATENCY, guard_infeasible
from ..cost.switching import (
    SegmentResources,
    mode_switch_cycles,
    window_resources_and_reload,
    writeback_cycles,
)
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from ..ir.transforms import fuse_auxiliary_traffic, partition_operator
from .allocation import (
    AllocationResult,
    ExactAllocator,
    GreedyAllocator,
    UnitColumns,
    UnitWindow,
    allocate_segment,
    infeasible_result,
)
from ..obs import NULL_OBS
from .program import SegmentPlan


class NoFeasiblePlanError(RuntimeError):
    """No feasible execution plan exists for a non-empty graph.

    Raised by the segmenter when a required segment cannot be mapped
    onto the chip (and no fallback applies), and by
    :class:`~repro.core.compiler.CMSwitchCompiler` when the chosen plan
    carries infinite cost.  Subclasses
    :class:`RuntimeError`, so historical ``except RuntimeError`` callers
    keep working.  Infeasibility is a legitimate outcome at a
    design-space boundary — batch and DSE consumers classify it
    separately from genuine failures.

    Attributes:
        stats: Compile statistics accumulated before the failure
            (allocator solves, cache hits, wall time) — the solver
            work was real even though no program exists, and batch/DSE
            accounting must not under-report it.
    """

    def __init__(self, message: str, stats: Optional[dict] = None) -> None:
        super().__init__(message)
        self.stats = dict(stats or {})


@dataclass
class SegmentationOptions:
    """Knobs of the segmentation pass.

    Attributes:
        max_segment_operators: Upper bound on operators per segment (the
            DP window).  Bounds compilation time; the chip's capacity also
            limits segments naturally.
        pipelined: Whether operators inside a segment execute as a
            pipeline (Eq. 9) or serially.
        include_switch_cost: Whether the DP charges the Eq. 1 mode-switch
            latency (the switch-cost-awareness ablation turns this off).
        allow_memory_mode: Whether operators may receive memory-mode
            arrays; the all-compute baselines set this to False.
        use_milp: Use the optimal engine — the Eq. 8/9 optimum, computed
            by :class:`~repro.core.allocation.ExactAllocator` — (True)
            or the greedy heuristic (False).
        refine: Apply the post-allocation duplication refinement.
    """

    max_segment_operators: int = 8
    pipelined: bool = True
    include_switch_cost: bool = True
    allow_memory_mode: bool = True
    use_milp: bool = True
    refine: bool = True

    def __post_init__(self) -> None:
        validate_window(self.max_segment_operators)

    def build_allocator(self):
        """Instantiate the configured per-segment allocation engine."""
        engine = ExactAllocator if self.use_milp else GreedyAllocator
        return engine(allow_memory_mode=self.allow_memory_mode)


def validate_window(max_segment_operators) -> None:
    """Validate a DP-window size at option-construction time.

    The window bounds both compile time and segment length; a
    non-integer or non-positive value used to surface only deep inside
    the DP (a ``TypeError`` from ``range``, or an empty DP that looks
    like infeasibility).  Raising here turns a mis-typed option into an
    immediate, named error.

    Raises:
        ValueError: If the value is not an ``int`` >= 1.
    """
    if isinstance(max_segment_operators, bool) or not isinstance(
        max_segment_operators, int
    ):
        raise ValueError(
            f"max_segment_operators must be an int >= 1, got "
            f"{max_segment_operators!r}"
        )
    if max_segment_operators < 1:
        raise ValueError(
            f"max_segment_operators must be >= 1, got {max_segment_operators}"
        )


@dataclass
class FlattenedUnit:
    """One schedulable unit after flattening (an operator or a shard).

    Attributes:
        name: Unit name (shard names carry a ``::partK`` suffix).
        parent: Name of the original graph operator.
        profile: Cost profile of the unit.
        index: Position in the flattened order.
        live_until: Index of the last unit that consumes this unit's
            output (used for the inter-segment write-back volume).
    """

    name: str
    parent: str
    profile: OperatorProfile
    index: int
    live_until: int


@dataclass
class ProfiledOperator:
    """One CIM-mappable operator after profiling, before partitioning.

    The intermediate product between the pipeline's ``Flatten`` pass
    (profile every mappable operator, fold auxiliary traffic in) and its
    ``PartitionOversized`` pass (shard the operators whose stationary
    operand exceeds the chip).

    Attributes:
        operator: The IR operator.
        profile: Its cost profile with auxiliary traffic folded in.
        extra_streamed: Auxiliary traffic attributed to this operator
            (re-spread over shards when the operator is partitioned).
        oversized: Whether the operator's minimum compute footprint
            exceeds the whole chip and it must be partitioned.
    """

    operator: object
    profile: OperatorProfile
    extra_streamed: int
    oversized: bool


def profile_graph(
    graph: Graph, hardware: DualModeHardwareAbstraction
) -> List[ProfiledOperator]:
    """Profile the CIM-mappable operators (the pipeline's Flatten step).

    Auxiliary-operator traffic is folded into the nearest mappable
    neighbour and each operator is marked oversized when its minimum
    compute footprint exceeds the chip.
    """
    extra_traffic = fuse_auxiliary_traffic(graph)
    profiled: List[ProfiledOperator] = []
    for op in graph.cim_operators():
        extra = extra_traffic.get(op.name, 0)
        profile = profile_operator(op, extra)
        profiled.append(
            ProfiledOperator(
                operator=op,
                profile=profile,
                extra_streamed=extra,
                oversized=profile.min_compute_arrays(hardware) > hardware.num_arrays,
            )
        )
    return profiled


def expand_profiled(
    profiled: Sequence[ProfiledOperator], hardware: DualModeHardwareAbstraction
) -> List[Tuple[str, str, OperatorProfile]]:
    """Shard oversized operators (the pipeline's PartitionOversized step).

    Operators that fit pass through unchanged; an oversized operator is
    split by :func:`repro.ir.transforms.partition_operator` with the chip
    capacity as the budget — the paper's greedy partitioning "determined
    by the available on-chip resources".

    Returns:
        ``(name, parent, profile)`` triples in flattened order (shard
        names carry a ``::partK`` suffix; ``parent`` is the original
        operator's name).
    """
    chip_capacity = hardware.num_arrays * hardware.array_capacity_elements
    expanded: List[Tuple[str, str, OperatorProfile]] = []
    for item in profiled:
        op = item.operator
        if not item.oversized:
            expanded.append((op.name, op.name, item.profile))
            continue
        shards = partition_operator(
            op, chip_capacity, hardware.array_rows, hardware.array_cols
        )
        extra_per_shard = item.extra_streamed // len(shards)
        for shard in shards:
            shard_profile = profile_operator(shard.operator, extra_per_shard)
            expanded.append((shard.operator.name, op.name, shard_profile))
    return expanded


def assign_liveness(
    graph: Graph, expanded: Sequence[Tuple[str, str, OperatorProfile]]
) -> List[FlattenedUnit]:
    """Attach liveness to expanded units (completes the flattening).

    A unit's output is live until its last consumer.  Consumers are
    derived from the parent graph's dependency relation; units whose
    parents feed graph outputs (or only auxiliary operators) stay live
    to the very end.
    """
    position_of_parent_first: Dict[str, int] = {}
    position_of_parent_last: Dict[str, int] = {}
    for idx, (_, parent, _) in enumerate(expanded):
        position_of_parent_first.setdefault(parent, idx)
        position_of_parent_last[parent] = idx

    cim_names = {op.name for op in graph.cim_operators()}
    consumers_of: Dict[str, List[int]] = {name: [] for name in cim_names}
    for producer, consumer in _mappable_dependencies(graph, cim_names):
        if consumer in position_of_parent_first:
            consumers_of[producer].append(position_of_parent_first[consumer])

    last_index = len(expanded) - 1
    units: List[FlattenedUnit] = []
    for idx, (name, parent, profile) in enumerate(expanded):
        if idx < position_of_parent_last[parent]:
            # Intermediate shard: its partial output feeds the next shard.
            live_until = idx + 1
        else:
            consumer_positions = consumers_of.get(parent, [])
            if consumer_positions:
                live_until = max(consumer_positions)
            else:
                # Feeds the graph output (or only auxiliary tails).
                live_until = last_index
        units.append(
            FlattenedUnit(name=name, parent=parent, profile=profile, index=idx, live_until=live_until)
        )
    return units


def flatten_graph(
    graph: Graph, hardware: DualModeHardwareAbstraction
) -> List[FlattenedUnit]:
    """Flatten a graph into schedulable units that each fit on the chip.

    The composition of the three flattening steps the pipeline runs as
    named passes: :func:`profile_graph` (profile + auxiliary-traffic
    fusion), :func:`expand_profiled` (shard oversized operators) and
    :func:`assign_liveness`.
    """
    return assign_liveness(
        graph, expand_profiled(profile_graph(graph, hardware), hardware)
    )


def _mappable_dependencies(graph: Graph, cim_names: set) -> List[Tuple[str, str]]:
    """Dependency pairs between CIM-mappable operators.

    Auxiliary operators between two mappable operators are collapsed: if a
    path of non-mappable operators connects ``A`` to ``B``, the pair
    ``(A, B)`` is reported.
    """
    pairs: List[Tuple[str, str]] = []
    for op in graph.topological_order():
        if op.name not in cim_names:
            continue
        frontier = graph.successors(op)
        visited = set()
        while frontier:
            next_frontier = []
            for succ in frontier:
                if succ.name in visited:
                    continue
                visited.add(succ.name)
                if succ.name in cim_names:
                    pairs.append((op.name, succ.name))
                else:
                    next_frontier.extend(graph.successors(succ))
            frontier = next_frontier
    return pairs


def live_elements_at_boundary(units: Sequence[FlattenedUnit], boundary: int) -> int:
    """Elements produced at or before ``boundary`` still needed after it.

    ``boundary`` is the index of the last unit of the earlier segment.
    """
    total = 0
    for unit in units[: boundary + 1]:
        if unit.live_until > boundary:
            total += unit.profile.output_elements
    return total


def live_elements_vector(units: Sequence[FlattenedUnit]) -> np.ndarray:
    """:func:`live_elements_at_boundary` at every boundary, in one sweep.

    Unit ``idx`` contributes its output elements to every boundary ``b``
    with ``idx <= b < live_until``, so a difference array plus one
    cumulative sum yields all ``m`` boundary values in O(m) — the DP
    used to recompute each from scratch, O(m) per lookup.  Integer
    arithmetic throughout, so every entry equals the scalar helper
    exactly.
    """
    m = len(units)
    diff = np.zeros(m + 1, dtype=np.int64)
    for idx, unit in enumerate(units):
        if unit.live_until > idx:
            elements = unit.profile.output_elements
            diff[idx] += elements
            diff[unit.live_until] -= elements
    return np.cumsum(diff)[:m]


def boundary_arrays(
    liveness: np.ndarray,
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """What each window's boundaries ask of it, in arrays: ``(reserves, inbound)``.

    ``reserves[end]`` — arrays withheld from duplication so a dual-mode
    compiler can keep the live outputs of a window ending at ``end`` in
    memory-mode arrays rather than spilling them off chip (at most half
    the chip; nothing at the final boundary, nothing for fixed-mode
    compiles; the DP also tries each edge without them).
    ``inbound[start]`` — the live data entering a window that
    starts at ``start``, beyond what the native buffer holds, i.e. how
    many memory-mode arrays :func:`~repro.cost.switching
    .writeback_cycles` would credit it for retaining.  The inbound count
    is a fact about the window, not the mode: a fixed-mode solve cannot
    act on it (and its cache key drops it), but its cross-mode probe
    needs it to name the dual-mode entry of the same window.
    """
    m = len(liveness)
    reserves = np.zeros(m, dtype=np.int64)
    inbound = np.zeros(m, dtype=np.int64)
    if m > 1:
        capacity = hardware.array_capacity_elements
        live = liveness[:-1]
        if allow_memory_mode:
            reserves[:-1] = np.minimum(-(-live // capacity), hardware.num_arrays // 2)
        overflow = np.maximum(live - hardware.buffer_elements, 0)
        inbound[1:] = -(-overflow // capacity)
    return reserves, inbound


@dataclass
class SegmentationResult:
    """Output of the DP: segment plans plus bookkeeping for reports.

    Attributes:
        segments: Segment plans in execution order.
        units: The flattened schedulable units.
        dp_seconds: Wall-clock time of the DP (allocations included).
        allocation_calls: Fresh allocator solves performed.
        cache_hits: Solves served from the shared allocation cache.
    """

    segments: List[SegmentPlan]
    units: List[FlattenedUnit]
    dp_seconds: float
    allocation_calls: int
    cache_hits: int = 0

    @property
    def total_cycles(self) -> float:
        """Total predicted latency of the segmented schedule."""
        return sum(segment.total_cycles for segment in self.segments)


def plan_cost(result: SegmentationResult) -> float:
    """Comparable cost of a segmentation plan (NaN collapsed to ``inf``)."""
    return guard_infeasible(result.total_cycles)


def plan_arrays(result: SegmentationResult) -> int:
    """Total arrays (compute + memory + boundary) a plan occupies."""
    return sum(
        segment.compute_arrays + segment.memory_arrays for segment in result.segments
    )


def choose_plan(
    dual: SegmentationResult, fixed: SegmentationResult
) -> Tuple[SegmentationResult, bool]:
    """Pick between the dual-mode plan and a fixed-mode plan of the same
    graph (for the ``FixedModeFallback`` test oracle; no default compile
    arbitrates).

    The comparison is robust to :data:`INFEASIBLE_LATENCY` and NaN costs:

    * if both plans are infeasible the dual-mode plan is returned (the
      caller raises :class:`NoFeasiblePlanError`) — never a silent
      ``inf < inf`` keep;
    * a strictly cheaper fixed-mode plan wins;
    * on an exact finite tie the fixed-mode plan wins only when it
      occupies fewer arrays (same latency for less hardware).

    Returns:
        ``(chosen_result, fallback_used)``.
    """
    dual_cost = plan_cost(dual)
    fixed_cost = plan_cost(fixed)
    if fixed_cost < dual_cost:
        return fixed, True
    if fixed_cost == dual_cost and math.isfinite(fixed_cost):
        if plan_arrays(fixed) < plan_arrays(dual):
            return fixed, True
    return dual, False


class NetworkSegmenter:
    """Runs the Eq. 3 dynamic program over a flattened operator list."""

    def __init__(
        self,
        hardware: DualModeHardwareAbstraction,
        options: Optional[SegmentationOptions] = None,
        cache: Optional[object] = None,
        obs: Optional[object] = None,
    ) -> None:
        """Args:
            hardware: Target hardware abstraction.
            options: Segmentation knobs (paper defaults when omitted).
            cache: Optional shared
                :class:`~repro.core.cache.AllocationCache`.  The
                positional window table below always applies; the
                shared cache additionally reuses solves across runs
                (repeated compiles, neighbouring design points).
            obs: Optional :class:`~repro.obs.Observability` bundle: one
                span per window the DP asks for, ``allocator.solves``
                counters in its registry.
        """
        self.hardware = hardware
        self.options = options or SegmentationOptions()
        self._allocator = self.options.build_allocator()
        self._allocation_cache: Dict[Tuple[int, int], AllocationResult] = {}
        # The refinement (reserved or not) the DP's best plan uses per window.
        self._chosen: Dict[Tuple[int, int], AllocationResult] = {}
        self._shared_cache = cache
        obs = NULL_OBS if obs is None else obs
        self._tracer = obs.tracer
        self._metrics = obs.metrics
        # Per-unit-list precomputation (one segmenter serves exactly one
        # unit list, like ``_allocation_cache`` already assumes); built
        # by ``_prepare``, dead with the compile.
        self._vectors: Optional[UnitColumns] = None
        self._liveness: Optional[List[int]] = None
        self._reserves: Optional[List[int]] = None
        self._inbound: Optional[List[int]] = None
        self.allocation_calls = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------ #
    # per-run precomputation
    # ------------------------------------------------------------------ #
    def _prepare(self, units: Sequence[FlattenedUnit]) -> None:
        """Precompute what the DP reads per window, by position (idempotent).

        One pass over the units yields everything the DP loop needs per
        cell in O(1): the unit columns (per-operator Eq. 10 tables,
        candidate lists, signatures, static-weight and compute-floor
        prefix sums — see :class:`~repro.core.allocation.UnitColumns`),
        the live elements at every boundary, and the boundary reserve /
        inbound count each window end / start implies.
        """
        if self._vectors is not None or not units:
            return
        self._vectors = UnitColumns(
            [unit.profile for unit in units],
            self.hardware,
            names=[unit.name for unit in units],
        )
        liveness = live_elements_vector(units)
        reserves, inbound = boundary_arrays(
            liveness, self.hardware, self.options.allow_memory_mode
        )
        # Plain lists: the DP reads one entry per window.
        self._liveness = liveness.tolist()
        self._reserves, self._inbound = reserves.tolist(), inbound.tolist()

    # ------------------------------------------------------------------ #
    # allocation memoisation
    # ------------------------------------------------------------------ #
    def _window(self, start: int, end: int) -> UnitWindow:
        """Units ``start..end`` (inclusive) as a window over the columns."""
        return UnitWindow(self._vectors, start, end + 1)

    def _spare_arrays(self, start: int, end: int) -> int:
        """Arrays window ``[start, end]`` leaves beyond its compute floor.

        O(1) from the precomputed floor prefix; negative when the window
        does not fit the chip at all.
        """
        return self.hardware.num_arrays - self._vectors.window_minimum_compute_arrays(
            start, end
        )

    def _solve_arguments(self, start: int, end: int, spare: int) -> Dict[str, object]:
        """Everything about window ``[start, end]``'s solve but its profiles.

        The one place the engine, the solve options and the window's
        boundary context are put together.  ``spare`` is the window's
        :meth:`_spare_arrays`: memory arrays never exceed it, so any
        larger inbound count asks for the identical solve.
        """
        return {
            "allocator": self._allocator,
            "pipelined": self.options.pipelined,
            "refine": self.options.refine,
            "reserve_arrays": self._reserves[end],
            "inbound_arrays": min(self._inbound[start], spare),
        }

    def _allocate(self, units: Sequence[FlattenedUnit], start: int, end: int) -> AllocationResult:
        key = (start, end)
        if key not in self._allocation_cache:
            spare = self._spare_arrays(start, end)
            if spare < 0:
                result = infeasible_result()
            else:
                with self._tracer.span("allocator.solve", start=start, end=end) as span:
                    result = allocate_segment(
                        self._window(start, end),
                        self.hardware,
                        cache=self._shared_cache,
                        **self._solve_arguments(start, end, spare),
                    )
                    span.set(solver=result.solver, cached=result.from_cache)
                self._record_result(result)
            self._allocation_cache[key] = result
        return self._allocation_cache[key]

    def _record_result(self, result: AllocationResult) -> None:
        """Advance the solve/hit counters for one consumed allocation."""
        if result.from_cache:
            self.cache_hits += 1  # the cache counts it as ``cache.hits``
        else:
            self.allocation_calls += 1
            self._metrics.inc("allocator.solves")
            self._metrics.inc(f"allocator.solves.{result.solver}")

    def _stats_payload(self) -> Dict[str, float]:
        """Solver counters for a :class:`NoFeasiblePlanError` — the work
        done before an infeasibility still has to be accounted for."""
        attempts = self.allocation_calls + self.cache_hits
        return {
            "allocator_solves": self.allocation_calls,
            "allocation_cache_hits": self.cache_hits,
            "allocation_cache_hit_rate": (
                self.cache_hits / attempts if attempts else 0.0
            ),
        }

    # ------------------------------------------------------------------ #
    # dynamic program
    # ------------------------------------------------------------------ #
    def segment(
        self, graph: Graph, units: Optional[Sequence[FlattenedUnit]] = None
    ) -> SegmentationResult:
        """Segment a graph and allocate every segment (Algorithm 1).

        Args:
            graph: The computation graph.
            units: Pre-flattened schedulable units; flattening is
                deterministic and option-independent, so callers that
                already flattened (the pipeline's earlier passes) may
                pass them to skip the repeated work.
        """
        start_time = time.perf_counter()
        if units is None:
            units = flatten_graph(graph, self.hardware)
        units = list(units)
        if not units:
            return SegmentationResult([], [], 0.0, 0, 0)
        boundaries = self.choose_boundaries(graph, units)
        segments = self.build_plans(units, boundaries)
        dp_seconds = time.perf_counter() - start_time
        return SegmentationResult(
            segments,
            units,
            dp_seconds,
            self.allocation_calls,
            self.cache_hits,
        )

    def choose_boundaries(
        self, graph: Graph, units: Sequence[FlattenedUnit]
    ) -> List[Tuple[int, int]]:
        """Run the Eq. 3 DP and return the chosen segment boundaries.

        Returns ``(start, end)`` inclusive index pairs in execution
        order.  When the DP proves no feasible plan exists, falls back
        to one segment per unit (:meth:`build_plans` names the one that
        cannot be mapped).  The per-window allocation solves
        the DP performs stay memoised on this segmenter, so a subsequent
        :meth:`build_plans` call re-pays nothing.
        """
        m = len(units)
        window = max(1, self.options.max_segment_operators)
        self._prepare(units)

        # DP tables: best cost to schedule units[0..j-1]; predecessor
        # boundary; allocation and resources of the last segment of the
        # best plan ending at j.
        best_cost = [INFEASIBLE_LATENCY] * (m + 1)
        best_cost[0] = 0.0
        predecessor = [-1] * (m + 1)
        last_resources: List[Optional[SegmentResources]] = [None] * (m + 1)
        last_allocation: List[Optional[AllocationResult]] = [None] * (m + 1)

        tables = (best_cost, predecessor, last_resources, last_allocation)
        for j in range(1, m + 1):
            live = self._liveness[j - 1] if j < m else 0
            for i in range(self._first_fitting_start(j, window), j):
                if best_cost[i] == INFEASIBLE_LATENCY:
                    continue
                allocation = self._allocate(units, i, j - 1)
                self._dp_edge(i, j, live, allocation, tables)

        if best_cost[m] == INFEASIBLE_LATENCY:
            # One segment per unit — used only when the DP finds no plan.
            return [(i, i) for i in range(m)]

        # Backtrack the boundaries, keeping the variant each edge won with.
        boundaries: List[Tuple[int, int]] = []
        j = m
        while j > 0:
            i = predecessor[j]
            boundaries.append((i, j - 1))
            self._chosen[(i, j - 1)] = last_allocation[j]
            j = i
        boundaries.reverse()
        return boundaries

    def _first_fitting_start(self, j: int, window: int) -> int:
        """Smallest ``i`` whose window ``[i, j-1]`` fits the chip.

        The compute floor only grows with the window, so the starts that
        fit are a contiguous run ending at ``j - 1``: walk down from
        there and stop at the first overflow.  Window ``[i, j-1]`` needs
        ``prefix[j] - prefix[i]`` arrays, so it fits iff ``prefix[i]``
        reaches ``prefix[j] - num_arrays``.
        """
        prefix = self._vectors.floor_prefix
        fits_from = prefix[j] - self.hardware.num_arrays
        i = j
        lowest = max(0, j - window)
        while i > lowest and prefix[i - 1] >= fits_from:
            i -= 1
        return i

    def _inter_segment(
        self,
        previous: Optional[SegmentResources],
        start: int,
        end: int,
        live: int,
        allocation: AllocationResult,
    ) -> Tuple[SegmentResources, Dict[str, float]]:
        """Resources of window ``[start, end]`` under ``allocation`` and the
        Eq. 4 overhead of entering it from ``previous``, by component
        (in the order Eq. 4 adds them)."""
        resources, reload = window_resources_and_reload(
            self._vectors, start, end + 1, allocation.allocations, self.hardware, live
        )
        switch = 0.0
        if self.options.include_switch_cost:
            switch = mode_switch_cycles(previous, resources, self.hardware)
        return resources, {
            "writeback": writeback_cycles(
                previous,
                resources,
                self.hardware,
                allow_boundary_buffering=self.options.allow_memory_mode,
            ),
            "mode_switch": switch,
            "weight_reload": reload,
        }

    def _dp_edge(
        self,
        i: int,
        j: int,
        live: int,
        allocation: AllocationResult,
        tables,
    ) -> None:
        """Relax the Eq. 3 edge ``i -> j`` with an obtained allocation.

        Reserving the boundary buffer is the edge's choice: the edge is
        relaxed with the refinement that withholds it and, where it
        differs, with the one that hands it out.
        """
        best_cost, predecessor, last_resources, last_allocation = tables
        for variant in (allocation, allocation.unreserved):
            if variant is None or not variant.feasible:
                continue
            resources, breakdown = self._inter_segment(
                last_resources[i], i, j - 1, live, variant
            )
            cost = best_cost[i] + variant.latency_cycles + sum(breakdown.values())
            if cost < best_cost[j]:
                best_cost[j] = cost
                predecessor[j] = i
                last_resources[j] = resources
                last_allocation[j] = variant

    # ------------------------------------------------------------------ #
    # plan construction
    # ------------------------------------------------------------------ #
    def build_plans(
        self, units: Sequence[FlattenedUnit], boundaries: Sequence[Tuple[int, int]]
    ) -> List[SegmentPlan]:
        """Materialise :class:`SegmentPlan` objects for chosen boundaries.

        Allocations are served from this segmenter's window table (the
        DP already solved every candidate window), so this step performs
        no fresh solver work after :meth:`choose_boundaries`.
        """
        plans: List[SegmentPlan] = []
        previous_resources: Optional[SegmentResources] = None
        capacity = self.hardware.array_capacity_elements
        self._prepare(units)
        for seg_index, (start, end) in enumerate(boundaries):
            allocation = self._chosen.get((start, end)) or self._allocate(units, start, end)
            if not allocation.feasible:
                names = ", ".join(unit.name for unit in units[start : end + 1])
                raise NoFeasiblePlanError(
                    f"segment [{names}] cannot be mapped onto "
                    f"{self.hardware.name!r} ({self.hardware.num_arrays} arrays)",
                    stats=self._stats_payload(),
                )
            live = self._liveness[end] if end + 1 < len(units) else 0
            resources, breakdown = self._inter_segment(
                previous_resources, start, end, live, allocation
            )
            inter = sum(breakdown.values())
            boundary_memory = 0
            if self.options.allow_memory_mode and live > 0:
                boundary_memory = min(resources.idle_arrays, -(-live // capacity))
            plans.append(
                SegmentPlan(
                    index=seg_index,
                    operator_names=[unit.name for unit in units[start : end + 1]],
                    allocations=dict(allocation.allocations),
                    profiles={unit.name: unit.profile for unit in units[start : end + 1]},
                    intra_cycles=allocation.latency_cycles,
                    inter_cycles=inter,
                    inter_breakdown=breakdown,
                    resources=resources,
                    boundary_memory_arrays=boundary_memory,
                )
            )
            previous_resources = resources
        return plans

