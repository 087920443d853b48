"""Dual-mode-aware network segmentation (§4.3.1, Algorithm 1).

The topologically sorted CIM-mappable operators ``O_1 ... O_m`` are cut
into consecutive segments.  Operators whose stationary operand exceeds the
whole chip are first partitioned greedily into sub-operators that fit
(the "Flatten(G)" step).  A dynamic program then chooses the segment
boundaries minimising

    L[j] = min_i { L[i-1] + T_intra(i, j) + T_inter(i-1, i) }        (Eq. 3)

where ``T_intra`` comes from the per-segment allocator and ``T_inter`` is
the write-back + mode-switch + weight-reload overhead (Eq. 4).  The DP
asks the window table (:class:`~repro.core.cache.AllocationCache`) about
each candidate segment once; one solved before is not solved again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cost import arithmetic
from ..cost.arithmetic import OperatorProfile, profile_operator
from ..cost.latency import INFEASIBLE_LATENCY, OperatorAllocation
from ..cost.switching import (
    INITIAL_RESOURCES,
    SegmentResources,
    arrays_beyond_buffer,
    spill_cycles,
    switch_cycles,
    window_totals,
)
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from ..ir.transforms import partition_operator, shard_operator
from .allocation import (
    AllocationResult,
    ExactAllocator,
    GreedyAllocator,
    Pair,
    UnitColumns,
    UnitWindow,
    allocate_segment,
    infeasible_result,
)
from ..obs import NULL_OBS
from .cache import AllocationCache
from .program import SegmentPlan


@dataclass
class CompilerOptions:
    """The compilation options — the one options type the segmenter reads.

    Validated on construction: ``max_segment_operators`` must be an
    ``int`` >= 1, or a :class:`ValueError` names it.

    Attributes:
        max_segment_operators: DP window — maximum operators per segment.
            Bounds compilation time; the chip's capacity also limits
            segments naturally.
        pipelined: Pipeline operators within a segment (Eq. 9 objective)
            instead of running them serially.
        include_switch_cost: Charge the Eq. 1 mode-switch latency in the
            DP (the switch-cost-awareness ablation turns this off).
        use_milp: Use the optimal per-segment allocator — the optimum
            of the paper's Eq. 8/9 program, computed by
            :class:`~repro.core.allocation.ExactAllocator` without a
            solver — (otherwise greedy).
        refine: Apply weight-duplication refinement after allocation.
        allow_memory_mode: Allow arrays in memory mode.  Setting this to
            False degenerates CMSwitch into a fixed-mode compiler and is
            used by baselines/ablations.
        generate_code: Emit the meta-operator flow alongside the plan.
    """

    max_segment_operators: int = 8
    pipelined: bool = True
    include_switch_cost: bool = True
    use_milp: bool = True
    refine: bool = True
    allow_memory_mode: bool = True
    generate_code: bool = True

    def __post_init__(self) -> None:
        window = self.max_segment_operators
        if isinstance(window, bool) or not isinstance(window, int):
            raise ValueError(f"max_segment_operators must be an int >= 1, got {window!r}")
        if window < 1:
            raise ValueError(f"max_segment_operators must be >= 1, got {window}")


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
        profile: Its cost profile with auxiliary traffic folded in
            (``extra_streamed_elements``, re-spread over shards when the
            operator is partitioned).
        oversized: Whether the operator's minimum compute footprint
            exceeds the whole chip and it must be partitioned.
    """

    operator: object
    profile: OperatorProfile
    oversized: bool


def profile_graph(
    graph: Graph, hardware: DualModeHardwareAbstraction
) -> List[ProfiledOperator]:
    """Profile the CIM-mappable operators (the pipeline's Flatten step).

    :func:`repro.cost.arithmetic.profile_graph` profiles them, with
    auxiliary-operator traffic folded into the nearest mappable
    neighbour; each operator is marked oversized when its minimum
    compute footprint exceeds the chip.
    """
    profiles = arithmetic.profile_graph(graph)
    return [
        ProfiledOperator(
            operator=op,
            profile=profiles[op.name],
            oversized=profiles[op.name].min_compute_arrays(hardware) > hardware.num_arrays,
        )
        for op in graph.cim_operators()
    ]


def expand_profiled(
    profiled: Sequence[ProfiledOperator], hardware: DualModeHardwareAbstraction
) -> List[Tuple[str, str, OperatorProfile]]:
    """Shard oversized operators (the pipeline's PartitionOversized step).

    Operators that fit pass through unchanged; an oversized operator is
    split into (K, N) ranges by :func:`repro.ir.transforms.partition_operator`
    with the chip capacity as the budget — the paper's greedy partitioning
    "determined by the available on-chip resources".

    A shard's profile is a function of its K and N extents (every shard
    of one operator shares its M, type and share of the auxiliary
    traffic), and all shards but the remainders have the same extents:
    one shard operator is built and profiled per distinct shape (at most
    four per operator: full, K remainder, N remainder, both), and every
    shard of that shape holds that one profile object.

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
        extra_per_shard = item.profile.extra_streamed_elements // len(shards)
        # (K extent, N extent) -> the one profile of that shape.
        by_extent: Dict[Tuple[int, int], OperatorProfile] = {}
        for shard in shards:
            (k_lo, k_hi), (n_lo, n_hi) = shard.k_range, shard.n_range
            extent = (k_hi - k_lo, n_hi - n_lo)
            shard_profile = by_extent.get(extent)
            if shard_profile is None:
                shard_profile = by_extent[extent] = profile_operator(
                    shard_operator(op, shard), extra_per_shard
                )
            expanded.append((shard.name, op.name, shard_profile))
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


def live_elements_vector(units: Sequence[FlattenedUnit]) -> np.ndarray:
    """Live elements at every boundary — Eq. 4's live data volume.

    Entry ``b`` is the output elements of units ``0..b`` that a unit
    after ``b`` still needs (``b`` is the last unit of the earlier
    segment).  Unit ``idx`` contributes to every boundary with ``idx <=
    b < live_until``, so a difference array plus one cumulative sum
    yields all ``m`` boundary values in O(m).
    """
    m = len(units)
    diff = np.zeros(m + 1, dtype=np.int64)
    for idx, unit in enumerate(units):
        if unit.live_until > idx:
            elements = unit.profile.output_elements
            diff[idx] += elements
            diff[unit.live_until] -= elements
    return np.cumsum(diff)[:m]


def plan_cost(segments: Sequence[SegmentPlan]) -> float:
    """Comparable cost of a plan's segments."""
    return sum(segment.total_cycles for segment in segments)


def plan_arrays(segments: Sequence[SegmentPlan]) -> int:
    """Total arrays (compute + memory + boundary) a plan occupies."""
    return sum(segment.compute_arrays + segment.memory_arrays for segment in segments)


def choose_plan(
    dual: List[SegmentPlan], fixed: List[SegmentPlan]
) -> Tuple[List[SegmentPlan], bool]:
    """Pick between the dual-mode plan and a fixed-mode plan of the same
    graph (for the ``FixedModeFallback`` test oracle; no default compile
    arbitrates).

    A strictly cheaper fixed-mode plan wins; on an exact tie it wins
    only when it occupies fewer arrays (same latency for less hardware).

    Returns:
        ``(chosen_segments, fallback_used)``.
    """
    dual_cost = plan_cost(dual)
    fixed_cost = plan_cost(fixed)
    if fixed_cost < dual_cost or (
        fixed_cost == dual_cost and plan_arrays(fixed) < plan_arrays(dual)
    ):
        return fixed, True
    return dual, False


class NetworkSegmenter:
    """Runs the Eq. 3 dynamic program over a flattened operator list.

    :meth:`choose_boundaries` runs the DP and :meth:`build_plans` turns
    boundaries into plans; the compile pipeline's ``segment`` and
    ``allocate`` passes call them in that order.  The segmenter owns the
    solve and hit counts of the windows it consumed
    (``allocation_calls`` / ``cache_hits``).
    """

    def __init__(
        self,
        hardware: DualModeHardwareAbstraction,
        options: Optional[CompilerOptions] = None,
        *,
        cache: AllocationCache,
        obs: Optional[object] = None,
    ) -> None:
        """Args:
            hardware: Target hardware abstraction.
            options: Compilation options (paper defaults when omitted);
                ``generate_code`` is not the segmenter's concern.
            cache: The window table every window is solved through
                (:func:`~repro.core.allocation.allocate_segment`); shared
                with the compile's other segmenters and, through the
                service, with other compiles.
            obs: Optional :class:`~repro.obs.Observability` bundle: one
                span per window the DP asks for, ``allocator.solves``
                counters in its registry.
        """
        self.hardware = hardware
        self.options = options or CompilerOptions()
        engine = ExactAllocator if self.options.use_milp else GreedyAllocator
        self._allocator = engine(allow_memory_mode=self.options.allow_memory_mode)
        # The allocation the DP's best plan uses per window.
        self._chosen: Dict[Tuple[int, int], AllocationResult] = {}
        self._cache = cache
        obs = NULL_OBS if obs is None else obs
        self._tracer = obs.tracer
        self._metrics = obs.metrics
        # Per-unit-list precomputation (one segmenter serves exactly one
        # unit list); built by ``_prepare``, dead with the compile.
        self._vectors: Optional[UnitColumns] = None
        self._liveness: Optional[List[int]] = None
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
        the live elements at every boundary, and the inbound count each
        window start implies.

        Raises:
            ValueError: A unit's compute floor exceeds the chip.
                :func:`flatten_graph` partitions every operator until it
                fits, so one unit per segment is always a plan; units
                that break that are the caller's error.
        """
        if self._vectors is not None or not units:
            return
        vectors = UnitColumns([unit.profile for unit in units], self.hardware)
        oversized = np.flatnonzero(vectors.floors > self.hardware.num_arrays)
        if oversized.size:
            k = int(oversized[0])
            raise ValueError(
                f"unit {units[k].name!r} needs {vectors.floors[k]} compute arrays, "
                f"more than {self.hardware.name!r} has ({self.hardware.num_arrays})"
            )
        self._vectors = vectors
        liveness = live_elements_vector(units)
        # Plain lists: the DP reads one entry per window.
        self._liveness = liveness.tolist()
        # Live data entering each window, in arrays: a fixed-mode key drops
        # it, but its cross-mode probe needs it to name the dual-mode entry.
        self._inbound = [0] + arrays_beyond_buffer(liveness[:-1], self.hardware).tolist()

    # ------------------------------------------------------------------ #
    # window solves
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
        """Everything about window ``[start, end]``'s solve but the window.

        The one place the engine, the solve options and the window's
        boundary context are put together.  ``spare`` is the window's
        :meth:`_spare_arrays`: memory arrays never exceed it, so any
        larger inbound count asks for the identical solve.
        """
        return {
            "allocator": self._allocator,
            "pipelined": self.options.pipelined,
            "refine": self.options.refine,
            "inbound_arrays": min(self._inbound[start], spare),
        }

    def _allocate(self, start: int, end: int) -> AllocationResult:
        """Window ``[start, end]`` from the table, solved there on a miss."""
        spare = self._spare_arrays(start, end)
        if spare < 0:
            return infeasible_result()
        with self._tracer.span("allocator.solve", start=start, end=end) as span:
            result = allocate_segment(
                self._window(start, end),
                cache=self._cache,
                **self._solve_arguments(start, end, spare),
            )
            span.set(solver=result.solver, cached=result.from_cache)
        if result.from_cache:
            self.cache_hits += 1  # the cache counts it as ``cache.hits``
        else:
            self.allocation_calls += 1
            self._metrics.inc("allocator.solves")
            self._metrics.inc(f"allocator.solves.{result.solver}")
        return result

    # ------------------------------------------------------------------ #
    # dynamic program
    # ------------------------------------------------------------------ #
    def choose_boundaries(
        self, graph: Graph, units: Sequence[FlattenedUnit]
    ) -> List[Tuple[int, int]]:
        """Run the Eq. 3 DP and return the chosen segment boundaries.

        Returns ``(start, end)`` inclusive index pairs in execution
        order.  Every unit fits the chip alone (:meth:`_prepare` checks),
        so a plan always exists.  The allocation each chosen window wins
        with stays on this segmenter, so a subsequent :meth:`build_plans`
        call re-pays nothing.
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
        last_resources: List[SegmentResources] = [INITIAL_RESOURCES] * (m + 1)
        last_allocation: List[Optional[AllocationResult]] = [None] * (m + 1)

        tables = (best_cost, predecessor, last_resources, last_allocation)
        for j in range(1, m + 1):
            live = self._liveness[j - 1] if j < m else 0
            for i in range(self._first_fitting_start(j, window), j):
                allocation = self._allocate(i, j - 1)
                self._dp_edge(i, j, live, allocation, tables)

        # Backtrack the boundaries, keeping the allocation each edge won with.
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

    def _edge_price(
        self, previous: SegmentResources, start: int, stop: int, pairs: Sequence[Pair]
    ) -> Tuple[float, float, float, int, int, int]:
        """Eq. 4 of entering window ``[start, stop)`` under ``pairs`` from
        ``previous``, in scalars: ``(T_wb, T_swc, T_rw, compute, memory,
        idle)``, added in that order wherever they are summed.  The DP
        prices every edge of a cold pass and keeps a fraction, so it
        builds no :class:`SegmentResources` to price one; the plan
        records the winners' terms (:meth:`build_plans`).
        """
        hardware = self.hardware
        compute, memory, reload = window_totals(self._vectors, start, stop, pairs, hardware)
        idle = max(0, hardware.num_arrays - compute - memory)
        writeback = spill_cycles(
            previous.live_output_elements, previous.idle_arrays, memory, idle,
            hardware, self.options.allow_memory_mode,
        )
        switch = 0.0
        if self.options.include_switch_cost:
            switch = switch_cycles(
                previous.compute_arrays, previous.memory_arrays, compute, memory, hardware
            )
        return writeback, switch, reload, compute, memory, idle

    def _dp_edge(
        self,
        i: int,
        j: int,
        live: int,
        allocation: AllocationResult,
        tables,
    ) -> None:
        """Relax the Eq. 3 edge ``i -> j`` with the window's allocation.

        The edge is priced in scalars (:meth:`_edge_price`); resources
        are built only when it wins.
        """
        if not allocation.feasible:
            return
        best_cost, predecessor, last_resources, last_allocation = tables
        writeback, switch, reload, compute, memory, idle = self._edge_price(
            last_resources[i], i, j, allocation.pairs
        )
        cost = best_cost[i] + allocation.latency_cycles + (writeback + switch + reload)
        if cost < best_cost[j]:
            best_cost[j] = cost
            predecessor[j] = i
            last_allocation[j] = allocation
            static_weight = self._vectors.window_static_weight_elements(i, j - 1)
            last_resources[j] = SegmentResources(compute, memory, live, static_weight, idle)

    # ------------------------------------------------------------------ #
    # plan construction
    # ------------------------------------------------------------------ #
    def build_plans(
        self, units: Sequence[FlattenedUnit], boundaries: Sequence[Tuple[int, int]]
    ) -> List[SegmentPlan]:
        """Materialise :class:`SegmentPlan` objects for chosen boundaries.

        The DP's chosen windows carry the allocation they won with, so
        this step performs no fresh solver work after
        :meth:`choose_boundaries`.  Other windows — boundaries a
        baseline's policy drew — are asked of the window table here.
        Every compiler's plans are built here.

        Raises:
            ValueError: A unit exceeds the chip (see :meth:`_prepare`),
                or a window of ``boundaries`` does not fit it.
        """
        plans: List[SegmentPlan] = []
        previous_resources = INITIAL_RESOURCES
        capacity = self.hardware.array_capacity_elements
        self._prepare(units)
        for seg_index, (start, end) in enumerate(boundaries):
            allocation = self._chosen.get((start, end)) or self._allocate(start, end)
            window = units[start : end + 1]
            names = [unit.name for unit in window]
            if not allocation.feasible:
                raise ValueError(
                    f"window [{', '.join(names)}] does not fit "
                    f"{self.hardware.name!r} ({self.hardware.num_arrays} arrays)"
                )
            live = self._liveness[end] if end + 1 < len(units) else 0
            writeback, switch, reload, compute, memory, idle = self._edge_price(
                previous_resources, start, end + 1, allocation.pairs
            )
            static_weight = self._vectors.window_static_weight_elements(start, end)
            resources = SegmentResources(compute, memory, live, static_weight, idle)
            boundary_memory = 0
            if self.options.allow_memory_mode and live > 0:
                boundary_memory = min(resources.idle_arrays, -(-live // capacity))
            plans.append(
                SegmentPlan(
                    index=seg_index,
                    operator_names=names,
                    allocations={
                        name: OperatorAllocation(compute, memory)
                        for name, (compute, memory) in zip(names, allocation.pairs)
                    },
                    profiles={unit.name: unit.profile for unit in window},
                    intra_cycles=allocation.latency_cycles,
                    inter_cycles=writeback + switch + reload,
                    inter_breakdown={
                        "writeback": writeback, "mode_switch": switch, "weight_reload": reload
                    },
                    resources=resources,
                    boundary_memory_arrays=boundary_memory,
                )
            )
            previous_resources = resources
        return plans

