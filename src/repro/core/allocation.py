"""Per-segment dual-mode resource allocation (§4.3.2 of the paper).

Given the operators of one network segment, the allocator decides how many
arrays each operator receives in compute mode and how many in memory mode
so that the pipelined segment latency (Eq. 9 with the Eq. 10 latency
model) is minimised under the chip's array budget (Eq. 8).

For every operator a small Pareto set of candidate ``(compute, memory)``
allocations is enumerated; the allocation picks one candidate per
operator so the largest selected latency is minimal and the selected
arrays fit the chip.  That selection is the paper's Eq. 8/9 mixed-integer
program, which the paper hands to Gurobi; at these sizes its optimum
needs no solver.  Two engines are provided:

* :class:`ExactAllocator` — the default: the optimum of that model by
  binary search over the candidate latencies (the model is a bottleneck
  multiple-choice knapsack), with a canonical minimum-arrays tie-break.
  It completes :class:`MIPAllocator`, the model every optimal solve
  shares (candidates in, one pick per operator out).
* :class:`GreedyAllocator` — a fast marginal-gain heuristic: the
  ``use_milp=False`` arm of the allocation ablation (ledger row
  ``ablation.milp-vs-greedy`` in ``tests/test_paper_claims.py``) and a
  cross-check in tests.

An engine returns its pick by position, one ``(compute, memory)`` pair
per operator; :func:`allocate_segment` turns it into the window's
:class:`AllocationResult` — through :func:`refine_with_spare_arrays`
(weight duplication and extra buffering, the paper's post-allocation
optimisation), or priced as it stands when refinement is off.

What a solve reads about an operator — its Eq. 10 factor tables, its
candidate list, its compute floor, its cache signature — does not depend
on the window the operator is solved in, so it is kept **by position**
in :class:`UnitColumns`, built once per compile by the segmenter, and a
window is an index range over it (:class:`UnitWindow`).  Nothing is
memoised per profile, per allocator or per module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..cost.arithmetic import OperatorProfile, ProfileVectors
# operator_latency_cycles is re-exported only: nothing in the program calls
# the one-cell view, but the benchmark's tracer counts calls through this
# module's name.
from ..cost.latency import (  # noqa: F401
    INFEASIBLE_LATENCY,
    combine_operator_latencies,
    guard_infeasible_batch,
    operator_latency_cycles,
    operator_latency_factors_batch,
)
from ..hardware.deha import DualModeHardwareAbstraction

if TYPE_CHECKING:  # the cache module imports this one
    from .cache import AllocationCache


#: One operator's allocation by position: ``(compute_arrays, memory_arrays)``.
Pair = Tuple[int, int]


@dataclass
class AllocationResult:
    """Outcome of allocating one window, kept by position.

    A window's allocation is one ``(compute, memory)`` pair per operator
    in window order: the solve, the refinement, the window table and the
    DP edge all read and write the pairs, and a name is attached to an
    allocation only where a plan needs one (:meth:`NetworkSegmenter
    .build_plans <repro.core.segmentation.NetworkSegmenter.build_plans>`).

    Attributes:
        pairs: ``(compute_arrays, memory_arrays)`` per operator, in
            window order (empty for an infeasible result).
        latency_cycles: Pipelined segment latency under the allocation.
        feasible: Whether the segment fits the chip at all.
        solver: Which engine produced the result ("exact", "greedy",
            "infeasible").
        from_cache: Whether the result was served from a shared
            :class:`~repro.core.cache.AllocationCache` instead of a fresh
            solve (used by compile statistics).  A hit is a fresh result
            around the stored pairs; its ``unreserved`` twin is the
            stored one.
        unreserved: The same solve refined with ``reserve_arrays=0``;
            ``None`` when that is this very result.  The segmentation
            DP relaxes each edge with both.
    """

    pairs: Tuple[Pair, ...]
    latency_cycles: float
    feasible: bool
    solver: str
    from_cache: bool = False
    unreserved: Optional["AllocationResult"] = None

    @property
    def total_arrays(self) -> int:
        """Total arrays used."""
        return sum(compute + memory for compute, memory in self.pairs)

    @property
    def compute_arrays(self) -> int:
        """Total compute-mode arrays used."""
        return sum(compute for compute, _ in self.pairs)

    @property
    def memory_arrays(self) -> int:
        """Total memory-mode arrays used."""
        return sum(memory for _, memory in self.pairs)


def infeasible_result() -> AllocationResult:
    """Result representing a segment that cannot be mapped onto the chip."""
    return AllocationResult((), INFEASIBLE_LATENCY, False, "infeasible")


# ---------------------------------------------------------------------- #
# candidate enumeration
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AllocationCandidate:
    """One candidate allocation for a single operator."""

    compute_arrays: int
    memory_arrays: int
    latency_cycles: float

    @property
    def total_arrays(self) -> int:
        """Arrays the candidate consumes."""
        return self.compute_arrays + self.memory_arrays


class CandidateList(list):
    """One operator's Pareto candidates plus the columns a selection reads.

    A list of :class:`AllocationCandidate` (arrays ascending, latency
    strictly descending) that also carries ``negated`` (the latencies,
    negated so they ascend — what :meth:`ExactAllocator._select`
    bisects), ``totals`` (the array counts) and ``pairs`` (each
    candidate's ``(compute, memory)``, what a result carries), built
    once with the list instead of once per window solve that contains
    the operator.
    """

    def __init__(self, candidates: Iterable[AllocationCandidate] = ()) -> None:
        super().__init__(candidates)
        self.negated: List[float] = [-c.latency_cycles for c in self]
        self.totals: List[int] = [c.total_arrays for c in self]
        self.pairs: List[Pair] = [(c.compute_arrays, c.memory_arrays) for c in self]


#: Pareto candidates kept per operator; longer frontiers are thinned
#: uniformly, keeping both extremes.
MAX_CANDIDATES = 24

#: One operator's Eq. 10 factor tables: ``(compute_time, supply_time)``,
#: each a list indexed by the array count.
FactorTables = Tuple[List[float], List[float]]


def candidate_allocations(
    profile: OperatorProfile,
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
    max_candidates: int = MAX_CANDIDATES,
    *,
    factors: FactorTables,
) -> CandidateList:
    """Pareto-optimal (arrays, latency) candidates for one operator.

    Compute counts are swept geometrically from the operator's minimum
    footprint up to the chip; memory counts from zero up to the number
    of arrays that fully buffer the working set.  Every grid point's
    Eq. 10 latency is ``max(compute_time[compute], supply_time[memory])``
    read from the operator's factor tables — Eq. 10 itself is evaluated
    once per compile for all operators (:class:`UnitColumns`), not once
    more per grid here.  Dominated candidates (more arrays and no lower
    latency) are then discarded, keeping the selection small without
    losing the optimum at the granularity of the sweep.

    An operator none of whose candidates can ever finish (every grid
    point has infinite latency — possible only on degenerate hardware
    with zero usable bandwidth) yields an empty list, the same verdict
    as an operator that does not fit the budget.

    Args:
        factors: The operator's Eq. 10 factor tables covering
            ``0..hardware.num_arrays`` (a row of :class:`UnitColumns`).
    """
    max_arrays = hardware.num_arrays
    min_compute = profile.compute_floor(hardware)
    if min_compute > max_arrays:
        return CandidateList()
    mem_cap = profile.memory_arrays_for_working_set(hardware) if allow_memory_mode else 0
    mem_cap = min(mem_cap, max_arrays - min_compute)
    compute_time, supply_time = factors

    # (total, latency, compute, memory) tuples sort like the stable
    # (total, latency) sort of the compute-major, memory-minor grid the
    # scalar double loop walked: at equal total, compute ascends with
    # the grid order.
    memory_options = [0] + _geometric_range(1, mem_cap) if mem_cap > 0 else [0]
    grid = []
    for compute in _geometric_range(min_compute, max_arrays):
        computing = compute_time[compute]
        for memory in memory_options:
            if compute + memory > max_arrays:
                break
            supplying = supply_time[memory]
            grid.append(
                (
                    compute + memory,
                    supplying if supplying > computing else computing,
                    compute,
                    memory,
                )
            )
    grid.sort()

    # Pareto filter on (total arrays, latency).
    pareto: List[AllocationCandidate] = []
    best_latency = INFEASIBLE_LATENCY
    for _, latency, compute, memory in grid:
        if latency < best_latency - 1e-9:
            pareto.append(AllocationCandidate(compute, memory, latency))
            best_latency = latency
    if len(pareto) > max_candidates:
        # Keep the extremes and thin the middle uniformly.
        indices = np.linspace(0, len(pareto) - 1, max_candidates).round().astype(int)
        pareto = [pareto[i] for i in sorted(set(indices.tolist()))]
    return CandidateList(pareto)


def _geometric_range(lo: int, hi: int) -> List[int]:
    """Integers from ``lo`` to ``hi`` with geometric spacing (both included)."""
    if hi < lo:
        return []
    values = {lo, hi}
    value = lo
    while value < hi:
        value = max(value + 1, int(value * 1.5))
        values.add(min(value, hi))
    return sorted(values)


# ---------------------------------------------------------------------- #
# unit columns: the per-operator facts of one compile, by position
# ---------------------------------------------------------------------- #
class UnitColumns(ProfileVectors):
    """Everything a window solve reads about its operators, built once.

    On top of the integer columns of :class:`~repro.cost.arithmetic
    .ProfileVectors` (floors, static-weight prefix sums, structural
    signatures) this keeps, for one ordered operator sequence on one
    chip:

    * the Eq. 10 factor tables of **all** operators from one batched
      evaluation (:func:`~repro.cost.latency
      .operator_latency_factors_batch`): Eq. 10 is separable, so one
      operator's latency at any ``(compute, memory)`` pair is
      ``max(compute_time[k][compute], supply_time[k][memory])`` over two
      rows indexed ``0..num_arrays``;
    * each operator's candidate list, enumerated lazily (only operators
      of windows that are actually solved pay for it) and exactly once.

    A window is an index range (:class:`UnitWindow`), and every
    allocation entry point takes one; the segmenter builds one instance
    per compile and it dies with the compile.  Nothing here is keyed by
    a profile or kept at module level: an operator's entry is simply
    "the entry of unit *k*".

    Args:
        profiles: Operator profiles in schedule order.
        hardware: The target chip.
    """

    def __init__(
        self, profiles: Sequence[OperatorProfile], hardware: DualModeHardwareAbstraction
    ) -> None:
        super().__init__(profiles, hardware)
        self.hardware = hardware
        self._compute_time: Optional[List[List[float]]] = None
        self._supply_time: Optional[List[List[float]]] = None
        # allow_memory_mode -> per-unit candidate lists.
        self._candidates: Dict[bool, List[Optional[CandidateList]]] = {}

    def factor_tables(self) -> Tuple[List[List[float]], List[List[float]]]:
        """``(compute_time, supply_time)``: one row per operator, one
        column per array count — evaluated on first use, once."""
        if self._compute_time is None:
            counts = np.arange(self.hardware.num_arrays + 1)
            compute_time, supply_time = operator_latency_factors_batch(
                self, counts, counts, self.hardware
            )
            self._compute_time = guard_infeasible_batch(compute_time).tolist()
            self._supply_time = guard_infeasible_batch(supply_time).tolist()
        return self._compute_time, self._supply_time

    def factors(self, index: int) -> FactorTables:
        """The factor tables of operator ``index``."""
        compute_time, supply_time = self.factor_tables()
        return compute_time[index], supply_time[index]

    def window_candidates(
        self, start: int, stop: int, allow_memory_mode: bool
    ) -> List[CandidateList]:
        """Candidate lists of operators ``start..stop-1``, enumerating
        (:func:`candidate_allocations`) those not asked for before."""
        known = self._candidates.get(allow_memory_mode)
        if known is None:
            known = self._candidates[allow_memory_mode] = [None] * len(self)
        window = known[start:stop]
        if None in window:
            for index in range(start, stop):
                if known[index] is None:
                    known[index] = candidate_allocations(
                        self.profiles[index],
                        self.hardware,
                        allow_memory_mode=allow_memory_mode,
                        factors=self.factors(index),
                    )
            window = known[start:stop]
        return window


class UnitWindow:
    """Operators ``start..stop-1`` of a :class:`UnitColumns` — a window.

    What every allocation entry point takes: the solve indexes the
    columns (and reads their chip) instead of re-deriving per-operator
    facts from profiles.
    """

    __slots__ = ("columns", "start", "stop")

    def __init__(self, columns: UnitColumns, start: int, stop: int) -> None:
        self.columns = columns
        self.start = start
        self.stop = stop

    @property
    def hardware(self) -> DualModeHardwareAbstraction:
        """The chip the columns were built for."""
        return self.columns.hardware

    @property
    def minimum_compute_arrays(self) -> int:
        """Fewest compute arrays the window needs to hold its operands."""
        return self.columns.window_minimum_compute_arrays(self.start, self.stop - 1)

    @property
    def signature(self) -> Tuple[Tuple, ...]:
        """Ordered structural signatures — the allocation cache's key part."""
        return self.columns.signatures[self.start : self.stop]


# ---------------------------------------------------------------------- #
# the spare-array hand-out loop
# ---------------------------------------------------------------------- #
#: One hand-out state: the pairs and their per-operator latencies.
_HandOut = Tuple[Tuple[Pair, ...], List[float]]


def _hand_out_spare_arrays(
    pairs: Sequence[Pair],
    window: UnitWindow,
    spare: int,
    allow_memory_mode: bool,
    inbound_arrays: int,
    reserve: int = 0,
) -> Tuple[_HandOut, Optional[_HandOut]]:
    """Grow the bottleneck operator one array at a time.

    ``pairs`` is the seed allocation, one ``(compute, memory)`` per
    operator of ``window`` in window order.  Each step takes the
    operator bounding the segment (first maximum) and gives it one array
    in whichever mode lowers its latency most — compute on a tie — until
    ``spare`` arrays are handed out or the bottleneck cannot improve.
    While the segment's memory-mode arrays do not yet cover
    ``inbound_arrays`` (the live data entering the segment, in arrays),
    the memory option also counts the write-back round trip one more
    retained array avoids, ``2 * array_capacity_elements / d_extern``
    cycles — exactly the capacity :func:`~repro.cost.switching
    .writeback_cycles` credits to the segment's memory arrays.  Every
    step therefore lowers the segment latency plus the write-back of
    still-uncovered inbound data; with nothing inbound that is the
    latency alone.

    A step depends only on the state it starts from, so the hand-out
    that withholds ``reserve`` arrays is the first ``spare - reserve``
    steps of the one that does not: one loop yields both.

    The loop runs ~20k steps per cold benchmark pass, so each step is
    list reads and comparisons on locals: the operators' Eq. 10 rows
    come from ``window``'s columns, ``a if a > b else b`` stands in for
    ``max(b, a)``.

    Returns:
        ``(reserved, unreserved)``: the state once all but ``reserve``
        arrays are handed out, and the state after all ``spare`` —
        ``None`` when the loop never touched the reserve.
    """
    if not pairs:  # an empty window has no bottleneck to grow
        return ((), []), None
    columns = window.columns
    hardware = columns.hardware
    compute_rows, supply_rows = columns.factor_tables()
    compute_times = compute_rows[window.start : window.stop]
    supply_times = supply_rows[window.start : window.stop]
    compute = [com for com, _ in pairs]
    memory = [mem for _, mem in pairs]
    latencies = [
        max(compute_time[com], supply_time[mem])
        for compute_time, supply_time, com, mem in zip(
            compute_times, supply_times, compute, memory
        )
    ]
    uncovered = inbound_arrays - sum(memory) if allow_memory_mode else 0
    credit = 2.0 * hardware.array_capacity_elements / hardware.d_extern

    def state() -> _HandOut:
        return tuple(zip(compute, memory)), list(latencies)

    held = max(0, spare - reserve)
    reserved = None
    for step in range(spare):
        current = max(latencies)
        index = latencies.index(current)
        compute_time = compute_times[index]
        supply_time = supply_times[index]
        com, mem = compute[index], memory[index]
        computing, supplying = compute_time[com + 1], supply_time[mem]
        best = supplying if supplying > computing else computing
        score, grow_memory = best, False
        if allow_memory_mode:
            computing, supplying = compute_time[com], supply_time[mem + 1]
            buffered = supplying if supplying > computing else computing
            retained = buffered - credit if uncovered > 0 else buffered
            if retained < score:
                best, score, grow_memory = buffered, retained, True
        if score >= current - 1e-9:
            break
        if step == held:
            reserved = state()
        if grow_memory:
            memory[index] = mem + 1
            uncovered -= 1
        else:
            compute[index] = com + 1
        latencies[index] = best
    if reserved is None:
        return state(), None
    return reserved, state()


def _priced(
    state: _HandOut,
    window: UnitWindow,
    solver: str,
    pipelined: bool,
    twin: Optional[AllocationResult] = None,
) -> AllocationResult:
    """The result of one hand-out state: its pairs and their Eq. 9 latency."""
    pairs, latencies = state
    latency = combine_operator_latencies(latencies, window.hardware, pipelined)
    return AllocationResult(pairs, latency, True, solver, False, twin)


# ---------------------------------------------------------------------- #
# greedy allocator
# ---------------------------------------------------------------------- #
class GreedyAllocator:
    """Marginal-gain heuristic allocator.

    Every operator starts at its minimum compute footprint; remaining
    arrays are handed out one at a time to the operator currently bounding
    the segment (the one with the highest latency), in whichever mode
    (compute duplication or memory buffering) reduces that latency most.

    Selected by ``CompilerOptions(use_milp=False)``; nothing on a default
    path runs it.  It stays as the heuristic arm of the allocation
    ablation — what the optimal engine is measured against.
    """

    name = "greedy"

    def __init__(self, allow_memory_mode: bool = True) -> None:
        self.allow_memory_mode = allow_memory_mode

    def allocate(self, window: UnitWindow) -> Optional[Tuple[Pair, ...]]:
        """Allocate the window by position (None when it does not fit);
        see the class docstring for the policy."""
        hardware = window.hardware
        used = window.minimum_compute_arrays
        if used > hardware.num_arrays:
            return None
        floors = window.columns.floors[window.start : window.stop].tolist()
        (pairs, _), _ = _hand_out_spare_arrays(
            [(floor, 0) for floor in floors],
            window,
            hardware.num_arrays - used,
            self.allow_memory_mode,
            0,
        )
        return pairs


# ---------------------------------------------------------------------- #
# Eq. 8/9 allocators: the paper's model and its exact threshold search
# ---------------------------------------------------------------------- #
class MIPAllocator:
    """The paper's §4.3.2 window model (Eq. 8/9), shared by every optimal solve.

    One candidate per operator; the makespan is the largest picked
    latency, the picked arrays fit the chip.  This class turns the
    candidate lists into a pick by position; the choice itself,
    ``_select(candidates, budget)`` (a candidate index per operator, or
    None), is :class:`ExactAllocator`'s.  It stays a class of its own only
    because the repository benchmark's tracer wraps
    ``MIPAllocator.allocate``; it folds into :class:`ExactAllocator` once
    that tracer hooks through :mod:`repro.obs` (ROADMAP item 6(a)).
    """

    def __init__(self, allow_memory_mode: bool = True) -> None:
        self.allow_memory_mode = allow_memory_mode

    def allocate(self, window: UnitWindow) -> Optional[Tuple[Pair, ...]]:
        """One candidate per operator minimising the window makespan, by
        position (None when no pick fits the chip)."""
        # One operator appears in every DP window that contains it: its
        # candidate list is unit k's entry of the compile's columns.
        candidates = window.columns.window_candidates(
            window.start, window.stop, self.allow_memory_mode
        )
        if not all(candidates):
            return None
        chosen = self._select(candidates, window.hardware.num_arrays) if candidates else []
        if chosen is None:
            return None
        return tuple(options.pairs[k] for options, k in zip(candidates, chosen))


class ExactAllocator(MIPAllocator):
    """The Eq. 8/9 optimum by threshold search — the default engine.

    The window problem (one candidate per operator, minimise the maximum
    latency, one budget row) is a bottleneck multiple-choice knapsack.
    Every candidate list is Pareto-sorted — arrays ascending, latency
    strictly descending — so for a makespan threshold ``T`` the cheapest
    admissible pick of an operator is its *first* candidate with latency
    ``<= T``; taking that pick for every operator minimises the total
    arrays at ``T``, hence ``T`` is achievable iff those picks fit the
    budget, and since the picks only get cheaper as ``T`` grows,
    feasibility is monotone in ``T``.  The optimal makespan is therefore
    the smallest candidate latency that is feasible, found by binary
    search over the sorted union of candidate latencies.

    Tie-break (canonical, unlike a MIP solver's): at the optimal
    makespan every operator takes its individually minimal candidate,
    i.e. the solution of minimum total arrays.  The arrays this leaves
    over go to :func:`refine_with_spare_arrays`.
    """

    name = "exact"

    def _select(
        self, candidates: Sequence[CandidateList], budget: int
    ) -> Optional[List[int]]:
        # Negated latencies ascend, so ``bisect_left(negated, -T)`` is the
        # index of the first candidate with latency <= T.
        negated = [options.negated for options in candidates]
        totals = [options.totals for options in candidates]

        def picks(threshold: float) -> Optional[List[int]]:
            chosen = [bisect_left(column, -threshold) for column in negated]
            used = 0
            for column, k in zip(totals, chosen):
                used += column[k]
            return chosen if used <= budget else None

        # T* lies between the slowest operator's best latency (below it
        # some operator has no admissible candidate) and the largest
        # minimum-footprint latency (above it nothing changes).  Most
        # windows (411 of a cold benchmark pass's 502) fit at the floor.
        floor = -min(column[-1] for column in negated)
        best = picks(floor)
        if best is not None:
            return best
        ceiling = -min(column[0] for column in negated)
        best = picks(ceiling)
        if best is None:
            return None
        # The latencies strictly between: one sorted run per operator.
        thresholds = sorted(
            -value
            for column in negated
            for value in column[bisect_right(column, -ceiling) : bisect_left(column, -floor)]
        )
        lo, hi = 0, len(thresholds)
        while lo < hi:
            mid = (lo + hi) // 2
            chosen = picks(thresholds[mid])
            if chosen is None:
                lo = mid + 1
            else:
                best, hi = chosen, mid
        return best


# ---------------------------------------------------------------------- #
# post-allocation refinement (weight duplication)
# ---------------------------------------------------------------------- #
def refine_with_spare_arrays(
    pairs: Sequence[Pair],
    window: UnitWindow,
    solver: str,
    pipelined: bool = True,
    allow_memory_mode: bool = True,
    reserve_arrays: int = 0,
    inbound_arrays: int = 0,
) -> AllocationResult:
    """Hand leftover arrays to the bottleneck operator (weight duplication).

    The paper applies weight duplication as a post-allocation optimisation
    "commonly used in CIM compilation" — spare arrays replicate the
    bottleneck operator's weights (or extend its buffers) so the pipelined
    segment latency drops further.  The refinement never worsens latency
    (with ``inbound_arrays``: latency plus the inbound write-back the
    segment leaves uncovered — the quantity the segmentation DP sums).

    Args:
        pairs: An engine's pick for ``window``, one ``(compute, memory)``
            per operator in window order.
        solver: The engine's name, which the result carries.
        allow_memory_mode: Whether spare arrays may also grow an operator's
            memory-mode buffer (False for fixed-mode baselines).
        reserve_arrays: Arrays to leave untouched — the segmentation pass
            reserves them as boundary buffers for live inter-segment data.
            The refinement that hands them out too rides along as
            ``result.unreserved`` (absent when identical).
        inbound_arrays: Arrays' worth of live data entering the segment
            beyond the native buffer.  Until the segment's memory-mode
            arrays cover it, growing a buffer is also worth the
            write-back it avoids (see :func:`_hand_out_spare_arrays`);
            0 reproduces the plain latency-only hand-out.
    """
    reserved, unreserved = _hand_out_spare_arrays(
        pairs,
        window,
        window.hardware.num_arrays - sum(compute + memory for compute, memory in pairs),
        allow_memory_mode,
        inbound_arrays,
        max(0, reserve_arrays),
    )
    if unreserved is None:
        return _priced(reserved, window, solver, pipelined)
    twin = _priced(unreserved, window, solver, pipelined)
    return _priced(reserved, window, solver, pipelined, twin)


# ---------------------------------------------------------------------- #
# the window table's key: what one solve is asked
# ---------------------------------------------------------------------- #
class AllocationCacheKey:
    """Cache key of one segment-allocation solve (immutable).

    Hashed once, when built: the window table hashes a key at the probe,
    the LRU's recency update and the store.

    Attributes:
        hardware: :meth:`DualModeHardwareAbstraction.fingerprint` digest.
        segment: Ordered structural signatures of the segment's operators.
        engine: Allocation engine name (``"exact"`` / ``"greedy"``).
        pipelined: Whether the segment latency model pipelines operators.
        refine: Whether duplication refinement ran after the solve.
        allow_memory_mode: Whether memory-mode arrays were permitted.
        reserve_arrays: Arrays withheld from refinement for boundary
            buffering.
        inbound_arrays: Arrays' worth of live data entering the segment,
            which the refinement's memory option is credited for
            retaining.  A fixed-mode solve cannot act on it, so its key
            always records 0.
    """

    __slots__ = ("_fields", "_hash")

    def __init__(
        self, hardware: str, segment: Tuple[Tuple, ...], engine: str, pipelined: bool,
        refine: bool, allow_memory_mode: bool, reserve_arrays: int, inbound_arrays: int = 0,
    ) -> None:
        self._fields = (
            hardware, segment, engine, pipelined, refine, allow_memory_mode,
            reserve_arrays, inbound_arrays,
        )
        self._hash = hash(self._fields)

    hardware = property(lambda self: self._fields[0])
    segment = property(lambda self: self._fields[1])
    engine = property(lambda self: self._fields[2])
    pipelined = property(lambda self: self._fields[3])
    refine = property(lambda self: self._fields[4])
    allow_memory_mode = property(lambda self: self._fields[5])
    reserve_arrays = property(lambda self: self._fields[6])
    inbound_arrays = property(lambda self: self._fields[7])

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AllocationCacheKey) and self._fields == other._fields

    def __repr__(self) -> str:
        return f"AllocationCacheKey{self._fields!r}"

    @classmethod
    def build(
        cls,
        window: UnitWindow,
        *,
        engine: str,
        pipelined: bool,
        refine: bool,
        allow_memory_mode: bool,
        reserve_arrays: int,
        inbound_arrays: int = 0,
    ) -> "AllocationCacheKey":
        """Build the key for one ``allocate_segment`` invocation."""
        return cls(
            window.hardware.fingerprint(),
            window.signature,
            engine,
            pipelined,
            refine,
            allow_memory_mode,
            int(reserve_arrays),
            int(inbound_arrays) if allow_memory_mode else 0,
        )

    def dual_mode_variant(self, inbound_arrays: int = 0) -> "AllocationCacheKey":
        """The dual-mode solve of the same window (cross-mode lookup).

        ``inbound_arrays`` is the window's inbound count, which the
        fixed-mode key dropped.  A memory-free dual-mode result never
        took the retention-credited memory option, so it is what the
        fixed-mode solve of that window produces.
        """
        fields = self._fields
        return AllocationCacheKey(*fields[:5], True, fields[6], int(inbound_arrays))


def allocate_segment(
    window: UnitWindow,
    allocator: Optional[object] = None,
    pipelined: bool = True,
    refine: bool = True,
    reserve_arrays: int = 0,
    *,
    cache: "AllocationCache",
    inbound_arrays: int = 0,
) -> AllocationResult:
    """Allocate one window end to end (solver + duplication refinement).

    The only way a window is solved: probe ``cache``, solve on a miss,
    store the fresh result.  A hit is structural and bit-identical to a
    cold solve; it is flagged via ``result.from_cache``.  The engine's
    pick becomes the result through :func:`refine_with_spare_arrays`,
    or priced as it stands when ``refine`` is off.

    Args:
        allocator: The engine; :class:`ExactAllocator` when omitted.
        reserve_arrays: Arrays withheld from duplication so the
            segmentation pass can dedicate them to boundary buffering.
            Feasibility is always checked against the full chip.
        cache: The window table, a
            :class:`~repro.core.cache.AllocationCache`.
        inbound_arrays: Arrays' worth of live data entering the segment
            (see :func:`refine_with_spare_arrays`).
    """
    engine = allocator if allocator is not None else ExactAllocator()
    allow_memory_mode = getattr(engine, "allow_memory_mode", True)
    if window.minimum_compute_arrays > window.hardware.num_arrays:
        return infeasible_result()
    solver = getattr(engine, "name", type(engine).__name__)
    # Built (and hashed) once, shared between the lookup and the store below.
    key = AllocationCacheKey.build(
        window,
        engine=solver,
        pipelined=pipelined,
        refine=refine,
        allow_memory_mode=allow_memory_mode,
        reserve_arrays=reserve_arrays,
        inbound_arrays=inbound_arrays,
    )
    cached = cache.lookup(key, inbound_arrays)
    if cached is not None:
        return cached
    pick = engine.allocate(window)
    if pick is None:
        result = infeasible_result()
    elif refine:
        result = refine_with_spare_arrays(
            pick,
            window,
            solver,
            pipelined=pipelined,
            allow_memory_mode=allow_memory_mode,
            reserve_arrays=reserve_arrays,
            inbound_arrays=inbound_arrays,
        )
    else:
        # A hand-out of no arrays is the pick and its latencies.
        state, _ = _hand_out_spare_arrays(pick, window, 0, allow_memory_mode, 0)
        result = _priced(state, window, solver, pipelined)
    cache.put(key, result)
    return result
