"""Per-segment dual-mode resource allocation (§4.3.2 of the paper).

Given the operators of one network segment, the allocator decides how many
arrays each operator receives in compute mode and how many in memory mode
so that the pipelined segment latency (Eq. 9 with the Eq. 10 latency
model) is minimised under the chip's array budget (Eq. 8).

For every operator a small Pareto set of candidate ``(compute, memory)``
allocations is enumerated; the allocation picks one candidate per
operator so the largest selected latency is minimal and the selected
arrays fit the chip.  Three interchangeable engines are provided:

* :class:`ExactAllocator` — the default: the optimum of that model by
  binary search over the candidate latencies (the model is a bottleneck
  multiple-choice knapsack), with a canonical minimum-arrays tie-break.
* :class:`MIPAllocator` — the paper's formulation of the same model as a
  mixed-integer program (binary selection variables, a continuous
  makespan ``T``, one budget row), solved with ``scipy.optimize.milp``
  (HiGHS) — the offline stand-in for the Gurobi solver used in the
  paper.  Kept as the paper-faithful engine and the objective oracle the
  exact engine is tested against.
* :class:`GreedyAllocator` — a fast marginal-gain heuristic: the
  ``use_milp=False`` arm of the allocation ablation
  (``benchmarks/bench_ablations.py``) and a cross-check in tests.

All return an :class:`AllocationResult`; leftover arrays are always
redistributed by :func:`refine_with_spare_arrays` (weight duplication and
extra buffering, the paper's post-allocation optimisation).

What a solve reads about an operator — its Eq. 10 factor tables, its
candidate list, its compute floor, its cache signature — does not depend
on the window the operator is solved in, so it is kept **by position**
in :class:`UnitColumns`, built once per compile by the segmenter, and a
window is an index range over it (:class:`UnitWindow`, which is also the
``name -> profile`` mapping the entry points take).  A caller with a
plain mapping gets columns built from exactly its profiles
(:func:`unit_window`) and runs the same code; nothing is memoised per
profile, per allocator or per module.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cost.arithmetic import OperatorProfile, ProfileVectors
# operator_latency_cycles is re-exported only: nothing here evaluates Eq. 10
# per call any more, but the benchmark's tracer counts scalar evaluations
# through this module's name.
from ..cost.latency import (  # noqa: F401
    INFEASIBLE_LATENCY,
    OperatorAllocation,
    combine_operator_latencies,
    guard_infeasible_batch,
    operator_latency_cycles,
    operator_latency_factors_batch,
)
from ..hardware.deha import DualModeHardwareAbstraction
from .feasibility import FeasibilityModel


@dataclass
class AllocationResult:
    """Outcome of allocating one segment.

    Attributes:
        allocations: Per-operator allocation.
        latency_cycles: Pipelined segment latency under the allocation.
        feasible: Whether the segment fits the chip at all.
        solver: Which engine produced the result ("exact", "milp",
            "greedy", "infeasible").
        from_cache: Whether the result was served from a shared
            :class:`~repro.core.cache.AllocationCache` instead of a fresh
            solve (used by compile statistics).
        unreserved: The same solve refined with ``reserve_arrays=0``;
            ``None`` when that is this very result.  The segmentation
            DP relaxes each edge with both.
    """

    allocations: Dict[str, OperatorAllocation]
    latency_cycles: float
    feasible: bool
    solver: str
    from_cache: bool = False
    unreserved: Optional["AllocationResult"] = None

    @property
    def total_arrays(self) -> int:
        """Total arrays used."""
        return sum(a.total_arrays for a in self.allocations.values())

    @property
    def compute_arrays(self) -> int:
        """Total compute-mode arrays used."""
        return sum(a.compute_arrays for a in self.allocations.values())

    @property
    def memory_arrays(self) -> int:
        """Total memory-mode arrays used."""
        return sum(a.memory_arrays for a in self.allocations.values())


def infeasible_result() -> AllocationResult:
    """Result representing a segment that cannot be mapped onto the chip."""
    return AllocationResult(
        allocations={}, latency_cycles=INFEASIBLE_LATENCY, feasible=False, solver="infeasible"
    )


def minimum_compute_arrays(
    profiles: Mapping[str, OperatorProfile], hardware: DualModeHardwareAbstraction
) -> int:
    """Fewest compute arrays the segment needs just to hold its operands.

    Delegates to the shared :class:`~repro.core.feasibility
    .FeasibilityModel`, which the analytical evaluation tier consults
    through the same predicates — the two tiers can never disagree about
    what fits.
    """
    return FeasibilityModel(hardware).minimum_compute_arrays(profiles)


def segment_fits(
    profiles: Mapping[str, OperatorProfile],
    hardware: DualModeHardwareAbstraction,
) -> bool:
    """Whether the segment's minimum footprint fits the array budget.

    The predicate is mode-independent: the minimum footprint uses no
    memory arrays, so dual- and fixed-mode compilation agree on it.  (An
    ``allow_memory_mode`` parameter used to exist here and was silently
    discarded — it has been removed rather than kept as a decoy knob.)
    """
    return FeasibilityModel(hardware).segment_fits(profiles)


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

    def to_allocation(self) -> OperatorAllocation:
        """Convert to an :class:`OperatorAllocation`."""
        return OperatorAllocation(self.compute_arrays, self.memory_arrays)


class CandidateList(list):
    """One operator's Pareto candidates plus the columns a selection reads.

    A list of :class:`AllocationCandidate` (arrays ascending, latency
    strictly descending) that also carries ``negated`` (the latencies,
    negated so they ascend — what :meth:`ExactAllocator._select`
    bisects) and ``totals`` (the array counts), built once with the list
    instead of once per window solve that contains the operator.
    """

    def __init__(self, candidates: Iterable[AllocationCandidate] = ()) -> None:
        super().__init__(candidates)
        self.negated: List[float] = [-c.latency_cycles for c in self]
        self.totals: List[int] = [c.total_arrays for c in self]


#: One operator's Eq. 10 factor tables: ``(compute_time, supply_time)``,
#: each a list indexed by the array count.
FactorTables = Tuple[List[float], List[float]]


def candidate_allocations(
    profile: OperatorProfile,
    hardware: DualModeHardwareAbstraction,
    max_arrays: int,
    allow_memory_mode: bool = True,
    max_candidates: int = 24,
    factors: Optional[FactorTables] = None,
) -> CandidateList:
    """Pareto-optimal (arrays, latency) candidates for one operator.

    Compute counts are swept geometrically from the operator's minimum
    footprint up to the budget; memory counts from zero up to the number
    of arrays that fully buffer the working set.  Every grid point's
    Eq. 10 latency is ``max(compute_time[compute], supply_time[memory])``
    read from the operator's factor tables — Eq. 10 itself is evaluated
    once per compile for all operators (:class:`UnitColumns`), not once
    more per grid here.  Dominated candidates (more arrays and no lower
    latency) are then discarded, keeping the MILP small without losing
    the optimum at the granularity of the sweep.

    An operator none of whose candidates can ever finish (every grid
    point has infinite latency — possible only on degenerate hardware
    with zero usable bandwidth) yields an empty list, the same verdict
    as an operator that does not fit the budget.

    Args:
        factors: The operator's Eq. 10 factor tables covering
            ``0..max_arrays`` (a row of :class:`UnitColumns`); built
            from ``profile`` when omitted.
    """
    min_compute = max(1, profile.min_compute_arrays(hardware))
    if min_compute > max_arrays:
        return CandidateList()
    mem_cap = profile.memory_arrays_for_working_set(hardware) if allow_memory_mode else 0
    mem_cap = min(mem_cap, max_arrays - min_compute)
    if factors is None:
        factors = UnitColumns([profile], hardware, max_arrays=max_arrays).factors(0)
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
      rows indexed ``0..num_arrays`` — the values are the scalar
      function's exactly;
    * each operator's candidate list, enumerated lazily (only operators
      of windows that are actually solved pay for it) and exactly once.

    A window is an index range (:class:`UnitWindow`); the segmenter builds
    one instance per compile and it dies with the compile, and the
    mapping entry points (:func:`allocate_segment`, the allocators,
    :func:`refine_with_spare_arrays`) build one from the profiles they
    are handed (:func:`unit_window`) and run the same code on it.
    Nothing here is keyed by a profile or kept at module level: an
    operator's entry is simply "the entry of unit *k*".

    Args:
        profiles: Operator profiles in schedule order.
        hardware: The target chip.
        names: The keys windows label the operators with (the profile
            names when omitted).
        max_arrays: Largest array count the factor tables must cover
            beyond ``hardware.num_arrays``.
    """

    def __init__(
        self,
        profiles: Sequence[OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        names: Optional[Sequence[str]] = None,
        max_arrays: int = 0,
    ) -> None:
        super().__init__(profiles, hardware)
        self.hardware = hardware
        if names is not None:
            self.names = tuple(names)
        self._table_size = max(hardware.num_arrays, max_arrays) + 1
        self._compute_time: Optional[List[List[float]]] = None
        self._supply_time: Optional[List[List[float]]] = None
        # (allow_memory_mode, max_candidates) -> per-unit candidate lists.
        self._candidates: Dict[Tuple[bool, int], List[Optional[CandidateList]]] = {}

    def factor_tables(self) -> Tuple[List[List[float]], List[List[float]]]:
        """``(compute_time, supply_time)``: one row per operator, one
        column per array count — evaluated on first use, once."""
        if self._compute_time is None:
            counts = np.arange(self._table_size)
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
        self, start: int, stop: int, allow_memory_mode: bool, max_candidates: int
    ) -> List[CandidateList]:
        """Candidate lists of operators ``start..stop-1``, enumerating
        (:func:`candidate_allocations`) those not asked for before."""
        known = self._candidates.get((allow_memory_mode, max_candidates))
        if known is None:
            known = self._candidates[allow_memory_mode, max_candidates] = [None] * len(self)
        window = known[start:stop]
        if None in window:
            for index in range(start, stop):
                if known[index] is None:
                    known[index] = candidate_allocations(
                        self.profiles[index],
                        self.hardware,
                        self.hardware.num_arrays,
                        allow_memory_mode=allow_memory_mode,
                        max_candidates=max_candidates,
                        factors=self.factors(index),
                    )
            window = known[start:stop]
        return window


class UnitWindow(dict):
    """A contiguous run of a :class:`UnitColumns`' operators.

    It *is* the ``name -> profile`` mapping every allocation entry point
    takes, and it remembers which columns and which positions it came
    from, so the solve indexes the columns instead of re-deriving
    per-operator facts from the profiles.
    """

    __slots__ = ("columns", "start", "stop")

    def __init__(self, columns: UnitColumns, start: int, stop: int) -> None:
        super().__init__(zip(columns.names[start:stop], columns.profiles[start:stop]))
        self.columns = columns
        self.start = start
        self.stop = stop

    @property
    def minimum_compute_arrays(self) -> int:
        """Fewest compute arrays the window needs to hold its operands."""
        return self.columns.window_minimum_compute_arrays(self.start, self.stop - 1)

    @property
    def signature(self) -> Tuple[Tuple, ...]:
        """Ordered structural signatures — the allocation cache's key part."""
        return self.columns.signatures[self.start : self.stop]


def unit_window(
    profiles: Mapping[str, OperatorProfile], hardware: DualModeHardwareAbstraction
) -> UnitWindow:
    """``profiles`` as a window over unit columns for ``hardware``.

    A :class:`UnitWindow` of that chip's columns is returned as is (the
    segmenter's case); any other mapping gets columns built from exactly
    the profiles it holds, so both run the same code downstream.
    """
    if isinstance(profiles, UnitWindow) and profiles.columns.hardware is hardware:
        return profiles
    columns = UnitColumns(list(profiles.values()), hardware, names=list(profiles))
    return UnitWindow(columns, 0, len(columns))


# ---------------------------------------------------------------------- #
# the spare-array hand-out loop
# ---------------------------------------------------------------------- #
#: One hand-out state: the allocations and their per-operator latencies.
_HandOut = Tuple[Dict[str, OperatorAllocation], List[float]]


def _hand_out_spare_arrays(
    allocations: Mapping[str, OperatorAllocation],
    window: UnitWindow,
    spare: int,
    allow_memory_mode: bool,
    inbound_arrays: int,
    reserve: int = 0,
) -> Tuple[_HandOut, Optional[_HandOut]]:
    """Grow the bottleneck operator one array at a time.

    Each step takes the operator bounding the segment (first maximum)
    and gives it one array in whichever mode lowers its latency most —
    compute on a tie — until ``spare`` arrays are handed out or the
    bottleneck cannot improve.  While the segment's memory-mode arrays
    do not yet cover ``inbound_arrays`` (the live data entering the
    segment, in arrays), the memory option also counts the write-back
    round trip one more retained array avoids,
    ``2 * array_capacity_elements / d_extern`` cycles — exactly the
    capacity :func:`~repro.cost.switching.writeback_cycles` credits to
    the segment's memory arrays.  Every step therefore lowers the
    segment latency plus the write-back of still-uncovered inbound
    data; with nothing inbound that is the latency alone.

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
    columns = window.columns
    hardware = columns.hardware
    compute_rows, supply_rows = columns.factor_tables()
    position = dict(zip(window, range(window.start, window.stop)))
    names = list(allocations)
    rows = [position[name] for name in names]
    compute_times = [compute_rows[row] for row in rows]
    supply_times = [supply_rows[row] for row in rows]
    seed_compute = [allocations[name].compute_arrays for name in names]
    seed_memory = [allocations[name].memory_arrays for name in names]
    compute, memory = list(seed_compute), list(seed_memory)
    latencies = [
        max(compute_time[com], supply_time[mem])
        for compute_time, supply_time, com, mem in zip(
            compute_times, supply_times, compute, memory
        )
    ]
    uncovered = inbound_arrays - sum(memory) if allow_memory_mode else 0
    credit = 2.0 * hardware.array_capacity_elements / hardware.d_extern

    def state() -> _HandOut:
        handed = dict(allocations)
        for index, name in enumerate(names):
            com, mem = compute[index], memory[index]
            if com != seed_compute[index] or mem != seed_memory[index]:
                handed[name] = OperatorAllocation(com, mem)
        return handed, list(latencies)

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

    def allocate(
        self,
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        pipelined: bool = True,
    ) -> AllocationResult:
        """Allocate the segment; see class docstring for the policy."""
        if not profiles:
            return AllocationResult({}, 0.0, True, self.name)
        window = unit_window(profiles, hardware)
        used = window.minimum_compute_arrays
        if used > hardware.num_arrays:
            return infeasible_result()
        floors = window.columns.floors[window.start : window.stop].tolist()
        allocations = {
            name: OperatorAllocation(floor, 0) for name, floor in zip(window, floors)
        }
        (allocations, latencies), _ = _hand_out_spare_arrays(
            allocations,
            window,
            hardware.num_arrays - used,
            self.allow_memory_mode,
            0,
        )
        latency = combine_operator_latencies(latencies, hardware, pipelined)
        return AllocationResult(allocations, latency, True, self.name)


# ---------------------------------------------------------------------- #
# Eq. 8/9 allocators: the paper's MILP and the exact threshold search
# ---------------------------------------------------------------------- #
class MIPAllocator:
    """Mixed-integer-programming allocator (the paper's §4.3.2 solver).

    One binary variable per (operator, candidate allocation) pair selects
    exactly one candidate per operator; a continuous makespan variable is
    lower-bounded by every selected candidate's latency; the total array
    consumption is bounded by the chip budget (Eq. 8).  Minimising the
    makespan yields the Eq. 9 objective.  The model is solved with the
    public ``scipy.optimize.milp`` (HiGHS) — the offline stand-in for the
    Gurobi solver used in the paper.

    This is the paper-faithful engine and the test oracle; compiles run
    :class:`ExactAllocator`, which solves the same model (same
    candidates, same objective) without a solver.
    """

    name = "milp"

    def __init__(
        self,
        allow_memory_mode: bool = True,
        max_candidates_per_operator: int = 24,
    ) -> None:
        self.allow_memory_mode = allow_memory_mode
        self.max_candidates_per_operator = max_candidates_per_operator

    def allocate(
        self,
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        pipelined: bool = True,
    ) -> AllocationResult:
        """Pick one candidate per operator minimising the segment makespan."""
        if not profiles:
            return AllocationResult({}, 0.0, True, self.name)
        window = unit_window(profiles, hardware)
        # One operator appears in every DP window that contains it: its
        # candidate list is unit k's entry of the compile's columns.
        candidates = window.columns.window_candidates(
            window.start,
            window.stop,
            self.allow_memory_mode,
            self.max_candidates_per_operator,
        )
        if not all(candidates):
            return infeasible_result()
        chosen = self._select(candidates, hardware.num_arrays)
        if chosen is None:
            return infeasible_result()
        picked = [options[k] for options, k in zip(candidates, chosen)]
        allocations = {
            name: candidate.to_allocation() for name, candidate in zip(window, picked)
        }
        # A candidate's latency is its Eq. 10 value, so Eq. 9 needs no re-evaluation.
        latency = combine_operator_latencies(
            [candidate.latency_cycles for candidate in picked], hardware, pipelined
        )
        return AllocationResult(allocations, latency, True, self.name)

    def _select(
        self, candidates: Sequence[List[AllocationCandidate]], budget: int
    ) -> Optional[List[int]]:
        """Solve the Eq. 8/9 MILP; the chosen candidate index per operator.

        Variables: one binary per candidate (operator-major) plus the
        makespan ``T``.  Rows: one selection row per operator (exactly
        one candidate), one makespan row per operator (selected latency
        ``<= T``, latencies normalised so ``T`` is well-scaled) and the
        array-budget row.  None when the model is infeasible.
        """
        # Imported here: only this engine needs a solver, and the default
        # compile path must not pay for (or depend on) scipy.optimize.
        from scipy.optimize import Bounds, LinearConstraint, milp

        num_ops = len(candidates)
        offsets = np.cumsum([0] + [len(options) for options in candidates])
        t_index = int(offsets[-1])
        scale = max(max(c.latency_cycles for options in candidates for c in options), 1.0)

        rows = np.zeros((2 * num_ops + 1, t_index + 1))
        for i, options in enumerate(candidates):
            block = slice(int(offsets[i]), int(offsets[i + 1]))
            rows[i, block] = 1.0
            rows[num_ops + i, block] = [c.latency_cycles / scale for c in options]
            rows[num_ops + i, t_index] = -1.0
            rows[2 * num_ops, block] = [c.total_arrays for c in options]
        lower = np.concatenate((np.ones(num_ops), np.full(num_ops + 1, -np.inf)))
        upper = np.concatenate((np.ones(num_ops), np.zeros(num_ops), [float(budget)]))

        objective = np.zeros(t_index + 1)
        objective[t_index] = 1.0
        integrality = np.ones(t_index + 1)
        integrality[t_index] = 0.0
        upper_bounds = np.ones(t_index + 1)
        upper_bounds[t_index] = np.inf
        solution = milp(
            objective,
            constraints=LinearConstraint(rows, lower, upper),
            integrality=integrality,
            bounds=Bounds(np.zeros(t_index + 1), upper_bounds),
            options={"mip_rel_gap": 0.0},
        )
        if not solution.success or solution.x is None:
            return None
        return [
            int(np.argmax(solution.x[offsets[i] : offsets[i + 1]])) for i in range(num_ops)
        ]


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

    Tie-break (canonical, unlike a MILP solver's): at the optimal
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
        # minimum-footprint latency (above it nothing changes).
        floor = -min(column[-1] for column in negated)
        ceiling = -min(column[0] for column in negated)
        best = picks(ceiling)
        if best is None:
            return None
        thresholds = sorted(
            {-value for column in negated for value in column if floor <= -value < ceiling}
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
    result: AllocationResult,
    profiles: Mapping[str, OperatorProfile],
    hardware: DualModeHardwareAbstraction,
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
    if not result.feasible or not result.allocations:
        return result
    spare = hardware.num_arrays - sum(a.total_arrays for a in result.allocations.values())
    if spare <= 0:
        return result
    reserved, unreserved = _hand_out_spare_arrays(
        result.allocations,
        unit_window(profiles, hardware),
        spare,
        allow_memory_mode,
        inbound_arrays,
        max(0, reserve_arrays),
    )

    def refined(state: _HandOut) -> AllocationResult:
        allocations, latencies = state
        if allocations == result.allocations:
            return result
        latency = combine_operator_latencies(latencies, hardware, pipelined)
        return AllocationResult(allocations, latency, True, result.solver)

    if unreserved is None:
        return refined(reserved)
    return replace(refined(reserved), unreserved=refined(unreserved))


def key_options(
    allocator: object,
    pipelined: bool = True,
    refine: bool = True,
    reserve_arrays: int = 0,
    inbound_arrays: int = 0,
) -> Dict[str, object]:
    """What an ``AllocationCacheKey`` records about one solve's arguments.

    Takes :func:`allocate_segment`'s solve arguments under their own
    names; the allocation cache keys the solve on it.
    """
    return {
        "engine": getattr(allocator, "name", type(allocator).__name__),
        "pipelined": pipelined,
        "refine": refine,
        "allow_memory_mode": getattr(allocator, "allow_memory_mode", True),
        "reserve_arrays": reserve_arrays,
        "inbound_arrays": inbound_arrays,
    }


def allocate_segment(
    profiles: Mapping[str, OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allocator: Optional[object] = None,
    pipelined: bool = True,
    refine: bool = True,
    reserve_arrays: int = 0,
    cache: Optional[object] = None,
    inbound_arrays: int = 0,
) -> AllocationResult:
    """Allocate one segment end to end (solver + duplication refinement).

    Args:
        allocator: The engine; :class:`ExactAllocator` when omitted.
        reserve_arrays: Arrays withheld from duplication so the
            segmentation pass can dedicate them to boundary buffering.
            Feasibility is always checked against the full chip.
        inbound_arrays: Arrays' worth of live data entering the segment
            (see :func:`refine_with_spare_arrays`).
        cache: Optional shared :class:`~repro.core.cache.AllocationCache`.
            When given, the solve is first looked up (structurally — the
            result is identical to a cold solve) and fresh solves are
            stored back; hits are flagged via ``result.from_cache``.
    """
    engine = allocator if allocator is not None else ExactAllocator()
    window = unit_window(profiles, hardware)
    if window.minimum_compute_arrays > hardware.num_arrays:
        return infeasible_result()
    if cache is not None:
        # Build the (hardware fingerprint x segment signature x options)
        # key once and share it between the lookup and the store below.
        cache_key = cache.make_key(
            window,
            hardware,
            **key_options(engine, pipelined, refine, reserve_arrays, inbound_arrays),
        )
        cached = cache.lookup(cache_key, list(window), inbound_arrays)
        if cached is not None:
            return cached
    result = engine.allocate(window, hardware, pipelined=pipelined)
    if refine and result.feasible:
        result = refine_with_spare_arrays(
            result,
            window,
            hardware,
            pipelined=pipelined,
            allow_memory_mode=getattr(engine, "allow_memory_mode", True),
            reserve_arrays=reserve_arrays,
            inbound_arrays=inbound_arrays,
        )
    if cache is not None:
        cache.put(cache_key, window, result)
    return result
