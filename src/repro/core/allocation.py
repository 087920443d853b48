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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cost.arithmetic import OperatorProfile
# operator_latency_cycles is re-exported only: nothing here evaluates Eq. 10
# per call any more, but the benchmark's tracer counts scalar evaluations
# through this module's name.
from ..cost.latency import (  # noqa: F401
    INFEASIBLE_LATENCY,
    OperatorAllocation,
    combine_operator_latencies,
    operator_latency_cycles,
    operator_latency_cycles_batch,
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


def candidate_allocations(
    profile: OperatorProfile,
    hardware: DualModeHardwareAbstraction,
    max_arrays: int,
    allow_memory_mode: bool = True,
    max_candidates: int = 24,
) -> List[AllocationCandidate]:
    """Pareto-optimal (arrays, latency) candidates for one operator.

    Compute counts are swept geometrically from the operator's minimum
    footprint up to the budget; memory counts from zero up to the number
    of arrays that fully buffer the working set.  The full (compute,
    memory) grid is scored in one vectorised Eq. 10 evaluation
    (:func:`~repro.cost.latency.operator_latency_cycles_batch`), then
    dominated candidates (more arrays and no lower latency) are
    discarded, keeping the MILP small without losing the optimum at the
    granularity of the sweep.

    An operator none of whose candidates can ever finish (every grid
    point has infinite latency — possible only on degenerate hardware
    with zero usable bandwidth) yields an empty list, the same verdict
    as an operator that does not fit the budget.
    """
    min_compute = max(1, profile.min_compute_arrays(hardware))
    if min_compute > max_arrays:
        return []
    mem_cap = profile.memory_arrays_for_working_set(hardware) if allow_memory_mode else 0
    mem_cap = min(mem_cap, max_arrays - min_compute)

    compute_options = np.asarray(_geometric_range(min_compute, max_arrays), dtype=np.int64)
    memory_options = np.asarray(
        [0] + _geometric_range(1, mem_cap) if mem_cap > 0 else [0], dtype=np.int64
    )

    # The flattened grid enumerates compute-major, memory-minor — the
    # same order the scalar double loop used, which matters because the
    # (total, latency) sort below is stable.
    compute = np.repeat(compute_options, len(memory_options))
    memory = np.tile(memory_options, len(compute_options))
    keep = compute + memory <= max_arrays
    compute, memory = compute[keep], memory[keep]
    latencies = operator_latency_cycles_batch(profile, compute, memory, hardware)
    totals = compute + memory

    # Pareto filter on (total arrays, latency).  np.lexsort is stable,
    # so ties fall back to grid order exactly like the scalar sort did.
    order = np.lexsort((latencies, totals))
    pareto: List[AllocationCandidate] = []
    best_latency = INFEASIBLE_LATENCY
    for index in order:
        latency = float(latencies[index])
        if latency < best_latency - 1e-9:
            pareto.append(
                AllocationCandidate(int(compute[index]), int(memory[index]), latency)
            )
            best_latency = latency
    if len(pareto) > max_candidates:
        # Keep the extremes and thin the middle uniformly.
        indices = np.linspace(0, len(pareto) - 1, max_candidates).round().astype(int)
        pareto = [pareto[i] for i in sorted(set(indices.tolist()))]
    return pareto


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
# Eq. 10 lookup tables and the spare-array hand-out loop
# ---------------------------------------------------------------------- #
class LatencyTables:
    """Bounded memo of Eq. 10 tabulated per (profile, chip).

    Eq. 10 is separable (:func:`~repro.cost.latency
    .operator_latency_factors_batch`), so one operator's latency at any
    ``(compute, memory)`` pair is ``max(compute_time[compute],
    supply_time[memory])`` over two 1-D tables indexed ``0..num_arrays``
    — a few KB per profile where the 2-D grid would be hundreds.  The
    hand-out loops below walk thousands of such pairs per compile; with
    the tables each step is two list reads instead of a scalar Eq. 10
    evaluation, and the values are the scalar function's exactly.
    """

    #: Bound on the memo (cleared when exceeded), like the candidate memo.
    MAX_ENTRIES = 1024

    def __init__(self) -> None:
        self._memo: Dict[Tuple[OperatorProfile, str], Tuple[List[float], List[float]]] = {}

    def get(
        self, profile: OperatorProfile, hardware: DualModeHardwareAbstraction
    ) -> Tuple[List[float], List[float]]:
        """``(compute_time, supply_time)`` lists for ``0..num_arrays`` arrays."""
        key = (profile, hardware.fingerprint())
        tables = self._memo.get(key)
        if tables is None:
            counts = np.arange(hardware.num_arrays + 1)
            compute_time, supply_time = operator_latency_factors_batch(
                profile, counts, counts, hardware
            )
            tables = (compute_time.tolist(), supply_time.tolist())
            if len(self._memo) >= self.MAX_ENTRIES:
                self._memo.clear()
            self._memo[key] = tables
        return tables


#: One hand-out state: the allocations and their per-operator latencies.
_HandOut = Tuple[Dict[str, OperatorAllocation], List[float]]


def _hand_out_spare_arrays(
    allocations: Mapping[str, OperatorAllocation],
    profiles: Mapping[str, OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    spare: int,
    allow_memory_mode: bool,
    inbound_arrays: int,
    tables: LatencyTables,
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

    Returns:
        ``(reserved, unreserved)``: the state once all but ``reserve``
        arrays are handed out, and the state after all ``spare`` —
        ``None`` when the loop never touched the reserve.
    """
    names = list(allocations)
    factors = [tables.get(profiles[name], hardware) for name in names]
    compute = [allocations[name].compute_arrays for name in names]
    memory = [allocations[name].memory_arrays for name in names]
    latencies = [
        max(compute_time[com], supply_time[mem])
        for (compute_time, supply_time), com, mem in zip(factors, compute, memory)
    ]
    uncovered = inbound_arrays - sum(memory) if allow_memory_mode else 0
    credit = 2.0 * hardware.array_capacity_elements / hardware.d_extern
    grown = set()

    def state() -> _HandOut:
        handed = dict(allocations)
        for index in grown:
            handed[names[index]] = OperatorAllocation(compute[index], memory[index])
        return handed, list(latencies)

    held = max(0, spare - reserve)
    reserved = None
    for step in range(spare):
        current = max(latencies)
        index = latencies.index(current)
        compute_time, supply_time = factors[index]
        com, mem = compute[index], memory[index]
        best = max(compute_time[com + 1], supply_time[mem])
        score, grow_memory = best, False
        if allow_memory_mode:
            buffered = max(compute_time[com], supply_time[mem + 1])
            retained = credit if uncovered > 0 else 0.0
            if buffered - retained < score:
                best, score, grow_memory = buffered, buffered - retained, True
        if score >= current - 1e-9:
            break
        if step == held:
            reserved = state()
        if grow_memory:
            memory[index] += 1
            uncovered -= 1
        else:
            compute[index] += 1
        latencies[index] = best
        grown.add(index)
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
        self.latency_tables = LatencyTables()

    def allocate(
        self,
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        pipelined: bool = True,
    ) -> AllocationResult:
        """Allocate the segment; see class docstring for the policy."""
        if not profiles:
            return AllocationResult({}, 0.0, True, self.name)
        allocations = {
            name: OperatorAllocation(max(1, profile.min_compute_arrays(hardware)), 0)
            for name, profile in profiles.items()
        }
        used = sum(a.total_arrays for a in allocations.values())
        if used > hardware.num_arrays:
            return infeasible_result()
        (allocations, latencies), _ = _hand_out_spare_arrays(
            allocations,
            profiles,
            hardware,
            hardware.num_arrays - used,
            self.allow_memory_mode,
            0,
            self.latency_tables,
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

    #: Bound on the per-instance candidate memo (cleared when exceeded).
    CANDIDATE_MEMO_ENTRIES = 4096

    def __init__(
        self,
        allow_memory_mode: bool = True,
        max_candidates_per_operator: int = 24,
    ) -> None:
        self.allow_memory_mode = allow_memory_mode
        self.max_candidates_per_operator = max_candidates_per_operator
        # One operator appears in every DP window that contains it, and
        # its candidate set depends only on (profile, chip) — memoise it
        # per allocator instead of re-enumerating the grid per window.
        self._candidate_memo: Dict[
            Tuple[OperatorProfile, str], List[AllocationCandidate]
        ] = {}
        self.latency_tables = LatencyTables()

    def _candidates(
        self, profile: OperatorProfile, hardware: DualModeHardwareAbstraction
    ) -> List[AllocationCandidate]:
        key = (profile, hardware.fingerprint())
        cached = self._candidate_memo.get(key)
        if cached is None:
            cached = candidate_allocations(
                profile,
                hardware,
                hardware.num_arrays,
                allow_memory_mode=self.allow_memory_mode,
                max_candidates=self.max_candidates_per_operator,
            )
            if len(self._candidate_memo) >= self.CANDIDATE_MEMO_ENTRIES:
                self._candidate_memo.clear()
            self._candidate_memo[key] = cached
        return cached

    def allocate(
        self,
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        pipelined: bool = True,
    ) -> AllocationResult:
        """Pick one candidate per operator minimising the segment makespan."""
        if not profiles:
            return AllocationResult({}, 0.0, True, self.name)
        candidates = [self._candidates(profile, hardware) for profile in profiles.values()]
        if not all(candidates):
            return infeasible_result()
        chosen = self._select(candidates, hardware.num_arrays)
        if chosen is None:
            return infeasible_result()
        picked = [options[k] for options, k in zip(candidates, chosen)]
        allocations = {
            name: candidate.to_allocation() for name, candidate in zip(profiles, picked)
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
        self, candidates: Sequence[List[AllocationCandidate]], budget: int
    ) -> Optional[List[int]]:
        # Negated latencies ascend, so ``bisect_left(negated, -T)`` is the
        # index of the first candidate with latency <= T.
        negated = [[-c.latency_cycles for c in options] for options in candidates]
        totals = [[c.total_arrays for c in options] for options in candidates]

        def picks(threshold: float) -> Optional[List[int]]:
            chosen = [bisect_left(column, -threshold) for column in negated]
            used = sum(column[k] for column, k in zip(totals, chosen))
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
    tables: Optional[LatencyTables] = None,
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
        tables: Eq. 10 lookup memo to reuse (the allocator's); a
            throwaway one is built when omitted.
    """
    if not result.feasible or not result.allocations:
        return result
    spare = hardware.num_arrays - sum(a.total_arrays for a in result.allocations.values())
    if spare <= 0:
        return result
    reserved, unreserved = _hand_out_spare_arrays(
        result.allocations,
        profiles,
        hardware,
        spare,
        allow_memory_mode,
        inbound_arrays,
        tables if tables is not None else LatencyTables(),
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
    if not segment_fits(profiles, hardware):
        return infeasible_result()
    if cache is not None:
        # Build the (hardware fingerprint x segment signature x options)
        # key once and share it between the lookup and the store below.
        cache_key = cache.make_key(
            profiles,
            hardware,
            **key_options(engine, pipelined, refine, reserve_arrays, inbound_arrays),
        )
        cached = cache.lookup(cache_key, list(profiles), inbound_arrays)
        if cached is not None:
            return cached
    result = engine.allocate(profiles, hardware, pipelined=pipelined)
    if refine and result.feasible:
        result = refine_with_spare_arrays(
            result,
            profiles,
            hardware,
            pipelined=pipelined,
            allow_memory_mode=getattr(engine, "allow_memory_mode", True),
            reserve_arrays=reserve_arrays,
            inbound_arrays=inbound_arrays,
            tables=getattr(engine, "latency_tables", None),
        )
    if cache is not None:
        cache.put(cache_key, profiles, result)
    return result
