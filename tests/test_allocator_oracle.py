"""Objective oracle for the exact window allocator.

The default engine (:class:`ExactAllocator`) claims the optimum of the
paper's Eq. 8/9 model without a solver.  These tests hold it to that
claim instead of to any earlier implementation's output:

* against :class:`MIPAllocator` (the same model on ``scipy.optimize
  .milp``) over random windows of zoo operators on every preset — equal
  makespan, never more arrays, the same infeasibility verdict;
* against brute-force enumeration on instances small enough to
  enumerate;
* plus the properties the spare-array refinement promises, with and
  without inbound live data.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._reference import reference_refine_with_spare_arrays
from repro.core.allocation import (
    AllocationResult,
    ExactAllocator,
    MIPAllocator,
    _hand_out_spare_arrays,
    allocate_segment,
    candidate_allocations,
    refine_with_spare_arrays,
    unit_window,
)
from repro.core.segmentation import flatten_graph
from repro.cost.latency import OperatorAllocation
from repro.hardware import PRESETS, get_preset
from repro.models import Workload, build_model

ZOO = (
    ("tiny-mlp", Workload()),
    ("tiny-cnn", Workload()),
    ("tiny-transformer", Workload(seq_len=16)),
    ("mobilenet", Workload()),
    ("bert", Workload()),
    ("llama2-7b", Workload(seq_len=32)),
)


def _profile_pool(hardware):
    """Distinct unit profiles of the zoo models, flattened for ``hardware``."""
    pool = {}
    for model, workload in ZOO:
        for unit in flatten_graph(build_model(model, workload), hardware):
            pool.setdefault(unit.profile, None)
    return list(pool)


CHIPS = {name: get_preset(name) for name in sorted(PRESETS)}
POOLS = {name: _profile_pool(chip) for name, chip in CHIPS.items()}
# One allocator per (engine, chip flavour), as a compile has one per pass.
ENGINES = {
    (engine, allow): engine(allow_memory_mode=allow)
    for engine in (ExactAllocator, MIPAllocator)
    for allow in (True, False)
}


@st.composite
def windows(draw, max_operators=8):
    chip = draw(st.sampled_from(sorted(CHIPS)))
    pool = POOLS[chip]
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_operators)
    )
    profiles = {f"op{i}": pool[k] for i, k in enumerate(picks)}
    return CHIPS[chip], profiles, draw(st.booleans())


class TestExactAgainstMilp:
    @settings(max_examples=80, deadline=None)
    @given(windows())
    def test_same_makespan_never_more_arrays_same_verdict(self, window):
        hardware, profiles, allow = window
        exact = ENGINES[ExactAllocator, allow].allocate(profiles, hardware)
        milp = ENGINES[MIPAllocator, allow].allocate(profiles, hardware)
        assert exact.feasible == milp.feasible
        if not exact.feasible:
            return
        assert exact.solver == "exact" and milp.solver == "milp"
        assert exact.latency_cycles == pytest.approx(milp.latency_cycles, rel=1e-9)
        assert exact.total_arrays <= milp.total_arrays <= hardware.num_arrays
        if not allow:
            assert exact.memory_arrays == 0

    def test_default_engine_is_the_exact_one(self, small_chip):
        profiles = {"op": POOLS["small-test-chip"][0]}
        assert allocate_segment(profiles, small_chip).solver == "exact"


class TestExactAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(windows(max_operators=3), st.integers(1, 96))
    def test_optimal_makespan_and_minimum_arrays(self, window, budget):
        hardware, profiles, allow = window
        engine = ExactAllocator(allow_memory_mode=allow, max_candidates_per_operator=6)
        candidates = [
            candidate_allocations(
                p, hardware, hardware.num_arrays, allow_memory_mode=allow, max_candidates=6
            )
            for p in profiles.values()
        ]
        if not all(candidates):
            return
        feasible = [
            (max(c.latency_cycles for c in combo), sum(c.total_arrays for c in combo))
            for combo in itertools.product(*candidates)
            if sum(c.total_arrays for c in combo) <= budget
        ]
        chosen = engine._select(candidates, budget)
        if not feasible:
            assert chosen is None
            return
        picked = [options[k] for options, k in zip(candidates, chosen)]
        makespan = max(c.latency_cycles for c in picked)
        arrays = sum(c.total_arrays for c in picked)
        best = min(latency for latency, _ in feasible)
        assert makespan == best
        # Canonical tie-break: the fewest arrays among the optimal picks.
        assert arrays == min(total for latency, total in feasible if latency == best)


class TestRefinementProperties:
    @settings(max_examples=80, deadline=None)
    @given(windows(), st.integers(0, 8), st.integers(0, 12))
    def test_budget_latency_and_mode_invariants(self, window, reserve, inbound):
        hardware, profiles, allow = window
        seed = ENGINES[ExactAllocator, allow].allocate(profiles, hardware)
        if not seed.feasible:
            return
        refined = refine_with_spare_arrays(
            seed,
            profiles,
            hardware,
            allow_memory_mode=allow,
            reserve_arrays=reserve,
            inbound_arrays=inbound,
        )
        # Never past the arrays the reserve leaves (the seed may already be).
        assert refined.total_arrays <= max(
            seed.total_arrays, hardware.num_arrays - reserve
        )
        for name, allocation in seed.allocations.items():
            grown = refined.allocations[name]
            assert grown.compute_arrays >= allocation.compute_arrays
            assert grown.memory_arrays >= allocation.memory_arrays
        if not allow:
            assert refined.memory_arrays == 0
        # Latency plus the write-back of still-uncovered inbound data
        # never rises; with nothing inbound that is the latency alone.
        credit = 2.0 * hardware.array_capacity_elements / hardware.d_extern

        def objective(result):
            uncovered = max(0, inbound - result.memory_arrays) if allow else 0
            return result.latency_cycles + credit * uncovered

        assert objective(refined) <= objective(seed) + 1e-6
        if inbound == 0 or not allow:
            assert refined.latency_cycles <= seed.latency_cycles

    @settings(max_examples=60, deadline=None)
    @given(windows(), st.integers(0, 8))
    def test_nothing_inbound_is_the_latency_only_loop(self, window, reserve):
        """Inbound 0 reproduces the scalar pre-retention refinement exactly."""
        hardware, profiles, allow = window
        seed = ENGINES[ExactAllocator, allow].allocate(profiles, hardware)
        if not seed.feasible:
            return
        kwargs = dict(allow_memory_mode=allow, reserve_arrays=reserve)
        refined = refine_with_spare_arrays(seed, profiles, hardware, **kwargs)
        reference = reference_refine_with_spare_arrays(seed, profiles, hardware, **kwargs)
        assert refined.allocations == reference.allocations
        assert refined.latency_cycles == reference.latency_cycles

    @settings(max_examples=80, deadline=None)
    @given(
        windows(),
        st.sampled_from([ExactAllocator, MIPAllocator]),
        st.integers(0, 48),
        st.integers(0, 12),
    )
    def test_one_solve_carries_both_refinements(self, window, engine, reserve, inbound):
        """Reserve-as-a-choice: ``allocate_segment(reserve_arrays=R)`` is
        the R solve *and*, in ``unreserved``, the ``reserve_arrays=0``
        solve — each equal to a loop run on its own budget."""
        hardware, profiles, allow = window
        allocator = ENGINES[engine, allow]
        arguments = dict(allocator=allocator, inbound_arrays=inbound)
        both = allocate_segment(profiles, hardware, reserve_arrays=reserve, **arguments)
        free = allocate_segment(profiles, hardware, reserve_arrays=0, **arguments)
        assert free.unreserved is None
        if not both.feasible:
            assert not free.feasible and both.unreserved is None
            return
        twin = both.unreserved or both
        assert twin.unreserved is None
        assert twin.allocations == free.allocations
        assert twin.latency_cycles == free.latency_cycles
        if both.unreserved is not None:
            assert both.allocations != free.allocations
            assert both.total_arrays < free.total_arrays
        # The reserved half is the same loop stopped `reserve` arrays early.
        seed = allocator.allocate(profiles, hardware)
        spare = hardware.num_arrays - seed.total_arrays
        (alone, _), again = _hand_out_spare_arrays(
            seed.allocations, unit_window(profiles, hardware),
            max(0, spare - reserve), allow, inbound,
        )
        assert again is None
        assert both.allocations == alone
        for name, allocation in both.allocations.items():
            assert allocation.compute_arrays <= twin.allocations[name].compute_arrays
            assert allocation.memory_arrays <= twin.allocations[name].memory_arrays

    def test_inbound_data_is_retained_before_marginal_duplication(self, dynaplasia_chip):
        """The llama2-7b mechanism in miniature.

        A compute-bound operator gains nothing from a buffer, so the
        latency-only loop spends every spare array on duplication; told
        that three arrays' worth of live data enter the segment, the
        loop buffers them first and duplicates with the rest.
        """
        hardware = dynaplasia_chip
        profile = max(POOLS["dynaplasia"], key=lambda p: p.macs)
        minimum = profile.min_compute_arrays(hardware)
        profiles = {"op": profile}
        seed = AllocationResult(
            {"op": OperatorAllocation(minimum, 0)}, float("inf"), True, "exact"
        )
        plain = refine_with_spare_arrays(seed, profiles, hardware)
        retaining = refine_with_spare_arrays(seed, profiles, hardware, inbound_arrays=3)
        assert plain.memory_arrays == 0
        assert retaining.memory_arrays == 3
        assert retaining.total_arrays == plain.total_arrays == hardware.num_arrays
