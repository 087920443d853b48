"""Objective oracle for the exact window allocator.

The default engine (:class:`ExactAllocator`) claims the optimum of the
paper's Eq. 8/9 model without a solver.  These tests hold it to that
claim instead of to any earlier implementation's output:

* against an independent min–max knapsack DP over the engine's own
  candidate lists (one numpy row per operator over the array budget),
  on random windows of zoo operators, every preset and both modes —
  the same makespan and the same minimum arrays, compared with ``==``,
  and the same infeasibility verdict;
* against brute-force enumeration on instances small enough to
  enumerate;
* plus the properties the spare-array refinement promises, with and
  without inbound live data.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from conftest import window_of
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._reference import reference_refine_with_spare_arrays
from repro.core.allocation import (
    ExactAllocator,
    GreedyAllocator,
    _hand_out_spare_arrays,
    allocate_segment,
    candidate_allocations,
    refine_with_spare_arrays,
)
from repro.core.cache import AllocationCache
from repro.core.segmentation import flatten_graph
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
    for engine in (ExactAllocator, GreedyAllocator)
    for allow in (True, False)
}


@st.composite
def windows(draw, max_operators=8, chips=st.sampled_from(sorted(CHIPS)), modes=st.booleans()):
    chip = draw(chips)
    pool = POOLS[chip]
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_operators)
    )
    profiles = {f"op{i}": pool[k] for i, k in enumerate(picks)}
    return CHIPS[chip], profiles, draw(modes)


def knapsack_makespans(candidates, budget):
    """Min–max multiple-choice knapsack by DP over the array budget.

    Entry ``b`` of the returned row is the smallest makespan (largest
    picked latency) of one candidate per operator using at most ``b``
    arrays, ``inf`` where none fits.  Each operator's row is the
    elementwise minimum, over its candidates, of the previous row
    shifted by the candidate's arrays and raised to its latency — ``max``
    and ``min`` only, so every finite entry is some candidate's latency,
    bit for bit.
    """
    row = np.zeros(budget + 1)
    for options in candidates:
        best = np.full(budget + 1, np.inf)
        for candidate in options:
            arrays = candidate.total_arrays
            if arrays <= budget:
                np.minimum(
                    best[arrays:],
                    np.maximum(row[: budget + 1 - arrays], candidate.latency_cycles),
                    out=best[arrays:],
                )
        row = best
    return row


def unrefined(engine, window):
    """``engine``'s pick for ``window`` as a result, priced as it stands."""
    return allocate_segment(window, allocator=engine, refine=False, cache=AllocationCache())


class TestExactAgainstKnapsack:
    @pytest.mark.parametrize("allow", [True, False], ids=["dual", "fixed"])
    @pytest.mark.parametrize("chip", sorted(CHIPS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_same_makespan_same_arrays_same_verdict(self, chip, allow, data):
        hardware, profiles, _ = data.draw(windows(chips=st.just(chip), modes=st.just(allow)))
        window = window_of(profiles, hardware)
        pick = ENGINES[ExactAllocator, allow].allocate(window)
        candidates = window.columns.window_candidates(0, len(profiles), allow)
        row = knapsack_makespans(candidates, hardware.num_arrays)
        assert (pick is not None) == bool(all(candidates) and np.isfinite(row[-1]))
        if pick is None:
            return
        makespan = max(
            options[options.pairs.index(pair)].latency_cycles
            for options, pair in zip(candidates, pick)
        )
        assert makespan == row[-1]
        # The canonical tie-break: the fewest arrays that reach the makespan.
        assert sum(compute + memory for compute, memory in pick) == int(
            np.argmax(row <= makespan)
        )
        if not allow:
            assert all(memory == 0 for _, memory in pick)

    def test_default_engine_is_the_exact_one(self, small_chip):
        window = window_of({"op": POOLS["small-test-chip"][0]}, small_chip)
        assert allocate_segment(window, cache=AllocationCache()).solver == "exact"


class TestExactAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(windows(max_operators=3), st.integers(1, 96))
    def test_optimal_makespan_and_minimum_arrays(self, window, budget):
        hardware, profiles, allow = window
        engine = ExactAllocator(allow_memory_mode=allow)
        columns = window_of(profiles, hardware).columns
        candidates = [
            candidate_allocations(
                p, hardware, allow_memory_mode=allow, max_candidates=6,
                factors=columns.factors(k),
            )
            for k, p in enumerate(profiles.values())
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
        window = window_of(profiles, hardware)
        seed = unrefined(ENGINES[ExactAllocator, allow], window)
        if not seed.feasible:
            return
        refined = refine_with_spare_arrays(
            seed.pairs,
            window,
            seed.solver,
            allow_memory_mode=allow,
            reserve_arrays=reserve,
            inbound_arrays=inbound,
        )
        # Never past the arrays the reserve leaves (the seed may already be).
        assert refined.total_arrays <= max(
            seed.total_arrays, hardware.num_arrays - reserve
        )
        for (compute, memory), (grown_compute, grown_memory) in zip(seed.pairs, refined.pairs):
            assert grown_compute >= compute
            assert grown_memory >= memory
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
        window = window_of(profiles, hardware)
        seed = unrefined(ENGINES[ExactAllocator, allow], window)
        if not seed.feasible:
            return
        kwargs = dict(allow_memory_mode=allow, reserve_arrays=reserve)
        refined = refine_with_spare_arrays(seed.pairs, window, seed.solver, **kwargs)
        reference = reference_refine_with_spare_arrays(seed, profiles, hardware, **kwargs)
        assert refined.pairs == reference.pairs
        assert refined.latency_cycles == reference.latency_cycles

    @settings(max_examples=80, deadline=None)
    @given(
        windows(),
        st.sampled_from([ExactAllocator, GreedyAllocator]),
        st.integers(0, 48),
        st.integers(0, 12),
    )
    def test_one_solve_carries_both_refinements(self, window, engine, reserve, inbound):
        """Reserve-as-a-choice: ``allocate_segment(reserve_arrays=R)`` is
        the R solve *and*, in ``unreserved``, the ``reserve_arrays=0``
        solve — each equal to a loop run on its own budget."""
        hardware, profiles, allow = window
        window = window_of(profiles, hardware)
        allocator = ENGINES[engine, allow]
        arguments = dict(allocator=allocator, inbound_arrays=inbound)
        both = allocate_segment(
            window, reserve_arrays=reserve, cache=AllocationCache(), **arguments
        )
        free = allocate_segment(window, reserve_arrays=0, cache=AllocationCache(), **arguments)
        assert free.unreserved is None
        if not both.feasible:
            assert not free.feasible and both.unreserved is None
            return
        twin = both.unreserved or both
        assert twin.unreserved is None
        assert twin.pairs == free.pairs
        assert twin.latency_cycles == free.latency_cycles
        if both.unreserved is not None:
            assert both.pairs != free.pairs
            assert both.total_arrays < free.total_arrays
        # The reserved half is the same loop stopped `reserve` arrays early.
        pick = allocator.allocate(window)
        spare = hardware.num_arrays - sum(compute + memory for compute, memory in pick)
        (alone, _), again = _hand_out_spare_arrays(
            pick, window, max(0, spare - reserve), allow, inbound
        )
        assert again is None
        assert both.pairs == alone
        for (compute, memory), (twin_compute, twin_memory) in zip(both.pairs, twin.pairs):
            assert compute <= twin_compute
            assert memory <= twin_memory

    def test_inbound_data_is_retained_before_marginal_duplication(self, dynaplasia_chip):
        """The llama2-7b mechanism in miniature.

        A compute-bound operator gains nothing from a buffer, so the
        latency-only loop spends every spare array on duplication; told
        that three arrays' worth of live data enter the segment, the
        loop buffers them first and duplicates with the rest.
        """
        hardware = dynaplasia_chip
        profile = max(POOLS["dynaplasia"], key=lambda p: p.macs)
        window = window_of({"op": profile}, hardware)
        seed = [(profile.min_compute_arrays(hardware), 0)]
        plain = refine_with_spare_arrays(seed, window, "exact")
        retaining = refine_with_spare_arrays(seed, window, "exact", inbound_arrays=3)
        assert plain.memory_arrays == 0
        assert retaining.memory_arrays == 3
        assert retaining.total_arrays == plain.total_arrays == hardware.num_arrays
