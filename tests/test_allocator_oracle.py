"""Objective oracles for the window allocator.

The default engine (:class:`ExactAllocator`) claims the optimum of the
paper's Eq. 8/9 model without a solver.  These tests hold it to that
claim instead of to any earlier implementation's output:

* against the full-grid window optimum of ``tests/oracle.py`` (every
  integer ``(compute, memory)`` allocation within the chip, priced from
  the cost model alone): no engine, refined or not, beats it, on
  hypothesis windows of zoo operators on every preset in both modes.
  Where the engine sits above it is ROADMAP item 9's gap, recorded as
  a strict ``xfail``;
* against an independent min–max knapsack DP over the engine's own
  candidate lists (one numpy row per operator over the array budget) —
  the same makespan and the same minimum arrays, compared with ``==``,
  and the same infeasibility verdict;
* against brute-force enumeration on instances small enough to
  enumerate;
* plus the properties the spare-array refinement promises, with and
  without inbound live data: with nothing inbound it stops where the
  greedy rule says.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from conftest import greedy_stop_violation, window_of
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import window_optimum

from repro.core.allocation import (
    CandidateList,
    ExactAllocator,
    GreedyAllocator,
    _hand_out_spare_arrays,
    allocate_segment,
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


class TestFullGrid:
    """No engine beats the full-grid optimum (``oracle.window_optimum``)."""

    @pytest.mark.parametrize("chip", sorted(CHIPS))
    @settings(max_examples=70, deadline=None)
    @given(data=st.data())
    def test_no_engine_beats_the_full_grid(self, chip, data):
        hardware, profiles, allow = data.draw(windows(chips=st.just(chip)))
        engine = data.draw(st.sampled_from([ExactAllocator, GreedyAllocator]))
        pipelined, refine = data.draw(st.booleans()), data.draw(st.booleans())
        solved = allocate_segment(
            window_of(profiles, hardware),
            allocator=ENGINES[engine, allow],
            pipelined=pipelined,
            refine=refine,
            inbound_arrays=data.draw(st.integers(0, 12)),
            cache=AllocationCache(),
        )
        optimum = window_optimum(list(profiles.values()), hardware, allow, pipelined)
        assert solved.feasible == (optimum is not None)
        if optimum is not None:
            latency, arrays = optimum
            assert solved.latency_cycles >= latency
            assert arrays <= hardware.num_arrays

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 9: the candidates cap memory at "
        "memory_arrays_for_working_set, but Eq. 10's supply term keeps falling "
        "as memory arrays are added, and the refinement stops on a plateau",
    )
    def test_window_is_optimal_on_the_full_grid(self, prime_chip):
        """tiny-mlp @ prime, unit window [1, 2), nothing inbound: the
        engine picks (13, 1), a makespan of 9.85 cycles before the
        pipeline fill, 15.8x the full grid's."""
        units = flatten_graph(build_model("tiny-mlp", Workload()), prime_chip)
        profiles = {units[1].name: units[1].profile}
        solved = allocate_segment(window_of(profiles, prime_chip), cache=AllocationCache())
        latency, _ = window_optimum(list(profiles.values()), prime_chip)
        assert solved.latency_cycles == latency


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
        listed = window_of(profiles, hardware).columns.window_candidates(0, len(profiles), allow)
        # At most 6 candidates per operator, so the product stays small;
        # every other entry of a Pareto list is a Pareto list.
        candidates = [CandidateList(options[:: -(-len(options) // 6)]) for options in listed]
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
    @given(windows(), st.integers(0, 12))
    def test_budget_latency_and_mode_invariants(self, window, inbound):
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
            inbound_arrays=inbound,
        )
        # Never past the chip (the seed may already be).
        assert refined.total_arrays <= max(seed.total_arrays, hardware.num_arrays)
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
    @given(windows())
    def test_nothing_inbound_stops_at_the_greedy_rule(self, window):
        """With nothing inbound the refinement grows the pick and stops
        where the greedy rule says, in both modes: the chip is full, or
        one more array on the first bottleneck gains nothing."""
        hardware, profiles, allow = window
        window = window_of(profiles, hardware)
        seed = unrefined(ENGINES[ExactAllocator, allow], window)
        if not seed.feasible:
            return
        refined = refine_with_spare_arrays(
            seed.pairs, window, seed.solver, allow_memory_mode=allow
        )
        assert all(
            grown >= start for pair, pick in zip(refined.pairs, seed.pairs)
            for grown, start in zip(pair, pick)
        )
        assert greedy_stop_violation(
            list(profiles.values()), refined.pairs, hardware, allow
        ) is None

    @settings(max_examples=80, deadline=None)
    @given(
        windows(),
        st.sampled_from([ExactAllocator, GreedyAllocator]),
        st.integers(0, 12),
    )
    def test_one_solve_is_one_hand_out(self, window, engine, inbound):
        """``allocate_segment`` is one solve: the engine's pick, then one
        hand-out loop over every array the pick leaves."""
        hardware, profiles, allow = window
        window = window_of(profiles, hardware)
        allocator = ENGINES[engine, allow]
        solved = allocate_segment(
            window, allocator=allocator, inbound_arrays=inbound, cache=AllocationCache()
        )
        pick = allocator.allocate(window)
        if not solved.feasible:
            assert pick is None
            return
        spare = hardware.num_arrays - sum(compute + memory for compute, memory in pick)
        pairs, _ = _hand_out_spare_arrays(pick, window, spare, allow, inbound)
        assert solved.pairs == pairs

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
