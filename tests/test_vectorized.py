"""Tests for the vectorised hot path: its contracts, not its history.

Five families:

* **Batched Eq. 10 and the unit columns** — one compile's factor tables
  equal one-row evaluations, and every row spans the chip with the edge
  values the model defines.
* **The candidate list's contract** — whatever enumerates it, an
  operator's list holds Eq. 10 points inside its compute floor, its
  working-set memory cap and the chip; arrays ascend and latency
  strictly descends; it has at most ``MAX_CANDIDATES`` entries; and it is
  ``[]`` exactly when the floor exceeds the chip or every point is
  infinite.
* **The greedy stop rule** — the greedy engine and the refinement stop
  when the chip is full or one more array on the first bottleneck gains
  nothing; a compiled plan re-prices exactly.
* **Window cache keys and the window table** — one key per solve, asked
  once.
* **Reuse tripwire** — a memoised DSE sweep performs strictly fewer
  solves than compiling every point independently cold.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect

import numpy as np
import pytest
from conftest import greedy_stop_violation, window_of

from repro.core import CMSwitchCompiler, CompilerOptions
from repro.core.allocation import (
    MAX_CANDIDATES,
    AllocationCacheKey,
    AllocationResult,
    ExactAllocator,
    GreedyAllocator,
    UnitColumns,
    UnitWindow,
    allocate_segment,
    candidate_allocations,
    refine_with_spare_arrays,
)
from repro.core.cache import AllocationCache
from repro.core.segmentation import NetworkSegmenter, flatten_graph
from repro.cost import profile_operator
from repro.cost.arithmetic import ProfileVectors, profile_signature
from repro.cost.latency import (
    INFEASIBLE_LATENCY,
    combine_operator_latencies,
    operator_latency_factors_batch,
)
from repro.dse import DesignSpace, DSERunner
from repro.hardware import PRESETS, get_preset, small_test_chip
from repro.ir import Linear, MatMul, TensorSpec
from repro.models import Workload, build_model, list_models
from repro.obs import Observability


def linear_profile(name, m=32, k=128, n=128):
    op = Linear(
        name,
        input=TensorSpec(f"{name}_x", (m, k)),
        output=TensorSpec(f"{name}_y", (m, n)),
        weight=TensorSpec(f"{name}_w", (k, n)),
    )
    return profile_operator(op)


def matmul_profile(name, b=4, m=16, k=64, n=64):
    op = MatMul(
        name,
        lhs=TensorSpec(f"{name}_a", (b, m, k)),
        rhs=TensorSpec(f"{name}_b", (b, k, n)),
        output=TensorSpec(f"{name}_c", (b, m, n)),
    )
    return profile_operator(op)


#: Profiles by test id (a profile itself carries no name).
NAMED_PROFILES = {
    "thin": linear_profile("thin", 8, 64, 64),
    "wide": linear_profile("wide", 32, 256, 256),
    "tall": linear_profile("tall", 128, 512, 32),
    "attn": matmul_profile("attn", 4, 32, 64, 64),
    "big": matmul_profile("big", 8, 64, 128, 128),
}
PROFILES = list(NAMED_PROFILES.values())


def candidates(profile, hardware, **options):
    """``candidate_allocations`` over the profile's own factor tables."""
    factors = UnitColumns([profile], hardware).factors(0)
    return candidate_allocations(profile, hardware, factors=factors, **options)


# ---------------------------------------------------------------------- #
# batched Eq. 10
# ---------------------------------------------------------------------- #
def latency_grid(profile, compute, memory, hardware):
    """Eq. 10 over ``compute x memory`` from the one-row factor tables."""
    compute_time, supply_time = operator_latency_factors_batch(
        ProfileVectors([profile], hardware), compute, memory, hardware
    )
    return np.maximum(compute_time[0][:, None], supply_time[0][None, :])


class TestBatchLatencyParity:
    def test_zero_compute_is_infeasible(self, small_chip):
        grid = latency_grid(PROFILES[0], np.array([0]), np.array([0]), small_chip)
        assert grid[0, 0] == INFEASIBLE_LATENCY

    def test_broadcasting_matches_flat_enumeration(self, small_chip):
        profile = PROFILES[3]
        compute = np.array([1, 2, 4])
        memory = np.array([0, 1])
        flat_compute, flat_supply = operator_latency_factors_batch(
            ProfileVectors([profile], small_chip),
            np.repeat(compute, len(memory)),
            np.tile(memory, len(compute)),
            small_chip,
        )
        assert np.array_equal(
            latency_grid(profile, compute, memory, small_chip).ravel(),
            np.maximum(flat_compute[0], flat_supply[0]),
        )


# ---------------------------------------------------------------------- #
# unit columns: one batched Eq. 10 table per compile
# ---------------------------------------------------------------------- #
#: Rows the zoo does not contain: an operator without MACs (pure data
#: movement), one that streams nothing, one with no stationary operand
#: (``min_compute_arrays == 0``).
EDGE_PROFILES = [
    dataclasses.replace(PROFILES[1], macs=0, flops=0),
    dataclasses.replace(
        PROFILES[1],
        streamed_input_elements=0,
        output_elements=0,
        extra_streamed_elements=0,
    ),
    dataclasses.replace(PROFILES[1], stationary_elements=0),
]


@functools.lru_cache(maxsize=None)
def _zoo_profiles(chip):
    """``(hardware, profiles)``: the structurally distinct units of every
    zoo model on preset ``chip``, plus the edge rows."""
    hardware = get_preset(chip)
    distinct = {}
    for model in list_models():
        for unit in flatten_graph(build_model(model, Workload()), hardware):
            distinct.setdefault(profile_signature(unit.profile), unit.profile)
    return hardware, list(distinct.values()) + EDGE_PROFILES


class TestUnitColumnParity:
    """Row ``k`` of the batched table is Eq. 10 of unit ``k``."""

    def test_edge_rows_are_what_they_claim(self, small_chip):
        no_macs, no_stream, no_stationary = EDGE_PROFILES
        assert no_macs.macs == 0 and no_stream.streamed_elements == 0
        assert no_stationary.min_compute_arrays(small_chip) == 0

    @pytest.mark.parametrize("chip", sorted(PRESETS))
    def test_rows_span_the_chip_with_the_edge_values(self, chip):
        """One row per zoo unit over ``0..num_arrays``: compute time is
        ``inf`` without a compute array, 0 for an operator without MACs,
        and never grows with the count; supply time is finite, 0 for an
        operator that streams nothing; no entry is NaN."""
        hardware, profiles = _zoo_profiles(chip)
        compute_rows, supply_rows = UnitColumns(profiles, hardware).factor_tables()
        compute_time = np.array(compute_rows)
        supply_time = np.array(supply_rows)
        assert compute_time.shape == supply_time.shape == (len(profiles), hardware.num_arrays + 1)
        with_macs = np.array([profile.macs > 0 for profile in profiles])
        assert np.all(compute_time[with_macs, 0] == INFEASIBLE_LATENCY)
        assert np.all(compute_time[~with_macs] == 0.0)
        assert np.all(np.diff(compute_time[:, 1:], axis=1) <= 0)
        assert np.all(np.isfinite(supply_time)) and np.all(supply_time >= 0)
        streams = np.array([profile.streamed_elements > 0 for profile in profiles])
        assert np.all(supply_time[~streams] == 0.0) and np.all(supply_time[streams] > 0)

    @pytest.mark.parametrize("chip", sorted(PRESETS))
    def test_n_row_and_one_row_evaluations_are_identical(self, chip):
        hardware = get_preset(chip)
        profiles = PROFILES + EDGE_PROFILES
        counts = np.arange(hardware.num_arrays + 1)
        batched = operator_latency_factors_batch(
            ProfileVectors(profiles, hardware), counts, counts, hardware
        )
        for index, profile in enumerate(profiles):
            single = operator_latency_factors_batch(
                ProfileVectors([profile], hardware), counts, counts, hardware
            )
            assert single[0].shape == single[1].shape == (1, len(counts))
            assert np.array_equal(batched[0][index], single[0][0])
            assert np.array_equal(batched[1][index], single[1][0])

    @pytest.mark.parametrize("chip", sorted(PRESETS))
    def test_compute_floor_is_the_floor_column(self, chip):
        """One compute floor: ``OperatorProfile.compute_floor`` of every
        zoo unit is its entry of ``ProfileVectors.floors`` (that no module
        but the frozen oracles re-derives it by hand is pinned in
        ``tests/test_cost.py::TestOneDefinitionPerEquation``)."""
        hardware, profiles = _zoo_profiles(chip)
        floors = ProfileVectors(profiles, hardware).floors.tolist()
        assert [profile.compute_floor(hardware) for profile in profiles] == floors

    @pytest.mark.parametrize("chip", sorted(PRESETS))
    def test_candidates_from_the_columns_equal_the_profiles_own(self, chip):
        """What an allocator reads (row ``k`` handed to the enumeration)
        is what columns of the profile alone give, its columns are its
        entries', and every zoo unit's list keeps the contract."""
        hardware, profiles = _zoo_profiles(chip)
        columns = UnitColumns(profiles, hardware)
        for allow in (True, False):
            from_columns = columns.window_candidates(0, len(profiles), allow)
            for profile, listed in zip(profiles, from_columns):
                assert listed == candidates(profile, hardware, allow_memory_mode=allow)
                assert listed.negated == [-c.latency_cycles for c in listed]
                assert listed.totals == [c.total_arrays for c in listed]
                assert listed.pairs == [(c.compute_arrays, c.memory_arrays) for c in listed]
                assert_candidate_contract(listed, profile, hardware, allow)

    def test_window_signature_is_the_mapping_signature(self, small_chip, tiny_cnn_graph):
        """The cache key of a window of the compile's columns is the one
        of columns built from that window's profiles alone — a key does
        not depend on where its window sits."""
        units = flatten_graph(tiny_cnn_graph, small_chip)
        columns = UnitColumns([unit.profile for unit in units], small_chip)
        options = dict(
            engine="exact", pipelined=True, refine=True, allow_memory_mode=True,
            inbound_arrays=1,
        )
        for start in range(len(units)):
            for stop in range(start + 1, len(units) + 1):
                window = UnitWindow(columns, start, stop)
                alone = window_of(
                    {unit.name: unit.profile for unit in units[start:stop]}, small_chip
                )
                assert window.signature == alone.signature
                assert AllocationCacheKey.build(window, **options) == AllocationCacheKey.build(
                    alone, **options
                )


# ---------------------------------------------------------------------- #
# candidate enumeration: the list's contract
# ---------------------------------------------------------------------- #
def assert_candidate_contract(listed, profile, hardware, allow_memory_mode=True):
    """``listed`` keeps the candidate list's contract for ``profile``.

    Every entry is the Eq. 10 point of its ``(compute, memory)`` (the
    operator's one-row factor tables), with compute at or above the
    floor, memory within the working-set cap (0 in fixed mode) and both
    within the chip; arrays ascend and latency strictly descends; at most
    ``MAX_CANDIDATES`` entries; ``[]`` exactly when the floor exceeds the
    chip or every point of that grid is infinite.
    """
    counts = np.arange(hardware.num_arrays + 1)
    compute_time, supply_time = operator_latency_factors_batch(
        ProfileVectors([profile], hardware), counts, counts, hardware
    )
    floor = profile.compute_floor(hardware)
    cap = profile.memory_arrays_for_working_set(hardware) if allow_memory_mode else 0
    for candidate in listed:
        compute, memory = candidate.compute_arrays, candidate.memory_arrays
        assert floor <= compute and 0 <= memory <= cap
        assert candidate.total_arrays == compute + memory <= hardware.num_arrays
        assert candidate.latency_cycles == max(compute_time[0, compute], supply_time[0, memory])
        assert np.isfinite(candidate.latency_cycles)
    for earlier, later in zip(listed, listed[1:]):
        assert earlier.total_arrays < later.total_arrays
        assert earlier.latency_cycles > later.latency_cycles
    assert len(listed) <= MAX_CANDIDATES
    grid = np.maximum(compute_time[0, :, None], supply_time[0, None, : cap + 1])
    inside = (counts[:, None] >= floor) & (counts[:, None] + counts[None, : cap + 1] <= counts[-1])
    assert (listed == []) == (floor > hardware.num_arrays or not np.isfinite(grid[inside]).any())


class TestCandidateContract:
    @pytest.mark.parametrize("profile", PROFILES, ids=list(NAMED_PROFILES))
    @pytest.mark.parametrize("allow_memory_mode", [True, False])
    def test_every_entry_is_an_eq10_point_inside_the_bounds(
        self, profile, allow_memory_mode, small_chip
    ):
        listed = candidates(profile, small_chip, allow_memory_mode=allow_memory_mode)
        assert_candidate_contract(listed, profile, small_chip, allow_memory_mode)

    @pytest.mark.parametrize("num_arrays", [1, 2, 3, 5, 8, 12])
    def test_the_contract_holds_on_every_budget(self, num_arrays, small_chip):
        # The budget is the chip's: one chip per array count.
        chip = dataclasses.replace(small_chip, num_arrays=num_arrays)
        for profile in PROFILES + EDGE_PROFILES:
            for allow in (True, False):
                listed = candidates(profile, chip, allow_memory_mode=allow)
                assert_candidate_contract(listed, profile, chip, allow)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_thinning_keeps_both_extremes(self, cap, small_chip, monkeypatch):
        """A frontier longer than ``MAX_CANDIDATES`` is thinned to at most
        that many of its own entries, the fewest-arrays and the fastest
        candidates kept."""
        profile = NAMED_PROFILES["attn"]
        frontier = candidates(profile, small_chip)
        assert cap < len(frontier) <= MAX_CANDIDATES
        monkeypatch.setattr("repro.core.allocation.MAX_CANDIDATES", cap)
        thinned = candidates(profile, small_chip)
        assert 0 < len(thinned) <= cap
        assert all(candidate in frontier for candidate in thinned)
        assert thinned[0] == frontier[0]
        if cap > 1:
            assert thinned[-1] == frontier[-1]

    def test_all_infeasible_grid_returns_empty_not_fallback(
        self, small_chip, monkeypatch
    ):
        """Every grid point infinite => ``[]``, the same verdict as "does
        not fit", so no engine selects a candidate that cannot finish.
        Constructible hardware always has positive bandwidth, so the
        degenerate grid is forced here by stubbing the factor evaluation
        the candidate tables read from.
        """
        profile = PROFILES[0]
        all_inf_factors = lambda vectors, com, mem, hw: (
            np.full((len(vectors), len(com)), INFEASIBLE_LATENCY),
            np.full((len(vectors), len(mem)), INFEASIBLE_LATENCY),
        )
        monkeypatch.setattr(
            "repro.core.allocation.operator_latency_factors_batch", all_inf_factors
        )
        assert candidates(profile, small_chip) == []

    def test_oversized_operator_still_returns_empty(self, small_chip):
        profile = linear_profile("huge", 4, 64 * 20, 64 * 20)
        assert candidates(profile, small_chip) == []


# ---------------------------------------------------------------------- #
# greedy allocator + refinement: the stop rule
# ---------------------------------------------------------------------- #
class TestGreedyStopRule:
    SEGMENTS = [
        {"proj": linear_profile("proj", 32, 128, 128)},
        {
            "proj": linear_profile("proj", 32, 128, 128),
            "attn": matmul_profile("attn", 4, 32, 64, 64),
        },
        {
            "a": linear_profile("a", 8, 64, 64),
            "b": linear_profile("b", 16, 128, 64),
            "c": matmul_profile("c", 2, 16, 32, 32),
        },
    ]

    @pytest.mark.parametrize("index", range(len(SEGMENTS)))
    @pytest.mark.parametrize("allow_memory_mode", [True, False])
    def test_the_greedy_engine_stops_where_its_rule_says(
        self, index, allow_memory_mode, small_chip
    ):
        """Each operator at or above its floor, memory only in dual mode,
        within the chip, at the stop rule, priced by Eq. 9 as it stands."""
        profiles = list(self.SEGMENTS[index].values())
        result = allocate_segment(
            window_of(self.SEGMENTS[index], small_chip),
            allocator=GreedyAllocator(allow_memory_mode=allow_memory_mode),
            refine=False,
            cache=AllocationCache(),
        )
        assert result.feasible and len(result.pairs) == len(profiles)
        for profile, (compute, memory) in zip(profiles, result.pairs):
            assert compute >= profile.compute_floor(small_chip)
            assert allow_memory_mode or memory == 0
        assert result.total_arrays <= small_chip.num_arrays
        assert greedy_stop_violation(
            profiles, result.pairs, small_chip, allow_memory_mode
        ) is None
        counts = np.arange(small_chip.num_arrays + 1)
        compute_time, supply_time = operator_latency_factors_batch(
            ProfileVectors(profiles, small_chip), counts, counts, small_chip
        )
        latencies = [
            max(compute_time[k, c], supply_time[k, m]) for k, (c, m) in enumerate(result.pairs)
        ]
        assert result.latency_cycles == combine_operator_latencies(latencies, small_chip)

    @pytest.mark.parametrize("index", range(len(SEGMENTS)))
    def test_refinement_from_the_floors_stops_where_its_rule_says(self, index, small_chip):
        profiles = list(self.SEGMENTS[index].values())
        floors = [(profile.compute_floor(small_chip), 0) for profile in profiles]
        refined = refine_with_spare_arrays(
            floors, window_of(self.SEGMENTS[index], small_chip), "greedy"
        )
        assert all(
            grown >= seed for pair, start in zip(refined.pairs, floors)
            for grown, seed in zip(pair, start)
        )
        assert refined.total_arrays <= small_chip.num_arrays
        assert greedy_stop_violation(profiles, refined.pairs, small_chip, True) is None


# ---------------------------------------------------------------------- #
# whole compile: re-priced plans AND reported solver statistics
# ---------------------------------------------------------------------- #
class TestCompileParity:
    #: ``(allocator_solves, allocation_cache_hits, allocation_disk_hits)``
    #: of a cold compile on the 8-array chip through the compiler's own
    #: window table — tiny-mlp's repeated layers are hits.
    SOLVER_WORK = {"tiny-mlp": (2, 11, 0), "tiny-cnn": (9, 0, 0)}

    @pytest.mark.parametrize("model", ["tiny-mlp", "tiny-cnn"])
    def test_pipeline_reprices_and_reports_its_solver_work(
        self, model, small_chip, assert_repriced
    ):
        graph = build_model(model, Workload(batch_size=1))
        options = CompilerOptions(generate_code=True)
        pipeline = CMSwitchCompiler(small_chip, options).compile(graph)
        assert_repriced(pipeline, graph, options)
        # The reported solver work is pinned too: solve count and cache
        # counters.
        stats = ("allocator_solves", "allocation_cache_hits", "allocation_disk_hits")
        assert tuple(pipeline.stats[stat] for stat in stats) == self.SOLVER_WORK[model]

    def test_chip_fit_is_the_floor_column_alone(self):
        """One chip-fit rule, and it is mode-free: the compute floors of
        ``ProfileVectors`` (no ``allow_memory_mode`` anywhere near them);
        the wrappers that re-derived them from profiles are gone."""
        from repro.core import allocation

        assert "allow_memory_mode" not in inspect.signature(ProfileVectors).parameters
        for gone in ("segment_fits", "minimum_compute_arrays"):
            assert not hasattr(allocation, gone), gone


# ---------------------------------------------------------------------- #
# window cache keys
# ---------------------------------------------------------------------- #
def window_cache_key(units, hardware, options, start=0, end=None):
    """The key the segmenter's solve of ``units[start..end]`` is cached under.

    Rebuilt from the segmenter's own solve arguments the way
    ``allocate_segment`` builds it, so the tests below pin what the
    in-memory cache keys on.
    """
    end = start if end is None else end
    segmenter = NetworkSegmenter(hardware, options, cache=AllocationCache())
    segmenter._prepare(units)
    spare = max(0, segmenter._spare_arrays(start, end))
    arguments = segmenter._solve_arguments(start, end, spare)
    engine = arguments.pop("allocator")
    return AllocationCacheKey.build(
        segmenter._window(start, end),
        engine=engine.name,
        allow_memory_mode=engine.allow_memory_mode,
        **arguments,
    )


class TestWindowCacheKey:
    @pytest.fixture()
    def units(self, small_chip, tiny_cnn_graph):
        return flatten_graph(tiny_cnn_graph, small_chip)

    def test_every_window_key_is_distinct_per_span(self, units, small_chip):
        options = CompilerOptions()
        keys = set()
        for start in range(len(units)):
            for end in range(start, len(units)):
                key = window_cache_key(units, small_chip, options, start=start, end=end)
                assert key is not None
                keys.add(key)
        spans = len(units) * (len(units) + 1) // 2
        assert len(keys) == spans

    @pytest.mark.parametrize("model", ["tiny-mlp", "tiny-cnn", "tiny-transformer"])
    @pytest.mark.parametrize("allow_memory_mode", [True, False])
    def test_probe_key_is_the_key_the_dp_stored(self, model, allow_memory_mode, small_chip):
        """One definition of the window key: the segmenter's solve arguments.

        For every window the DP solved, ``window_cache_key`` must name
        the entry the solve was stored under — engine name and inbound
        count included.
        """
        graph = build_model(model, Workload(batch_size=1, seq_len=16))
        options = CompilerOptions(allow_memory_mode=allow_memory_mode)
        cache = AllocationCache()
        obs = Observability.create()
        segmenter = NetworkSegmenter(small_chip, options, cache=cache, obs=obs)
        units = flatten_graph(graph, small_chip)
        segmenter.build_plans(units, segmenter.choose_boundaries(graph, units))
        solved = {
            window_cache_key(
                units, small_chip, options, start=span.attrs["start"], end=span.attrs["end"]
            )
            for span in obs.tracer.spans()
            if span.name == "allocator.solve"
        }
        assert solved == set(cache._entries.keys())
        # Fixed-mode keys drop the inbound count; tiny-mlp's live data
        # fits the native buffer, so it has none to record.
        assert any(key.inbound_arrays > 0 for key in solved) == (
            allow_memory_mode and model != "tiny-mlp"
        )

    def test_first_window_has_nothing_inbound(self, units, small_chip):
        options = CompilerOptions()
        last = len(units) - 1
        key = window_cache_key(units, small_chip, options, start=0, end=last)
        assert key.inbound_arrays == 0

    def test_key_reflects_the_options(self, units, small_chip):
        dual = window_cache_key(units, small_chip, CompilerOptions())
        fixed = window_cache_key(
            units, small_chip, CompilerOptions(allow_memory_mode=False)
        )
        greedy = window_cache_key(units, small_chip, CompilerOptions(use_milp=False))
        assert dual != fixed
        assert dual != greedy
        assert dual.engine == "exact" and greedy.engine == "greedy"


# ---------------------------------------------------------------------- #
# the one window table (AllocationCache) as allocate_segment uses it
# ---------------------------------------------------------------------- #
class CountingAllocator:
    """Wraps an allocator and counts real ``allocate`` invocations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.name = inner.name
        self.allow_memory_mode = getattr(inner, "allow_memory_mode", True)

    def allocate(self, window):
        self.calls += 1
        return self.inner.allocate(window)


class TestWindowTable:
    @pytest.fixture()
    def window(self, small_chip):
        return window_of(
            {
                "proj": linear_profile("proj", 32, 128, 128),
                "attn": matmul_profile("attn", 4, 32, 64, 64),
            },
            small_chip,
        )

    def test_second_solve_is_served_from_the_memo(self, window):
        cache = AllocationCache()
        engine = CountingAllocator(ExactAllocator())
        first = allocate_segment(window, allocator=engine, cache=cache)
        second = allocate_segment(window, allocator=engine, cache=cache)
        assert engine.calls == 1 and second.from_cache
        # One probe and one store per call: nothing is looked up or written twice.
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores, len(cache)) == (1, 1, 1, 1)
        assert second.pairs == first.pairs
        assert second.latency_cycles == first.latency_cycles

    def test_cross_mode_hit_when_dual_solution_uses_no_memory(self, window):
        cache = AllocationCache()
        dual = CountingAllocator(ExactAllocator(allow_memory_mode=True))
        result = allocate_segment(window, allocator=dual, cache=cache)
        fixed = CountingAllocator(ExactAllocator(allow_memory_mode=False))
        again = allocate_segment(window, allocator=fixed, cache=cache)
        if result.memory_arrays == 0:
            # The dual-mode optimum lies inside the fixed-mode space, so
            # the fixed-mode request is answered without a solve.
            assert fixed.calls == 0 and cache.stats.cross_mode_hits == 1
            assert again.pairs == result.pairs
        else:
            assert fixed.calls == 1

    def test_memo_never_stores_a_result_of_another_length(self, window):
        """A feasible result whose pair count is not the key's window
        length would hand its pairs to the wrong operators on a hit: it
        is never stored."""
        cache = AllocationCache()
        key = AllocationCacheKey.build(
            window,
            engine="exact",
            pipelined=True,
            refine=True,
            allow_memory_mode=True,
        )
        partial = AllocationResult(((1, 0),), 123.0, True, "exact")
        longer = AllocationResult(((1, 0), (2, 0), (1, 0)), 123.0, True, "exact")
        for result in (partial, longer):
            cache.put(key, result)
        own = AllocationResult(((1, 0), (2, 0)), 123.0, True, "exact")
        assert len(cache) == 0 and cache.stats.stores == 0
        assert cache.lookup(key) is None
        cache.put(key, own)
        assert cache.stats.stores == 1
        assert cache.lookup(key).pairs == own.pairs

    def test_memo_keyword_is_gone(self, window):
        with pytest.raises(TypeError):
            allocate_segment(window, memo=AllocationCache())


# ---------------------------------------------------------------------- #
# reuse tripwires
# ---------------------------------------------------------------------- #
def _two_point_space() -> DesignSpace:
    """One model on one chip, dual vs fixed mode: maximal window overlap."""
    return DesignSpace(
        models=["tiny-mlp"],
        base_hardware=small_test_chip(),
        workloads=[Workload(batch_size=1)],
        option_axes={"allow_memory_mode": [True, False]},
    )


class TestReuseTripwires:
    def test_memoised_sweep_beats_independent_cold_compiles(self):
        space = _two_point_space()
        independent = 0
        for point in space.points():
            graph = build_model(point.model, point.workload)
            program = CMSwitchCompiler(point.hardware, point.options).compile(graph)
            independent += program.stats["allocator_solves"]
        runner = DSERunner(space, strategy="grid")
        result = runner.run()
        assert result.evaluated == space.size
        assert result.allocator_solves < independent  # strictly fewer
        assert runner.service.cache.stats.hits > 0

    def test_memo_counters_reflect_per_run_reuse(self):
        runner = DSERunner(_two_point_space(), strategy="grid")
        result = runner.run()
        cache = runner.service.cache
        # One table, written once per solve: no entry is stored twice.
        assert cache.stats.stores == len(cache) == result.allocator_solves > 0
        assert cache.stats.hits == sum(r.cache_hits for r in result.records) > 0
