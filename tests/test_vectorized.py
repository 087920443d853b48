"""Parity and tripwire tests for the vectorised hot path (ISSUE 6).

Three families:

* **Kernel parity** — the vectorised candidate enumeration, batched
  Eq. 10 latency model and incremental greedy allocator must reproduce
  the frozen scalar bodies in :mod:`repro.core._reference` exactly
  (values, ordering, tie-breaks), and a compiled plan re-prices exactly
  from the scalar cost model.
* **Deliberate divergence** — the one behaviour change the rewrite was
  allowed: an all-infeasible candidate grid now yields ``[]`` instead of
  the scalar body's useless infinite-latency fallback candidate.
* **Reuse tripwires** — the greedy fidelity rung must never touch the
  MILP solver, and a memoised DSE sweep must perform strictly fewer
  solves than compiling every point independently cold.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math

import numpy as np
import pytest

from repro.core import CMSwitchCompiler, CompilerOptions
from repro.core._reference import (
    reference_candidate_allocations,
    reference_greedy_allocate,
    reference_refine_with_spare_arrays,
)
from repro.core.allocation import (
    ExactAllocator,
    GreedyAllocator,
    UnitColumns,
    UnitWindow,
    allocate_segment,
    candidate_allocations,
    key_options,
    refine_with_spare_arrays,
)
from repro.core.cache import AllocationCache, AllocationCacheKey, segment_signature
from repro.core.segmentation import NetworkSegmenter, flatten_graph
from repro.cost import (
    OperatorAllocation,
    compute_rate,
    data_supply_times,
    operator_latency_cycles,
    profile_operator,
)
from repro.cost.arithmetic import ProfileVectors, profile_signature
from repro.cost.latency import INFEASIBLE_LATENCY, operator_latency_factors_batch
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


PROFILES = [
    linear_profile("thin", 8, 64, 64),
    linear_profile("wide", 32, 256, 256),
    linear_profile("tall", 128, 512, 32),
    matmul_profile("attn", 4, 32, 64, 64),
    matmul_profile("big", 8, 64, 128, 128),
]


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
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_grid_matches_scalar_exactly(self, profile, small_chip):
        compute = np.arange(1, small_chip.num_arrays + 1)
        memory = np.arange(0, small_chip.num_arrays)
        grid = latency_grid(profile, compute, memory, small_chip)
        for i, com in enumerate(compute):
            for j, mem in enumerate(memory):
                scalar = operator_latency_cycles(
                    profile, OperatorAllocation(int(com), int(mem)), small_chip
                )
                assert grid[i, j] == scalar  # bitwise, not approx

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
    dataclasses.replace(PROFILES[1], name="no-macs", macs=0, flops=0),
    dataclasses.replace(
        PROFILES[1],
        name="no-stream",
        streamed_input_elements=0,
        output_elements=0,
        extra_streamed_elements=0,
    ),
    dataclasses.replace(PROFILES[1], name="no-stationary", stationary_elements=0),
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
    """Row ``k`` of the batched table is the scalar Eq. 10 of unit ``k``, bitwise."""

    def test_edge_rows_are_what_they_claim(self, small_chip):
        no_macs, no_stream, no_stationary = EDGE_PROFILES
        assert no_macs.macs == 0 and no_stream.streamed_elements == 0
        assert no_stationary.min_compute_arrays(small_chip) == 0

    @pytest.mark.parametrize("chip", sorted(PRESETS))
    def test_rows_match_scalar_on_every_zoo_unit(self, chip):
        hardware, profiles = _zoo_profiles(chip)
        columns = UnitColumns(profiles, hardware)
        compute_rows, supply_rows = columns.factor_tables()
        last = hardware.num_arrays
        counts = range(last + 1)
        assert len(compute_rows) == len(supply_rows) == len(profiles)
        # The full (compute, memory) grid on the small chip; on the large
        # ones every compute count against the two extreme memory counts
        # and vice versa (a cell is max(compute_time[c], supply_time[m]),
        # and the factor-wise comparison below covers every entry).
        full = last <= 8
        for profile, compute_time, supply_time in zip(profiles, compute_rows, supply_rows):
            assert len(compute_time) == len(supply_time) == last + 1
            for com in counts:
                for mem in counts if full else (0, last):
                    assert max(compute_time[com], supply_time[mem]) == (
                        operator_latency_cycles(
                            profile, OperatorAllocation(com, mem), hardware
                        )
                    ), (profile.name, com, mem)
            for mem in () if full else counts:
                for com in (1, last):
                    assert max(compute_time[com], supply_time[mem]) == (
                        operator_latency_cycles(
                            profile, OperatorAllocation(com, mem), hardware
                        )
                    ), (profile.name, com, mem)
            for count in counts:
                rate = compute_rate(profile, count, hardware)
                expected = (
                    0.0 if profile.macs == 0
                    else profile.macs / rate if rate > 0
                    else INFEASIBLE_LATENCY
                )
                assert compute_time[count] == expected
                assert supply_time[count] == max(
                    data_supply_times(profile, count, hardware)
                )

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
    def test_candidates_from_the_columns_equal_the_reference(self, chip):
        """What an allocator reads (row ``k`` handed to the enumeration)
        is what a caller with only the profile gets, and both are the
        frozen scalar double loop's list."""
        hardware, profiles = _zoo_profiles(chip)
        columns = UnitColumns(profiles, hardware)
        for allow in (True, False):
            from_columns = columns.window_candidates(0, len(profiles), allow)
            for profile, candidates in zip(profiles, from_columns):
                if not candidates:
                    assert profile.min_compute_arrays(hardware) > hardware.num_arrays
                    continue
                assert candidates == reference_candidate_allocations(
                    profile, hardware, hardware.num_arrays, allow_memory_mode=allow
                )
                assert candidates == candidate_allocations(
                    profile, hardware, hardware.num_arrays, allow_memory_mode=allow
                )
                assert candidates.negated == [-c.latency_cycles for c in candidates]
                assert candidates.totals == [c.total_arrays for c in candidates]

    def test_window_signature_is_the_mapping_signature(self, small_chip, tiny_cnn_graph):
        """The cache key built from the columns is the one built from a
        plain mapping of the same profiles — key *values* did not move."""
        units = flatten_graph(tiny_cnn_graph, small_chip)
        columns = UnitColumns(
            [unit.profile for unit in units], small_chip, names=[u.name for u in units]
        )
        options = dict(
            engine="exact", pipelined=True, refine=True, allow_memory_mode=True,
            reserve_arrays=2, inbound_arrays=1,
        )
        for start in range(len(units)):
            for stop in range(start + 1, len(units) + 1):
                window = UnitWindow(columns, start, stop)
                mapping = {unit.name: unit.profile for unit in units[start:stop]}
                assert dict(window) == mapping and list(window) == list(mapping)
                assert segment_signature(window) == segment_signature(mapping)
                assert AllocationCacheKey.build(
                    window, small_chip, **options
                ) == AllocationCacheKey.build(mapping, small_chip, **options)


# ---------------------------------------------------------------------- #
# candidate enumeration
# ---------------------------------------------------------------------- #
class TestCandidateParity:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("allow_memory_mode", [True, False])
    def test_matches_scalar_reference(self, profile, allow_memory_mode, small_chip):
        vectorised = candidate_allocations(
            profile,
            small_chip,
            small_chip.num_arrays,
            allow_memory_mode=allow_memory_mode,
        )
        reference = reference_candidate_allocations(
            profile,
            small_chip,
            small_chip.num_arrays,
            allow_memory_mode=allow_memory_mode,
        )
        assert vectorised == reference

    @pytest.mark.parametrize("max_arrays", [1, 2, 3, 5, 8, 12])
    def test_matches_scalar_reference_across_budgets(self, max_arrays, small_chip):
        # 12 exceeds the chip: the factor tables must cover the budget asked for.
        for profile in PROFILES + EDGE_PROFILES:
            assert candidate_allocations(
                profile, small_chip, max_arrays
            ) == reference_candidate_allocations(profile, small_chip, max_arrays)

    def test_thinning_matches_scalar_reference(self, small_chip):
        profile = linear_profile("dense", 64, 512, 512)
        for cap in (1, 2, 3):
            vectorised = candidate_allocations(
                profile, small_chip, small_chip.num_arrays, max_candidates=cap
            )
            reference = reference_candidate_allocations(
                profile, small_chip, small_chip.num_arrays, max_candidates=cap
            )
            assert vectorised == reference
            assert len(vectorised) <= cap

    def test_all_infeasible_grid_returns_empty_not_fallback(
        self, small_chip, monkeypatch
    ):
        """The dead-fallback regression: every grid point infinite => [].

        The scalar body kept one useless infinite-latency candidate in
        that case; the rewrite's contract is an empty list (the same
        verdict as "does not fit"), so the MILP never selects a
        candidate that cannot finish.  Constructible hardware always has
        positive bandwidth, so the degenerate grid is forced here by
        stubbing the latency model — the factor evaluation the candidate
        tables are read from, and the scalar function the reference calls.
        """
        profile = PROFILES[0]
        all_inf_factors = lambda vectors, com, mem, hw: (
            np.full((len(vectors), len(com)), INFEASIBLE_LATENCY),
            np.full((len(vectors), len(mem)), INFEASIBLE_LATENCY),
        )
        monkeypatch.setattr(
            "repro.core.allocation.operator_latency_factors_batch", all_inf_factors
        )
        monkeypatch.setattr(
            "repro.cost.latency.operator_latency_cycles",
            lambda prof, alloc, hw: INFEASIBLE_LATENCY,
        )
        assert candidate_allocations(profile, small_chip, small_chip.num_arrays) == []
        # The frozen reference keeps exhibiting the old fallback bug.
        fallback = reference_candidate_allocations(
            profile, small_chip, small_chip.num_arrays
        )
        assert len(fallback) == 1
        assert math.isinf(fallback[0].latency_cycles)

    def test_oversized_operator_still_returns_empty(self, small_chip):
        profile = linear_profile("huge", 4, 64 * 20, 64 * 20)
        assert candidate_allocations(profile, small_chip, small_chip.num_arrays) == []


# ---------------------------------------------------------------------- #
# greedy allocator + refinement
# ---------------------------------------------------------------------- #
class TestGreedyParity:
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
    def test_matches_scalar_reference(self, index, allow_memory_mode, small_chip):
        profiles = self.SEGMENTS[index]
        incremental = GreedyAllocator(allow_memory_mode=allow_memory_mode).allocate(
            profiles, small_chip
        )
        reference = reference_greedy_allocate(
            profiles, small_chip, allow_memory_mode=allow_memory_mode
        )
        assert incremental.allocations == reference.allocations
        assert incremental.latency_cycles == reference.latency_cycles
        assert incremental.feasible == reference.feasible

    @pytest.mark.parametrize("reserve", [0, 1, 2])
    def test_refinement_matches_scalar_reference(self, reserve, small_chip):
        profiles = self.SEGMENTS[1]
        seed = GreedyAllocator().allocate(profiles, small_chip)
        refined = refine_with_spare_arrays(
            seed, profiles, small_chip, reserve_arrays=reserve
        )
        reference = reference_refine_with_spare_arrays(
            seed, profiles, small_chip, reserve_arrays=reserve
        )
        assert refined.allocations == reference.allocations
        assert refined.latency_cycles == reference.latency_cycles


# ---------------------------------------------------------------------- #
# whole-compile parity: re-priced plans AND reported solver statistics
# ---------------------------------------------------------------------- #
class TestCompileParity:
    #: ``(allocator_solves, allocation_cache_hits, allocation_disk_hits)``
    #: of a cold compile on the 8-array chip through the compiler's own
    #: window table — tiny-mlp's repeated layers are hits.
    SOLVER_WORK = {"tiny-mlp": (2, 11, 0), "tiny-cnn": (9, 0, 0)}

    @pytest.mark.parametrize("model", ["tiny-mlp", "tiny-cnn"])
    def test_pipeline_matches_frozen_reference(self, model, small_chip, assert_repriced):
        graph = build_model(model, Workload(batch_size=1))
        options = CompilerOptions(generate_code=True)
        pipeline = CMSwitchCompiler(small_chip, options).compile(graph)
        assert_repriced(pipeline, graph, options)
        # The vectorised kernels must not change the *reported* solver
        # work either — same solve count, same cache counters.
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

    Rebuilt the way ``allocate_segment`` builds it — the segmenter's own
    solve arguments through ``key_options`` — so the tests below pin
    what the in-memory cache keys on.
    """
    end = start if end is None else end
    segmenter = NetworkSegmenter(hardware, options, cache=AllocationCache())
    segmenter._prepare(units)
    spare = max(0, segmenter._spare_arrays(start, end))
    return AllocationCacheKey.build(
        segmenter._window(start, end),
        hardware,
        **key_options(**segmenter._solve_arguments(start, end, spare)),
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
        the entry the solve was stored under — engine name, boundary
        reserve and inbound count included.
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

    def test_final_window_reserves_nothing(self, units, small_chip):
        options = CompilerOptions()
        last = len(units) - 1
        key = window_cache_key(units, small_chip, options, start=0, end=last)
        assert key.reserve_arrays == 0

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

    def allocate(self, profiles, hardware, pipelined=True):
        self.calls += 1
        return self.inner.allocate(profiles, hardware, pipelined=pipelined)


class TestWindowTable:
    @pytest.fixture()
    def profiles(self):
        return {
            "proj": linear_profile("proj", 32, 128, 128),
            "attn": matmul_profile("attn", 4, 32, 64, 64),
        }

    def test_second_solve_is_served_from_the_memo(self, profiles, small_chip):
        cache = AllocationCache()
        engine = CountingAllocator(ExactAllocator())
        first = allocate_segment(profiles, small_chip, allocator=engine, cache=cache)
        second = allocate_segment(profiles, small_chip, allocator=engine, cache=cache)
        assert engine.calls == 1 and second.from_cache
        # One probe and one store per call: nothing is looked up or written twice.
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores, len(cache)) == (1, 1, 1, 1)
        assert second.allocations == first.allocations
        assert second.latency_cycles == first.latency_cycles

    def test_cross_mode_hit_when_dual_solution_uses_no_memory(
        self, profiles, small_chip
    ):
        cache = AllocationCache()
        dual = CountingAllocator(ExactAllocator(allow_memory_mode=True))
        result = allocate_segment(profiles, small_chip, allocator=dual, cache=cache)
        memory_free = all(
            a.memory_arrays == 0 for a in result.allocations.values()
        )
        fixed = CountingAllocator(ExactAllocator(allow_memory_mode=False))
        again = allocate_segment(profiles, small_chip, allocator=fixed, cache=cache)
        if memory_free:
            # The dual-mode optimum lies inside the fixed-mode space, so
            # the fixed-mode request is answered without a solve.
            assert fixed.calls == 0 and cache.stats.cross_mode_hits == 1
            assert again.allocations == result.allocations
        else:
            assert fixed.calls == 1

    def test_memo_never_stores_partial_foreign_results(self, profiles, small_chip):
        from repro.core.allocation import AllocationResult

        cache = AllocationCache()
        key = AllocationCacheKey.build(
            profiles,
            small_chip,
            engine="exact",
            pipelined=True,
            refine=True,
            allow_memory_mode=True,
            reserve_arrays=0,
        )
        partial = AllocationResult.from_allocations(
            {"proj": OperatorAllocation(1, 0)}, 123.0, True, "exact"
        )
        # Same length as the window, but for other operators / another order.
        foreign = AllocationResult.from_allocations(
            {"proj": OperatorAllocation(1, 0), "other": OperatorAllocation(2, 0)},
            123.0, True, "exact",
        )
        reordered = AllocationResult.from_allocations(
            {"attn": OperatorAllocation(2, 0), "proj": OperatorAllocation(1, 0)},
            123.0, True, "exact",
        )
        for result in (partial, foreign, reordered):
            cache.put(key, profiles, result)
        # A foreign twin spoils an otherwise matching result, too.
        own = AllocationResult.from_allocations(
            {"proj": OperatorAllocation(1, 0), "attn": OperatorAllocation(2, 0)},
            123.0, True, "exact",
        )
        cache.put(key, profiles, dataclasses.replace(own, unreserved=foreign))
        assert len(cache) == 0 and cache.stats.stores == 0
        assert cache.lookup(key, list(profiles)) is None
        cache.put(key, profiles, own)
        assert cache.stats.stores == 1
        assert cache.lookup(key, list(profiles)).pairs == own.pairs

    def test_memo_keyword_is_gone(self, profiles, small_chip):
        with pytest.raises(TypeError):
            allocate_segment(profiles, small_chip, memo=AllocationCache())


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
