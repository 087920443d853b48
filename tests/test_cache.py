"""Tests for the shared allocation cache and hardware fingerprinting."""

import math
from dataclasses import FrozenInstanceError

import pytest

from repro.core import (
    AllocationCache,
    CMSwitchCompiler,
    CompilerOptions,
    GreedyAllocator,
    MIPAllocator,
    NoFeasiblePlanError,
    allocate_segment,
    choose_plan,
)
from repro.core.cache import AllocationCacheKey, profile_signature, segment_signature
from repro.core.program import SegmentPlan
from repro.core.segmentation import SegmentationResult
from repro.cost.arithmetic import profile_graph
from repro.cost.latency import INFEASIBLE_LATENCY, OperatorAllocation, guard_infeasible
from repro.obs import NULL_METRICS, MetricsRegistry


class TestHardwareFingerprint:
    def test_stable_and_hashable(self, small_chip):
        fp = small_chip.fingerprint()
        assert isinstance(fp, str) and fp
        assert fp == small_chip.fingerprint()
        hash(fp)

    def test_equal_parameters_equal_fingerprint(self, small_chip):
        clone = small_chip.with_overrides()
        assert clone.fingerprint() == small_chip.fingerprint()

    def test_override_changes_fingerprint(self, small_chip):
        assert (
            small_chip.with_overrides(num_arrays=small_chip.num_arrays + 1).fingerprint()
            != small_chip.fingerprint()
        )

    def test_presets_differ(self, small_chip, dynaplasia_chip):
        assert small_chip.fingerprint() != dynaplasia_chip.fingerprint()


class TestCacheKeys:
    def test_signature_excludes_name(self, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        signatures = [profile_signature(p) for p in profiles.values()]
        for profile, signature in zip(profiles.values(), signatures):
            assert profile.name not in signature
        assert segment_signature(profiles) == tuple(signatures)

    def test_key_distinguishes_options(self, small_chip, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        base = dict(engine="milp", pipelined=True, refine=True,
                    allow_memory_mode=True, reserve_arrays=0)
        key = AllocationCacheKey.build(profiles, small_chip, **base)
        for override in (
            {"engine": "greedy"},
            {"pipelined": False},
            {"refine": False},
            {"allow_memory_mode": False},
            {"reserve_arrays": 2},
        ):
            other = AllocationCacheKey.build(profiles, small_chip, **{**base, **override})
            assert other != key

    def test_dual_mode_variant_flips_only_memory_mode(self, small_chip, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        fixed = AllocationCacheKey.build(
            profiles, small_chip, engine="milp", pipelined=True, refine=True,
            allow_memory_mode=False, reserve_arrays=0,
        )
        dual = fixed.dual_mode_variant()
        assert dual.allow_memory_mode is True
        assert dual.segment == fixed.segment and dual.reserve_arrays == fixed.reserve_arrays
        assert dual.inbound_arrays == 0
        # The window's inbound count — dropped from the fixed-mode key —
        # names the dual-mode entry of the same window.
        assert fixed.dual_mode_variant(3) == AllocationCacheKey.build(
            profiles, small_chip, engine="milp", pipelined=True, refine=True,
            allow_memory_mode=True, reserve_arrays=0, inbound_arrays=3,
        )

    def test_fixed_mode_keys_drop_the_inbound_count(self, small_chip, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        options = dict(engine="exact", pipelined=True, refine=True, reserve_arrays=0)
        fixed = [
            AllocationCacheKey.build(
                profiles, small_chip, allow_memory_mode=False, inbound_arrays=k, **options
            )
            for k in (0, 3)
        ]
        dual = [
            AllocationCacheKey.build(
                profiles, small_chip, allow_memory_mode=True, inbound_arrays=k, **options
            )
            for k in (0, 3)
        ]
        assert fixed[0] == fixed[1] and fixed[0].inbound_arrays == 0
        assert dual[0] != dual[1]


class TestAllocationCache:
    def _options(self, **overrides):
        options = dict(engine="exact", pipelined=True, refine=True,
                       allow_memory_mode=True, reserve_arrays=0)
        options.update(overrides)
        return options

    def test_miss_then_hit(self, dynaplasia_chip, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        assert cache.lookup_segment(profiles, dynaplasia_chip, **self._options()) is None
        result = allocate_segment(profiles, dynaplasia_chip, cache=cache)
        assert not result.from_cache
        hit = cache.lookup_segment(profiles, dynaplasia_chip, **self._options())
        assert hit is not None and hit.from_cache
        assert hit.latency_cycles == result.latency_cycles
        assert hit.allocations == result.allocations
        assert cache.stats.hits == 1 and cache.stats.misses == 2

    def test_cached_result_is_bit_identical(self, small_chip, tiny_cnn_graph):
        cache = AllocationCache()
        options = CompilerOptions(generate_code=False)
        cold = CMSwitchCompiler(small_chip, options, cache=cache).compile(tiny_cnn_graph)
        warm = CMSwitchCompiler(small_chip, options, cache=cache).compile(tiny_cnn_graph)
        uncached = CMSwitchCompiler(small_chip, options).compile(tiny_cnn_graph)
        for other in (warm, uncached):
            assert other.end_to_end_cycles == cold.end_to_end_cycles
            assert [s.allocations for s in other.segments] == [
                s.allocations for s in cold.segments
            ]
        assert warm.stats["allocator_solves"] == 0
        assert warm.stats["allocation_cache_hit_rate"] == 1.0

    def test_unreserved_twin_travels_in_the_same_entry(self, dynaplasia_chip, tiny_mlp_graph):
        """Both refinements of a solve are one entry under the solve's key —
        in the cache and on a relabelled hit."""
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        solved = allocate_segment(profiles, dynaplasia_chip, reserve_arrays=40, cache=cache)
        assert solved.unreserved is not None and not solved.from_cache
        assert len(cache) == 1 and cache.stats.stores == 1
        renamed = {f"layer{i}": profile for i, profile in enumerate(profiles.values())}
        hit = allocate_segment(renamed, dynaplasia_chip, reserve_arrays=40, cache=cache)
        assert hit.from_cache and hit.unreserved.from_cache
        assert list(hit.unreserved.allocations) == list(renamed)
        for got, want in ((hit, solved), (hit.unreserved, solved.unreserved)):
            assert list(got.allocations.values()) == list(want.allocations.values())
            assert got.latency_cycles == want.latency_cycles

    def test_repeat_compile_performs_fewer_solves(self, small_chip, tiny_cnn_graph):
        """Acceptance: two cached compiles < 2x the cold solve count."""
        options = CompilerOptions(generate_code=False)
        cold = CMSwitchCompiler(small_chip, options).compile(tiny_cnn_graph)
        cold_solves = cold.stats["allocator_solves"]
        cache = AllocationCache()
        first = CMSwitchCompiler(small_chip, options, cache=cache).compile(tiny_cnn_graph)
        second = CMSwitchCompiler(small_chip, options, cache=cache).compile(tiny_cnn_graph)
        total = first.stats["allocator_solves"] + second.stats["allocator_solves"]
        assert total < 2 * cold_solves
        assert second.stats["allocator_solves"] == 0

    def test_fixed_mode_pass_reuses_dual_mode_entries(self, small_chip, tiny_cnn_graph):
        """A fixed-mode compile must hit memory-free dual-mode entries."""
        cache = AllocationCache()
        for mode in (True, False):
            options = CompilerOptions(generate_code=False, allow_memory_mode=mode)
            CMSwitchCompiler(small_chip, options, cache=cache).compile(tiny_cnn_graph)
        assert cache.stats.cross_mode_hits > 0

    def test_cross_mode_hit_requires_memory_free_entry(self, dynaplasia_chip, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        dual = allocate_segment(
            profiles, dynaplasia_chip, allocator=MIPAllocator(allow_memory_mode=True), cache=cache
        )
        fixed_options = self._options(allow_memory_mode=False)
        hit = cache.lookup_segment(profiles, dynaplasia_chip, **fixed_options)
        uses_memory = any(a.memory_arrays > 0 for a in dual.allocations.values())
        if uses_memory:
            assert hit is None
        else:
            assert hit is not None and hit.from_cache
            assert all(a.memory_arrays == 0 for a in hit.allocations.values())

    def test_hit_remaps_operator_names(self, dynaplasia_chip, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        allocate_segment(profiles, dynaplasia_chip, cache=cache)
        renamed = {f"renamed_{i}": p for i, p in enumerate(profiles.values())}
        hit = cache.lookup_segment(renamed, dynaplasia_chip, **self._options())
        assert hit is not None
        assert set(hit.allocations) == set(renamed)

    def test_eviction_is_lru(self, dynaplasia_chip, tiny_mlp_graph, tiny_cnn_graph):
        cache = AllocationCache(max_entries=1)
        mlp_profiles = profile_graph(tiny_mlp_graph)
        cnn_profiles = profile_graph(tiny_cnn_graph)
        allocate_segment(mlp_profiles, dynaplasia_chip, cache=cache)
        allocate_segment(cnn_profiles, dynaplasia_chip, cache=cache)
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # The MLP entry (oldest) was evicted; the CNN entry survives.
        assert cache.lookup_segment(mlp_profiles, dynaplasia_chip, **self._options()) is None
        assert cache.lookup_segment(cnn_profiles, dynaplasia_chip, **self._options()) is not None

    def test_greedy_and_milp_entries_are_separate(self, dynaplasia_chip, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        allocate_segment(profiles, dynaplasia_chip, allocator=MIPAllocator(), cache=cache)
        assert (
            cache.lookup_segment(profiles, dynaplasia_chip, **self._options(engine="greedy"))
            is None
        )
        greedy = allocate_segment(
            profiles, dynaplasia_chip, allocator=GreedyAllocator(), cache=cache
        )
        assert not greedy.from_cache

    def test_different_hardware_never_shares_entries(
        self, small_chip, dynaplasia_chip, tiny_mlp_graph
    ):
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        allocate_segment(profiles, small_chip, cache=cache)
        assert cache.lookup_segment(profiles, dynaplasia_chip, **self._options()) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            AllocationCache(max_entries=0)

    def test_clear_keeps_the_counters(self, dynaplasia_chip, tiny_mlp_graph):
        """``stats`` is a read-only view of the registry's ``cache.*`` counters."""
        profiles = profile_graph(tiny_mlp_graph)
        registry = MetricsRegistry()
        cache = AllocationCache(metrics=registry)
        allocate_segment(profiles, dynaplasia_chip, cache=cache)
        stats = cache.stats
        assert len(cache) == stats.stores == registry.counter("cache.stores").value > 0
        assert stats.misses == registry.counter("cache.misses").value == stats.lookups
        cache.clear()
        assert len(cache) == 0 and cache.stats == stats
        with pytest.raises(FrozenInstanceError):
            stats.hits = 0
        # Given no registry, or the disabled one, a cache keeps its own.
        for metrics in (None, NULL_METRICS):
            assert AllocationCache(metrics=metrics).metrics.enabled


def _plan(intra, inter=0.0, compute=1, memory=0):
    return SegmentPlan(
        index=0,
        operator_names=["op"],
        allocations={"op": OperatorAllocation(compute, memory)},
        profiles={},
        intra_cycles=intra,
        inter_cycles=inter,
    )


def _result(*plans):
    return SegmentationResult(segments=list(plans), units=[], dp_seconds=0.0,
                              allocation_calls=0)


class TestChoosePlan:
    def test_strictly_faster_fixed_plan_wins(self):
        chosen, used = choose_plan(_result(_plan(100.0)), _result(_plan(50.0)))
        assert used and chosen.total_cycles == 50.0

    def test_slower_fixed_plan_loses(self):
        chosen, used = choose_plan(_result(_plan(50.0)), _result(_plan(100.0)))
        assert not used and chosen.total_cycles == 50.0

    def test_both_infeasible_keeps_dual_without_fallback_flag(self):
        dual = _result(_plan(INFEASIBLE_LATENCY))
        fixed = _result(_plan(INFEASIBLE_LATENCY))
        chosen, used = choose_plan(dual, fixed)
        assert chosen is dual and not used

    def test_nan_cost_treated_as_infeasible(self):
        nan_plan = _result(_plan(float("nan")))
        good = _result(_plan(10.0))
        chosen, used = choose_plan(nan_plan, good)
        assert used and chosen is good
        chosen, used = choose_plan(good, nan_plan)
        assert not used and chosen is good

    def test_exact_tie_prefers_fixed_only_with_fewer_arrays(self):
        dual = _result(_plan(100.0, compute=2, memory=2))
        fixed_fewer = _result(_plan(100.0, compute=3, memory=0))
        fixed_same = _result(_plan(100.0, compute=4, memory=0))
        chosen, used = choose_plan(dual, fixed_fewer)
        assert used and chosen is fixed_fewer
        chosen, used = choose_plan(dual, fixed_same)
        assert not used and chosen is dual

    def test_compiler_raises_when_no_plan_feasible(
        self, small_chip, tiny_cnn_graph, monkeypatch
    ):
        """Both passes infeasible -> NoFeasiblePlanError, never a silent keep."""
        import repro.pipeline.passes as passes_module

        class InfeasibleSegmenter:
            # Speaks the split Segment/Allocate protocol of the pipeline
            # (choose_boundaries + build_plans) and the fused segment()
            # the fallback pass calls.
            def __init__(self, *args, **kwargs):
                self.allocation_calls = 0
                self.cache_hits = 0

            def choose_boundaries(self, graph, units):
                return [(0, len(units) - 1)]

            def build_plans(self, units, boundaries):
                return _result(_plan(INFEASIBLE_LATENCY)).segments

            def segment(self, graph, units=None):
                return _result(_plan(INFEASIBLE_LATENCY))

        monkeypatch.setattr(passes_module, "NetworkSegmenter", InfeasibleSegmenter)
        compiler = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=False))
        with pytest.raises(NoFeasiblePlanError):
            compiler.compile(tiny_cnn_graph)


class TestInfeasibilityGuards:
    def test_guard_infeasible_collapses_nan(self):
        assert guard_infeasible(float("nan")) == INFEASIBLE_LATENCY
        assert guard_infeasible(5.0) == 5.0
        assert guard_infeasible(INFEASIBLE_LATENCY) == INFEASIBLE_LATENCY

    def test_zero_rate_empty_transfer_is_free(self, small_chip, tiny_mlp_graph):
        """rate == 0 with nothing to move must not manufacture infinity."""
        from repro.cost.arithmetic import profile_graph
        from repro.cost.latency import data_supply_times

        profile = next(iter(profile_graph(tiny_mlp_graph).values()))
        # d_main_share == 0 zeroes both rates; the on-chip side still has
        # data (streamed elements) so it is infeasible, but the off-chip
        # side may be empty and must then cost zero.
        offchip, onchip = data_supply_times(profile, 0, small_chip, d_main_share=0.0)
        if profile.streamed_input_elements + profile.extra_streamed_elements <= (
            small_chip.buffer_elements
        ):
            assert offchip == 0.0
        assert not math.isnan(offchip) and not math.isnan(onchip)

    def test_operator_latency_never_nan(self, small_chip, tiny_mlp_graph):
        from repro.cost.latency import operator_latency_cycles

        for profile in profile_graph(tiny_mlp_graph).values():
            for allocation in (
                OperatorAllocation(0, 0),
                OperatorAllocation(1, 0),
                OperatorAllocation(1, small_chip.num_arrays),
            ):
                latency = operator_latency_cycles(
                    profile, allocation, small_chip, d_main_share=0.0
                )
                assert not math.isnan(latency)

    def test_mean_memory_ratio_with_infinite_segment(self, small_chip):
        from repro.core.program import CompiledProgram

        program = CompiledProgram(
            graph_name="g",
            compiler_name="test",
            hardware=small_chip,
            segments=[_plan(INFEASIBLE_LATENCY), _plan(10.0, memory=1)],
        )
        ratio = program.mean_memory_array_ratio
        assert not math.isnan(ratio)
        assert 0.0 <= ratio <= 1.0
