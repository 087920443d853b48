"""Tests for the shared allocation cache and hardware fingerprinting."""

import math
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from conftest import window_of

from repro.core import (
    AllocationCache,
    CMSwitchCompiler,
    CompilerOptions,
    ExactAllocator,
    GreedyAllocator,
    allocate_segment,
    choose_plan,
    plan_cost,
)
from repro.core import cache as cache_module
from repro.core.allocation import AllocationCacheKey, UnitWindow
from repro.core.program import SegmentPlan
from repro.cost.arithmetic import (
    OperatorProfile,
    profile_graph,
    profile_operator,
    profile_signature,
)
from repro.cost.latency import INFEASIBLE_LATENCY, OperatorAllocation, guard_infeasible
from repro.ir import Linear, TensorSpec
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
    def test_signature_excludes_name(self, small_chip):
        """Two operators that differ only in name have equal profiles and
        share one window key."""
        first, second = (
            profile_operator(
                Linear(
                    name,
                    input=TensorSpec(f"{name}_x", (16, 64)),
                    output=TensorSpec(f"{name}_y", (16, 64)),
                    weight=TensorSpec(f"{name}_w", (64, 64)),
                )
            )
            for name in ("fc_a", "fc_b")
        )
        assert first == second and profile_signature(first) == profile_signature(second)
        options = dict(engine="exact", pipelined=True, refine=True, allow_memory_mode=True)
        keys = [
            AllocationCacheKey.build(window_of({"op": profile}, small_chip), **options)
            for profile in (first, second)
        ]
        assert keys[0] == keys[1]

    def test_signature_is_every_field_in_order(self, tiny_mlp_graph):
        """A field added to the profile can never be left out of the key."""
        profile = next(iter(profile_graph(tiny_mlp_graph).values()))
        signature = profile_signature(profile)
        assert signature == tuple(getattr(profile, f.name) for f in fields(OperatorProfile))
        for f in fields(OperatorProfile):
            value = getattr(profile, f.name)
            changed = (not value) if isinstance(value, bool) else (
                value + "_" if isinstance(value, str) else value + 1
            )
            assert profile_signature(replace(profile, **{f.name: changed})) != signature

    def test_key_distinguishes_options(self, small_chip, tiny_mlp_graph):
        window = window_of(profile_graph(tiny_mlp_graph), small_chip)
        base = dict(engine="exact", pipelined=True, refine=True, allow_memory_mode=True)
        key = AllocationCacheKey.build(window, **base)
        for override in (
            {"engine": "greedy"},
            {"pipelined": False},
            {"refine": False},
            {"allow_memory_mode": False},
            {"inbound_arrays": 2},
        ):
            other = AllocationCacheKey.build(window, **{**base, **override})
            assert other != key

    def test_dual_mode_variant_flips_only_memory_mode(self, small_chip, tiny_mlp_graph):
        window = window_of(profile_graph(tiny_mlp_graph), small_chip)
        fixed = AllocationCacheKey.build(
            window, engine="exact", pipelined=True, refine=True,
            allow_memory_mode=False,
        )
        dual = fixed.dual_mode_variant()
        assert dual.allow_memory_mode is True
        assert dual.segment == fixed.segment and dual.engine == fixed.engine
        assert dual.inbound_arrays == 0
        # The window's inbound count — dropped from the fixed-mode key —
        # names the dual-mode entry of the same window.
        assert fixed.dual_mode_variant(3) == AllocationCacheKey.build(
            window, engine="exact", pipelined=True, refine=True,
            allow_memory_mode=True, inbound_arrays=3,
        )

    def test_fixed_mode_keys_drop_the_inbound_count(self, small_chip, tiny_mlp_graph):
        window = window_of(profile_graph(tiny_mlp_graph), small_chip)
        options = dict(engine="exact", pipelined=True, refine=True)
        fixed = [
            AllocationCacheKey.build(window, allow_memory_mode=False, inbound_arrays=k, **options)
            for k in (0, 3)
        ]
        dual = [
            AllocationCacheKey.build(window, allow_memory_mode=True, inbound_arrays=k, **options)
            for k in (0, 3)
        ]
        assert fixed[0] == fixed[1] and fixed[0].inbound_arrays == 0
        assert dual[0] != dual[1]


class TestAllocationCache:
    def _options(self, **overrides):
        options = dict(engine="exact", pipelined=True, refine=True, allow_memory_mode=True)
        options.update(overrides)
        return options

    def _lookup(self, cache, profiles, hardware, **overrides):
        """What ``allocate_segment`` probes for ``profiles`` under the options."""
        key = AllocationCacheKey.build(window_of(profiles, hardware), **self._options(**overrides))
        return cache.lookup(key)

    def test_miss_then_hit(self, dynaplasia_chip, tiny_mlp_graph):
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        assert self._lookup(cache, profiles, dynaplasia_chip) is None
        result = allocate_segment(window_of(profiles, dynaplasia_chip), cache=cache)
        assert not result.from_cache
        hit = self._lookup(cache, profiles, dynaplasia_chip)
        assert hit is not None and hit.from_cache
        assert hit.latency_cycles == result.latency_cycles
        assert hit.pairs == result.pairs
        assert cache.stats.hits == 1 and cache.stats.misses == 2

    def test_cached_result_is_bit_identical(self, small_chip, tiny_cnn_graph):
        cache = AllocationCache()
        options = CompilerOptions(generate_code=False)
        cold = CMSwitchCompiler(small_chip, options, cache=cache).compile(tiny_cnn_graph)
        warm = CMSwitchCompiler(small_chip, options, cache=cache).compile(tiny_cnn_graph)
        fresh = CMSwitchCompiler(small_chip, options).compile(tiny_cnn_graph)  # its own table
        for other in (warm, fresh):
            assert other.end_to_end_cycles == cold.end_to_end_cycles
            assert [s.allocations for s in other.segments] == [
                s.allocations for s in cold.segments
            ]
        assert warm.stats["allocator_solves"] == 0
        assert warm.stats["allocation_cache_hit_rate"] == 1.0

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
            window_of(profiles, dynaplasia_chip),
            allocator=ExactAllocator(allow_memory_mode=True),
            cache=cache,
        )
        hit = self._lookup(cache, profiles, dynaplasia_chip, allow_memory_mode=False)
        if dual.memory_arrays > 0:
            assert hit is None
        else:
            assert hit is not None and hit.from_cache
            assert hit.memory_arrays == 0

    def test_hit_serves_the_same_structure_at_another_position(
        self, dynaplasia_chip, tiny_mlp_graph, tiny_cnn_graph
    ):
        """A window is found by structure: the same operators later in
        other columns (and under other names) hit the stored pairs."""
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        solved = allocate_segment(window_of(profiles, dynaplasia_chip), cache=cache)
        first = next(iter(profile_graph(tiny_cnn_graph).values()))
        columns = window_of(
            {"first": first, **{f"renamed_{i}": p for i, p in enumerate(profiles.values())}},
            dynaplasia_chip,
        ).columns
        hit = allocate_segment(UnitWindow(columns, 1, len(columns)), cache=cache)
        assert hit.from_cache and hit.pairs == solved.pairs
        assert len(hit.pairs) == len(profiles)

    def test_eviction_is_lru(self, dynaplasia_chip, tiny_mlp_graph, tiny_cnn_graph, monkeypatch):
        monkeypatch.setattr(cache_module, "WINDOW_TABLE_ENTRIES", 1)
        cache = AllocationCache()
        mlp_profiles = profile_graph(tiny_mlp_graph)
        cnn_profiles = profile_graph(tiny_cnn_graph)
        allocate_segment(window_of(mlp_profiles, dynaplasia_chip), cache=cache)
        allocate_segment(window_of(cnn_profiles, dynaplasia_chip), cache=cache)
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # The MLP entry (oldest) was evicted; the CNN entry survives.
        assert self._lookup(cache, mlp_profiles, dynaplasia_chip) is None
        assert self._lookup(cache, cnn_profiles, dynaplasia_chip) is not None

    def test_greedy_and_milp_entries_are_separate(self, dynaplasia_chip, tiny_mlp_graph):
        """The ``use_milp`` engine (exact) and the greedy one never share an entry."""
        profiles = profile_graph(tiny_mlp_graph)
        window = window_of(profiles, dynaplasia_chip)
        cache = AllocationCache()
        allocate_segment(window, allocator=ExactAllocator(), cache=cache)
        assert self._lookup(cache, profiles, dynaplasia_chip, engine="greedy") is None
        greedy = allocate_segment(window, allocator=GreedyAllocator(), cache=cache)
        assert not greedy.from_cache

    def test_different_hardware_never_shares_entries(
        self, small_chip, dynaplasia_chip, tiny_mlp_graph
    ):
        profiles = profile_graph(tiny_mlp_graph)
        cache = AllocationCache()
        allocate_segment(window_of(profiles, small_chip), cache=cache)
        assert self._lookup(cache, profiles, dynaplasia_chip) is None

    def test_invalid_capacity_rejected(self, monkeypatch):
        """The bound is a constant, not a knob, and a non-positive one fails."""
        with pytest.raises(TypeError, match="max_entries"):
            AllocationCache(max_entries=0)
        monkeypatch.setattr(cache_module, "WINDOW_TABLE_ENTRIES", 0)
        with pytest.raises(ValueError):
            AllocationCache()

    def test_clear_keeps_the_counters(self, dynaplasia_chip, tiny_mlp_graph):
        """``stats`` is a read-only view of the registry's ``cache.*`` counters."""
        profiles = profile_graph(tiny_mlp_graph)
        registry = MetricsRegistry()
        cache = AllocationCache(metrics=registry)
        allocate_segment(window_of(profiles, dynaplasia_chip), cache=cache)
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
    """A plan: its segments, in order."""
    return list(plans)


class TestChoosePlan:
    def test_strictly_faster_fixed_plan_wins(self):
        chosen, used = choose_plan(_result(_plan(100.0)), _result(_plan(50.0)))
        assert used and plan_cost(chosen) == 50.0

    def test_slower_fixed_plan_loses(self):
        chosen, used = choose_plan(_result(_plan(50.0)), _result(_plan(100.0)))
        assert not used and plan_cost(chosen) == 50.0

    def test_exact_tie_prefers_fixed_only_with_fewer_arrays(self):
        dual = _result(_plan(100.0, compute=2, memory=2))
        fixed_fewer = _result(_plan(100.0, compute=3, memory=0))
        fixed_same = _result(_plan(100.0, compute=4, memory=0))
        chosen, used = choose_plan(dual, fixed_fewer)
        assert used and chosen is fixed_fewer
        chosen, used = choose_plan(dual, fixed_same)
        assert not used and chosen is dual


class TestInfeasibilityGuards:
    def test_guard_infeasible_collapses_nan(self):
        assert guard_infeasible(float("nan")) == INFEASIBLE_LATENCY
        assert guard_infeasible(5.0) == 5.0
        assert guard_infeasible(INFEASIBLE_LATENCY) == INFEASIBLE_LATENCY

    def test_operator_latency_never_nan(self, small_chip, tiny_mlp_graph):
        from repro.cost.latency import operator_latency_cycles

        for profile in profile_graph(tiny_mlp_graph).values():
            for allocation in (
                OperatorAllocation(0, 0),
                OperatorAllocation(1, 0),
                OperatorAllocation(1, small_chip.num_arrays),
            ):
                latency = operator_latency_cycles(profile, allocation, small_chip)
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
