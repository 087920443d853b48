"""Tests for the cost models: profiles, Eq. 10 latency, Eq. 1/2/4 overheads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    OperatorAllocation,
    OperatorProfile,
    SegmentResources,
    aggregate_resources,
    best_split_latency,
    compute_rate,
    data_supply_times,
    mean_arithmetic_intensity,
    minimum_latency_all_compute,
    mode_switch_cycles,
    operator_latency_cycles,
    profile_graph,
    profile_operator,
    segment_latency_cycles,
    switch_counts,
    weight_reload_cycles,
    writeback_cycles,
)
from repro.cost.switching import INITIAL_RESOURCES
from repro.hardware import dynaplasia, small_test_chip
from repro.ir import Linear, MatMul, TensorSpec


def linear_profile(m=64, k=256, n=256, extra=0):
    op = Linear(
        "fc",
        input=TensorSpec("x", (m, k)),
        output=TensorSpec("y", (m, n)),
        weight=TensorSpec("w", (k, n)),
    )
    return profile_operator(op, extra)


def matmul_profile(b=4, m=16, k=64, n=64):
    op = MatMul(
        "qk",
        lhs=TensorSpec("q", (b, m, k)),
        rhs=TensorSpec("kt", (b, k, n)),
        output=TensorSpec("s", (b, m, n)),
    )
    return profile_operator(op)


class TestProfiles:
    def test_macs_and_dims(self):
        profile = linear_profile(64, 256, 128)
        assert profile.macs == 64 * 256 * 128
        assert (profile.matmul_m, profile.matmul_k, profile.matmul_n) == (64, 256, 128)

    def test_min_compute_arrays(self, small_chip):
        profile = linear_profile(4, 128, 128)
        assert profile.min_compute_arrays(small_chip) == 4  # (128/64)^2

    def test_memory_arrays_for_working_set(self, small_chip):
        profile = linear_profile(64, 256, 256)
        expected = -(-profile.working_set_elements // small_chip.array_capacity_elements)
        assert profile.memory_arrays_for_working_set(small_chip) == expected

    def test_effective_ai_excludes_static_weights(self):
        profile = linear_profile(1, 1024, 1024)
        assert profile.effective_arithmetic_intensity > profile.model_arithmetic_intensity

    def test_dynamic_matmul_counts_both_operands(self):
        profile = matmul_profile()
        assert not profile.has_static_weight
        assert profile.streamed_input_elements == 4 * 16 * 64 + 4 * 64 * 64

    def test_extra_streamed_lowers_effective_ai(self):
        base = linear_profile()
        loaded = linear_profile(extra=100_000)
        assert loaded.effective_arithmetic_intensity < base.effective_arithmetic_intensity

    def test_profile_rejects_non_mappable(self, tiny_cnn_graph):
        aux = next(op for op in tiny_cnn_graph.operators if not op.is_cim_mappable)
        with pytest.raises(ValueError):
            profile_operator(aux)

    def test_profile_graph_covers_all_cim_operators(self, tiny_transformer_graph):
        profiles = profile_graph(tiny_transformer_graph)
        assert set(profiles) == {op.name for op in tiny_transformer_graph.cim_operators()}

    def test_mean_arithmetic_intensity(self, tiny_cnn_graph):
        profiles = profile_graph(tiny_cnn_graph)
        assert mean_arithmetic_intensity(profiles.values()) > 0


class TestLatencyModel:
    def test_zero_compute_arrays_infeasible(self, small_chip):
        profile = linear_profile()
        latency = operator_latency_cycles(profile, OperatorAllocation(0, 0), small_chip)
        assert latency == float("inf")

    def test_more_compute_arrays_never_slower(self, small_chip):
        profile = linear_profile(256, 256, 256)
        latencies = [
            operator_latency_cycles(profile, OperatorAllocation(c, 0), small_chip)
            for c in range(1, small_chip.num_arrays + 1)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(latencies, latencies[1:]))

    def test_more_memory_arrays_never_slower(self, small_chip):
        profile = matmul_profile(8, 64, 64, 64)
        latencies = [
            operator_latency_cycles(profile, OperatorAllocation(4, m), small_chip)
            for m in range(0, small_chip.num_arrays - 3)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(latencies, latencies[1:]))

    @given(
        compute=st.integers(min_value=1, max_value=8),
        memory=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_latency_positive_and_finite(self, compute, memory):
        hw = small_test_chip()
        profile = linear_profile(32, 128, 128)
        latency = operator_latency_cycles(profile, OperatorAllocation(compute, memory), hw)
        assert latency > 0
        assert latency != float("inf")

    def test_compute_rate_degrades_when_underprovisioned(self, small_chip):
        profile = linear_profile(4, 256, 256)  # needs 16 arrays on the small chip
        full = compute_rate(profile, 16, small_chip)
        half = compute_rate(profile, 8, small_chip)
        assert half < full / 1.5

    def test_supply_times_split_on_and_off_chip(self, small_chip):
        profile = matmul_profile(16, 64, 64, 64)
        off_none, on_none = data_supply_times(profile, 0, small_chip)
        off_many, on_many = data_supply_times(profile, small_chip.num_arrays, small_chip)
        assert off_none > off_many
        assert on_none >= 0 and on_many >= 0

    def test_minimum_latency_all_compute_matches_zero_memory(self, small_chip):
        profile = linear_profile()
        direct = operator_latency_cycles(
            profile, OperatorAllocation(small_chip.num_arrays, 0), small_chip
        )
        assert minimum_latency_all_compute(profile, small_chip.num_arrays, small_chip) == direct

    def test_best_split_uses_whole_budget_or_less(self, small_chip):
        profile = matmul_profile(8, 64, 64, 64)
        latency, allocation = best_split_latency(profile, small_chip.num_arrays, small_chip)
        assert latency < float("inf")
        assert allocation.total_arrays <= small_chip.num_arrays

    def test_segment_latency_pipelined_vs_serial(self, small_chip):
        profiles = {
            "a": linear_profile(32, 64, 64),
            "b": linear_profile(32, 64, 64),
        }
        allocations = {
            "a": OperatorAllocation(2, 1),
            "b": OperatorAllocation(2, 1),
        }
        pipelined = segment_latency_cycles(profiles, allocations, small_chip, pipelined=True)
        serial = segment_latency_cycles(profiles, allocations, small_chip, pipelined=False)
        assert serial > pipelined / 2  # serial sums, pipelined takes the max

    def test_segment_latency_missing_allocation_raises(self, small_chip):
        profiles = {"a": linear_profile()}
        with pytest.raises(KeyError):
            segment_latency_cycles(profiles, {}, small_chip)

    def test_empty_segment_has_zero_latency(self, small_chip):
        assert segment_latency_cycles({}, {}, small_chip) == 0.0


class TestInterSegmentCosts:
    def make_resources(self, compute, memory, live=0, idle=0):
        return SegmentResources(
            compute_arrays=compute,
            memory_arrays=memory,
            live_output_elements=live,
            idle_arrays=idle,
        )

    def test_switch_counts_first_segment_free(self, small_chip):
        first = INITIAL_RESOURCES
        assert switch_counts(first.compute_arrays, first.memory_arrays, 4, 4) == (0, 0)
        assert mode_switch_cycles(None, self.make_resources(4, 4), small_chip) == 0

    def test_switch_counts_net_changes_only(self):
        # (memory_to_compute, compute_to_memory) from 6 + 2 to 2 + 6 arrays.
        assert switch_counts(6, 2, 2, 6) == (0, 4)

    def test_switch_cycles_use_hardware_latencies(self, small_chip):
        prev = self.make_resources(compute=2, memory=4)
        curr = self.make_resources(compute=5, memory=1)
        cycles = mode_switch_cycles(prev, curr, small_chip)
        assert cycles == 3 * small_chip.switch_latency_m2c

    def test_writeback_zero_without_live_data(self, small_chip):
        prev = self.make_resources(4, 0, live=0)
        assert writeback_cycles(prev, self.make_resources(4, 0), small_chip) == 0.0

    def test_writeback_charges_overflow_only(self, small_chip):
        live = small_chip.buffer_elements + 10_000
        prev = self.make_resources(4, 0, live=live)
        curr = self.make_resources(4, 0)
        cycles = writeback_cycles(prev, curr, small_chip, allow_boundary_buffering=False)
        assert cycles == pytest.approx(2 * 10_000 / small_chip.d_extern)

    def test_boundary_buffering_reduces_writeback(self, small_chip):
        live = small_chip.buffer_elements + 3 * small_chip.array_capacity_elements
        prev = self.make_resources(2, 0, live=live, idle=4)
        curr = self.make_resources(2, 0, idle=4)
        with_buffering = writeback_cycles(prev, curr, small_chip, allow_boundary_buffering=True)
        without = writeback_cycles(prev, curr, small_chip, allow_boundary_buffering=False)
        assert with_buffering < without

    def test_weight_reload_eq2_max_over_operators(self, small_chip):
        profiles = {"a": linear_profile(4, 128, 128), "b": linear_profile(4, 64, 64)}
        allocations = {"a": OperatorAllocation(4, 0), "b": OperatorAllocation(1, 0)}
        cycles = weight_reload_cycles(profiles, allocations, small_chip)
        assert cycles == pytest.approx(4 * small_chip.array_write_latency_cycles)

    def test_weight_reload_skips_dynamic_operands(self, small_chip):
        profiles = {"qk": matmul_profile()}
        allocations = {"qk": OperatorAllocation(2, 0)}
        assert weight_reload_cycles(profiles, allocations, small_chip) == 0.0

    @staticmethod
    def repriced(graph, hardware, **options):
        """A compiled plan re-priced by the independent Eq. 4 assembly."""
        from repro.core import CMSwitchCompiler, CompilerOptions
        from repro.core._reference import reprice_segments

        program = CMSwitchCompiler(hardware, CompilerOptions(generate_code=False)).compile(graph)
        segments = [(plan.operator_names, plan.allocations) for plan in program.segments]
        return reprice_segments(graph, hardware, CompilerOptions(**options), segments)

    def test_inter_segment_cycles_composition(self, small_chip, tiny_transformer_graph):
        """Eq. 4: each segment's inter cycles are write-back + switch + reload."""
        plans = self.repriced(tiny_transformer_graph, small_chip)
        assert len(plans) > 1
        previous = None
        for plan in plans:
            assert plan.inter_breakdown == {
                "writeback": writeback_cycles(previous, plan.resources, small_chip),
                "mode_switch": mode_switch_cycles(previous, plan.resources, small_chip),
                "weight_reload": weight_reload_cycles(plan.profiles, plan.allocations, small_chip),
            }
            assert plan.inter_cycles == sum(plan.inter_breakdown.values())
            previous = plan.resources

    def test_include_switch_cost_flag(self, small_chip, tiny_transformer_graph):
        with_switch = self.repriced(tiny_transformer_graph, small_chip)
        without = self.repriced(tiny_transformer_graph, small_chip, include_switch_cost=False)
        for charged, free in zip(with_switch, without):
            assert free.inter_breakdown["mode_switch"] == 0.0
            assert charged.inter_cycles >= free.inter_cycles

    def test_aggregate_resources_counts(self, small_chip):
        profiles = {"a": linear_profile(4, 128, 128), "b": linear_profile(4, 64, 64)}
        allocations = {"a": OperatorAllocation(3, 1), "b": OperatorAllocation(1, 2)}
        resources = aggregate_resources(
            profiles, allocations, live_output_elements=123, num_arrays_total=8
        )
        assert resources.compute_arrays == 4
        assert resources.memory_arrays == 3
        assert resources.idle_arrays == 1
        assert resources.live_output_elements == 123
        assert resources.total_arrays == 7
        assert resources.static_weight_elements == 128 * 128 + 64 * 64
