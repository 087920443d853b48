"""Tests for the cost models: profiles, Eq. 10 latency, Eq. 1/2/4 overheads.

The equations are tested by what they mean: each ``TestEq*`` case works
its value out by hand from ``small-test-chip``'s numbers (``op_cim`` 256
MACs/cycle per array, ``d_main`` 12 and ``d_cim`` 8 elements/cycle,
``d_extern`` 8, a 2048-element buffer, 4096-element arrays, a 32-cycle
array write, 16 fill cycles per pipeline stage).
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import reprice_segments

import repro.cost
from repro.cost import (
    OperatorAllocation,
    OperatorProfile,
    SegmentResources,
    mean_arithmetic_intensity,
    mode_switch_cycles,
    operator_latency_bounds,
    profile_graph,
    profile_operator,
    switch_counts,
    writeback_cycles,
)
from repro.cost.arithmetic import ProfileVectors
from repro.cost.latency import (
    combine_operator_latencies,
    compute_rate_batch,
    data_supply_times_batch,
    operator_latency_cycles,
)
from repro.cost.switching import (
    INITIAL_RESOURCES,
    arrays_beyond_buffer,
    offchip_round_trip_cycles,
    spill_cycles,
    window_totals,
)
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
        expected = -(-profile.streamed_elements // small_chip.array_capacity_elements)
        assert profile.memory_arrays_for_working_set(small_chip) == expected

    def test_effective_ai_excludes_static_weights(self):
        """``AI_Oi`` of Eq. 10 is MACs per streamed element: static
        weights do not count, so it exceeds the FLOPs per element moved
        with the weights counted."""
        profile = linear_profile(1, 1024, 1024)
        assert profile.macs / profile.streamed_elements > profile.model_arithmetic_intensity

    def test_dynamic_matmul_counts_both_operands(self):
        profile = matmul_profile()
        assert not profile.has_static_weight
        assert profile.streamed_input_elements == 4 * 16 * 64 + 4 * 64 * 64

    def test_extra_streamed_lowers_effective_ai(self):
        base = linear_profile()
        loaded = linear_profile(extra=100_000)
        assert loaded.macs == base.macs
        assert loaded.streamed_elements == base.streamed_elements + 100_000

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
        required = np.array([profile.min_compute_arrays(small_chip)])
        full, half = compute_rate_batch(required, np.array([16, 8]), small_chip)
        assert half < full / 1.5

    def test_supply_times_split_on_and_off_chip(self, small_chip):
        profile = matmul_profile(16, 64, 64, 64)
        (off_none, off_many), (on_none, on_many) = data_supply_times_batch(
            np.array(profile.streamed_elements),
            np.array(profile.streamed_input_elements + profile.extra_streamed_elements),
            np.array([0, small_chip.num_arrays]),
            small_chip,
        )
        assert off_none > off_many
        assert on_none >= 0 and on_many >= 0

    def test_all_compute_bound_is_the_whole_chip_in_compute(self, small_chip):
        profile = linear_profile()
        (bound,) = operator_latency_bounds([profile], small_chip, allow_memory_mode=False)
        assert bound == operator_latency_cycles(
            profile, OperatorAllocation(small_chip.num_arrays, 0), small_chip
        )

    @pytest.mark.parametrize(
        "profile",
        [matmul_profile(8, 64, 64, 64), linear_profile(4, 256, 256), linear_profile(4, 1280, 1280)],
        ids=["dynamic", "under-provisioned", "over-the-chip"],
    )
    def test_best_split_bound_is_the_best_whole_chip_split(self, small_chip, profile):
        bounds = operator_latency_bounds([profile, profile], small_chip)
        chip = small_chip.num_arrays
        splits = [
            operator_latency_cycles(profile, OperatorAllocation(c, chip - c), small_chip)
            for c in range(min(profile.compute_floor(small_chip), chip), chip + 1)
        ]
        assert bounds.tolist() == [min(splits)] * 2 and min(splits) < float("inf")
        (all_compute,) = operator_latency_bounds([profile], small_chip, allow_memory_mode=False)
        assert bounds[0] <= all_compute


def eq_profile(macs, stationary, streamed_input, output, static=True):
    """An operator given by the numbers Eq. 10 and Eq. 2 read."""
    return OperatorProfile(
        op_type="linear", macs=macs, flops=2 * macs, input_elements=streamed_input,
        output_elements=output, weight_elements=stationary if static else 0,
        stationary_elements=stationary, streamed_input_elements=streamed_input,
        extra_streamed_elements=0, has_static_weight=static, matmul_m=1, matmul_k=1,
        matmul_n=1,
    )


class TestEq10OperatorLatency:
    """Eq. 10: ``L = max(OP / C, T_offchip, T_onchip)`` with ``C = Com *
    OP_cim`` (scaled by ``Com / required`` below the stationary
    footprint), ``T_onchip = on-chip elements / (D_main + Mem * D_cim)``
    and ``T_offchip = the input beyond buffer + Mem arrays / d_extern``."""

    @staticmethod
    def latency(profile, compute, memory, hardware):
        return operator_latency_cycles(profile, OperatorAllocation(compute, memory), hardware)

    def test_compute_bound(self, small_chip):
        # 2**20 MACs on 2 arrays of 256 MACs/cycle: 2048 cycles; 1200
        # elements on chip at 12/cycle: 100.
        profile = eq_profile(2**20, 4096, 1000, 200)
        assert self.latency(profile, 2, 0, small_chip) == 2048.0

    def test_on_chip_bound(self, small_chip):
        # 4000 elements at D_main + 1 * D_cim = 20 per cycle: 200 cycles;
        # 25600 MACs on 1 array: 100.
        profile = eq_profile(25600, 4096, 2000, 2000)
        assert self.latency(profile, 1, 1, small_chip) == 200.0

    def test_off_chip_bound(self, small_chip):
        # 10240 input elements: 8192 beyond the 2048-element buffer cross
        # at 8 per cycle (1024 cycles); one memory array keeps 4096 more
        # on chip (4096 / 8 = 512 against 6144 / 20 = 307.2 on chip).
        profile = eq_profile(25600, 4096, 10240, 0)
        assert self.latency(profile, 1, 0, small_chip) == 1024.0
        assert self.latency(profile, 1, 1, small_chip) == 512.0

    def test_an_operator_without_macs_is_its_supply(self, small_chip):
        # Nothing to compute, so no compute array is needed: 1200 / 12.
        profile = eq_profile(0, 0, 1200, 0)
        assert self.latency(profile, 0, 0, small_chip) == 100.0

    def test_zero_compute_arrays_is_infeasible(self, small_chip):
        profile = eq_profile(25600, 4096, 1000, 200)
        assert self.latency(profile, 0, 4, small_chip) == float("inf")

    def test_under_provisioned_operator_slows_down(self, small_chip):
        # The stationary operand needs 4 arrays; 2 of them reload tiles,
        # so C = 2 * 256 * (2 / 4) = 256 and 2**20 MACs take 4096 cycles.
        profile = eq_profile(2**20, 4 * 4096, 1000, 200)
        assert self.latency(profile, 2, 0, small_chip) == 4096.0
        assert self.latency(profile, 4, 0, small_chip) == 1024.0


class TestEq2WeightReload:
    """Eq. 2: ``T_rw`` is the maximum, over operators with static weights,
    of ``min(Com, required) or required`` arrays times the array write
    latency (32 cycles)."""

    def test_maximum_over_static_weight_operators(self, small_chip):
        profiles = [
            eq_profile(1, 2 * 4096, 1, 1),  # 3 arrays, 2 written: 64 cycles
            eq_profile(1, 4096, 1, 1),  # no compute array: its 1 required, 32
            eq_profile(1, 4 * 4096, 1, 1, static=False),  # dynamic: no reload
        ]
        totals = window_totals(
            ProfileVectors(profiles, small_chip), 0, 3, [(3, 1), (0, 0), (4, 0)], small_chip
        )
        assert totals == (7, 1, 64.0)

    def test_an_operator_without_compute_arrays_writes_what_it_requires(self, small_chip):
        profiles = [eq_profile(1, 3 * 4096, 1, 1)]
        vectors = ProfileVectors(profiles, small_chip)
        assert window_totals(vectors, 0, 1, [(0, 2)], small_chip) == (0, 2, 96.0)


class TestEq9SegmentLatency:
    """Eq. 9: a pipelined segment takes its slowest operator plus one
    16-cycle fill per stage; a serial one the sum of its operators."""

    def test_pipelined_is_the_maximum_plus_the_fill(self, small_chip):
        latencies = [100.0, 300.0, 200.0]
        assert combine_operator_latencies(latencies, small_chip) == 300.0 + 3 * 16

    def test_serial_is_the_sum(self, small_chip):
        latencies = [100.0, 300.0, 200.0]
        assert combine_operator_latencies(latencies, small_chip, pipelined=False) == 600.0

    def test_empty_segment_has_zero_latency(self, small_chip):
        assert combine_operator_latencies([], small_chip) == 0.0


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The scalar and mapping twins of the column forms, gone from the program.
DELETED_TWINS = (
    "compute_rate",
    "data_supply_times",
    "segment_latency_cycles",
    "best_split_latency",
    "minimum_latency_all_compute",
    "aggregate_resources",
    "weight_reload_cycles",
    "live_elements_at_boundary",
)


def chip_reads(path):
    """``{hardware attribute: names of the functions of path that read it}``."""
    readers = {}
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(function.name)
    return readers


class TestOneDefinitionPerEquation:
    """Each cost equation has one definition under ``cost/``: the column
    form.  A function that reads a chip constant of an equation is a
    definition of it, so each constant has its one reader (two for
    ``op_cim``: Eq. 10's compute rate and the whole-chip roofline)."""

    def test_each_equations_constants_have_one_reader(self):
        readers = {}
        for path in sorted((SRC / "cost").glob("*.py")):
            for attribute, functions in chip_reads(path).items():
                readers.setdefault(attribute, set()).update(functions)
        assert readers["d_cim"] == readers["d_main"] == {"data_supply_times_batch"}
        assert readers["array_write_latency_cycles"] == {"window_totals"}
        assert readers["op_cim"] == {"compute_rate_batch", "compute_roofline_cycles"}

    def test_core_reads_no_equation_constant(self):
        """The compiler proper prices through ``cost/``: no function under
        ``core/`` restates a rule by reading a chip constant of one."""
        constants = {
            "d_extern", "d_main", "d_cim", "op_cim", "buffer_elements",
            "array_write_latency_cycles",
        }
        readers = {
            f"{path.relative_to(SRC)}: {function}"
            for path in sorted((SRC / "core").glob("*.py"))
            for attribute, functions in chip_reads(path).items()
            if attribute in constants
            for function in functions
        }
        assert not readers

    def test_the_twins_are_gone(self):
        assert not set(DELETED_TWINS) & set(repro.cost.__all__)
        defined = {
            f"{path.relative_to(SRC)}: {node.name}"
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and node.name in DELETED_TWINS
        }
        assert not defined

    def test_only_the_floor_column_spells_the_compute_floor(self):
        """One compute floor: only ``cost/arithmetic.py`` writes
        ``max(1, …min_compute_arrays(``."""
        assert sorted(
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if re.search(r"max\(1, [\w.]*min_compute_arrays\(", path.read_text(encoding="utf-8"))
        ) == ["cost/arithmetic.py"]


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

    def test_retention_rule_is_the_spill_rule(self, small_chip):
        """The arrays ``arrays_beyond_buffer`` counts are what
        ``spill_cycles`` needs to charge nothing; without them what the
        buffer cannot hold spills, at ``offchip_round_trip_cycles``."""
        buffer, capacity = small_chip.buffer_elements, small_chip.array_capacity_elements
        live = np.array([0, buffer, buffer + 1, buffer + 3 * capacity], dtype=np.int64)
        arrays = arrays_beyond_buffer(live, small_chip)
        assert arrays.tolist() == [0, 0, 1, 3]
        for elements, memory in zip(live.tolist(), arrays.tolist()):
            assert spill_cycles(elements, 0, memory, 0, small_chip) == 0.0
        assert spill_cycles(buffer + 1, 0, 0, 0, small_chip) == offchip_round_trip_cycles(
            1, small_chip
        ) == 2.0 / small_chip.d_extern

    def test_weight_reload_skips_dynamic_operands(self, small_chip):
        vectors = ProfileVectors([matmul_profile()], small_chip)
        assert window_totals(vectors, 0, 1, [(2, 0)], small_chip) == (2, 0, 0.0)

    @staticmethod
    def repriced(graph, hardware, **options):
        """A compiled plan's segments and their re-pricing by the
        oracle's independent Eq. 4 assembly."""
        from repro.core import CMSwitchCompiler, CompilerOptions
        from repro.core.segmentation import flatten_graph

        program = CMSwitchCompiler(hardware, CompilerOptions(generate_code=False)).compile(graph)
        segments = [(plan.operator_names, plan.pairs) for plan in program.segments]
        units = flatten_graph(graph, hardware)
        return program.segments, reprice_segments(
            units, hardware, CompilerOptions(**options), segments
        )

    def test_inter_segment_cycles_composition(self, small_chip, tiny_transformer_graph):
        """Eq. 4: each segment's inter cycles are write-back + switch + reload."""
        plans, priced = self.repriced(tiny_transformer_graph, small_chip)
        assert len(priced) > 1
        previous = None
        for plan, terms in zip(plans, priced):
            *_, reload = window_totals(
                ProfileVectors(terms.profiles, small_chip),
                0, len(plan.pairs), plan.pairs, small_chip,
            )
            assert terms.inter_breakdown == {
                "writeback": writeback_cycles(previous, terms.resources, small_chip),
                "mode_switch": mode_switch_cycles(previous, terms.resources, small_chip),
                "weight_reload": reload,
            }
            assert terms.inter_cycles == sum(terms.inter_breakdown.values())
            previous = terms.resources

    def test_include_switch_cost_flag(self, small_chip, tiny_transformer_graph):
        _, with_switch = self.repriced(tiny_transformer_graph, small_chip)
        _, without = self.repriced(tiny_transformer_graph, small_chip, include_switch_cost=False)
        for charged, free in zip(with_switch, without):
            assert free.inter_breakdown["mode_switch"] == 0.0
            assert charged.inter_cycles >= free.inter_cycles

    def test_window_totals_count_a_segments_arrays(self, small_chip):
        vectors = ProfileVectors(
            [linear_profile(4, 128, 128), linear_profile(4, 64, 64)], small_chip
        )
        compute, memory, _ = window_totals(vectors, 0, 2, [(3, 1), (1, 2)], small_chip)
        assert (compute, memory) == (4, 3)
        assert vectors.window_static_weight_elements(0, 1) == 128 * 128 + 64 * 64
