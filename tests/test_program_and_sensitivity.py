"""Tests for the compiled-program containers and the sensitivity experiment."""

import pytest

from repro.core.program import CompiledProgram, SegmentPlan
from repro.cost import profile_operator
from repro.experiments.sensitivity import render_report, run_sensitivity
from repro.hardware import small_test_chip
from repro.ir import Linear, TensorSpec


def make_segment(index, compute, memory, intra, inter, boundary=0):
    op = Linear(
        f"fc{index}",
        input=TensorSpec(f"x{index}", (4, 64)),
        output=TensorSpec(f"y{index}", (4, 64)),
        weight=TensorSpec(f"w{index}", (64, 64)),
    )
    profile = profile_operator(op)
    return SegmentPlan(
        index=index,
        operator_names=[op.name],
        pairs=[(compute, memory)],
        profiles=[profile],
        intra_cycles=intra,
        inter_cycles=inter,
        inter_breakdown={"writeback": 0.0, "mode_switch": inter, "weight_reload": 0.0},
        boundary_memory_arrays=boundary,
    )


@pytest.fixture
def program():
    hw = small_test_chip()
    segments = [
        make_segment(0, compute=2, memory=2, intra=100.0, inter=0.0),
        make_segment(1, compute=4, memory=0, intra=300.0, inter=10.0, boundary=2),
    ]
    return CompiledProgram(
        graph_name="toy",
        compiler_name="cmswitch",
        hardware=hw,
        segments=segments,
        block_repeat=3.0,
    )


class TestSegmentPlan:
    def test_array_counts_include_boundary_buffers(self):
        segment = make_segment(0, compute=3, memory=1, intra=10, inter=0, boundary=2)
        assert segment.compute_arrays == 3
        assert segment.memory_arrays == 3  # 1 operator buffer + 2 boundary
        assert segment.memory_array_ratio == pytest.approx(0.5)

    def test_total_cycles(self):
        segment = make_segment(0, 1, 0, intra=50.0, inter=25.0)
        assert segment.total_cycles == 75.0

    def test_describe_mentions_operators(self):
        assert "fc0" in make_segment(0, 1, 0, 1, 0).describe()


class TestCompiledProgram:
    def test_latency_aggregation(self, program):
        assert program.graph_cycles == pytest.approx(410.0)
        assert program.end_to_end_cycles == pytest.approx(3 * 410.0)
        assert program.intra_cycles == pytest.approx(400.0)
        assert program.inter_cycles == pytest.approx(10.0)

    def test_switch_share(self, program):
        assert program.switch_cycles == pytest.approx(10.0)
        assert program.switch_overhead_fraction == pytest.approx(10.0 / 410.0)

    def test_memory_ratio_is_time_weighted(self, program):
        # Segment 0 (ratio 0.5) runs 100 cycles, segment 1 (ratio 2/6) runs 300.
        expected = (0.5 * 100 + (2 / 6) * 300) / 400
        assert program.mean_memory_array_ratio == pytest.approx(expected)

    def test_memory_ratio_empty_program(self):
        empty = CompiledProgram(
            graph_name="empty",
            compiler_name="cmswitch",
            hardware=small_test_chip(),
            segments=[],
        )
        assert empty.mean_memory_array_ratio == 0.0
        assert empty.graph_cycles == 0.0

    def test_end_to_end_ms_conversion(self, program):
        assert program.end_to_end_ms == pytest.approx(
            program.hardware.cycles_to_ms(program.end_to_end_cycles)
        )

    def test_summary_text(self, program):
        text = program.summary()
        assert "toy" in text and "segments" in text


class TestSensitivityExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        chip = small_test_chip()
        return run_sensitivity(
            model="tiny-transformer",
            batch_size=1,
            seq_len=16,
            hardware=chip,
            sweeps={"num_arrays": (8, 16), "switch_latency": (1, 256)},
        )

    def test_row_per_sweep_point(self, rows):
        assert len(rows) == 4
        assert {row["parameter"] for row in rows} == {"num_arrays", "switch_latency"}

    def test_dual_mode_never_loses(self, rows):
        assert all(row["speedup_vs_cim-mlc"] >= 0.99 for row in rows)

    def test_bigger_chip_never_slower(self, rows):
        by_arrays = {
            row["value"]: row["cmswitch_cycles"]
            for row in rows
            if row["parameter"] == "num_arrays"
        }
        assert by_arrays[16] <= by_arrays[8] * 1.001

    def test_render_report(self, rows):
        text = render_report(rows)
        assert "parameter" in text and "speedup_vs_cim-mlc" in text
