"""Tests for the experiment harness (reduced versions of every paper figure).

Each experiment runs on a heavily reduced grid so the suite stays fast but
still exercises the exact code paths the benchmarks use, and asserts the
qualitative properties the paper reports (who wins, in which direction the
trends point).
"""

import math

import pytest

from repro.experiments import (
    allocation_report,
    encode_workload,
    generative_cycles,
    geometric_mean,
    make_compiler,
    measure_compile_time,
    memory_ratio_trend,
    prime_scalability,
    run_end_to_end,
    run_generative,
    run_model,
    run_workload_scale,
    speedup,
    summarize,
    switch_overhead,
)
from repro.experiments.common import format_table
from repro.hardware import dynaplasia, small_test_chip
from repro.models import Phase, Workload, build_model


@pytest.fixture(scope="module")
def chip():
    return dynaplasia()


class TestCommonHelpers:
    def test_speedup_and_geomean(self):
        assert speedup(200.0, 100.0) == 2.0
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_encode_workload_phases(self):
        assert encode_workload("bert", 1, 64).phase is Phase.ENCODE
        assert encode_workload("resnet18", 1, 64).phase is Phase.PREFILL

    def test_make_compiler_names(self, chip):
        for name in ("cmswitch", "cim-mlc", "puma", "occ"):
            assert make_compiler(name, chip) is not None
        with pytest.raises(KeyError):
            make_compiler("xla", chip)

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}], ["a", "b"])
        assert "a" in text and "2.500" in text

    def test_run_model_fields(self, chip):
        result = run_model("tiny-transformer", Workload(batch_size=1, seq_len=16), chip, "cmswitch")
        assert result.cycles > 0
        assert 0.0 <= result.memory_array_ratio <= 1.0
        assert result.num_segments >= 1

    def test_generative_cycles_composition(self, chip):
        workload = Workload(batch_size=1, seq_len=32, output_len=8)
        result = generative_cycles("tiny-transformer", workload, chip, "cmswitch")
        assert result["cycles"] == pytest.approx(
            result["prefill_cycles"] + 8 * result["decode_cycles_per_token"]
        )


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def rows(self, chip):
        return run_end_to_end(
            hardware=chip,
            models=("resnet18", "llama2-7b"),
            batch_sizes=(1,),
            seq_len=64,
        )

    def test_row_per_model(self, rows):
        assert len(rows) == 2
        assert {row["model"] for row in rows} == {"resnet18", "llama2-7b"}

    def test_cmswitch_not_slower_than_cim_mlc(self, rows):
        for row in rows:
            assert row["speedup_vs_cim-mlc"] >= 0.99

    def test_cmswitch_beats_weaker_baselines(self, rows):
        for row in rows:
            assert row["speedup_vs_occ"] >= 1.0

    def test_llm_gains_exceed_cnn_gains(self, rows):
        by_model = {row["model"]: row for row in rows}
        assert by_model["llama2-7b"]["speedup_vs_cim-mlc"] >= by_model["resnet18"]["speedup_vs_cim-mlc"] - 0.05

    def test_summary_contains_geomeans(self, rows):
        summary = summarize(rows)
        assert "speedup_vs_cim-mlc" in summary
        assert summary["speedup_vs_cim-mlc"] >= 1.0


class TestWorkloadScale:
    @pytest.fixture(scope="class")
    def rows(self, chip):
        return run_workload_scale(
            hardware=chip,
            models=("bert",),
            batch_sizes=(4,),
            sequence_lengths=(256, 2048),
        )

    def test_grid_size(self, rows):
        assert len(rows) == 2

    def test_speedup_converges_at_long_sequence_length(self, rows):
        # The paper reports BERT reaching parity with CIM-MLC beyond ~512;
        # the advantage at the longest length must not exceed the mid-range.
        mid = next(row for row in rows if row["seq_len"] == 256)
        long = next(row for row in rows if row["seq_len"] == 2048)
        assert long["speedup_vs_cim-mlc"] <= mid["speedup_vs_cim-mlc"] + 0.02
        assert long["speedup_vs_cim-mlc"] <= 1.1

    def test_memory_ratio_trend_helper(self, rows):
        trend = memory_ratio_trend(rows, "bert", 4)
        assert len(trend) == 2
        assert all(0.0 <= value <= 1.0 for value in trend)


class TestGenerative:
    def test_rows_and_speedups(self, chip):
        rows = run_generative(
            hardware=chip, models=("llama2-7b",), lengths=(32,), fixed_length=32, batch_size=1
        )
        assert len(rows) == 2  # vary_output and vary_input
        for row in rows:
            assert row["speedup_vs_cim-mlc"] > 0.9


class TestAllocationReport:
    def test_vgg_report_structure(self, chip):
        rows = allocation_report("vgg16", hardware=chip)
        assert rows
        for row in rows:
            assert row["compute_arrays"] + row["memory_arrays"] <= chip.num_arrays
            assert 0.0 <= row["memory_share"] <= 1.0

    def test_transformer_report_uses_memory_mode(self, chip):
        rows = allocation_report("opt-6.7b", hardware=chip)
        assert any(row["memory_arrays"] > 0 for row in rows)


class TestCompileTimeAndOverheads:
    def test_compile_time_rows(self, chip):
        rows = measure_compile_time(hardware=chip, models=("tiny-transformer",), repeats=1)
        row = rows[0]
        assert row["cmswitch_seconds"] > 0
        assert row["cim-mlc_seconds"] > 0
        # The ratio compares two single ~3 ms wall-clock timings: its
        # value (ours ~1x, paper 2.8-6.3x) does not repeat run to run and
        # belongs to the paper-claims ledger (ROADMAP item 1), not here.
        assert math.isfinite(row["overhead_ratio"]) and row["overhead_ratio"] > 0
        # The pass pipeline attributes where CMSwitch's extra time goes.
        assert "fallback_seconds" not in row  # one DP: no second pass to time
        assert 0 < row["segment_seconds"] <= row["cmswitch_seconds"]
        # What does repeat is the work behind the ratio: the dual-mode
        # search space contains the fixed-mode one.
        graph = build_model("tiny-transformer", encode_workload("tiny-transformer", 1, 64))
        solves = {
            name: make_compiler(name, chip).compile(graph).stats["allocator_solves"]
            for name in ("cmswitch", "cim-mlc")
        }
        assert solves["cmswitch"] >= solves["cim-mlc"] > 0

    def test_switch_overhead_small_share(self, chip):
        rows = switch_overhead(hardware=chip, models=("tiny-transformer",))
        row = rows[0]
        assert 0.0 <= row["switch_share"] <= 0.10
        assert 0.0 <= row["switch_process_share"] <= 1.0

    def test_prime_scalability_not_slower(self):
        rows = prime_scalability(models=("tiny-transformer",))
        assert rows[0]["speedup_vs_cim-mlc"] >= 0.99


class TestServingSLOCurve:
    def test_slo_curve_shape_and_monotone_load(self):
        from repro.experiments.serving import render_report, run_slo_curve

        rows = run_slo_curve(
            presets=("small-test-chip",),
            models=("tiny-mlp", "tiny-cnn"),
            num_requests=10,
            seed=3,
            load_factors=(0.5, 1.0),
        )
        assert len(rows) == 2
        light, heavy = rows
        assert light["preset"] == heavy["preset"] == "small-test-chip"
        # More offered load cannot reduce tail latency (same request
        # sequence, gaps only tightened) and keeps the chip busier.
        assert heavy["p99_ms"] >= light["p99_ms"] - 1e-9
        assert heavy["utilisation"] >= light["utilisation"] - 1e-9
        for row in rows:
            assert 0.0 <= row["utilisation"] <= 1.0
            assert row["p50_ms"] <= row["p99_ms"]
            assert row["served"] == row["requests"] == 10
        report = render_report(rows)
        assert "p99_ms" in report and "small-test-chip" in report
