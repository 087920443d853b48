"""Tests for the motivation analyses (arithmetic intensity and mode sweeps)."""

import numpy as np
import pytest

from repro.analysis import (
    intensity_vs_sequence_length,
    layerwise_intensity,
    mode_allocation_heatmap,
    mode_ratio_sweep,
    model_arithmetic_intensity,
    model_intensity_comparison,
    stage_of,
    transformer_stage_intensity,
)
from repro.analysis.sweep import ModeRatioSweep
from repro.hardware import dynaplasia, small_test_chip
from repro.models import Phase, Workload, build_model


@pytest.fixture(scope="module")
def motivation_chip():
    return dynaplasia(num_arrays=100)


class TestArithmeticIntensity:
    def test_cnn_intensity_far_above_llm_decode(self):
        resnet = build_model("resnet50", Workload(batch_size=1))
        llama = build_model("llama2-7b", Workload(batch_size=1, seq_len=64, phase=Phase.DECODE))
        assert model_arithmetic_intensity(resnet) > 50
        assert model_arithmetic_intensity(llama) < 5

    def test_llama_decode_intensity_close_to_two(self):
        llama = build_model("llama2-7b", Workload(batch_size=1, seq_len=64, phase=Phase.DECODE))
        assert 1.0 < model_arithmetic_intensity(llama) < 4.0

    def test_layerwise_intensity_varies_within_resnet(self):
        rows = layerwise_intensity(build_model("resnet50", Workload(batch_size=1)))
        intensities = [row.intensity for row in rows if row.op_type == "conv2d"]
        assert max(intensities) > 5 * min(intensities)

    def test_layerwise_rows_cover_cim_operators(self, tiny_transformer_graph):
        rows = layerwise_intensity(tiny_transformer_graph)
        assert len(rows) == len(tiny_transformer_graph.cim_operators())

    def test_stage_classification(self):
        assert stage_of("layer0_q_proj") == "MHA (QKV)"
        assert stage_of("layer0_qk") == "MHA (QKV)"
        assert stage_of("layer0_o_proj") == "MHA (FC)"
        assert stage_of("layer3_ffn_fc1") == "FFN (FC)"
        assert stage_of("classifier") == "Other"

    def test_stage_intensity_keys(self, tiny_transformer_graph):
        stages = transformer_stage_intensity(tiny_transformer_graph)
        assert "MHA (QKV)" in stages and "FFN (FC)" in stages
        assert all(value >= 0 for value in stages.values())

    def test_bert_intensity_grows_with_sequence_length(self):
        results = intensity_vs_sequence_length("bert-large", (128, 1024), batch_size=1)
        assert results[1024]["model"] > results[128]["model"]

    def test_ffn_intensity_above_qkv_at_long_sequences(self):
        results = intensity_vs_sequence_length("bert-large", (2048,), batch_size=1)
        stages = results[2048]
        assert stages["FFN (FC)"] > stages["MHA (QKV)"]

    def test_model_comparison_ordering(self):
        comparison = model_intensity_comparison(("resnet50", "vgg16", "llama2-7b"))
        assert comparison["resnet50"] > comparison["llama2-7b"]
        assert comparison["vgg16"] > comparison["llama2-7b"]

    def test_model_comparison_rejects_empty_list(self):
        with pytest.raises(ValueError, match="at least one model"):
            model_intensity_comparison(())


class TestModeRatioSweep:
    def test_resnet_prefers_compute_heavy_split(self, motivation_chip):
        graph = build_model("resnet50", Workload(batch_size=1))
        sweep = mode_ratio_sweep(graph, motivation_chip)
        assert sweep.best_ratio >= 0.5

    def test_llama_decode_prefers_memory_heavy_split(self, motivation_chip):
        graph = build_model("llama2-7b", Workload(batch_size=1, seq_len=64, phase=Phase.DECODE))
        sweep = mode_ratio_sweep(graph, motivation_chip)
        assert sweep.best_ratio <= 0.3

    def test_normalized_performance_peaks_at_one(self, motivation_chip, tiny_cnn_graph):
        sweep = mode_ratio_sweep(tiny_cnn_graph, motivation_chip)
        normalized = sweep.normalized_performance
        assert max(normalized) == pytest.approx(1.0)
        assert all(0.0 <= value <= 1.0 + 1e-9 for value in normalized)

    def test_custom_ratio_grid(self, motivation_chip, tiny_cnn_graph):
        sweep = mode_ratio_sweep(tiny_cnn_graph, motivation_chip, ratios=(0.2, 0.5, 0.8))
        assert sweep.ratios == [0.2, 0.5, 0.8]
        assert len(sweep.latencies) == 3

    def test_block_repeat_scales_latency_not_shape(self, motivation_chip):
        graph = build_model("bert", Workload(batch_size=1, seq_len=64, phase=Phase.ENCODE))
        sweep = mode_ratio_sweep(graph, motivation_chip)
        assert all(lat > 0 for lat in sweep.latencies)

    def test_best_ratio_tie_breaks_to_lowest_compute_ratio(self):
        # Equal-latency samples: the lowest compute ratio must win (same
        # performance with fewer compute-mode arrays), regardless of the
        # order the ratios were sampled in.
        sweep = ModeRatioSweep(model="t", ratios=[0.2, 0.5, 0.8], latencies=[7.0, 7.0, 9.0])
        assert sweep.best_ratio == 0.2
        shuffled = ModeRatioSweep(model="t", ratios=[0.8, 0.5, 0.2], latencies=[9.0, 7.0, 7.0])
        assert shuffled.best_ratio == 0.2

    def test_best_ratio_ignores_nonfinite_samples(self):
        sweep = ModeRatioSweep(
            model="t",
            ratios=[0.1, 0.4, 0.7],
            latencies=[float("inf"), float("nan"), 5.0],
        )
        assert sweep.best_ratio == 0.7

    def test_best_ratio_raises_when_nothing_feasible(self):
        sweep = ModeRatioSweep(
            model="t", ratios=[0.1, 0.9], latencies=[float("inf"), float("nan")]
        )
        with pytest.raises(ValueError, match="no feasible sample"):
            sweep.best_ratio
        with pytest.raises(ValueError, match="no feasible sample"):
            sweep.normalized_performance


class TestHeatmap:
    def test_heatmap_shape_and_range(self, motivation_chip, tiny_cnn_graph):
        compute_counts, memory_counts, heatmap = mode_allocation_heatmap(
            tiny_cnn_graph, motivation_chip, grid_points=6
        )
        assert heatmap.shape == (len(compute_counts), len(memory_counts))
        assert np.nanmax(heatmap) == pytest.approx(1.0)
        assert (heatmap >= 0).all() and (heatmap <= 1.0 + 1e-9).all()

    def test_infeasible_cells_are_zero(self, motivation_chip, tiny_cnn_graph):
        compute_counts, memory_counts, heatmap = mode_allocation_heatmap(
            tiny_cnn_graph, motivation_chip, grid_points=6
        )
        # The bottom-right corner exceeds the chip (compute + memory > N).
        assert heatmap[-1, -1] == 0.0

    def test_array_count_exploration_propagates_genuine_bugs(self, tiny_mlp_graph):
        # A broken compile must raise, never masquerade as an infeasible
        # design point.  Bad options are rejected at construction time
        # now, so smuggle the bad value in by mutation — the exploration
        # still surfaces it (the DSE runner re-validates when it clones
        # the options per job) instead of reporting an infeasible chip.
        from repro.api import Session
        from repro.core import CompilerOptions
        from repro.dse import DesignSpace

        bad = CompilerOptions(generate_code=False)
        bad.max_segment_operators = "boom"
        space = DesignSpace(
            models=[tiny_mlp_graph],
            base_hardware=small_test_chip(),
            hardware_axes={"num_arrays": [4]},
            base_options=bad,
        )
        with pytest.raises(ValueError, match="max_segment_operators"):
            Session(small_test_chip()).explore(space, objective="latency")

    def test_compiler_options_validated_at_construction(self):
        # The historical failure mode for a bad DP window was a TypeError
        # deep inside the dynamic program; it is a named error now.
        from repro.core import CompilerOptions

        with pytest.raises(ValueError, match="max_segment_operators"):
            CompilerOptions(max_segment_operators="boom")
        with pytest.raises(ValueError, match="max_segment_operators"):
            CompilerOptions(max_segment_operators=0)
        with pytest.raises(ValueError, match="max_segment_operators"):
            CompilerOptions(max_segment_operators=-3)

    def test_single_array_chip_degenerates_gracefully(self, tiny_mlp_graph):
        # A 1-array chip collapses the compute axis to [1] and the memory
        # axis to [0, 1]; the only legal cell (1 compute, 0 memory) must
        # carry the peak, and the (1, 1) cell (over the chip) must be 0.
        chip = small_test_chip(num_arrays=1)
        compute_counts, memory_counts, heatmap = mode_allocation_heatmap(
            tiny_mlp_graph, chip, grid_points=5
        )
        assert list(compute_counts) == [1]
        assert list(memory_counts) == [0, 1]
        assert heatmap.shape == (1, 2)
        assert heatmap[0, 0] == pytest.approx(1.0)
        assert heatmap[0, 1] == 0.0
