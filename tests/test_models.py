"""Tests for the model zoo and workload descriptions."""

import dataclasses

import pytest

from repro.models import Phase, Workload, build_model, is_transformer, list_models, register_model
from repro.models.transformer import LLAMA2_7B, OPT_13B, TransformerConfig
from repro.models.transformer.common import attention_sequence_lengths, build_transformer_graph


class TestWorkload:
    def test_defaults(self):
        wl = Workload()
        assert wl.batch_size == 1
        assert wl.seq_len == 64
        assert wl.phase is Phase.PREFILL

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"seq_len": 0},
            {"output_len": -1},
            {"image_size": 0},
            {"kv_len": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Workload(**kwargs)

    def test_effective_kv_len_default(self):
        wl = Workload(seq_len=100, output_len=60)
        assert wl.effective_kv_len == 130

    def test_effective_kv_len_override(self):
        wl = Workload(seq_len=100, output_len=60, kv_len=512)
        assert wl.effective_kv_len == 512

    def test_phase_helpers(self):
        wl = Workload()
        assert wl.decode().phase is Phase.DECODE
        assert wl.prefill().phase is Phase.PREFILL
        assert wl.encode().phase is Phase.ENCODE

    def test_replace_returns_a_validated_copy(self):
        wl = Workload()
        assert dataclasses.replace(wl, batch_size=8).batch_size == 8
        assert dataclasses.replace(wl, seq_len=256).seq_len == 256
        assert dataclasses.replace(wl, output_len=32).output_len == 32
        assert wl.batch_size == 1  # original untouched
        with pytest.raises(ValueError, match="batch_size"):
            dataclasses.replace(wl, batch_size=0)

    def test_describe_mentions_batch_and_phase(self):
        text = Workload(batch_size=4).describe()
        assert "batch=4" in text and "prefill" in text


class TestRegistry:
    def test_list_models_contains_benchmarks(self):
        models = list_models()
        for name in ("bert", "llama2-7b", "opt-13b", "mobilenet", "resnet18", "vgg16"):
            assert name in models

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("not-a-model")

    def test_register_model(self):
        register_model("custom-test-model", lambda wl: build_model("tiny-mlp", wl))
        assert "custom-test-model" in list_models()
        with pytest.raises(ValueError):
            register_model("custom-test-model", lambda wl: None)

    def test_is_transformer(self):
        assert is_transformer("bert")
        assert is_transformer("llama2-7b")
        assert not is_transformer("resnet18")

    @pytest.mark.parametrize("name", ["tiny-mlp", "tiny-cnn", "tiny-transformer"])
    def test_tiny_models_validate(self, name):
        graph = build_model(name, Workload(batch_size=2, seq_len=8))
        graph.validate()
        assert len(graph) > 0


class TestCNNModels:
    def test_resnet50_macs_and_params(self):
        graph = build_model("resnet50", Workload(batch_size=1))
        stats = graph.stats()
        assert 3.5e9 < stats.total_macs < 4.5e9  # ~4.1 GMACs
        assert 23e6 < stats.total_weight_elements < 28e6  # ~25.5 M parameters

    def test_resnet18_macs_and_params(self):
        stats = build_model("resnet18", Workload(batch_size=1)).stats()
        assert 1.5e9 < stats.total_macs < 2.1e9
        assert 10e6 < stats.total_weight_elements < 13e6

    def test_vgg16_macs_and_params(self):
        stats = build_model("vgg16", Workload(batch_size=1)).stats()
        assert 14e9 < stats.total_macs < 16.5e9
        assert 130e6 < stats.total_weight_elements < 145e6

    def test_mobilenet_macs_and_params(self):
        stats = build_model("mobilenet", Workload(batch_size=1)).stats()
        assert 0.25e9 < stats.total_macs < 0.4e9
        assert 3e6 < stats.total_weight_elements < 4e6

    def test_batch_scales_macs_linearly(self):
        one = build_model("resnet18", Workload(batch_size=1)).stats().total_macs
        four = build_model("resnet18", Workload(batch_size=4)).stats().total_macs
        assert four == 4 * one

    def test_image_size_affects_shapes(self):
        small = build_model("resnet18", Workload(batch_size=1, image_size=128)).stats()
        large = build_model("resnet18", Workload(batch_size=1, image_size=224)).stats()
        assert small.total_macs < large.total_macs

    def test_cnn_metadata(self):
        graph = build_model("vgg16", Workload(batch_size=2))
        assert graph.metadata["family"] == "cnn"
        assert graph.metadata["block_repeat"] == 1.0
        assert graph.metadata["batch_size"] == 2


class TestTransformerModels:
    def test_block_repeat_matches_layer_count(self):
        graph = build_model("llama2-7b", Workload(batch_size=1, seq_len=32))
        assert graph.metadata["block_repeat"] == 32
        graph = build_model("opt-13b", Workload(batch_size=1, seq_len=32))
        assert graph.metadata["block_repeat"] == 40

    def test_llama_block_parameters(self):
        graph = build_model("llama2-7b", Workload(batch_size=1, seq_len=32))
        per_block = graph.stats().total_weight_elements
        # 4 x 4096^2 attention + 3 x 4096 x 11008 gated FFN ~ 202 M
        assert 195e6 < per_block < 210e6
        # whole model ~ 6.5-7 B weights
        assert 6.2e9 < per_block * 32 < 7.2e9

    def test_opt13b_block_parameters(self):
        graph = build_model("opt-13b", Workload(batch_size=1, seq_len=32))
        total = graph.stats().total_weight_elements * graph.metadata["block_repeat"]
        assert 12e9 < total < 14e9

    def test_approx_parameters_property(self):
        assert 6.3e9 < LLAMA2_7B.approx_parameters < 7.2e9
        assert 12.5e9 < OPT_13B.approx_parameters < 14e9

    def test_decode_uses_single_query_token(self):
        wl = Workload(batch_size=1, seq_len=64, phase=Phase.DECODE)
        assert attention_sequence_lengths(LLAMA2_7B, wl) == (1, wl.effective_kv_len)

    def test_encode_uses_full_sequence(self):
        wl = Workload(batch_size=1, seq_len=64, phase=Phase.ENCODE)
        assert attention_sequence_lengths(LLAMA2_7B, wl) == (64, 64)

    def test_decode_graph_has_kv_cache_inputs(self):
        graph = build_model("llama2-7b", Workload(batch_size=1, seq_len=64, phase=Phase.DECODE))
        input_names = {spec.name for spec in graph.graph_inputs}
        assert any("k_cache" in name for name in input_names)
        assert any("v_cache" in name for name in input_names)

    def test_decode_macs_much_smaller_than_prefill(self):
        decode = build_model("llama2-7b", Workload(batch_size=1, seq_len=64, phase=Phase.DECODE))
        prefill = build_model("llama2-7b", Workload(batch_size=1, seq_len=64, phase=Phase.PREFILL))
        assert decode.stats().total_macs < prefill.stats().total_macs / 16

    def test_sequence_length_scales_attention_quadratically(self):
        short = build_model("bert", Workload(batch_size=1, seq_len=64, phase=Phase.ENCODE))
        long = build_model("bert", Workload(batch_size=1, seq_len=256, phase=Phase.ENCODE))
        short_qk = next(op for op in short.operators if op.name.endswith("_qk"))
        long_qk = next(op for op in long.operators if op.name.endswith("_qk"))
        assert long_qk.macs == 16 * short_qk.macs

    def test_gated_ffn_has_three_projections(self):
        graph = build_model("llama2-7b", Workload(batch_size=1, seq_len=16))
        ffn_ops = [op for op in graph.operators if "ffn" in op.name and op.op_type == "linear"]
        assert len(ffn_ops) == 3  # gate, up, down

    def test_non_gated_ffn_has_two_projections(self):
        graph = build_model("opt-6.7b", Workload(batch_size=1, seq_len=16))
        ffn_ops = [op for op in graph.operators if "ffn" in op.name and op.op_type == "linear"]
        assert len(ffn_ops) == 2

    def test_lm_head_optional(self):
        wl = Workload(batch_size=1, seq_len=16)
        config = TransformerConfig(
            name="t", hidden_size=64, num_layers=2, num_heads=4, ffn_hidden=128, vocab_size=500
        )
        without = build_transformer_graph(config, wl, include_lm_head=False)
        with_head = build_transformer_graph(config, wl, include_lm_head=True)
        assert len(with_head) > len(without)
        assert any(op.name == "lm_head" for op in with_head.operators)

    def test_invalid_head_division_rejected(self):
        with pytest.raises(ValueError):
            TransformerConfig(
                name="bad", hidden_size=100, num_layers=1, num_heads=3, ffn_hidden=64
            )

    def test_blocks_argument_limits_physical_layers(self):
        wl = Workload(batch_size=1, seq_len=16)
        config = TransformerConfig(
            name="t", hidden_size=64, num_layers=4, num_heads=4, ffn_hidden=128
        )
        graph = build_transformer_graph(config, wl, blocks=2)
        assert graph.metadata["physical_blocks"] == 2
        assert graph.metadata["block_repeat"] == 2.0

    def test_zero_blocks_rejected(self):
        wl = Workload(batch_size=1, seq_len=16)
        config = TransformerConfig(
            name="t", hidden_size=64, num_layers=4, num_heads=4, ffn_hidden=128
        )
        with pytest.raises(ValueError):
            build_transformer_graph(config, wl, blocks=0)
