"""Tests for the CMSwitch compiler facade and the baseline compilers."""

import pytest

from repro.api import Session
from repro.baselines import CIMMLCCompiler, OCCCompiler, PUMACompiler, get_compiler
from repro.core import CMSwitchCompiler, CompilerOptions
from repro.models import Phase, Workload, build_model


class TestCMSwitchCompiler:
    def test_compile_returns_program(self, small_chip, tiny_cnn_graph):
        program = CMSwitchCompiler(small_chip).compile(tiny_cnn_graph)
        assert program.compiler_name == "cmswitch"
        assert program.num_segments >= 1
        assert program.graph_cycles > 0
        assert program.end_to_end_cycles == pytest.approx(
            program.graph_cycles * program.block_repeat
        )

    def test_compile_model_helper(self, small_chip, tiny_mlp_graph):
        program = Session(hardware=small_chip).compile(tiny_mlp_graph)
        assert program.graph_name == "tiny-mlp"

    def test_block_repeat_from_metadata(self, small_chip):
        graph = build_model("tiny-transformer", Workload(batch_size=1, seq_len=16))
        graph.metadata["block_repeat"] = 7.0
        program = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=False)).compile(graph)
        assert program.block_repeat == 7.0
        assert program.end_to_end_cycles == pytest.approx(7.0 * program.graph_cycles)

    def test_summary_mentions_key_quantities(self, compiled_tiny_cnn):
        text = compiled_tiny_cnn.summary()
        assert "segments" in text and "cycles" in text and "memory-array ratio" in text

    def test_allocation_table_rows(self, compiled_tiny_transformer):
        rows = compiled_tiny_transformer.allocation_table()
        names = {row["operator"] for row in rows}
        listed = {
            name
            for segment in compiled_tiny_transformer.segments
            for name in segment.operator_names
        }
        assert names == listed

    def test_memory_ratio_between_zero_and_one(self, compiled_tiny_transformer):
        assert 0.0 <= compiled_tiny_transformer.mean_memory_array_ratio <= 1.0

    def test_switch_overhead_fraction_small(self, compiled_tiny_transformer):
        assert 0.0 <= compiled_tiny_transformer.switch_overhead_fraction < 0.5

    def test_disallowing_memory_mode_removes_memory_arrays(self, small_chip, tiny_transformer_graph):
        options = CompilerOptions(allow_memory_mode=False, generate_code=False)
        program = CMSwitchCompiler(small_chip, options).compile(tiny_transformer_graph)
        assert all(segment.memory_arrays == 0 for segment in program.segments)

    def test_metadata_records_options_and_units(self, compiled_tiny_cnn):
        metadata = compiled_tiny_cnn.metadata
        assert metadata["options"]["use_milp"] is True
        assert metadata["num_flattened_units"] >= 1
        assert "fixed_mode_fallback_used" not in metadata  # went with the second DP

    def test_compile_seconds_positive(self, compiled_tiny_cnn):
        assert compiled_tiny_cnn.compile_seconds > 0.0

    def test_greedy_option_still_compiles(self, small_chip, tiny_cnn_graph):
        options = CompilerOptions(use_milp=False, generate_code=False)
        program = CMSwitchCompiler(small_chip, options).compile(tiny_cnn_graph)
        assert program.graph_cycles > 0


class TestBaselineCompilers:
    @pytest.mark.parametrize("compiler_cls", [PUMACompiler, OCCCompiler])
    def test_all_compute_invariant(self, compiler_cls, small_chip, tiny_transformer_graph):
        program = compiler_cls(small_chip).compile(tiny_transformer_graph)
        assert all(segment.memory_arrays == 0 for segment in program.segments)

    def test_cim_mlc_all_compute_invariant(self, small_chip, tiny_transformer_graph):
        program = CIMMLCCompiler(small_chip).compile(tiny_transformer_graph)
        assert all(segment.memory_arrays == 0 for segment in program.segments)
        assert program.compiler_name == "cim-mlc"

    def test_occ_is_one_operator_per_segment(self, small_chip, tiny_cnn_graph):
        program = OCCCompiler(small_chip).compile(tiny_cnn_graph)
        assert all(len(segment.operator_names) == 1 for segment in program.segments)

    def test_puma_packs_multiple_operators(self, small_chip, tiny_cnn_graph):
        program = PUMACompiler(small_chip).compile(tiny_cnn_graph)
        assert any(len(segment.operator_names) > 1 for segment in program.segments)

    def test_baselines_respect_chip_budget(self, small_chip, tiny_transformer_graph):
        for compiler in (PUMACompiler(small_chip), OCCCompiler(small_chip), CIMMLCCompiler(small_chip)):
            program = compiler.compile(tiny_transformer_graph)
            for segment in program.segments:
                assert segment.compute_arrays <= small_chip.num_arrays

    @pytest.mark.parametrize("compiler_cls", [PUMACompiler, OCCCompiler])
    @pytest.mark.parametrize("generate_code", [False, True])
    def test_pipeline_config_parity_with_prerefactor_loop(
        self, compiler_cls, generate_code, small_chip, tiny_transformer_graph
    ):
        # Each baseline is now a pipeline configuration; its programs
        # must be bit-identical to the frozen pre-refactor fused loop.
        from repro.core._reference import reference_baseline_compile

        new = compiler_cls(small_chip, generate_code=generate_code).compile(
            tiny_transformer_graph
        )
        old = reference_baseline_compile(
            compiler_cls(small_chip, generate_code=generate_code),
            tiny_transformer_graph,
        )
        assert new.fingerprint() == old.fingerprint()
        assert new.end_to_end_cycles == old.end_to_end_cycles
        # The pipeline adds per-pass timings the fused loop never had.
        assert set(new.stats["pass_seconds"]) >= {"flatten", "segment", "allocate"}

    def test_cim_mlc_parity_with_prerefactor_wrapper(
        self, small_chip, tiny_transformer_graph
    ):
        # CIM-MLC was (and remains) the CMSwitch path with memory mode
        # off; the reference is the frozen fused compile re-labelled the
        # way the old wrapper re-labelled it.
        from repro.core._reference import reference_compile

        compiler = CIMMLCCompiler(small_chip)
        new = compiler.compile(tiny_transformer_graph)
        old = reference_compile(tiny_transformer_graph, small_chip, compiler.options)
        old.compiler_name = compiler.name
        assert new.fingerprint() == old.fingerprint()

    def test_baseline_uses_shared_flatten_passes(self, small_chip):
        pipeline = PUMACompiler(small_chip).build_pipeline()
        assert pipeline.names == [
            "flatten",
            "partition",
            "segment",
            "allocate",
            "codegen",
        ]
        from repro.pipeline import Flatten, PartitionOversized

        assert isinstance(pipeline.get("flatten"), Flatten)
        assert isinstance(pipeline.get("partition"), PartitionOversized)

    def test_get_compiler_registry(self, small_chip):
        assert isinstance(get_compiler("cmswitch", small_chip), CMSwitchCompiler)
        assert isinstance(get_compiler("cim-mlc", small_chip), CIMMLCCompiler)
        assert isinstance(get_compiler("puma", small_chip), PUMACompiler)
        assert isinstance(get_compiler("occ", small_chip), OCCCompiler)
        with pytest.raises(KeyError):
            get_compiler("tvm", small_chip)


class TestCompilerOrdering:
    """Cross-compiler invariants the paper's comparison relies on."""

    @pytest.fixture(scope="class")
    def programs(self, small_chip, tiny_transformer_graph):
        graph = tiny_transformer_graph
        return {
            "cmswitch": CMSwitchCompiler(
                small_chip, CompilerOptions(generate_code=False)
            ).compile(graph),
            "cim-mlc": CIMMLCCompiler(small_chip).compile(graph),
            "puma": PUMACompiler(small_chip).compile(graph),
            "occ": OCCCompiler(small_chip).compile(graph),
        }

    def test_cmswitch_not_slower_than_cim_mlc(self, programs):
        assert programs["cmswitch"].end_to_end_cycles <= programs["cim-mlc"].end_to_end_cycles * 1.001

    def test_cmswitch_not_slower_than_occ(self, programs):
        assert programs["cmswitch"].end_to_end_cycles <= programs["occ"].end_to_end_cycles * 1.001

    def test_occ_slowest_of_pipelining_baselines(self, programs):
        assert programs["occ"].end_to_end_cycles >= programs["cim-mlc"].end_to_end_cycles

    def test_all_programs_positive_latency(self, programs):
        for program in programs.values():
            assert program.end_to_end_cycles > 0
