"""Tests for the CMSwitch compiler facade and the baseline compilers."""

from dataclasses import replace

import pytest

from repro.api import Session
from repro.baselines import (
    BaselineCompiler,
    BoundaryPolicySegment,
    CIMMLCCompiler,
    OCCCompiler,
    PUMACompiler,
    get_compiler,
)
from repro.baselines.base import policy_passes
from repro.core import CMSwitchCompiler, CompilerOptions, flatten_graph
from repro.core.cache import AllocationCache
from repro.hardware import get_preset
from repro.models import Workload, build_model
from repro.obs import NULL_OBS


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

    def test_cim_mlc_parity_with_prerefactor_wrapper(
        self, small_chip, tiny_transformer_graph, assert_repriced
    ):
        # CIM-MLC was (and remains) the CMSwitch path with memory mode
        # off: the same compile re-labelled, and it re-prices as a
        # fixed-mode plan.
        compiler = CIMMLCCompiler(small_chip, CompilerOptions(generate_code=False))
        new = compiler.compile(tiny_transformer_graph)
        twin = CMSwitchCompiler(small_chip, compiler.options).compile(tiny_transformer_graph)
        twin.compiler_name = compiler.name
        assert new.fingerprint() == twin.fingerprint()
        assert_repriced(new, tiny_transformer_graph, compiler.options)

    def test_cim_mlc_pins_its_strategy_and_keeps_the_rest(self, small_chip):
        # A CMSwitch pipeline with pipelining on and memory mode off;
        # every other option -- code generation included -- is the caller's.
        asked = CompilerOptions(
            max_segment_operators=4, pipelined=False, use_milp=False, generate_code=False
        )
        compiler = CIMMLCCompiler(small_chip, asked)
        assert isinstance(compiler, CMSwitchCompiler)
        assert compiler.options == CompilerOptions(
            max_segment_operators=4, use_milp=False, allow_memory_mode=False,
            generate_code=False,
        )

    def test_baseline_uses_shared_flatten_passes(self):
        # CMSwitch's pass tuple; only the segment pass's boundary choice differs.
        standard = CMSwitchCompiler.passes
        assert [p.name for p in standard] == [
            "flatten", "partition", "segment", "allocate", "refine", "codegen",
        ]
        assert CIMMLCCompiler.passes is standard
        for compiler_cls in (PUMACompiler, OCCCompiler):
            passes = compiler_cls.passes
            assert [p.name for p in passes] == [p.name for p in standard]
            for mine, theirs in zip(passes, standard):
                if mine.name != "segment":
                    assert mine is theirs, mine.name
            assert type(passes[2]) is BoundaryPolicySegment
        assert PUMACompiler.passes[2].policy is not OCCCompiler.passes[2].policy

    @pytest.mark.parametrize("compiler_cls", [PUMACompiler, OCCCompiler])
    def test_baseline_pins_the_greedy_fixed_mode_engine(self, compiler_cls, small_chip):
        asked = CompilerOptions(max_segment_operators=4, use_milp=True, generate_code=False)
        compiler = compiler_cls(small_chip, asked)
        assert isinstance(compiler, CMSwitchCompiler)
        assert compiler.options == CompilerOptions(
            pipelined=compiler_cls.pipelined,
            use_milp=False,
            allow_memory_mode=False,
            generate_code=False,
        )
        for removed in ("allocate", "build_pipeline", "pipeline", "duplication"):
            assert not hasattr(compiler, removed), removed
        assert "compile" not in vars(BaselineCompiler)

    def test_an_overflowing_policy_window_is_a_caller_error(self, small_chip, tiny_mlp_graph):
        # Every unit fits alone, so a window that overflows is the policy's bug.
        class WholeGraph(BaselineCompiler):
            passes = policy_passes(lambda units, hardware: [(0, len(units) - 1)])

        one_array = replace(small_chip, num_arrays=1)
        units = flatten_graph(tiny_mlp_graph, one_array)
        assert len(units) > 1
        compiler = WholeGraph(one_array, CompilerOptions(generate_code=False))
        with pytest.raises(ValueError, match=r"window \[" + units[0].name):
            compiler.compile(tiny_mlp_graph)

    def test_get_compiler_registry(self, small_chip):
        assert isinstance(get_compiler("cmswitch", small_chip), CMSwitchCompiler)
        assert isinstance(get_compiler("cim-mlc", small_chip), CIMMLCCompiler)
        assert isinstance(get_compiler("puma", small_chip), PUMACompiler)
        assert isinstance(get_compiler("occ", small_chip), OCCCompiler)
        with pytest.raises(KeyError):
            get_compiler("tvm", small_chip)

    @pytest.mark.parametrize("name", ["cmswitch", "cim-mlc", "puma", "occ"])
    def test_every_compiler_is_built_one_way(self, name, small_chip, tiny_mlp_graph):
        # (hardware, options, cache=, obs=): the registry builds them all alike.
        compiler = get_compiler(
            name, small_chip, CompilerOptions(generate_code=True),
            cache=AllocationCache(), obs=NULL_OBS,
        )
        program = compiler.compile(tiny_mlp_graph)
        assert program.compiler_name == name
        assert program.meta_program is not None


class TestBaselineParity:
    """A PUMA/OCC program does not depend on the window table it was
    solved through; what every corpus baseline program is (its policy's
    boundaries, compute mode at the floors, the greedy stop rule, exact
    re-pricing, its flow) is checked in ``tests/test_corpus.py``."""

    @pytest.mark.parametrize("chip", ["dynaplasia", "prime", "small-test-chip"])
    def test_matches_a_cold_compile_over_a_shared_cache(self, chip, corpus):
        # Greedy CMSwitch compiles warm the cache first, so fixed-mode
        # windows are also served from memory-free dual-mode entries.
        hardware = get_preset(chip)
        cache = AllocationCache()
        greedy = CompilerOptions(use_milp=False, generate_code=False)
        plain = CompilerOptions(generate_code=False)
        for model in corpus.models(chip):
            graph = corpus.graph(model)
            CMSwitchCompiler(hardware, greedy, cache=cache).compile(graph)
            for compiler_cls in (PUMACompiler, OCCCompiler):
                program = compiler_cls(hardware, plain, cache=cache).compile(graph)
                cold = compiler_cls(hardware, plain).compile(graph)  # a table of its own
                assert program.fingerprint() == cold.fingerprint(), (model, compiler_cls.name)
        assert cache.stats.cross_mode_hits > 0

    def test_a_second_compiler_on_the_cache_solves_nothing(self, corpus, dynaplasia_chip):
        cache = AllocationCache()
        graph = corpus.graph("mobilenet")
        first = PUMACompiler(dynaplasia_chip, cache=cache).compile(graph)
        second = PUMACompiler(dynaplasia_chip, cache=cache).compile(graph)
        assert first.stats["allocator_solves"] > 0
        assert second.stats["allocator_solves"] == 0
        assert second.stats["allocation_cache_hits"] == second.num_segments
        assert second.fingerprint() == first.fingerprint()


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
