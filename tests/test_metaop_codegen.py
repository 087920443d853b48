"""Tests for the meta-operator IR (DMO) and code generation."""

import pytest

from repro.core import (
    CMSwitchCompiler,
    CompilerOptions,
    ComputeOp,
    MemoryReadOp,
    MemoryWriteOp,
    MetaProgram,
    ParallelBlock,
    SwitchOp,
    SwitchType,
    WeightLoadOp,
    generate_program,
)
from repro.core.codegen import CodeGenerationError
from repro.core.metaop import _format_addresses
from repro.core.program import SegmentPlan
from repro.cost import profile_operator
from repro.hardware import ArrayMode, CIMChip
from repro.ir import Linear, TensorSpec


class TestMetaOperatorRendering:
    def test_address_ranges_collapse(self):
        assert _format_addresses([0, 1, 2, 5, 7, 8]) == "[0-2,5,7-8]"

    def test_empty_addresses(self):
        assert _format_addresses([]) == "[]"

    def test_switch_render_follows_grammar(self):
        op = SwitchOp(SwitchType.TO_MEMORY, (3, 4, 5))
        assert op.render() == "CM.switch(TOM, [3-5])"
        op = SwitchOp(SwitchType.TO_COMPUTE, (0,))
        assert op.render() == "CM.switch(TOC, [0])"

    def test_compute_render_mentions_dims(self):
        op = ComputeOp("fc1", (0, 1), macs=1024, m=4, k=16, n=16)
        text = op.render()
        assert "fc1" in text and "4x16x16" in text

    def test_weight_load_render(self):
        op = WeightLoadOp("fc1", (0, 1, 2), elements=4096)
        assert "fc1" in op.render() and "4096" in op.render()

    def test_memory_ops_render_source_and_destination(self):
        read = MemoryReadOp("fc1", 100, source="cim-memory", array_addresses=(4,))
        write = MemoryWriteOp("fc1", 100, destination="main-memory")
        assert "src=cim-memory" in read.render()
        assert "dst=main-memory" in write.render()

    def test_parallel_block_render(self):
        block = ParallelBlock(0, [SwitchOp(SwitchType.TO_COMPUTE, (0,))])
        text = block.render()
        assert text.startswith("parallel {")
        assert text.rstrip().endswith("}")


class TestMetaProgramQueries:
    def make_program(self):
        program = MetaProgram("g")
        block = ParallelBlock(0)
        block.append(SwitchOp(SwitchType.TO_COMPUTE, (0, 1)))
        block.append(WeightLoadOp("fc", (0, 1), 100))
        block.append(ComputeOp("fc", (0, 1), 100, 1, 10, 10))
        program.append(block)
        program.append(SwitchOp(SwitchType.TO_MEMORY, (2,)))
        return program

    def test_blocks_and_switches(self):
        program = self.make_program()
        assert len(program.blocks()) == 1
        assert len(program.switches()) == 2

    def test_operator_iteration_and_counts(self):
        program = self.make_program()
        assert len(program) == 4
        assert program.count(ComputeOp) == 1
        assert program.count(SwitchOp) == 2

    def test_render_contains_all_operators(self):
        text = self.make_program().render()
        assert "CM.switch" in text and "CIM.mvm" in text and "parallel {" in text


def _simple_segment(hardware):
    op = Linear(
        "fc",
        input=TensorSpec("x", (8, 64)),
        output=TensorSpec("y", (8, 64)),
        weight=TensorSpec("w", (64, 64)),
    )
    profile = profile_operator(op)
    return SegmentPlan(
        index=0,
        operator_names=["fc"],
        pairs=[(1, 1)],
        profiles=[profile],
        intra_cycles=10.0,
        inter_cycles=0.0,
    )


class TestCodeGeneration:
    def test_single_segment_program_structure(self, small_chip):
        program = generate_program("g", [_simple_segment(small_chip)], small_chip)
        assert len(program.blocks()) == 1
        block = program.blocks()[0]
        kinds = [type(op) for op in block.body]
        assert WeightLoadOp in kinds and ComputeOp in kinds and MemoryReadOp in kinds

    def test_switches_only_for_mode_changes(self, small_chip):
        chip = CIMChip(small_chip)
        # Pre-set every array to compute mode: only the memory arrays should switch.
        chip.switch_mode(range(small_chip.num_arrays), ArrayMode.COMPUTE)
        program = generate_program("g", [_simple_segment(small_chip)], small_chip, chip=chip)
        switches = program.switches()
        assert all(op.switch_type is SwitchType.TO_MEMORY for op in switches)

    def test_no_array_serves_two_operators(self, small_chip, compiled_tiny_transformer):
        meta = compiled_tiny_transformer.meta_program
        for block in meta.blocks():
            owners = {}
            for op in block.body:
                if isinstance(op, (ComputeOp, WeightLoadOp)):
                    for address in op.array_addresses:
                        owners.setdefault(address, op.operator)
                        assert owners[address] == op.operator
            compute_addresses = set()
            memory_addresses = set()
            for op in block.body:
                if isinstance(op, ComputeOp):
                    compute_addresses.update(op.array_addresses)
                if isinstance(op, (MemoryReadOp, MemoryWriteOp)):
                    memory_addresses.update(op.array_addresses)
            assert not compute_addresses & memory_addresses

    def test_weight_loads_only_for_static_operands(self, small_chip, compiled_tiny_transformer):
        meta = compiled_tiny_transformer.meta_program
        loaded = {op.operator for op in meta.operators() if isinstance(op, WeightLoadOp)}
        assert not any("_qk" in name or "_sv" in name for name in loaded)

    def test_addresses_within_chip(self, small_chip, compiled_tiny_cnn):
        meta = compiled_tiny_cnn.meta_program
        for op in meta.operators():
            addresses = getattr(op, "array_addresses", ())
            assert all(0 <= a < small_chip.num_arrays for a in addresses)

    def test_oversized_plan_raises(self, small_chip):
        segment = _simple_segment(small_chip)
        segment.pairs = [(small_chip.num_arrays, 1)]
        with pytest.raises(CodeGenerationError):
            generate_program("g", [segment], small_chip)

    def test_compiler_emits_meta_program_when_requested(self, small_chip, tiny_mlp_graph):
        with_code = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=True)).compile(
            tiny_mlp_graph
        )
        without = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=False)).compile(
            tiny_mlp_graph
        )
        assert with_code.meta_program is not None
        assert without.meta_program is None

    def test_segment_count_matches_blocks(self, compiled_tiny_transformer):
        meta = compiled_tiny_transformer.meta_program
        assert len(meta.blocks()) == compiled_tiny_transformer.num_segments
