"""Tests for the reference executor and the functional / timing simulators."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api import Session
from repro.core import CMSwitchCompiler, CompilerOptions
from repro.core.metaop import (
    ComputeOp,
    MemoryReadOp,
    MemoryWriteOp,
    MetaProgram,
    SwitchOp,
    SwitchType,
    WeightLoadOp,
)
from repro.models import Phase, Workload, build_model
from repro.sim import (
    FlowError,
    FunctionalSimulator,
    ReferenceExecutor,
    TimingSimulator,
    deterministic_tensor,
    execute_tiled_matmul,
)
from repro.serve import program_from_wire, program_to_wire
from repro.sim.functional import FunctionalSimulationError
from repro.sim.reference import ReferenceExecutionError
from repro.ir import GraphBuilder, TensorSpec


class TestDeterministicTensors:
    def test_same_spec_same_data(self):
        spec = TensorSpec("x", (4, 5))
        a = deterministic_tensor(spec, seed=1)
        b = deterministic_tensor(spec, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_data(self):
        spec = TensorSpec("x", (4, 5))
        assert not np.array_equal(deterministic_tensor(spec, 1), deterministic_tensor(spec, 2))

    def test_shape_matches_spec(self):
        spec = TensorSpec("x", (2, 3, 4))
        assert deterministic_tensor(spec).shape == (2, 3, 4)

    def test_same_data_in_every_process(self):
        """Python salts ``str`` hashing per process; the data must not move."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.ir import TensorSpec\n"
            "from repro.sim import deterministic_tensor\n"
            "sys.stdout.write(deterministic_tensor(TensorSpec('w', (2, 2)), seed=3).tobytes().hex())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=salt),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for salt in ("1", "2")
        }
        assert len(outputs) == 1
        expected = deterministic_tensor(TensorSpec("w", (2, 2)), seed=3)
        assert outputs == {expected.tobytes().hex()}


class TestReferenceExecutor:
    def run_single(self, build):
        builder = GraphBuilder("t")
        build(builder)
        graph = builder.finish()
        return ReferenceExecutor().run(graph), graph

    def test_linear_matches_numpy(self):
        executor = ReferenceExecutor()
        builder = GraphBuilder("t")
        x = builder.input("x", (3, 8))
        y = builder.linear(x, 16, name="fc")
        builder.output(y)
        graph = builder.finish()
        values = executor.run(graph)
        weight = executor.weight_of(graph.operator("fc"))
        expected = values["x"] @ weight
        np.testing.assert_allclose(values[y.name], expected, rtol=1e-5)

    def test_relu_and_softmax_properties(self):
        builder = GraphBuilder("t")
        x = builder.input("x", (2, 6))
        r = builder.relu(x)
        s = builder.softmax(r)
        builder.output(s)
        values = ReferenceExecutor().run(builder.finish())
        assert (values[r.name] >= 0).all()
        np.testing.assert_allclose(values[s.name].sum(axis=-1), 1.0, rtol=1e-5)

    def test_conv_identity_kernel(self):
        builder = GraphBuilder("t")
        x = builder.input("x", (1, 1, 5, 5))
        y = builder.conv2d(x, 1, kernel=1, name="conv")
        builder.output(y)
        graph = builder.finish()
        executor = ReferenceExecutor()
        values = executor.run(graph)
        weight = executor.weight_of(graph.operator("conv"))
        np.testing.assert_allclose(
            values[y.name], values["x"] * weight[0, 0, 0, 0], rtol=1e-5
        )

    def test_conv_matches_im2col_matmul(self):
        builder = GraphBuilder("t")
        x = builder.input("x", (1, 3, 6, 6))
        y = builder.conv2d(x, 4, kernel=3, stride=1, padding=1, name="conv")
        builder.output(y)
        graph = builder.finish()
        executor = ReferenceExecutor()
        values = executor.run(graph)
        assert values[y.name].shape == (1, 4, 6, 6)
        # Spot-check one output pixel against the direct sum.
        conv = graph.operator("conv")
        weight = executor.weight_of(conv)
        x_np = np.pad(values["x"], ((0, 0), (0, 0), (1, 1), (1, 1)))
        manual = np.sum(x_np[0, :, 2:5, 2:5] * weight[1])
        np.testing.assert_allclose(values[y.name][0, 1, 2, 2], manual, rtol=1e-4)

    def test_depthwise_conv_channels_independent(self):
        builder = GraphBuilder("t")
        x = builder.input("x", (1, 4, 6, 6))
        y = builder.conv2d(x, 4, kernel=3, stride=1, padding=1, groups=4, name="dw")
        builder.output(y)
        values = ReferenceExecutor().run(builder.finish())
        assert values[y.name].shape == (1, 4, 6, 6)

    def test_pooling_max_and_avg(self):
        builder = GraphBuilder("t")
        x = builder.input("x", (1, 2, 4, 4))
        mx = builder.pool2d(x, kernel=2, stride=2, mode="max")
        av = builder.pool2d(x, kernel=2, stride=2, mode="avg")
        builder.output(mx)
        builder.output(av)
        values = ReferenceExecutor().run(builder.finish())
        assert (values[mx.name] >= values[av.name] - 1e-6).all()

    def test_matmul_batched(self):
        builder = GraphBuilder("t")
        a = builder.input("a", (2, 3, 4))
        b = builder.input("b", (2, 4, 5))
        c = builder.matmul(a, b)
        builder.output(c)
        values = ReferenceExecutor().run(builder.finish())
        np.testing.assert_allclose(
            values[c.name], np.matmul(values["a"], values["b"]), rtol=1e-5
        )

    def test_layernorm_zero_mean(self):
        builder = GraphBuilder("t")
        x = builder.input("x", (2, 16))
        y = builder.layernorm(x)
        builder.output(y)
        values = ReferenceExecutor().run(builder.finish())
        np.testing.assert_allclose(values[y.name].mean(axis=-1), 0.0, atol=1e-5)

    def test_full_model_runs(self, tiny_transformer_graph):
        values = ReferenceExecutor().run(tiny_transformer_graph)
        out_name = tiny_transformer_graph.graph_outputs[0].name
        assert np.isfinite(values[out_name]).all()

    def test_custom_inputs_respected(self, tiny_mlp_graph):
        x = np.ones((1, 256), dtype=np.float32)
        values = ReferenceExecutor().run(tiny_mlp_graph, inputs={"x": x})
        np.testing.assert_array_equal(values["x"], x)


class TestTiledMatmul:
    @given(
        m=st.integers(1, 12),
        k=st.integers(1, 100),
        n=st.integers(1, 100),
        rows=st.integers(4, 40),
        cols=st.integers(4, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_product(self, m, k, n, rows, cols):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        tiled, tiles = execute_tiled_matmul(a, b, rows, cols)
        np.testing.assert_allclose(tiled, a @ b, rtol=1e-4, atol=1e-4)
        assert tiles == -(-k // rows) * -(-n // cols)

    def test_single_tile_case(self):
        a = np.eye(4, dtype=np.float32)
        b = np.arange(16, dtype=np.float32).reshape(4, 4)
        tiled, tiles = execute_tiled_matmul(a, b, 8, 8)
        np.testing.assert_allclose(tiled, b)
        assert tiles == 1


class TestFunctionalSimulator:
    @pytest.mark.parametrize("model", ["tiny-mlp", "tiny-cnn", "tiny-transformer"])
    def test_compiled_programs_match_reference(self, small_chip, model):
        graph = build_model(model, Workload(batch_size=1, seq_len=16))
        program = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=True)).compile(graph)
        report = FunctionalSimulator(small_chip).run(program, graph)
        assert report.all_matched, report.summary()
        assert report.checks

    def test_decode_phase_program_matches(self, small_chip):
        graph = build_model(
            "tiny-transformer", Workload(batch_size=1, seq_len=16, phase=Phase.DECODE)
        )
        program = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=True)).compile(graph)
        report = FunctionalSimulator(small_chip).run(program, graph)
        assert report.all_matched, report.summary()

    def test_switch_events_counted(self, small_chip, compiled_tiny_transformer, tiny_transformer_graph):
        report = FunctionalSimulator(small_chip).run(
            compiled_tiny_transformer, tiny_transformer_graph
        )
        assert report.switch_events == compiled_tiny_transformer.meta_program.switched_array_count()

    def test_summary_mentions_status(self, small_chip, compiled_tiny_cnn, tiny_cnn_graph):
        report = FunctionalSimulator(small_chip).run(compiled_tiny_cnn, tiny_cnn_graph)
        assert "PASS" in report.summary()

    @pytest.mark.parametrize("source", ["wire", "store"])
    def test_text_only_flow_is_refused_with_a_way_out(
        self, small_chip, compiled_tiny_cnn, tiny_cnn_graph, tmp_path, source
    ):
        """A decoded program carries its flow as text: no AttributeError,
        an error that says how to get an executable one."""
        if source == "wire":
            program = program_from_wire(program_to_wire(compiled_tiny_cnn))
        else:
            for _ in range(2):  # the second compile is served by the store
                with Session(hardware=small_chip, cache_dir=tmp_path) as session:
                    program = session.compile(tiny_cnn_graph)
            assert program.stats["allocation_disk_hits"] > 0
        assert program.fingerprint() == compiled_tiny_cnn.fingerprint()
        with pytest.raises(FunctionalSimulationError, match="text-only.*without cache_dir"):
            FunctionalSimulator(small_chip).run(program, tiny_cnn_graph)
        with pytest.raises(ValueError, match="text-only.*without cache_dir"):
            TimingSimulator(small_chip).run(program)


def _drop_switch(blocks):
    """Segment 1 loses its ``CM.switch(TOM, [2-7])``."""
    blocks[1].body = [op for op in blocks[1].body if not isinstance(op, SwitchOp)]


def _readdress_compute(segment, operator, addresses):
    def corrupt(blocks):
        body = blocks[segment].body
        for position, op in enumerate(body):
            if isinstance(op, ComputeOp) and op.operator == operator:
                body[position] = dataclasses.replace(op, array_addresses=addresses)

    return corrupt


#: Seeded corruptions of the tiny-cnn flow on the small chip (segment 0
#: switches arrays 0-7 to compute mode; segment 1 switches 2-7 to memory
#: mode for the classifier's buffer) and the error each must raise.
FLOW_CORRUPTIONS = {
    "dropped-switch": (
        _drop_switch,
        r"segment 1: MEM\.read\(classifier.*: array 2 is not in memory mode",
    ),
    "compute-on-a-memory-array": (
        _readdress_compute(1, "classifier", (2,)),
        r"segment 1: CIM\.mvm\(classifier.*: array 2 is not in compute mode",
    ),
    "two-operators-on-one-array": (
        _readdress_compute(0, "conv2", (0,)),
        r"segment 0: CIM\.mvm\(conv2.*: array 0 already owned by 'conv1'",
    ),
}


class TestFlowLegality:
    """Both simulators walk the flow through one interpreter, which checks
    every array claim: an illegal flow is neither executed nor priced."""

    @pytest.mark.parametrize("corruption", sorted(FLOW_CORRUPTIONS))
    def test_seeded_corruption_is_caught_by_name(
        self, small_chip, compiled_tiny_cnn, tiny_cnn_graph, corruption
    ):
        corrupt, message = FLOW_CORRUPTIONS[corruption]
        meta = copy.deepcopy(compiled_tiny_cnn.meta_program)
        corrupt(meta.blocks())
        assert meta.render() != compiled_tiny_cnn.meta_program.render()
        program = dataclasses.replace(compiled_tiny_cnn, meta_program=meta)
        with pytest.raises(FunctionalSimulationError, match=message):
            FunctionalSimulator(small_chip).run(program, tiny_cnn_graph)
        with pytest.raises(FlowError, match=message):
            TimingSimulator(small_chip).run(program)


class TestTimingSimulator:
    def test_report_totals_positive(self, small_chip, compiled_tiny_cnn):
        report = TimingSimulator(small_chip).run(compiled_tiny_cnn)
        assert report.total_cycles > 0
        assert report.breakdown.compute > 0
        assert len(report.block_cycles) == compiled_tiny_cnn.num_segments

    def test_total_equals_blocks_plus_top_level(self, small_chip, compiled_tiny_transformer):
        report = TimingSimulator(small_chip).run(compiled_tiny_transformer)
        assert report.total_cycles == pytest.approx(
            sum(report.block_cycles) + report.top_level_cycles
        )

    def test_tracks_compiler_prediction(self, small_chip, compiled_tiny_transformer):
        report = TimingSimulator(small_chip).run(compiled_tiny_transformer)
        predicted = compiled_tiny_transformer.graph_cycles
        assert report.total_cycles == pytest.approx(predicted, rel=2.0)

    def test_requires_meta_program(self, small_chip, tiny_mlp_graph):
        program = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=False)).compile(
            tiny_mlp_graph
        )
        with pytest.raises(ValueError):
            TimingSimulator(small_chip).run(program)

    def test_rejects_unknown_objects(self, small_chip):
        with pytest.raises(TypeError):
            TimingSimulator(small_chip).run(42)

    def test_prices_every_top_level_meta_op(self, small_chip):
        """Meta-ops outside ``parallel`` run one after another, each
        priced with the formula it has inside a block."""
        hw = small_chip
        meta = MetaProgram("hand-built")
        meta.append(SwitchOp(SwitchType.TO_COMPUTE, (0, 1)))
        meta.append(SwitchOp(SwitchType.TO_MEMORY, (2,)))
        meta.append(WeightLoadOp("fc", (0, 1), elements=64))
        meta.append(MemoryReadOp("fc", elements=300, source="main-memory"))
        meta.append(ComputeOp("fc", (0, 1), macs=5000, m=10, k=20, n=25))
        meta.append(MemoryWriteOp("fc", 250, destination="cim-memory", array_addresses=(2,)))
        report = TimingSimulator(hw).run(meta)
        b = report.breakdown
        assert b.weight_load == 2 * hw.array_write_latency_cycles
        assert b.memory_read == 300 / hw.d_main
        assert b.compute == 5000 / (2 * hw.op_cim)
        assert b.memory_write == 250 / (hw.d_main + hw.d_cim)
        assert report.block_cycles == [] and report.switch_events == 3
        assert report.top_level_cycles == pytest.approx(b.total)
        assert report.total_cycles == report.top_level_cycles

        # A top-level claim is checked like one inside a block.
        meta.append(ComputeOp("head", (2,), macs=10, m=1, k=1, n=10))
        with pytest.raises(FlowError, match=r"top level: CIM\.mvm\(head.*array 2 is not in comp"):
            TimingSimulator(hw).run(meta)

    def test_summary_text(self, small_chip, compiled_tiny_cnn):
        text = TimingSimulator(small_chip).run(compiled_tiny_cnn).summary()
        assert "cycles" in text and "compute" in text
