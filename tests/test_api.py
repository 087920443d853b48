"""Tests for repro.api.Session and program parity.

The parity classes are the acceptance gate of the pipeline refactor:
every compiler configuration, the warm-cache path and the disk-warm
path must produce programs bit-identical
(:meth:`CompiledProgram.fingerprint`) to the frozen pre-refactor
implementations in :mod:`repro.core._reference`.
"""

import pytest

from repro.api import Session
from repro.core import AllocationCache, CMSwitchCompiler, CompilerOptions
from repro.core._reference import reference_compile
from repro.models import Workload, build_model


def _options(**kwargs):
    kwargs.setdefault("generate_code", False)
    return CompilerOptions(**kwargs)


class TestSession:
    def test_compile_by_name(self, small_chip):
        session = Session(hardware=small_chip, options=_options())
        program = session.compile("tiny-mlp")
        assert program.graph_name == "tiny-mlp"
        assert program.stats["pass_seconds"]

    def test_compile_prebuilt_graph(self, small_chip, tiny_cnn_graph):
        session = Session(hardware=small_chip, options=_options())
        program = session.compile(tiny_cnn_graph)
        assert program.graph_name == tiny_cnn_graph.name

    def test_compile_accepts_preset_names(self):
        session = Session(hardware="small-test-chip", options=_options())
        program = session.compile("tiny-mlp")
        assert program.hardware.name == session.hardware.name

    def test_per_call_hardware_override(self, small_chip, dynaplasia_chip):
        session = Session(hardware=small_chip, options=_options())
        program = session.compile("tiny-mlp", hardware=dynaplasia_chip)
        assert program.hardware is dynaplasia_chip

    def test_compile_raises_for_unknown_model(self, small_chip):
        session = Session(hardware=small_chip)
        with pytest.raises(KeyError):
            session.compile("no-such-model")

    def test_compiles_share_the_session_cache(self, small_chip):
        session = Session(hardware=small_chip, options=_options())
        cold = session.compile("tiny-mlp")
        warm = session.compile("tiny-mlp")
        assert cold.stats["allocator_solves"] > 0
        assert warm.stats["allocator_solves"] == 0
        assert warm.fingerprint() == cold.fingerprint()

    def test_explicit_session_options_govern_batches_too(self, small_chip):
        # An options object pinned on the session must shape every entry
        # point, not just Session.compile.
        session = Session(
            hardware=small_chip, options=_options(max_segment_operators=2)
        )
        single = session.compile("tiny-mlp")
        batch = session.compile_batch(["tiny-mlp"])[0]
        assert batch.ok
        assert batch.program.fingerprint() == single.fingerprint()
        assert batch.job.options.max_segment_operators == 2

    def test_implicit_options_keep_batch_defaults(self, small_chip):
        # Without explicit session options, jobs carry None and the
        # service applies its historical batch default.
        session = Session(hardware=small_chip)
        assert session.job("tiny-mlp").options is None

    def test_compile_batch_coerces_model_names(self, small_chip):
        session = Session(hardware=small_chip)
        results = session.compile_batch(["tiny-mlp", "tiny-cnn"])
        assert [r.job.name for r in results] == ["tiny-mlp", "tiny-cnn"]
        assert all(r.ok for r in results)
        assert all("pass_seconds" in r.stats for r in results)

    def test_compile_batch_isolates_failures(self, small_chip):
        session = Session(hardware=small_chip)
        results = session.compile_batch(
            [session.job("tiny-mlp"), session.job("no-such-model")]
        )
        assert results[0].ok and not results[1].ok

    def test_use_cache_false_disables_sharing(self, small_chip):
        session = Session(hardware=small_chip, options=_options(), use_cache=False)
        assert session.cache is None
        first = session.compile("tiny-mlp")
        second = session.compile("tiny-mlp")
        assert second.stats["allocator_solves"] == first.stats["allocator_solves"] > 0

    def test_explore_shares_the_cache(self, small_chip):
        from repro.dse import DesignSpace

        session = Session(hardware=small_chip)
        space = DesignSpace(
            models=["tiny-mlp"],
            base_hardware=small_chip,
            workloads=[Workload(batch_size=1, seq_len=16)],
            hardware_axes={"num_arrays": [small_chip.num_arrays]},
        )
        result = session.explore(space)
        assert result.evaluated == 1
        assert result.records[0].feasible
        # The sweep's solves landed in the session cache.
        assert session.cache_stats.stores > 0

    def test_explore_compiles_through_the_sessions_own_service(self, small_chip, tmp_path):
        """``use_cache=False`` explores without a cache; a default session
        sees the sweep's window reuse and store writes in its own counters."""
        from repro.dse import DesignSpace

        def space():
            return DesignSpace(
                models=["tiny-mlp"],
                base_hardware=small_chip,
                workloads=[Workload(batch_size=1, seq_len=16)],
                option_axes={"allow_memory_mode": [True, False]},
            )

        independent = sum(
            Session(hardware=small_chip, use_cache=False)
            .compile(point.model, point.workload, options=point.options)
            .stats["allocator_solves"]
            for point in space().points()
        )
        uncached = Session(hardware=small_chip, use_cache=False).explore(space())
        assert [record.cache_hits for record in uncached.records] == [0, 0]
        assert uncached.allocator_solves == independent > 0

        session = Session(hardware=small_chip, cache_dir=tmp_path)
        shared = session.explore(space())
        assert shared.allocator_solves < independent
        stats = session.cache_stats
        assert stats.stores == shared.allocator_solves and stats.hits > 0
        assert session.store.stats.stores == 2  # one handle: the session's

    def test_describe_mentions_hardware_and_backend(self, small_chip, tmp_path):
        """(Id kept.)  Hardware and cache location; there is no backend to name."""
        text = Session(hardware=small_chip).describe()
        assert small_chip.name in text and "in-memory" in text
        assert "backend" not in text and "thread" not in text
        assert str(tmp_path) in Session(hardware=small_chip, cache_dir=tmp_path).describe()

    def test_invalid_backend_rejected(self, small_chip):
        """Every backend is invalid now: the pool keywords are plain ``TypeError``s."""
        for kwargs in ({"backend": "carrier-pigeon"}, {"backend": "thread"}, {"max_workers": 2}):
            with pytest.raises(TypeError):
                Session(hardware=small_chip, **kwargs)
            with pytest.raises(TypeError):
                Session(hardware=small_chip).compile_batch([], **kwargs)
        with pytest.raises(TypeError):
            Session(hardware=small_chip).explore(None, max_workers=2)
        assert not hasattr(Session(hardware=small_chip), "backend")


OPTION_MATRIX = [
    {},
    {"allow_memory_mode": False},
    {"allow_memory_mode": False, "refine": False},
    {"refine": False},
    {"use_milp": False},
    {"pipelined": False},
    {"include_switch_cost": False},
    {"max_segment_operators": 3},
    {"generate_code": True},
]


class TestPipelineParity:
    """Pipeline output is bit-identical to the pre-refactor compiler."""

    @pytest.mark.parametrize("overrides", OPTION_MATRIX)
    def test_option_matrix_parity(self, small_chip, tiny_mlp_graph, overrides):
        kwargs = {"generate_code": False, **overrides}
        new = CMSwitchCompiler(
            small_chip, CompilerOptions(**kwargs)
        ).compile(tiny_mlp_graph)
        old = reference_compile(
            tiny_mlp_graph, small_chip, CompilerOptions(**kwargs)
        )
        assert new.fingerprint() == old.fingerprint()

    @pytest.mark.parametrize("model", ["tiny-cnn", "tiny-transformer"])
    def test_model_parity(self, small_chip, model):
        workload = Workload(batch_size=1, seq_len=16)
        graph = build_model(model, workload)
        new = CMSwitchCompiler(small_chip, _options()).compile(graph)
        old = reference_compile(graph, small_chip, _options())
        assert new.fingerprint() == old.fingerprint()
        assert new.end_to_end_cycles == old.end_to_end_cycles
        assert new.metadata["num_flattened_units"] == old.metadata["num_flattened_units"]

    def test_shared_cache_parity(self, small_chip, tiny_cnn_graph):
        # Cold with cache, warm with cache, and the cache-free reference
        # all agree bit for bit.
        cache = AllocationCache()
        compiler = CMSwitchCompiler(small_chip, _options(), cache=cache)
        cold = compiler.compile(tiny_cnn_graph)
        warm = compiler.compile(tiny_cnn_graph)
        reference = reference_compile(tiny_cnn_graph, small_chip, _options())
        assert cold.fingerprint() == reference.fingerprint()
        assert warm.fingerprint() == reference.fingerprint()
        assert warm.stats["allocator_solves"] == 0

    def test_disk_cache_parity(self, small_chip, tiny_mlp_graph, tmp_path):
        # A fresh session warming from the disk store must reproduce the
        # cold program exactly.
        cold = Session(
            hardware=small_chip, options=_options(), cache_dir=tmp_path / "ac"
        ).compile(tiny_mlp_graph)
        warm_session = Session(
            hardware=small_chip, options=_options(), cache_dir=tmp_path / "ac"
        )
        warm = warm_session.compile(tiny_mlp_graph)
        assert warm.stats["allocator_solves"] == 0
        assert warm.stats["allocation_disk_hits"] > 0
        assert warm.fingerprint() == cold.fingerprint()
        assert cold.fingerprint() == reference_compile(
            tiny_mlp_graph, small_chip, _options()
        ).fingerprint()


class TestFingerprint:
    def test_stable_across_recompiles(self, small_chip, tiny_mlp_graph):
        a = CMSwitchCompiler(small_chip, _options()).compile(tiny_mlp_graph)
        b = CMSwitchCompiler(small_chip, _options()).compile(tiny_mlp_graph)
        assert a.fingerprint() == b.fingerprint()

    def test_differs_across_models(self, small_chip, tiny_mlp_graph, tiny_cnn_graph):
        a = CMSwitchCompiler(small_chip, _options()).compile(tiny_mlp_graph)
        b = CMSwitchCompiler(small_chip, _options()).compile(tiny_cnn_graph)
        assert a.fingerprint() != b.fingerprint()

    def test_differs_with_code_generation(self, small_chip, tiny_mlp_graph):
        without = CMSwitchCompiler(small_chip, _options()).compile(tiny_mlp_graph)
        with_code = CMSwitchCompiler(
            small_chip, _options(generate_code=True)
        ).compile(tiny_mlp_graph)
        assert without.fingerprint() != with_code.fingerprint()

    def test_insensitive_to_wall_clock_stats(self, small_chip, tiny_mlp_graph):
        program = CMSwitchCompiler(small_chip, _options()).compile(tiny_mlp_graph)
        before = program.fingerprint()
        program.stats["wall_seconds"] = 12345.0
        program.compile_seconds = 999.0
        program.metadata["dp_seconds"] = 777.0
        assert program.fingerprint() == before
