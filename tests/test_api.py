"""Tests for repro.api.Session and program pricing.

The parity classes check every compiled program against an independent
re-pricing: each segment's intra cycles, Eq. 4 breakdown, resources and
boundary buffers re-derive exactly (``==``) from the cost model
(``reprice_segments`` of ``tests/oracle.py``, through the
``assert_repriced`` fixture) for every option set, and for cold,
memory-warm and disk-served programs alike; the warm and disk-served
programs are also bit-identical to the cold one
(:meth:`CompiledProgram.fingerprint`).
"""

import copy

import pytest

from repro.api import Session
from repro.core import AllocationCache, CMSwitchCompiler, CompilerOptions
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

    def test_a_fresh_session_compiles_cold(self, small_chip):
        """A cold compile is a fresh session: it shares no tier with another."""
        first, second = (
            Session(hardware=small_chip, options=_options()).compile("tiny-mlp")
            for _ in range(2)
        )
        assert second.stats["allocator_solves"] == first.stats["allocator_solves"] > 0
        assert second.stats["pass_seconds"]

    @pytest.mark.parametrize("model", ["tiny-mlp", "tiny-cnn", "tiny-transformer"])
    def test_a_direct_compile_reports_what_a_fresh_session_reports(self, small_chip, model):
        """One accounting: a compiler built without a table makes its own,
        so it solves, and hits, exactly the windows a fresh session does."""
        graph = build_model(model, Workload())
        direct = CMSwitchCompiler(small_chip).compile(graph)
        session = Session(hardware=small_chip).compile(graph)
        work = ("allocator_solves", "allocation_cache_hits", "allocation_disk_hits")
        assert [direct.stats[k] for k in work] == [session.stats[k] for k in work]
        assert direct.fingerprint() == session.fingerprint()

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
        """A session sees the sweep's window reuse and store writes in its
        own counters: the sweep solves fewer windows than its points do
        compiled cold, one fresh session each."""
        from repro.dse import DesignSpace

        def space():
            return DesignSpace(
                models=["tiny-mlp"],
                base_hardware=small_chip,
                workloads=[Workload(batch_size=1, seq_len=16)],
                option_axes={"allow_memory_mode": [True, False]},
            )

        independent = sum(
            Session(hardware=small_chip)
            .compile(point.model, point.workload, options=point.options)
            .stats["allocator_solves"]
            for point in space().points()
        )
        assert independent > 0

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


@pytest.fixture(scope="module")
def tiny_graphs(tiny_cnn_graph, tiny_transformer_graph):
    return {graph.name: graph for graph in (tiny_cnn_graph, tiny_transformer_graph)}


class TestPipelineParity:
    """Every program re-prices exactly from the cost model: cold,
    memory-warm and disk-served, under every option set."""

    @pytest.mark.option_matrix
    def test_option_matrix_parity(self, corpus, assert_repriced, overrides):
        # The corpus holds the cold compiles (re-priced with every corpus
        # program); asking its session again returns a program-table copy.
        options = CompilerOptions(**{"generate_code": False, **overrides})
        for model in ("tiny-mlp", "tiny-cnn", "tiny-transformer"):
            cold, graph, _, _ = corpus.find(model, "small-test-chip", "cmswitch", options)
            warm = corpus.sessions["small-test-chip"].compile(graph, options=options)
            assert warm.stats["allocator_solves"] == 0
            assert warm.fingerprint() == cold.fingerprint()
            assert_repriced(warm, graph, options)

    @pytest.mark.parametrize("model", ["tiny-cnn", "tiny-transformer"])
    def test_model_parity(self, small_chip, tiny_graphs, assert_repriced, model):
        # A compiler used directly, outside any session; the plan
        # arithmetic of every corpus program is in tests/test_corpus.py.
        graph = tiny_graphs[model]
        assert_repriced(CMSwitchCompiler(small_chip, _options()).compile(graph), graph, _options())

    def test_shared_cache_parity(self, small_chip, tiny_cnn_graph, assert_repriced):
        # Cold and warm through one cache both re-price, and agree bit for bit.
        cache = AllocationCache()
        compiler = CMSwitchCompiler(small_chip, _options(), cache=cache)
        cold = compiler.compile(tiny_cnn_graph)
        warm = compiler.compile(tiny_cnn_graph)
        assert warm.stats["allocator_solves"] == 0
        assert warm.fingerprint() == cold.fingerprint()
        for program in (cold, warm):
            assert_repriced(program, tiny_cnn_graph, _options())

    def test_disk_cache_parity(self, small_chip, tiny_mlp_graph, tmp_path, assert_repriced):
        # A fresh session served from the disk store reproduces the cold
        # program exactly, and both re-price.
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
        for program in (cold, warm):
            assert_repriced(program, tiny_mlp_graph, _options())


class TestRepricerCatchesCorruptPlans:
    """Seeded corruptions of a good plan, each caught with the segment and
    the term it breaks."""

    @pytest.fixture()
    def corrupt(self, small_chip, tiny_cnn_graph):
        """A fresh copy of a two-segment tiny-cnn program to corrupt."""
        program = CMSwitchCompiler(small_chip, _options()).compile(tiny_cnn_graph)
        assert program.num_segments >= 2
        return copy.deepcopy(program)

    def test_a_nudged_intra_cycle(self, corrupt, tiny_cnn_graph, assert_repriced):
        corrupt.segments[1].intra_cycles += 1.0
        with pytest.raises(AssertionError, match=r"segment 1: intra_cycles"):
            assert_repriced(corrupt, tiny_cnn_graph, _options())

    def test_a_nudged_breakdown_term(self, corrupt, tiny_cnn_graph, assert_repriced):
        corrupt.segments[1].inter_breakdown["weight_reload"] *= 2
        with pytest.raises(AssertionError, match=r"segment 1: inter_breakdown"):
            assert_repriced(corrupt, tiny_cnn_graph, _options())

    def test_two_segments_swapped(self, corrupt, tiny_cnn_graph, assert_repriced):
        corrupt.segments[0], corrupt.segments[1] = corrupt.segments[1], corrupt.segments[0]
        with pytest.raises(ValueError, match=r"segment 0: operators"):
            assert_repriced(corrupt, tiny_cnn_graph, _options())

    def test_a_dropped_operator(self, corrupt, tiny_cnn_graph, assert_repriced):
        first = corrupt.segments[0]
        first.operator_names.pop(0)
        first.pairs = first.pairs[1:]
        with pytest.raises(ValueError, match=r"segment 0: operators"):
            assert_repriced(corrupt, tiny_cnn_graph, _options())

    def test_a_dropped_segment(self, corrupt, tiny_cnn_graph, assert_repriced):
        del corrupt.segments[-1]
        with pytest.raises(ValueError, match=rf"segment {corrupt.num_segments}: missing"):
            assert_repriced(corrupt, tiny_cnn_graph, _options())

    def test_an_allocation_past_the_budget(
        self, corrupt, small_chip, tiny_cnn_graph, assert_repriced
    ):
        segment = corrupt.segments[0]
        spare = small_chip.num_arrays - segment.compute_arrays - segment.memory_arrays
        (compute, memory), *rest = segment.pairs
        segment.pairs = ((compute + spare + 1, memory), *rest)
        with pytest.raises(ValueError, match=r"segment 0: allocations occupy 9 of 8 arrays"):
            assert_repriced(corrupt, tiny_cnn_graph, _options())


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
        assert program.fingerprint() == before
