"""Tests for graph flattening and the DP network segmentation."""

import pytest

from repro.core.segmentation import (
    NetworkSegmenter,
    SegmentationOptions,
    flatten_graph,
    live_elements_at_boundary,
)
from repro.hardware import small_test_chip
from repro.models import Phase, Workload, build_model


class TestFlatten:
    def test_small_graph_one_unit_per_operator(self, small_chip, tiny_cnn_graph):
        units = flatten_graph(tiny_cnn_graph, small_chip)
        cim_ops = tiny_cnn_graph.cim_operators()
        assert len(units) == len(cim_ops)
        assert [u.parent for u in units] == [op.name for op in cim_ops]

    def test_oversized_operators_are_partitioned(self, small_chip, tiny_transformer_graph):
        units = flatten_graph(tiny_transformer_graph, small_chip)
        cim_ops = tiny_transformer_graph.cim_operators()
        # FFN projections (128x256) exceed a 64x64-array budget of 8 arrays?
        # They fit on the whole chip here, so check the general invariant:
        assert len(units) >= len(cim_ops)
        for unit in units:
            assert unit.profile.min_compute_arrays(small_chip) <= small_chip.num_arrays

    def test_huge_operator_is_split(self, small_chip):
        graph = build_model("tiny-mlp", Workload(batch_size=1))
        tiny_chip = small_chip.with_overrides(num_arrays=2)
        units = flatten_graph(graph, tiny_chip)
        assert len(units) > len(graph.cim_operators())
        for unit in units:
            assert unit.profile.min_compute_arrays(tiny_chip) <= tiny_chip.num_arrays

    def test_units_are_indexed_in_order(self, small_chip, tiny_transformer_graph):
        units = flatten_graph(tiny_transformer_graph, small_chip)
        assert [u.index for u in units] == list(range(len(units)))

    def test_live_until_is_forward(self, small_chip, tiny_transformer_graph):
        units = flatten_graph(tiny_transformer_graph, small_chip)
        for unit in units:
            assert unit.live_until >= unit.index

    def test_live_elements_at_boundary_counts_crossing_data(self, small_chip, tiny_cnn_graph):
        units = flatten_graph(tiny_cnn_graph, small_chip)
        # After the first convolution its output is still needed downstream.
        live = live_elements_at_boundary(units, 0)
        assert live >= units[0].profile.output_elements

    def test_live_elements_monotone_bounds(self, small_chip, tiny_transformer_graph):
        units = flatten_graph(tiny_transformer_graph, small_chip)
        for boundary in range(len(units) - 1):
            live = live_elements_at_boundary(units, boundary)
            assert live >= 0


class TestSegmentationDP:
    def segment(self, graph, hardware, **options):
        segmenter = NetworkSegmenter(hardware, SegmentationOptions(**options))
        return segmenter.segment(graph)

    def test_segments_partition_all_units(self, small_chip, tiny_transformer_graph):
        result = self.segment(tiny_transformer_graph, small_chip)
        names = [name for seg in result.segments for name in seg.operator_names]
        assert names == [unit.name for unit in result.units]

    def test_segments_are_contiguous_and_ordered(self, small_chip, tiny_cnn_graph):
        result = self.segment(tiny_cnn_graph, small_chip)
        indices = [segment.index for segment in result.segments]
        assert indices == list(range(len(result.segments)))

    def test_every_segment_fits_chip(self, small_chip, tiny_transformer_graph):
        result = self.segment(tiny_transformer_graph, small_chip)
        for segment in result.segments:
            used = sum(a.total_arrays for a in segment.allocations.values())
            assert used <= small_chip.num_arrays

    def test_window_limits_segment_size(self, small_chip, tiny_cnn_graph):
        result = self.segment(tiny_cnn_graph, small_chip, max_segment_operators=1)
        assert all(len(segment.operator_names) == 1 for segment in result.segments)

    def test_larger_window_never_hurts(self, small_chip, tiny_cnn_graph):
        narrow = self.segment(tiny_cnn_graph, small_chip, max_segment_operators=1)
        wide = self.segment(tiny_cnn_graph, small_chip, max_segment_operators=8)
        assert wide.total_cycles <= narrow.total_cycles * 1.01

    def test_memory_mode_disabled_uses_no_memory_arrays(self, small_chip, tiny_transformer_graph):
        result = self.segment(tiny_transformer_graph, small_chip, allow_memory_mode=False)
        for segment in result.segments:
            assert segment.memory_arrays == 0
            assert segment.boundary_memory_arrays == 0

    def test_memory_mode_enabled_never_slower(self, small_chip, tiny_transformer_graph):
        dual = self.segment(tiny_transformer_graph, small_chip, allow_memory_mode=True)
        fixed = self.segment(tiny_transformer_graph, small_chip, allow_memory_mode=False)
        assert dual.total_cycles <= fixed.total_cycles * 1.10

    def test_switch_cost_flag_zeroes_breakdown(self, small_chip, tiny_transformer_graph):
        result = self.segment(tiny_transformer_graph, small_chip, include_switch_cost=False)
        for segment in result.segments:
            assert segment.inter_breakdown.get("mode_switch", 0.0) == 0.0

    def test_greedy_allocator_option(self, small_chip, tiny_cnn_graph):
        result = self.segment(tiny_cnn_graph, small_chip, use_milp=False)
        assert result.segments
        assert result.total_cycles > 0

    def test_first_segment_has_no_writeback(self, small_chip, tiny_cnn_graph):
        result = self.segment(tiny_cnn_graph, small_chip)
        first = result.segments[0]
        assert first.inter_breakdown.get("writeback", 0.0) == 0.0
        assert first.inter_breakdown.get("mode_switch", 0.0) == 0.0

    def test_allocation_calls_are_memoised(self, small_chip, tiny_cnn_graph):
        segmenter = NetworkSegmenter(small_chip, SegmentationOptions())
        result = segmenter.segment(tiny_cnn_graph)
        m = len(result.units)
        window = SegmentationOptions().max_segment_operators
        assert result.allocation_calls <= m * window

    def test_decode_graph_segments(self, small_chip, tiny_transformer_decode_graph):
        result = self.segment(tiny_transformer_decode_graph, small_chip)
        assert result.segments
        names = [name for seg in result.segments for name in seg.operator_names]
        assert len(names) == len(result.units)

    def test_dp_seconds_recorded(self, small_chip, tiny_mlp_graph):
        result = self.segment(tiny_mlp_graph, small_chip)
        assert result.dp_seconds >= 0.0


class TestFeasibilityPruning:
    """The DP only asks for windows that fit (ROADMAP 1b).

    llama2-7b(seq 32) on the 8-array chip is the regime no benchmark
    workload covers: 6 209 one-unit segments, and an unpruned DP that
    looks at ~56k windows of which ~43k overflow the chip.
    """

    @pytest.fixture(scope="class")
    def llama(self):
        return build_model("llama2-7b", Workload(seq_len=32))

    def _compile(self, graph):
        from repro.api import Session

        with Session(hardware="small-test-chip") as session:
            return session.compile(graph)

    def test_pruned_dp_matches_the_unpruned_one(self, llama, monkeypatch):
        asked = []
        real_allocate = NetworkSegmenter._allocate

        def counting_allocate(self, units, start, end):
            asked.append(self._spare_arrays(start, end) >= 0)
            return real_allocate(self, units, start, end)

        monkeypatch.setattr(NetworkSegmenter, "_allocate", counting_allocate)
        pruned = self._compile(llama)
        pruned_asked, asked[:] = list(asked), []
        assert pruned.num_segments > 6000
        assert all(pruned_asked), "the DP requested a window that overflows the chip"

        monkeypatch.setattr(
            NetworkSegmenter,
            "_first_fitting_start",
            lambda self, j, window: max(0, j - window),
        )
        unpruned = self._compile(llama)
        assert unpruned.fingerprint() == pruned.fingerprint()
        assert unpruned.end_to_end_cycles == pruned.end_to_end_cycles
        assert asked.count(False) > 40_000  # what the pruning no longer visits
        assert sum(asked) == len(pruned_asked)  # and it skips nothing that fits

    def test_first_fitting_start_is_the_monotone_boundary(self, small_chip, tiny_transformer_graph):
        segmenter = NetworkSegmenter(small_chip, SegmentationOptions())
        units = flatten_graph(tiny_transformer_graph, small_chip)
        segmenter._prepare(units)
        for j in range(1, len(units) + 1):
            floor = max(0, j - 8)
            fits = [segmenter._spare_arrays(i, j - 1) >= 0 for i in range(floor, j)]
            first = segmenter._first_fitting_start(j, 8)
            assert fits == [False] * (first - floor) + [True] * (j - first)


class TestUnitColumnsTripwires:
    """Per-operator facts are built once per compile, by position (ISSUE 24).

    Each test fails if the design regresses to what it replaced: Eq. 10
    evaluated per operator, memos keyed by a hashed profile, a window
    path the mapping entry points do not share, or a table that
    outlives the compile that built it.
    """

    @pytest.fixture(scope="class")
    def mobilenet(self):
        return build_model("mobilenet", Workload())

    def test_eq10_is_evaluated_once_per_compile(self, mobilenet, monkeypatch):
        from repro.api import Session
        from repro.core import allocation

        calls = []
        real = allocation.operator_latency_factors_batch

        def spy(profiles, *args, **kwargs):
            calls.append(len(profiles))
            return real(profiles, *args, **kwargs)

        monkeypatch.setattr(allocation, "operator_latency_factors_batch", spy)
        with Session(hardware="dynaplasia") as session:
            program = session.compile(mobilenet)
        assert program.stats["allocator_solves"] > 100
        # One call, and it covered every unit of the compile.
        assert calls == [program.metadata["num_flattened_units"]]

    def test_choose_boundaries_never_hashes_a_profile(self, mobilenet, monkeypatch):
        from repro.api import Session
        from repro.cost.arithmetic import OperatorProfile

        state = {"inside": False, "hashes": 0, "entered": 0}
        real_hash = OperatorProfile.__hash__
        real_choose = NetworkSegmenter.choose_boundaries

        def counting_hash(self):
            state["hashes"] += state["inside"]
            return real_hash(self)

        def choose(self, graph, units):
            state["inside"], state["entered"] = True, state["entered"] + 1
            try:
                return real_choose(self, graph, units)
            finally:
                state["inside"] = False

        monkeypatch.setattr(OperatorProfile, "__hash__", counting_hash)
        monkeypatch.setattr(NetworkSegmenter, "choose_boundaries", choose)
        with Session(hardware="dynaplasia") as session:
            session.compile(mobilenet)
        assert state["entered"] == 1
        assert state["hashes"] == 0

    def test_mapping_and_window_calls_run_the_same_solve(self, mobilenet):
        """One path: a plain mapping gets columns built from its profiles
        and must receive what the segmenter's window call receives."""
        import random

        from repro.core.allocation import allocate_segment
        from repro.cost.switching import (
            aggregate_resources,
            inter_segment_breakdown,
        )
        from repro.hardware import get_preset

        hardware = get_preset("dynaplasia")
        units = flatten_graph(mobilenet, hardware)
        segmenter = NetworkSegmenter(hardware, SegmentationOptions())
        segmenter._prepare(units)
        rng = random.Random(24)
        windows = []
        while len(windows) < 20:
            start = rng.randrange(len(units))
            end = min(len(units) - 1, start + rng.randrange(8))
            if segmenter._spare_arrays(start, end) >= 0:
                windows.append((start, end))
        previous = None
        for start, end in windows:
            spare = segmenter._spare_arrays(start, end)
            arguments = segmenter._solve_arguments(start, end, spare)
            window = segmenter._window(start, end)
            mapping = {unit.name: unit.profile for unit in units[start : end + 1]}
            assert type(mapping) is dict and dict(window) == mapping
            from_window = allocate_segment(window, hardware, **arguments)
            from_mapping = allocate_segment(mapping, hardware, **arguments)
            assert from_window.feasible and from_mapping == from_window
            for ours, theirs in (
                (from_window, from_mapping),
                (from_window.unreserved, from_mapping.unreserved),
            ):
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert ours.allocations == theirs.allocations
                    assert ours.latency_cycles == theirs.latency_cycles
            # The DP's one-walk edge pricing is the mapping-based cost model's.
            live = 1000 * (end + 1)
            resources, breakdown = segmenter._inter_segment(
                previous, start, end, live, from_window
            )
            expected = aggregate_resources(
                mapping,
                from_mapping.allocations,
                live_output_elements=live,
                num_arrays_total=hardware.num_arrays,
            )
            assert resources == expected
            assert breakdown == inter_segment_breakdown(
                previous, expected, mapping, from_mapping.allocations, hardware
            )
            previous = resources

    def test_nothing_outlives_a_compile(self, small_chip):
        """200 compiles leave every module-level container the size the
        first one left it: the columns die with their segmenter."""
        import repro.core.allocation
        import repro.core.cache
        import repro.core.segmentation
        import repro.cost.arithmetic
        import repro.cost.latency
        from repro.core import CMSwitchCompiler

        modules = (
            repro.core.allocation,
            repro.core.cache,
            repro.core.segmentation,
            repro.cost.latency,
            repro.cost.arithmetic,
        )

        def sizes():
            return {
                (module.__name__, name): len(value)
                for module in modules
                for name, value in vars(module).items()
                if isinstance(value, (dict, list, set))
            }

        graphs = [
            build_model("tiny-mlp", Workload()),
            build_model("tiny-cnn", Workload()),
            build_model("tiny-transformer", Workload(seq_len=16)),
        ]
        CMSwitchCompiler(small_chip).compile(graphs[0])
        after_first = sizes()
        assert after_first  # __all__ / __builtins__ at least: the scan sees containers
        for index in range(200):
            CMSwitchCompiler(small_chip).compile(graphs[index % 3])
        assert sizes() == after_first
