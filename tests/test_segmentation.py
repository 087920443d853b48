"""Tests for graph flattening and the DP network segmentation."""

import functools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import cheapest_cut_set, live_elements

from repro.core.cache import AllocationCache
from repro.core.segmentation import (
    CompilerOptions,
    FlattenedUnit,
    NetworkSegmenter,
    expand_profiled,
    flatten_graph,
    live_elements_vector,
    plan_cost,
    profile_graph,
)
from repro.cost.arithmetic import profile_operator
from repro.hardware import get_preset, small_test_chip
from repro.ir.operators import Operator
from repro.ir.transforms import partition_operator, shard_operator
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

    def test_live_elements_count_crossing_data(self, small_chip, tiny_cnn_graph):
        units = flatten_graph(tiny_cnn_graph, small_chip)
        # After the first convolution its output is still needed downstream.
        assert live_elements_vector(units)[0] >= units[0].profile.output_elements

    def test_live_elements_are_the_outputs_a_later_unit_reads(self):
        """Eq. 4's live data volume at boundary ``b``: outputs of units
        ``0..b`` read after ``b``.  Unit 0 skips to unit 2, units 1 and 2
        feed their successors, unit 3 is the graph's last."""
        profile = profile_operator(build_model("tiny-mlp").cim_operators()[0])
        units = [
            FlattenedUnit(
                f"u{index}", f"u{index}", replace(profile, output_elements=output), index, until
            )
            for index, (output, until) in enumerate([(10, 2), (20, 2), (30, 3), (40, 3)])
        ]
        assert live_elements_vector(units).tolist() == [10, 10 + 20, 30, 0]

    @pytest.mark.parametrize(
        "model, workload, hardware",
        [
            ("tiny-mlp", Workload(), small_test_chip().with_overrides(num_arrays=4)),
            ("llama2-7b", Workload(seq_len=32), get_preset("dynaplasia")),
            # Shards of one operator with equal K and unequal N, and the reverse.
            ("tiny-mlp", Workload(), small_test_chip().with_overrides(num_arrays=3)),
            # 4,227 shards of convolutions and linears.
            ("vgg16", Workload(seq_len=32), small_test_chip()),
        ],
        ids=[
            "tiny-mlp@4-arrays",
            "llama2-7b@dynaplasia",
            "tiny-mlp@3-arrays",
            "vgg16@small-test-chip",
        ],
    )
    def test_shards_of_one_shape_share_a_profile(self, model, workload, hardware):
        """``expand_profiled`` profiles each distinct shard shape once;
        its output equals profiling every shard on its own."""
        profiled = profile_graph(build_model(model, workload), hardware)
        expected = []
        for item in profiled:
            op = item.operator
            if not item.oversized:
                expected.append((op.name, op.name, item.profile))
                continue
            shards = partition_operator(
                op,
                hardware.num_arrays * hardware.array_capacity_elements,
                hardware.array_rows,
                hardware.array_cols,
            )
            extra = item.profile.extra_streamed_elements // len(shards)
            expected.extend(
                (shard.name, op.name, profile_operator(shard_operator(op, shard), extra))
                for shard in shards
            )
        expanded = expand_profiled(profiled, hardware)
        assert expanded == expected
        # The case shares: there are more shards than distinct shard shapes.
        shards = [(parent, p.matmul_k, p.matmul_n) for n, parent, p in expanded if n != parent]
        assert len(shards) > len(set(shards))

    def test_one_shard_operator_per_shape(self, monkeypatch, corpus):
        """Flattening builds an IR operator and a profile per distinct
        shard shape, at most four per partitioned operator, not one per
        shard (opt-13b on the test chip has 9,600 shards of 6 operators):
        every shard of one (K, N) extent holds that one profile object."""
        hardware = get_preset("small-test-chip")
        profiled = profile_graph(corpus.graph("opt-13b"), hardware)
        built = []
        init = Operator.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Operator, "__init__", counting)
        expanded = expand_profiled(profiled, hardware)
        monkeypatch.undo()
        oversized = sum(item.oversized for item in profiled)
        assert sum(name != parent for name, parent, _ in expanded) == 9600
        assert 0 < len(built) <= 4 * oversized
        by_extent = {}
        for name, parent, profile in expanded:
            if name != parent:
                extent = (parent, profile.matmul_k, profile.matmul_n)
                assert by_extent.setdefault(extent, profile) is profile
        assert len(by_extent) <= 4 * oversized


class TestSegmentationDP:
    def segment(self, graph, hardware, **options):
        """Flatten, run the DP, build the plans: ``(segmenter, units, segments)``."""
        segmenter = NetworkSegmenter(
            hardware, CompilerOptions(**options), cache=AllocationCache()
        )
        units = flatten_graph(graph, hardware)
        segments = segmenter.build_plans(units, segmenter.choose_boundaries(graph, units))
        return segmenter, units, segments

    def test_segments_partition_all_units(self, small_chip, tiny_transformer_graph):
        _, units, segments = self.segment(tiny_transformer_graph, small_chip)
        names = [name for seg in segments for name in seg.operator_names]
        assert names == [unit.name for unit in units]

    def test_segments_are_contiguous_and_ordered(self, small_chip, tiny_cnn_graph):
        _, _, segments = self.segment(tiny_cnn_graph, small_chip)
        indices = [segment.index for segment in segments]
        assert indices == list(range(len(segments)))

    def test_every_segment_fits_chip(self, small_chip, tiny_transformer_graph):
        _, _, segments = self.segment(tiny_transformer_graph, small_chip)
        for segment in segments:
            used = sum(compute + memory for compute, memory in segment.pairs)
            assert used <= small_chip.num_arrays

    def test_window_limits_segment_size(self, small_chip, tiny_cnn_graph):
        _, _, segments = self.segment(tiny_cnn_graph, small_chip, max_segment_operators=1)
        assert all(len(segment.operator_names) == 1 for segment in segments)

    def test_larger_window_never_hurts(self, small_chip, tiny_cnn_graph):
        _, _, narrow = self.segment(tiny_cnn_graph, small_chip, max_segment_operators=1)
        _, _, wide = self.segment(tiny_cnn_graph, small_chip, max_segment_operators=8)
        assert plan_cost(wide) <= plan_cost(narrow) * 1.01

    def test_memory_mode_disabled_uses_no_memory_arrays(self, small_chip, tiny_transformer_graph):
        _, _, segments = self.segment(
            tiny_transformer_graph, small_chip, allow_memory_mode=False
        )
        for segment in segments:
            assert segment.memory_arrays == 0
            assert segment.boundary_memory_arrays == 0

    def test_memory_mode_enabled_never_slower(self, small_chip, tiny_transformer_graph):
        _, _, dual = self.segment(tiny_transformer_graph, small_chip, allow_memory_mode=True)
        _, _, fixed = self.segment(tiny_transformer_graph, small_chip, allow_memory_mode=False)
        assert plan_cost(dual) <= plan_cost(fixed) * 1.10

    def test_switch_cost_flag_zeroes_breakdown(self, small_chip, tiny_transformer_graph):
        _, _, segments = self.segment(
            tiny_transformer_graph, small_chip, include_switch_cost=False
        )
        for segment in segments:
            assert segment.inter_breakdown.get("mode_switch", 0.0) == 0.0

    def test_greedy_allocator_option(self, small_chip, tiny_cnn_graph):
        _, _, segments = self.segment(tiny_cnn_graph, small_chip, use_milp=False)
        assert segments
        assert plan_cost(segments) > 0

    def test_first_segment_has_no_writeback(self, small_chip, tiny_cnn_graph):
        _, _, segments = self.segment(tiny_cnn_graph, small_chip)
        first = segments[0]
        assert first.inter_breakdown.get("writeback", 0.0) == 0.0
        assert first.inter_breakdown.get("mode_switch", 0.0) == 0.0

    def test_allocation_calls_are_memoised(self, small_chip, tiny_cnn_graph):
        segmenter, units, _ = self.segment(tiny_cnn_graph, small_chip)
        m = len(units)
        window = CompilerOptions().max_segment_operators
        assert segmenter.allocation_calls <= m * window

    def test_decode_graph_segments(self, small_chip, tiny_transformer_decode_graph):
        _, units, segments = self.segment(tiny_transformer_decode_graph, small_chip)
        assert segments
        names = [name for seg in segments for name in seg.operator_names]
        assert len(names) == len(units)

    def test_dp_seconds_recorded(self, small_chip, tiny_mlp_graph):
        """The DP's wall time is the ``segment`` pass's entry in the pass log."""
        from repro.core import CMSwitchCompiler

        program = CMSwitchCompiler(small_chip).compile(tiny_mlp_graph)
        assert program.stats["pass_seconds"]["segment"] >= 0.0


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

        def counting_allocate(self, start, end):
            asked.append(self._spare_arrays(start, end) >= 0)
            return real_allocate(self, start, end)

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
        segmenter = NetworkSegmenter(small_chip, cache=AllocationCache())
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
        """One path: a window over columns built from a plain mapping of
        its profiles must receive what the segmenter's window receives."""
        import random

        from conftest import window_of

        from repro.core.allocation import allocate_segment
        from repro.cost.switching import (
            INITIAL_RESOURCES,
            SegmentResources,
            mode_switch_cycles,
            window_totals,
            writeback_cycles,
        )
        from repro.hardware import get_preset

        hardware = get_preset("dynaplasia")
        units = flatten_graph(mobilenet, hardware)
        segmenter = NetworkSegmenter(hardware, cache=AllocationCache())
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
            alone = window_of(mapping, hardware)
            from_window = allocate_segment(window, cache=AllocationCache(), **arguments)
            from_mapping = allocate_segment(alone, cache=AllocationCache(), **arguments)
            assert from_window.feasible and from_mapping == from_window
            # The DP's edge price of the window is the price of the
            # mapping's own columns.
            *terms, compute, memory, idle = segmenter._edge_price(
                previous or INITIAL_RESOURCES, start, end + 1, from_window.pairs
            )
            totals = window_totals(alone.columns, 0, len(mapping), from_mapping.pairs, hardware)
            expected = SegmentResources(
                totals[0], totals[1], 1000 * (end + 1), 0,
                max(0, hardware.num_arrays - totals[0] - totals[1]),
            )
            assert (compute, memory, idle) == (
                expected.compute_arrays, expected.memory_arrays, expected.idle_arrays
            )
            assert terms == [
                writeback_cycles(previous, expected, hardware),
                mode_switch_cycles(previous, expected, hardware),
                totals[2],
            ]
            previous = expected

    def test_window_results_stay_positional_until_the_plan(self, mobilenet, monkeypatch):
        """The DP solves, refines, stores and prices every window on
        ``(compute, memory)`` pairs: it builds no ``OperatorAllocation``,
        and neither does ``build_plans``, which stores each window's pairs
        as the window table returned them."""
        from repro.cost.latency import OperatorAllocation

        built = []
        real = OperatorAllocation.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(OperatorAllocation, "__post_init__", counting)
        hardware = get_preset("dynaplasia")
        units = flatten_graph(mobilenet, hardware)
        segmenter = NetworkSegmenter(hardware, cache=AllocationCache())
        boundaries = segmenter.choose_boundaries(mobilenet, units)
        assert segmenter.allocation_calls > 100
        assert built == []
        plans = segmenter.build_plans(units, boundaries)
        assert built == []
        assert len(units) == sum(len(p.pairs) for p in plans)
        assert all(len(p.pairs) == len(p.operator_names) for p in plans)

    def test_a_cold_pass_builds_one_result_per_stored_state_and_hit(
        self, mobilenet, monkeypatch, asked_windows
    ):
        """An engine returns its pick by position: a cold DP builds an
        ``AllocationResult`` for each refinement the table stores and
        one per table hit — nothing it then throws away."""
        from repro.core.allocation import AllocationResult

        built = []
        real_init = AllocationResult.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        stored = []
        real_put = AllocationCache.put

        def put(self, key, result):
            stored.append(result)
            real_put(self, key, result)

        monkeypatch.setattr(AllocationResult, "__init__", counting)
        monkeypatch.setattr(AllocationCache, "put", put)
        hardware = get_preset("dynaplasia")
        units = flatten_graph(mobilenet, hardware)
        cache = AllocationCache()
        NetworkSegmenter(hardware, cache=cache).choose_boundaries(mobilenet, units)
        assert (len(stored), cache.stats.hits) == (331, 65)
        # One solve per distinct window key; every repeat is a hit.
        assert len(stored) == len(set(asked_windows))
        assert cache.stats.hits == len(asked_windows) - len(stored)
        assert len(built) == len(stored) + cache.stats.hits

    def test_a_window_is_not_a_mapping(self, small_chip):
        """A window is a range of the compile's columns; no entry point
        takes a ``name -> profile`` mapping."""
        from collections.abc import Mapping

        from repro.core.allocation import AllocationResult, UnitColumns, UnitWindow

        columns = UnitColumns(
            [unit.profile for unit in flatten_graph(build_model("tiny-mlp"), small_chip)],
            small_chip,
        )
        window = UnitWindow(columns, 1, 3)
        assert not isinstance(window, Mapping) and not isinstance(window, dict)
        assert window.hardware is small_chip and window.signature == columns.signatures[1:3]
        assert not hasattr(AllocationResult, "names") and not hasattr(
            AllocationResult, "allocations"
        )

    def test_a_window_table_hit_is_the_cold_solve(self, mobilenet):
        """A hit hands back the stored pairs and latencies, as a fresh
        result flagged ``from_cache``."""
        from repro.core.allocation import allocate_segment

        hardware = get_preset("dynaplasia")
        units = flatten_graph(mobilenet, hardware)
        segmenter = NetworkSegmenter(hardware, cache=AllocationCache())
        segmenter._prepare(units)
        for start in range(0, len(units) - 4, 3):
            end = start + 3
            spare = segmenter._spare_arrays(start, end)
            if spare < 0:
                continue
            arguments = segmenter._solve_arguments(start, end, spare)
            window = segmenter._window(start, end)
            cache = AllocationCache()
            cold = allocate_segment(window, cache=cache, **arguments)
            hit = allocate_segment(window, cache=cache, **arguments)
            assert not cold.from_cache and hit.from_cache
            assert len(hit.pairs) == end + 1 - start
            assert hit.pairs == cold.pairs
            assert hit.latency_cycles == cold.latency_cycles

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


class TestScalarEdgePricing:
    """The DP prices an edge in scalars and builds objects only for winners.

    One pricing: the scalar edge price is the cost model's Eq. 4 sum over
    the :class:`SegmentResources` of the window's own columns
    (:func:`~repro.cost.switching.window_totals`), bit for bit.  Two
    tripwires: a :class:`SegmentResources` is built only for a relaxation
    that lowers ``best_cost[j]``, and the layer boundaries the
    benchmark's tracer wraps are still called once per window or solve.
    """

    @pytest.fixture(scope="class")
    def mobilenet(self):
        return build_model("mobilenet", Workload())

    @pytest.fixture(scope="class")
    def unit_sets(self):
        """Units with static weights (mobilenet) and without (bert's
        attention products), on the paper chip."""
        hardware = get_preset("dynaplasia")
        return hardware, [
            flatten_graph(build_model(name, Workload(seq_len=32)), hardware)
            for name in ("mobilenet", "bert")
        ]

    @pytest.mark.parametrize("include_switch_cost", [True, False], ids=["switch", "no-switch"])
    @pytest.mark.parametrize("allow_memory_mode", [True, False], ids=["dual", "fixed"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_edge_price_is_the_cost_model_bit_for_bit(
        self, unit_sets, allow_memory_mode, include_switch_cost, data
    ):
        from repro.cost.arithmetic import ProfileVectors
        from repro.cost.switching import (
            INITIAL_RESOURCES,
            SegmentResources,
            mode_switch_cycles,
            window_totals,
            writeback_cycles,
        )

        hardware, unit_lists = unit_sets
        units = data.draw(st.sampled_from(unit_lists))
        options = CompilerOptions(
            allow_memory_mode=allow_memory_mode, include_switch_cost=include_switch_cost
        )
        segmenter = NetworkSegmenter(hardware, options, cache=AllocationCache())
        segmenter._prepare(units)
        start = data.draw(st.integers(0, len(units) - 1))
        stop = data.draw(st.integers(start + 1, min(len(units), start + 8)))
        counts = st.integers(0, hardware.num_arrays)
        pairs = tuple((data.draw(counts), data.draw(counts)) for _ in range(start, stop))
        previous = data.draw(
            st.none()
            | st.builds(
                SegmentResources,
                counts,
                counts,
                st.integers(0, 50 * hardware.buffer_elements),
                st.integers(0, 10**9),
                counts,
            )
        )

        writeback, switch, reload, compute, memory, idle = segmenter._edge_price(
            previous or INITIAL_RESOURCES, start, stop, pairs
        )
        price = writeback + switch + reload  # the sum the DP adds to an edge

        # The window's profiles alone, as columns of their own.
        vectors = ProfileVectors([unit.profile for unit in units[start:stop]], hardware)
        compute_arrays, memory_arrays, reload = window_totals(
            vectors, 0, stop - start, pairs, hardware
        )
        resources = SegmentResources(
            compute_arrays, memory_arrays,
            idle_arrays=max(0, hardware.num_arrays - compute_arrays - memory_arrays),
        )
        expected = (
            writeback_cycles(
                previous, resources, hardware, allow_boundary_buffering=allow_memory_mode
            )
            + (mode_switch_cycles(previous, resources, hardware) if include_switch_cost else 0.0)
            + reload
        )
        assert price == expected and repr(price) == repr(expected)
        assert (compute, memory, idle) == (
            resources.compute_arrays,
            resources.memory_arrays,
            resources.idle_arrays,
        )

    def test_resources_are_built_only_for_an_improving_relaxation(
        self, mobilenet, monkeypatch
    ):
        from repro.cost.switching import SegmentResources

        built = []
        real_init = SegmentResources.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        relaxations = []
        real_edge = NetworkSegmenter._dp_edge

        def edge(self, i, j, live, allocation, tables):
            best_cost = tables[0]
            before, already = best_cost[j], len(built)
            real_edge(self, i, j, live, allocation, tables)
            relaxations.append((best_cost[j] < before, len(built) - already))

        monkeypatch.setattr(SegmentResources, "__init__", counting_init)
        monkeypatch.setattr(NetworkSegmenter, "_dp_edge", edge)
        hardware = get_preset("dynaplasia")
        units = flatten_graph(mobilenet, hardware)
        NetworkSegmenter(hardware, cache=AllocationCache()).choose_boundaries(mobilenet, units)
        improving = sum(improved for improved, _ in relaxations)
        assert len(relaxations) == 396 and 0 < improving < len(relaxations)
        assert [n for _, n in relaxations] == [int(improved) for improved, _ in relaxations]

    def test_traced_boundaries_are_called_once_per_window_or_solve(
        self, mobilenet, monkeypatch, asked_windows
    ):
        from collections import Counter

        from repro.core import allocation, segmentation

        calls = Counter()

        def count(owner, name):
            real = vars(owner)[name]

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(segmentation, "allocate_segment")
        count(AllocationCache, "lookup")
        count(allocation.MIPAllocator, "allocate")
        count(allocation, "refine_with_spare_arrays")
        hardware = get_preset("dynaplasia")
        units = flatten_graph(mobilenet, hardware)
        segmenter = NetworkSegmenter(hardware, cache=AllocationCache())
        segmenter.choose_boundaries(mobilenet, units)
        assert (segmenter.allocation_calls, segmenter.cache_hits) == (331, 65)
        # One solve per distinct window key; every repeat is a hit.
        assert segmenter.allocation_calls == len(set(asked_windows))
        assert segmenter.cache_hits == len(asked_windows) - segmenter.allocation_calls
        assert calls == {
            "allocate_segment": 396,
            "lookup": 396,
            "allocate": 331,
            "refine_with_spare_arrays": 331,
        }


# ---------------------------------------------------------------------- #
# the DP against every cut set (tests/oracle.py)
# ---------------------------------------------------------------------- #
#: ``(model, chip)`` pairs small enough to enumerate every cut set of
#: (at most 32,192 on tiny-transformer @ dynaplasia and prime).
EXHAUSTIVE_CASES = [
    *((model, "small-test-chip") for model in ("tiny-mlp", "tiny-cnn", "tiny-transformer")),
    *(
        (model, chip)
        for chip in ("dynaplasia", "prime")
        for model in (
            "tiny-mlp", "tiny-cnn", "tiny-transformer", "bert", "gpt2", "gpt2-xl", "opt-1.3b",
        )
    ),
]


@functools.lru_cache(maxsize=None)
def _units(model, chip):
    """``(graph, hardware, units)`` of ``model`` on preset ``chip``;
    tiny-transformer at sequence length 16, the rest at 32."""
    hardware = get_preset(chip)
    graph = build_model(model, Workload(seq_len=16 if model == "tiny-transformer" else 32))
    return graph, hardware, flatten_graph(graph, hardware)


class TestExhaustiveSegmentation:
    """Algorithm 1's DP keeps one label per boundary, yet its plan costs
    what the cheapest of every cut set costs, each window with the one
    allocation the DP solved for it (ROADMAP item 10's oracle)."""

    @pytest.mark.parametrize("use_milp", [True, False], ids=["exact", "greedy"])
    @pytest.mark.parametrize("model, chip", EXHAUSTIVE_CASES)
    def test_the_dp_plan_is_the_cheapest_cut_set(self, model, chip, use_milp):
        graph, hardware, units = _units(model, chip)
        options = CompilerOptions(use_milp=use_milp, generate_code=False)
        segmenter = NetworkSegmenter(hardware, options, cache=AllocationCache())
        plans = segmenter.build_plans(units, segmenter.choose_boundaries(graph, units))

        def solved(start, stop):
            result = segmenter._allocate(start, stop - 1)  # a table hit: the DP asked
            return (result.pairs, result.latency_cycles) if result.feasible else None

        cheapest, count = cheapest_cut_set(units, hardware, options, solved)
        assert count >= 1
        assert math.isclose(plan_cost(plans), cheapest, rel_tol=1e-12, abs_tol=0.0)

    @pytest.mark.parametrize("model, chip", EXHAUSTIVE_CASES[:3])
    def test_the_oracles_liveness_is_eq4s(self, model, chip):
        """The oracle walks each unit's ``live_until`` itself; it agrees
        with the segmenter's difference array at every boundary."""
        _, _, units = _units(model, chip)
        assert live_elements(units) == live_elements_vector(units).tolist()
