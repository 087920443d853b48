"""Tests for the pass-based compile pipeline (repro.pipeline)."""

import pytest

from repro.core import CMSwitchCompiler, CompilerOptions
from repro.obs import Observability
from repro.pipeline import (
    Codegen,
    FixedModeFallback,
    Pass,
    Pipeline,
    PipelineContext,
    build_pipeline,
    default_passes,
    finalize,
)

STANDARD_NAMES = [
    "flatten",
    "partition",
    "segment",
    "allocate",
    "refine",
    "codegen",
]


def _ctx(graph, hardware, **option_kwargs):
    options = CompilerOptions(**option_kwargs)
    return PipelineContext(graph=graph, hardware=hardware, options=options)


def _with_oracle():
    """The standard pipeline plus the opt-in fixed-mode oracle pass."""
    return build_pipeline().insert_after("allocate", FixedModeFallback())


class TestPipelineStructure:
    def test_default_pass_order(self):
        assert build_pipeline().names == STANDARD_NAMES

    def test_get_returns_pass_by_name(self):
        pipeline = build_pipeline()
        assert isinstance(pipeline.get("codegen"), Codegen)
        with pytest.raises(KeyError, match="no pass named"):
            pipeline.get("nope")

    def test_duplicate_names_rejected(self):
        pipeline = build_pipeline()
        with pytest.raises(ValueError, match="already registered"):
            pipeline.append(Codegen())

    def test_replace_swaps_in_place(self):
        class FakeSegment(Pass):
            name = "segment"

            def run(self, ctx):  # pragma: no cover - structure-only test
                pass

        pipeline = build_pipeline().replace("segment", FakeSegment())
        assert pipeline.names == STANDARD_NAMES
        assert isinstance(pipeline.get("segment"), FakeSegment)

    def test_insert_before_after_remove(self):
        class Probe(Pass):
            name = "probe"

            def run(self, ctx):
                ctx.extras["probe_ran"] = True

        pipeline = build_pipeline().insert_after("allocate", Probe())
        assert pipeline.names.index("probe") == pipeline.names.index("allocate") + 1
        pipeline.remove("probe")
        assert "probe" not in pipeline.names
        pipeline.insert_before("flatten", Probe())
        assert pipeline.names[0] == "probe"

    def test_default_passes_returns_fresh_instances(self):
        a, b = default_passes(), default_passes()
        assert [p.name for p in a] == [p.name for p in b]
        assert all(x is not y for x, y in zip(a, b))


class TestPipelineExecution:
    def test_pass_seconds_cover_every_executed_pass(self, small_chip, tiny_mlp_graph):
        program = CMSwitchCompiler(
            small_chip, CompilerOptions(generate_code=False)
        ).compile(tiny_mlp_graph)
        timings = program.stats["pass_seconds"]
        # codegen is disabled; everything else ran and was timed.
        assert set(timings) == set(STANDARD_NAMES) - {"codegen"}
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert program.metadata["passes"] == [n for n in STANDARD_NAMES if n != "codegen"]

    def test_disabled_passes_emit_skip_events(self, small_chip, tiny_mlp_graph):
        ctx = _ctx(
            tiny_mlp_graph, small_chip, allow_memory_mode=False, generate_code=False
        )
        ctx.obs = Observability.create()
        _with_oracle().run(ctx)
        instants = {s.name for s in ctx.obs.tracer.spans() if s.instant}
        assert instants == {"fixed_fallback:skip", "codegen:skip"}
        # The pass log lists exactly the passes that ran, in order.
        assert list(ctx.pass_seconds) == [
            n for n in _with_oracle().names if n not in ("fixed_fallback", "codegen")
        ]
        assert finalize(ctx).metadata["passes"] == list(ctx.pass_seconds)

    def test_custom_pass_can_observe_and_annotate(self, small_chip, tiny_mlp_graph):
        class CountUnits(Pass):
            name = "count_units"

            def run(self, ctx):
                ctx.extras["unit_count"] = len(ctx.units)

        pipeline = build_pipeline().insert_after("partition", CountUnits())
        ctx = _ctx(tiny_mlp_graph, small_chip, generate_code=False)
        pipeline.run(ctx)
        program = finalize(ctx)
        assert program.stats["unit_count"] == len(ctx.units) > 0
        assert "count_units" in ctx.pass_seconds

    def test_refine_pass_reports_duplication(self, small_chip, tiny_mlp_graph):
        ctx = _ctx(tiny_mlp_graph, small_chip, generate_code=False)
        build_pipeline().run(ctx)
        program = finalize(ctx)
        assert program.stats["refine_extra_compute_arrays"] >= 0
        # With refinement off the pass skips itself and the stat is absent.
        ctx = _ctx(tiny_mlp_graph, small_chip, refine=False, generate_code=False)
        build_pipeline().run(ctx)
        assert "refine_extra_compute_arrays" not in finalize(ctx).stats

    def test_fallback_pass_accumulates_counters(self, small_chip, tiny_mlp_graph):
        ctx = _ctx(tiny_mlp_graph, small_chip, generate_code=False)
        _with_oracle().run(ctx)
        # The oracle pass adds its own solver work (fresh solves or
        # cache hits) on top of the dual-mode pass's.
        dual_attempts = ctx.result.allocation_calls + ctx.result.cache_hits
        assert ctx.solve_attempts > dual_attempts
        program = finalize(ctx)
        assert program.stats["allocator_solves"] == ctx.allocation_calls

    def test_finalize_without_run_is_an_error(self, small_chip, tiny_mlp_graph):
        ctx = _ctx(tiny_mlp_graph, small_chip)
        with pytest.raises(RuntimeError, match="completed pipeline run"):
            finalize(ctx)

    def test_oracle_pass_leaves_the_default_plan_unchanged(self, small_chip, tiny_mlp_graph):
        # The default sequence has no second DP; inserting the oracle
        # never rescues anything, so both configurations emit one plan.
        ctx_default = _ctx(tiny_mlp_graph, small_chip, generate_code=False)
        build_pipeline().run(ctx_default)
        ctx_oracle = _ctx(tiny_mlp_graph, small_chip, generate_code=False)
        _with_oracle().run(ctx_oracle)
        assert "fixed_fallback" in ctx_oracle.pass_seconds
        assert not ctx_oracle.fallback_used
        assert (
            finalize(ctx_default).fingerprint() == finalize(ctx_oracle).fingerprint()
        )

    def test_compiler_accepts_custom_pipeline(self, small_chip, tiny_mlp_graph):
        seen = []

        class Observe(Pass):
            name = "observe"

            def run(self, ctx):
                seen.append(len(ctx.result.segments))

        pipeline = build_pipeline().insert_after("allocate", Observe())
        compiler = CMSwitchCompiler(
            small_chip, CompilerOptions(generate_code=False), pipeline=pipeline
        )
        program = compiler.compile(tiny_mlp_graph)
        assert seen == [program.num_segments] and program.num_segments >= 1
        assert "observe" in program.metadata["passes"]


class TestFixedModeFallbackGating:
    def test_enabled_only_for_dual_mode_with_fallback(self, small_chip, tiny_mlp_graph):
        fallback = FixedModeFallback()
        assert fallback.enabled(_ctx(tiny_mlp_graph, small_chip))
        fixed = _ctx(tiny_mlp_graph, small_chip, allow_memory_mode=False)
        assert not fallback.enabled(fixed)

    def test_not_in_the_default_sequence(self):
        assert not any(isinstance(p, FixedModeFallback) for p in default_passes())


class TestOptionsNormalisation:
    def test_fixed_mode_fallback_option_is_gone(self):
        with pytest.raises(TypeError, match="fixed_mode_fallback"):
            CompilerOptions(fixed_mode_fallback=False)

    def test_runtime_state_and_one_valued_knobs_are_not_options(self, small_chip):
        """A memo or an obs bundle travels as a constructor argument, or not at all."""
        from repro.core import SegmentationOptions

        for gone in ("solve_memo", "obs", "single_segment_fallback"):
            with pytest.raises(TypeError, match=gone):
                SegmentationOptions(**{gone: None})
        with pytest.raises(TypeError, match="solve_memo"):
            CMSwitchCompiler(small_chip, solve_memo=None)
        with pytest.raises(TypeError, match="solve_memo"):
            PipelineContext(graph=None, hardware=small_chip, options=None, solve_memo=None)

    def test_segmentation_options_reject_bad_window(self):
        from repro.core import SegmentationOptions

        with pytest.raises(ValueError, match="max_segment_operators"):
            SegmentationOptions(max_segment_operators=0)
        with pytest.raises(ValueError, match="max_segment_operators"):
            CompilerOptions(max_segment_operators=True)
