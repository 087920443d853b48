"""Tests for the compile passes (repro.pipeline) and the loop that runs them."""

import pytest

from repro.api import Session
from repro.baselines import COMPILERS
from repro.core import AllocationCache, CMSwitchCompiler, CompilerOptions
from repro.obs import Observability
from repro.pipeline import FixedModeFallback, Pass, PipelineContext

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
    return PipelineContext(
        graph=graph, hardware=hardware, options=options, cache=AllocationCache()
    )


def _compile(compiler_cls, graph, hardware, obs=None, **option_kwargs):
    return compiler_cls(hardware, CompilerOptions(**option_kwargs), obs=obs).compile(graph)


class TestPipelineStructure:
    def test_default_pass_order(self):
        assert [p.name for p in CMSwitchCompiler.passes] == STANDARD_NAMES

    def test_every_compiler_runs_the_standard_pass_names(self):
        session = Session(hardware="dynaplasia")
        for name, compiler_cls in COMPILERS.items():
            assert isinstance(compiler_cls.passes, tuple)
            assert [p.name for p in compiler_cls.passes] == STANDARD_NAMES
            program = session.compile(
                "tiny-cnn", options=CompilerOptions(generate_code=True), compiler=name
            )
            assert list(program.stats["pass_seconds"]) == STANDARD_NAMES, name


class TestPipelineExecution:
    def test_pass_seconds_cover_every_executed_pass(self, small_chip, tiny_mlp_graph):
        program = CMSwitchCompiler(
            small_chip, CompilerOptions(generate_code=False)
        ).compile(tiny_mlp_graph)
        timings = program.stats["pass_seconds"]
        # codegen is disabled; everything else ran and was timed.
        assert set(timings) == set(STANDARD_NAMES) - {"codegen"}
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert list(timings) == [n for n in STANDARD_NAMES if n != "codegen"]
        assert "passes" not in program.metadata  # the pass log has one home

    def test_disabled_passes_emit_skip_events(
        self, small_chip, tiny_mlp_graph, with_oracle
    ):
        obs = Observability.create()
        program = _compile(
            with_oracle, tiny_mlp_graph, small_chip, obs=obs,
            allow_memory_mode=False, generate_code=False,
        )
        instants = {s.name for s in obs.tracer.spans() if s.instant}
        assert instants == {"fixed_fallback:skip", "codegen:skip"}
        spans = [s.name for s in obs.tracer.spans() if not s.instant]
        assert "pipeline" in spans and "fixed_fallback" not in spans
        # The pass log lists exactly the passes that ran, in order.
        assert list(program.stats["pass_seconds"]) == [
            p.name for p in with_oracle.passes
            if p.name not in ("fixed_fallback", "codegen")
        ]

    def test_custom_pass_can_observe_and_annotate(self, small_chip, tiny_mlp_graph):
        class CountUnits(Pass):
            name = "count_units"

            def run(self, ctx):
                ctx.extras["unit_count"] = len(ctx.units)

        class Counting(CMSwitchCompiler):
            passes = (*CMSwitchCompiler.passes[:2], CountUnits(), *CMSwitchCompiler.passes[2:])

        program = _compile(Counting, tiny_mlp_graph, small_chip, generate_code=False)
        assert program.stats["unit_count"] == program.metadata["num_flattened_units"] > 0
        assert list(program.stats["pass_seconds"])[2] == "count_units"

    def test_refine_pass_reports_duplication(self, small_chip, tiny_mlp_graph):
        program = _compile(CMSwitchCompiler, tiny_mlp_graph, small_chip, generate_code=False)
        assert program.stats["refine_extra_compute_arrays"] >= 0
        # With refinement off the pass skips itself and the stat is absent.
        program = _compile(
            CMSwitchCompiler, tiny_mlp_graph, small_chip, refine=False, generate_code=False
        )
        assert "refine_extra_compute_arrays" not in program.stats

    def test_fallback_pass_accumulates_counters(
        self, small_chip, tiny_mlp_graph, with_oracle
    ):
        default = _compile(CMSwitchCompiler, tiny_mlp_graph, small_chip, generate_code=False)
        program = _compile(with_oracle, tiny_mlp_graph, small_chip, generate_code=False)
        # The oracle pass adds its own solver work (fresh solves or
        # cache hits) on top of the dual-mode pass's, which repeats the
        # default compile's.
        dual, oracle = with_oracle.passes[4].context.segmenters
        assert dual.allocation_calls == default.stats["allocator_solves"]
        assert program.stats["allocator_solves"] + program.stats[
            "allocation_cache_hits"
        ] > dual.allocation_calls + dual.cache_hits
        assert program.stats["allocator_solves"] == (
            dual.allocation_calls + oracle.allocation_calls
        )

    def test_oracle_pass_leaves_the_default_plan_unchanged(
        self, small_chip, tiny_mlp_graph, with_oracle
    ):
        # The default sequence has no second DP; inserting the oracle
        # never rescues anything, so both configurations emit one plan.
        default = _compile(CMSwitchCompiler, tiny_mlp_graph, small_chip, generate_code=False)
        oracle = _compile(with_oracle, tiny_mlp_graph, small_chip, generate_code=False)
        assert "fixed_fallback" in oracle.stats["pass_seconds"]
        assert not with_oracle.passes[4].context.fallback_used
        assert default.fingerprint() == oracle.fingerprint()

    def test_compiler_accepts_custom_pipeline(self, small_chip, tiny_mlp_graph):
        """Another pipeline is a subclass with another pass tuple."""
        seen = []

        class Observe(Pass):
            name = "observe"

            def run(self, ctx):
                seen.append(len(ctx.segments))

        class Observed(CMSwitchCompiler):
            passes = (*CMSwitchCompiler.passes[:4], Observe(), *CMSwitchCompiler.passes[4:])

        program = _compile(Observed, tiny_mlp_graph, small_chip, generate_code=False)
        assert seen == [program.num_segments] and program.num_segments >= 1
        assert list(program.stats["pass_seconds"]) == [
            "flatten", "partition", "segment", "allocate", "observe", "refine",
        ]
        assert CMSwitchCompiler.passes == Observed.passes[:4] + Observed.passes[5:]


class TestFixedModeFallbackGating:
    def test_enabled_only_for_dual_mode_with_fallback(self, small_chip, tiny_mlp_graph):
        fallback = FixedModeFallback()
        assert fallback.enabled(_ctx(tiny_mlp_graph, small_chip))
        fixed = _ctx(tiny_mlp_graph, small_chip, allow_memory_mode=False)
        assert not fallback.enabled(fixed)

    def test_not_in_the_default_sequence(self):
        for compiler_cls in COMPILERS.values():
            assert not any(isinstance(p, FixedModeFallback) for p in compiler_cls.passes)


class TestOptionsNormalisation:
    def test_fixed_mode_fallback_option_is_gone(self):
        with pytest.raises(TypeError, match="fixed_mode_fallback"):
            CompilerOptions(fixed_mode_fallback=False)

    def test_runtime_state_and_one_valued_knobs_are_not_options(self, small_chip):
        """A memo or an obs bundle travels as a constructor argument, or not at all."""
        for gone in ("solve_memo", "obs", "single_segment_fallback"):
            with pytest.raises(TypeError, match=gone):
                CompilerOptions(**{gone: None})
        with pytest.raises(TypeError, match="solve_memo"):
            CMSwitchCompiler(small_chip, solve_memo=None)
        with pytest.raises(TypeError, match="solve_memo"):
            PipelineContext(graph=None, hardware=small_chip, options=None, solve_memo=None)

    def test_segmentation_options_reject_bad_window(self):
        """The segmenter's options are ``CompilerOptions``: one validation."""
        with pytest.raises(ValueError, match="max_segment_operators"):
            CompilerOptions(max_segment_operators=0)
        with pytest.raises(ValueError, match="max_segment_operators"):
            CompilerOptions(max_segment_operators=True)
