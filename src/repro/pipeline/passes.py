"""The named passes of the DACO compile pipeline.

Each pass is a small object with a stable :attr:`Pass.name`, an
:meth:`Pass.enabled` predicate (options-gated passes skip themselves and
are absent from ``pass_seconds``) and a :meth:`Pass.run` that transforms
the shared :class:`~repro.pipeline.context.PipelineContext`.  The
standard CMSwitch sequence is::

    Flatten -> PartitionOversized -> Segment -> Allocate -> Refine -> Codegen

which is the paper's flatten / partition / DP segmentation / per-segment
MIP allocation / refinement accounting / DMO code-generation flow, one
stage per object.  The passes call exactly the primitives the fused
``CMSwitchCompiler.compile`` called, in the same order — the parity suite
(``tests/test_api.py``) asserts the resulting programs are bit-identical
to the frozen pre-pipeline reference.  :class:`FixedModeFallback` is not
part of the sequence: it is the test oracle for "the one DP never loses
to a fixed-mode compile" (insert it after ``Allocate``).
"""

from __future__ import annotations

import math
import time
from typing import Optional

from ..core.codegen import generate_program
from ..core.segmentation import (
    NetworkSegmenter,
    NoFeasiblePlanError,
    SegmentationResult,
    assign_liveness,
    choose_plan,
    expand_profiled,
    plan_cost,
    profile_graph,
)
from .context import PipelineContext

__all__ = [
    "Allocate",
    "Codegen",
    "FixedModeFallback",
    "Flatten",
    "PartitionOversized",
    "Pass",
    "Refine",
    "Segment",
]


class Pass:
    """One named, composable stage of a compile pipeline.

    Subclasses set :attr:`name` (unique within a pipeline — it keys the
    per-pass timing stats and the surgery API) and implement
    :meth:`run`.  Passes communicate exclusively through the context.
    """

    #: Stable identifier; keys ``pass_seconds`` and pipeline surgery.
    name: str = "pass"

    def enabled(self, ctx: PipelineContext) -> bool:
        """Whether this pass applies to the context (default: always)."""
        return True

    def run(self, ctx: PipelineContext) -> None:
        """Transform the context in place."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class Flatten(Pass):
    """Profile the CIM-mappable operators (auxiliary traffic folded in).

    Produces ``ctx.profiled`` — one :class:`ProfiledOperator` per
    mappable operator, oversized ones marked for partitioning.
    """

    name = "flatten"

    def run(self, ctx: PipelineContext) -> None:
        ctx.profiled = profile_graph(ctx.graph, ctx.hardware)


class PartitionOversized(Pass):
    """Shard operators whose stationary operand exceeds the chip.

    Greedy partitioning with the chip capacity as the budget (the
    paper's "determined by the available on-chip resources"), then
    liveness assignment.  Produces ``ctx.units``.
    """

    name = "partition"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.profiled is None:
            raise RuntimeError("PartitionOversized requires the Flatten pass first")
        ctx.units = assign_liveness(
            ctx.graph, expand_profiled(ctx.profiled, ctx.hardware)
        )


class Segment(Pass):
    """Mode-switch-aware DP segmentation (§4.3.1, Algorithm 1, Eq. 3).

    Runs the dynamic program over the flattened units and records the
    chosen boundaries.  The DP's cost oracle is the per-segment
    allocator, so this pass performs (and memoises) the allocation
    solves; ``Allocate`` then materialises plans from the segmenter's table.
    """

    name = "segment"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.units is None:
            raise RuntimeError("Segment requires the PartitionOversized pass first")
        ctx.segmenter = NetworkSegmenter(
            ctx.hardware,
            ctx.options.to_segmentation_options(),
            cache=ctx.cache,
            obs=ctx.obs,
        )
        if not ctx.units:
            ctx.result = SegmentationResult([], [], 0.0, 0, 0)
            return
        ctx.boundaries = ctx.segmenter.choose_boundaries(ctx.graph, ctx.units)


class Allocate(Pass):
    """Materialise per-segment allocations into :class:`SegmentPlan` s.

    Serves every window from the DP's memo (no fresh solver work) and
    folds the segmenter's solve counters into the context.
    """

    name = "allocate"

    def run(self, ctx: PipelineContext) -> None:
        start = time.perf_counter()
        if ctx.result is not None and ctx.boundaries is None:
            # Empty graph: Segment already produced the empty result.
            self._absorb(ctx)
            return
        if ctx.segmenter is None or ctx.boundaries is None:
            raise RuntimeError("Allocate requires the Segment pass first")
        segments = ctx.segmenter.build_plans(ctx.units, ctx.boundaries)
        dp_seconds = ctx.pass_seconds.get(Segment.name, 0.0) + (
            time.perf_counter() - start
        )
        ctx.result = SegmentationResult(
            segments,
            list(ctx.units),
            dp_seconds,
            ctx.segmenter.allocation_calls,
            ctx.segmenter.cache_hits,
        )
        self._absorb(ctx)

    @staticmethod
    def _absorb(ctx: PipelineContext) -> None:
        ctx.allocation_calls = ctx.result.allocation_calls
        ctx.cache_hits = ctx.result.cache_hits
        ctx.dp_seconds = ctx.result.dp_seconds


class FixedModeFallback(Pass):
    """Test oracle: also run the DP in fixed mode and keep the faster plan.

    Not in the default sequence.  The one DP tries every edge with and
    without its boundary reserve, which covers what a second,
    all-compute DP used to rescue, so this pass should never set
    ``ctx.fallback_used`` — the plan-quality suite inserts it after
    ``Allocate`` to check exactly that.  Skipped when memory mode is off.
    Its solver work is accounted either way — even when it only proves
    fixed-mode infeasible.
    """

    name = "fixed_fallback"

    def enabled(self, ctx: PipelineContext) -> bool:
        return bool(ctx.options.allow_memory_mode)

    def run(self, ctx: PipelineContext) -> None:
        if ctx.result is None:
            raise RuntimeError("FixedModeFallback requires the Allocate pass first")
        fixed_options = ctx.options.to_segmentation_options()
        fixed_options.allow_memory_mode = False
        try:
            fixed_result = NetworkSegmenter(
                ctx.hardware, fixed_options, cache=ctx.cache, obs=ctx.obs
            ).segment(ctx.graph, units=ctx.units)
        except NoFeasiblePlanError as exc:
            # The fallback pass proving fixed-mode infeasible does not
            # invalidate the dual-mode plan — keep it, and keep the
            # fallback pass's solver work in the totals.
            ctx.allocation_calls += exc.stats.get("allocator_solves", 0)
            ctx.cache_hits += exc.stats.get("allocation_cache_hits", 0)
            return
        ctx.allocation_calls += fixed_result.allocation_calls
        ctx.cache_hits += fixed_result.cache_hits
        ctx.result, ctx.fallback_used = choose_plan(ctx.result, fixed_result)


class Refine(Pass):
    """Account for the weight-duplication refinement in the final plan.

    The duplication transform itself runs *inside* the per-segment
    allocator (:func:`repro.core.allocation.refine_with_spare_arrays`):
    the DP's cost oracle must see refined latencies to pick optimal
    boundaries, and the allocation cache keys on the refinement option —
    hoisting the transform out here would change both.  What this pass
    contributes is the refinement's visibility: per-plan counts of the
    spare arrays duplication consumed, surfaced as
    ``stats["refine_extra_compute_arrays"]``.  Skipped (and the stat
    absent) when refinement is off.
    """

    name = "refine"

    def enabled(self, ctx: PipelineContext) -> bool:
        return bool(ctx.options.refine)

    def run(self, ctx: PipelineContext) -> None:
        if ctx.result is None:
            raise RuntimeError("Refine requires the Allocate pass first")
        extra = 0
        for segment in ctx.result.segments:
            minimum = sum(
                max(1, profile.min_compute_arrays(ctx.hardware))
                for profile in segment.profiles.values()
            )
            extra += max(0, segment.compute_arrays - minimum)
        ctx.extras["refine_extra_compute_arrays"] = extra


class Codegen(Pass):
    """Lower the chosen plan to the dual-mode meta-operator flow (§4.4).

    Emits ``ctx.meta_program``; skipped when code generation is off.  An
    infeasible plan is left untouched — program finalisation raises
    :class:`NoFeasiblePlanError` for it, exactly as the fused compiler
    raised before reaching code generation.
    """

    name = "codegen"

    def enabled(self, ctx: PipelineContext) -> bool:
        return bool(ctx.options.generate_code)

    def run(self, ctx: PipelineContext) -> None:
        result = ctx.result
        if result is None or not result.segments:
            return
        if not math.isfinite(plan_cost(result)):
            return
        ctx.meta_program = generate_program(
            ctx.graph.name, result.segments, ctx.hardware
        )
