"""The named passes of the DACO compile flow.

Each pass is a small stateless object with a stable :attr:`Pass.name`,
an :meth:`Pass.enabled` predicate (options-gated passes skip themselves
and are absent from ``pass_seconds``) and a :meth:`Pass.run` that
transforms the shared :class:`~repro.pipeline.context.PipelineContext`.
The CMSwitch sequence (:attr:`repro.core.compiler.CMSwitchCompiler
.passes`) is::

    Flatten -> PartitionOversized -> Segment -> Allocate -> Refine -> Codegen

which is the paper's flatten / partition / DP segmentation / per-segment
MIP allocation / refinement accounting / DMO code-generation flow, one
stage per object.  The passes here are the only callers of
:meth:`~repro.core.segmentation.NetworkSegmenter.choose_boundaries` and
:meth:`~repro.core.segmentation.NetworkSegmenter.build_plans`; the
parity suite (``tests/test_api.py``) re-prices every program they build
from the cost model and asserts each segment's prices match exactly.
:class:`FixedModeFallback` is not part of the sequence: it is the test
oracle for "the one DP never loses to a fixed-mode compile" (a compiler
subclass inserts it after ``Allocate``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Tuple

from ..core.codegen import generate_program
from ..core.segmentation import (
    NetworkSegmenter,
    assign_liveness,
    choose_plan,
    expand_profiled,
    profile_graph,
)

if TYPE_CHECKING:  # the context imports the core package, which imports these passes
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
    """One named stage of a compiler's pass tuple.

    Subclasses set :attr:`name` (unique within a tuple — it keys the
    per-pass timing stats and the tracer span) and implement
    :meth:`run`.  Passes hold no per-compile state: they communicate
    exclusively through the context.
    """

    #: Stable identifier; keys ``pass_seconds`` and the pass's span.
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
    allocator, so this pass performs the allocation solves (through the
    window table); ``Allocate`` then materialises plans from the
    allocations the chosen windows won with.
    A subclass that draws the boundaries another way overrides
    :meth:`choose_boundaries` (the PUMA/OCC baselines do).
    """

    name = "segment"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.units is None:
            raise RuntimeError("Segment requires the PartitionOversized pass first")
        ctx.segmenters.append(
            NetworkSegmenter(ctx.hardware, ctx.options, cache=ctx.cache, obs=ctx.obs)
        )
        ctx.boundaries = self.choose_boundaries(ctx)

    def choose_boundaries(self, ctx: PipelineContext) -> List[Tuple[int, int]]:
        """``(start, end)`` unit ranges in execution order: the Eq. 3 DP's."""
        return ctx.segmenter.choose_boundaries(ctx.graph, ctx.units)


class Allocate(Pass):
    """Materialise per-segment allocations into :class:`SegmentPlan` s.

    Serves every window the DP chose from the allocation it won with (no
    fresh solver work; a boundary policy's windows are solved here
    instead, through the window table).
    """

    name = "allocate"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.segmenter is None or ctx.boundaries is None:
            raise RuntimeError("Allocate requires the Segment pass first")
        ctx.segments = ctx.segmenter.build_plans(ctx.units, ctx.boundaries)


class FixedModeFallback(Pass):
    """Test oracle: also run the DP in fixed mode and keep the faster plan.

    Not in the default sequence.  The one DP solves each window once,
    over a superset of the fixed-mode candidates, so this pass should
    never set ``ctx.fallback_used`` — the plan-quality suite inserts it
    after ``Allocate`` to check exactly that.  Skipped when memory mode is off.
    Its segmenter joins ``ctx.segmenters``, so its solver work is
    accounted in the program's stats.  Every graph has a fixed-mode plan
    too: partitioning makes each unit fit the chip.
    """

    name = "fixed_fallback"

    def enabled(self, ctx: PipelineContext) -> bool:
        return bool(ctx.options.allow_memory_mode)

    def run(self, ctx: PipelineContext) -> None:
        if ctx.segments is None:
            raise RuntimeError("FixedModeFallback requires the Allocate pass first")
        segmenter = NetworkSegmenter(
            ctx.hardware,
            replace(ctx.options, allow_memory_mode=False),
            cache=ctx.cache,
            obs=ctx.obs,
        )
        ctx.segmenters.append(segmenter)
        fixed = segmenter.build_plans(
            ctx.units, segmenter.choose_boundaries(ctx.graph, ctx.units)
        )
        ctx.segments, ctx.fallback_used = choose_plan(ctx.segments, fixed)


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
        if ctx.segments is None:
            raise RuntimeError("Refine requires the Allocate pass first")
        extra = 0
        for segment in ctx.segments:
            minimum = sum(
                profile.compute_floor(ctx.hardware) for profile in segment.profiles
            )
            extra += max(0, segment.compute_arrays - minimum)
        ctx.extras["refine_extra_compute_arrays"] = extra


class Codegen(Pass):
    """Lower the chosen plan to the dual-mode meta-operator flow (§4.4).

    Emits ``ctx.meta_program``; skipped when code generation is off.  A
    graph with no mappable operator has no segments and gets no flow.
    """

    name = "codegen"

    def enabled(self, ctx: PipelineContext) -> bool:
        return bool(ctx.options.generate_code)

    def run(self, ctx: PipelineContext) -> None:
        if not ctx.segments:
            return
        ctx.meta_program = generate_program(ctx.graph.name, ctx.segments, ctx.hardware)
