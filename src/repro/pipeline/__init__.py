"""Pass-based compile pipeline (the DACO flow as first-class values).

The paper's DACO pipeline — flatten, partition oversized operators, DP
segmentation, per-segment MIP allocation, refinement, DMO code
generation — used to live fused inside
``CMSwitchCompiler.compile()``.  This package decomposes it into named
:class:`Pass` objects over a typed :class:`PipelineContext`, run by a
:class:`Pipeline` that supports pass replacement/insertion, and surfaces
per-pass wall times in ``CompiledProgram.stats["pass_seconds"]``.

Typical use goes through :class:`repro.api.Session` or
:class:`repro.core.compiler.CMSwitchCompiler` (both run this pipeline
under the hood); direct use looks like::

    from repro.pipeline import PipelineContext, build_pipeline, finalize

    ctx = PipelineContext(graph=graph, hardware=hardware, options=options)
    pipeline = build_pipeline()
    pipeline.run(ctx)
    program = finalize(ctx)

The baselines are pipeline *configurations* too: CIM-MLC is this very
pipeline with memory mode pinned off, and PUMA/OCC also replace the
``Segment`` pass's boundary choice with their own policy (see
:class:`repro.baselines.BoundaryPolicySegment`) and keep the rest.
"""

from .context import PipelineContext
from .passes import (
    Allocate,
    Codegen,
    FixedModeFallback,
    Flatten,
    PartitionOversized,
    Pass,
    Refine,
    Segment,
)
from .pipeline import (
    Pipeline,
    build_pipeline,
    default_passes,
    finalize,
)

__all__ = [
    "Allocate",
    "Codegen",
    "FixedModeFallback",
    "Flatten",
    "PartitionOversized",
    "Pass",
    "Pipeline",
    "PipelineContext",
    "Refine",
    "Segment",
    "build_pipeline",
    "default_passes",
    "finalize",
]
