"""The passes of the DACO compile flow, as first-class values.

The paper's DACO flow — flatten, partition oversized operators, DP
segmentation, per-segment MIP allocation, refinement, DMO code
generation — is a sequence of named, stateless :class:`Pass` objects
over a typed :class:`PipelineContext`.  A compiler is its tuple of
passes (:attr:`repro.core.compiler.CMSwitchCompiler.passes`), and
:meth:`~repro.core.compiler.CMSwitchCompiler.compile` is the one loop
that runs them, timing each into
``CompiledProgram.stats["pass_seconds"]``.

The baselines are pass tuples too: CIM-MLC runs CMSwitch's with memory
mode pinned off, and PUMA/OCC put a
:class:`repro.baselines.BoundaryPolicySegment` in the ``segment`` slot
and keep the rest.  A compile with an extra pass is a subclass whose
tuple is a slice of CMSwitch's with that pass inserted::

    from repro.core import CMSwitchCompiler
    from repro.pipeline import FixedModeFallback

    class WithOracle(CMSwitchCompiler):
        passes = (*CMSwitchCompiler.passes[:4], FixedModeFallback(),
                  *CMSwitchCompiler.passes[4:])
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

__all__ = [
    "Allocate",
    "Codegen",
    "FixedModeFallback",
    "Flatten",
    "PartitionOversized",
    "Pass",
    "PipelineContext",
    "Refine",
    "Segment",
]
