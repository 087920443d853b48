"""The typed state a compile pipeline threads through its passes.

A :class:`PipelineContext` is created once per compile and handed to
every :class:`~repro.pipeline.passes.Pass` in order.  Each pass reads
the fields earlier passes produced and writes its own — the context is
the *only* channel between passes, which is what makes them individually
replaceable (swap the segmentation strategy, drop code generation, add
an instrumentation pass) without touching the others.

The context also carries the pass log the pipeline itself maintains:
per-pass wall times in execution order
(:attr:`PipelineContext.pass_seconds`, surfaced as
``CompiledProgram.stats["pass_seconds"]`` and, as names,
``metadata["passes"]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cache import AllocationCache
from ..obs import NULL_OBS
from ..core.segmentation import (
    FlattenedUnit,
    NetworkSegmenter,
    ProfiledOperator,
    SegmentationResult,
)
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph

__all__ = ["PipelineContext"]


@dataclass
class PipelineContext:
    """Mutable compile state shared by the passes of one pipeline run.

    Produced/consumed fields, in pipeline order:

    ======================  ==============================  =============
    field                   produced by                     consumed by
    ======================  ==============================  =============
    ``profiled``            ``Flatten``                     ``PartitionOversized``
    ``units``               ``PartitionOversized``          ``Segment`` onwards
    ``segmenter``           ``Segment``                     ``Allocate``
    ``boundaries``          ``Segment``                     ``Allocate``
    ``result``              ``Allocate``                    every later pass
    ``fallback_used``       ``FixedModeFallback`` (oracle)  plan-quality tests
    ``meta_program``        ``Codegen``                     program assembly
    ======================  ==============================  =============

    The solver counters (``allocation_calls`` / ``cache_hits``)
    accumulate over every pass that solves (the oracle
    pass included, when a test inserts it), exactly as the fused
    compiler accumulated them.
    """

    graph: Graph
    hardware: DualModeHardwareAbstraction
    options: object  # CompilerOptions; untyped here to avoid an import cycle
    cache: Optional[AllocationCache] = None
    #: Telemetry bundle (:class:`~repro.obs.Observability`).  Defaults to
    #: the no-op :data:`~repro.obs.NULL_OBS`; the runner opens a span per
    #: pass and the segmentation passes hand it to their segmenters.
    obs: object = NULL_OBS
    compiler_name: str = "cmswitch"

    # Products of the passes.
    profiled: Optional[List[ProfiledOperator]] = None
    units: Optional[List[FlattenedUnit]] = None
    segmenter: Optional[NetworkSegmenter] = None
    boundaries: Optional[List[Tuple[int, int]]] = None
    result: Optional[SegmentationResult] = None
    fallback_used: bool = False
    meta_program: Optional[object] = None

    # Solver accounting.
    allocation_calls: int = 0
    cache_hits: int = 0
    #: Wall time attributed to segmentation + plan building, mirroring the
    #: fused compiler's ``dp_seconds`` metadata field.
    dp_seconds: float = 0.0

    #: The pass log the Pipeline runner keeps: executed passes in order.
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    #: Free-form per-pass annotations (merged into ``CompiledProgram.stats``).
    extras: Dict[str, object] = field(default_factory=dict)
    #: ``time.perf_counter()`` at pipeline start (set by the runner).
    started: float = 0.0

    @property
    def solve_attempts(self) -> int:
        """Allocator invocations, fresh and cache-served combined."""
        return self.allocation_calls + self.cache_hits

    def stats_payload(self) -> Dict[str, float]:
        """The solver-counter block of ``CompiledProgram.stats``."""
        attempts = self.solve_attempts
        return {
            "allocator_solves": self.allocation_calls,
            "allocation_cache_hits": self.cache_hits,
            # Windows are never read from disk; a program the store
            # served says so itself (``CompileService.compile_graph``).
            "allocation_disk_hits": 0,
            "allocation_cache_hit_rate": (
                self.cache_hits / attempts if attempts else 0.0
            ),
        }
