"""The typed state a compile threads through its passes.

A :class:`PipelineContext` is created once per compile and handed to
every :class:`~repro.pipeline.passes.Pass` in order.  Each pass reads
the fields earlier passes produced and writes its own — the context is
the *only* channel between passes, which is what makes them individually
replaceable (swap the segmentation strategy, add an instrumentation
pass) without touching the others.

The context also carries the pass log the compile loop maintains:
per-pass wall times in execution order
(:attr:`PipelineContext.pass_seconds`, surfaced as
``CompiledProgram.stats["pass_seconds"]``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cache import AllocationCache
from ..obs import NULL_OBS
from ..core.program import SegmentPlan
from ..core.segmentation import FlattenedUnit, NetworkSegmenter, ProfiledOperator
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph

__all__ = ["PipelineContext"]


@dataclass
class PipelineContext:
    """Mutable compile state shared by the passes of one compile.

    Produced/consumed fields, in pipeline order:

    ======================  ==============================  =============
    field                   produced by                     consumed by
    ======================  ==============================  =============
    ``profiled``            ``Flatten``                     ``PartitionOversized``
    ``units``               ``PartitionOversized``          ``Segment`` onwards
    ``segmenters``          ``Segment`` (first), oracles    ``Allocate``, :meth:`stats`
    ``boundaries``          ``Segment``                     ``Allocate``
    ``segments``            ``Allocate``                    every later pass
    ``fallback_used``       ``FixedModeFallback`` (oracle)  plan-quality tests
    ``meta_program``        ``Codegen``                     program assembly
    ======================  ==============================  =============

    Each segmenter owns the solve and hit counts of the windows it
    consumed; :meth:`stats` sums them over every segmenter the compile
    ran (the oracle pass's included, when a test inserts it).
    """

    graph: Graph
    hardware: DualModeHardwareAbstraction
    options: object  # CompilerOptions; untyped here to avoid an import cycle
    #: The window table every segmenter of the compile solves through.
    cache: AllocationCache
    #: Telemetry bundle (:class:`~repro.obs.Observability`).  Defaults to
    #: the no-op :data:`~repro.obs.NULL_OBS`; the compile loop opens a span
    #: per pass and the segmentation passes hand it to their segmenters.
    obs: object = NULL_OBS

    # Products of the passes.
    profiled: Optional[List[ProfiledOperator]] = None
    units: Optional[List[FlattenedUnit]] = None
    segmenters: List[NetworkSegmenter] = field(default_factory=list)
    boundaries: Optional[List[Tuple[int, int]]] = None
    segments: Optional[List[SegmentPlan]] = None
    fallback_used: bool = False
    meta_program: Optional[object] = None

    #: The pass log the compile loop keeps: executed passes in order.
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    #: Free-form per-pass annotations (merged into ``CompiledProgram.stats``).
    extras: Dict[str, object] = field(default_factory=dict)
    #: ``time.perf_counter()`` at compile start.
    started: float = 0.0

    @property
    def segmenter(self) -> Optional[NetworkSegmenter]:
        """The ``Segment`` pass's segmenter (``Allocate`` builds its plans)."""
        return self.segmenters[0] if self.segmenters else None

    def stats(self) -> Dict[str, object]:
        """The compile's work: solver counts, wall time, pass log.

        The one builder of a program's ``stats`` (which the compile
        extends with the passes' :attr:`extras`).  Windows are never read from disk; a program the store served
        says so itself (``CompileService.compile_graph``).
        """
        solves = sum(segmenter.allocation_calls for segmenter in self.segmenters)
        hits = sum(segmenter.cache_hits for segmenter in self.segmenters)
        return {
            "allocator_solves": solves,
            "allocation_cache_hits": hits,
            "allocation_disk_hits": 0,
            "allocation_cache_hit_rate": hits / (solves + hits) if solves + hits else 0.0,
            "wall_seconds": time.perf_counter() - self.started,
            "pass_seconds": dict(self.pass_seconds),
        }
