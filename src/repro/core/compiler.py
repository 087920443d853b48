"""CMSwitch compiler facade over the pass-based pipeline.

:class:`CMSwitchCompiler` runs the full DACO pipeline of the paper —

1. flatten the graph and partition oversized operators,
2. dynamic-programming network segmentation with mode-switch awareness,
3. per-segment MIP allocation of compute / memory arrays with pipelined
   scheduling and weight-duplication refinement,
4. code generation into the dual-mode meta-operator flow (DMO).

Since the pipeline refactor the stages are named, composable
:class:`~repro.pipeline.passes.Pass` objects executed by a
:class:`~repro.pipeline.pipeline.Pipeline` (see :mod:`repro.pipeline`);
this class builds the standard pass sequence, runs it and finalises the
:class:`~repro.core.program.CompiledProgram` that the timing and
functional simulators (and the benchmark harness) consume.  Per-pass
wall times ride on ``CompiledProgram.stats["pass_seconds"]``.

For application code prefer :class:`repro.api.Session`, the stable
facade over compile / batch / DSE / cache; this module remains the
compiler engine underneath it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from .cache import AllocationCache
from .program import CompiledProgram
from .segmentation import SegmentationOptions, validate_window

# Public re-exports (their historical home).  ``NoFeasiblePlanError`` is
# defined next to the segmenter, which raises it for unmappable
# segments; the plan-arbitration helpers moved to the segmentation
# module when the pipeline package was introduced (it needs them without
# importing this facade).
from .segmentation import (  # noqa: F401  (public re-exports)
    NoFeasiblePlanError,
    choose_plan,
    plan_arrays,
    plan_cost,
)

@dataclass
class CompilerOptions:
    """User-facing compilation options.

    Validated on construction: ``max_segment_operators`` must be an
    ``int`` >= 1 (a clear :class:`ValueError` instead of a deep solver
    failure).

    Attributes:
        max_segment_operators: DP window — maximum operators per segment.
        pipelined: Pipeline operators within a segment (Eq. 9 objective).
        include_switch_cost: Charge the Eq. 1 mode-switch latency in the DP.
        use_milp: Use the optimal per-segment allocator — the Eq. 8/9
            MILP's optimum, found exactly without a solver — (otherwise
            greedy).
        refine: Apply weight-duplication refinement after allocation.
        allow_memory_mode: Allow arrays in memory mode.  Setting this to
            False degenerates CMSwitch into a fixed-mode compiler and is
            used by baselines/ablations.
        generate_code: Emit the meta-operator flow alongside the plan.
    """

    max_segment_operators: int = 8
    pipelined: bool = True
    include_switch_cost: bool = True
    use_milp: bool = True
    refine: bool = True
    allow_memory_mode: bool = True
    generate_code: bool = True

    def __post_init__(self) -> None:
        validate_window(self.max_segment_operators)

    def to_segmentation_options(self) -> SegmentationOptions:
        """Translate to the segmentation pass options."""
        return SegmentationOptions(
            max_segment_operators=self.max_segment_operators,
            pipelined=self.pipelined,
            include_switch_cost=self.include_switch_cost,
            allow_memory_mode=self.allow_memory_mode,
            use_milp=self.use_milp,
            refine=self.refine,
        )


class CMSwitchCompiler:
    """Dual-mode-aware DNN compiler for CIM accelerators (the paper's tool).

    Args:
        hardware: Target dual-mode hardware abstraction (DEHA).
        options: Compilation options; defaults reproduce the paper's setup.
        cache: Optional shared :class:`~repro.core.cache.AllocationCache`.
            With a cache, repeated compiles of the same network skip the
            solver entirely.  Pass one cache to many compilers (or use
            :class:`repro.api.Session`) to share it between compile
            requests.
        pipeline: Optional custom :class:`~repro.pipeline.Pipeline`; the
            standard pass sequence when omitted.  A fresh context is
            created per compile, so one compiler (and one pipeline) can
            serve many graphs.
        obs: Optional :class:`~repro.obs.Observability` bundle; every
            compile's pass spans, allocator-solve spans and cache-tier
            counters land in it.  Defaults to the no-op bundle.

    Example:
        >>> from repro.hardware import dynaplasia
        >>> from repro.models import build_model, Workload
        >>> compiler = CMSwitchCompiler(dynaplasia())
        >>> program = compiler.compile(build_model("tiny-cnn", Workload()))
        >>> program.num_segments >= 1
        True
    """

    name = "cmswitch"

    def __init__(
        self,
        hardware: DualModeHardwareAbstraction,
        options: Optional[CompilerOptions] = None,
        cache: Optional[AllocationCache] = None,
        pipeline=None,
        obs=None,
    ) -> None:
        from ..obs import NULL_OBS
        from ..pipeline import build_pipeline

        self.hardware = hardware
        self.options = options or CompilerOptions()
        self.cache = cache
        self.obs = NULL_OBS if obs is None else obs
        self.pipeline = pipeline if pipeline is not None else build_pipeline()

    def compile(self, graph: Graph) -> CompiledProgram:
        """Compile a graph into a dual-mode execution plan.

        Runs the pass pipeline over a fresh
        :class:`~repro.pipeline.context.PipelineContext` and finalises
        the program.

        Args:
            graph: The computation graph (typically from
                :func:`repro.models.build_model`).

        Returns:
            The compiled program with segment plans, predicted latency,
            per-pass timing stats and, when ``generate_code`` is
            enabled, the meta-operator flow.

        Raises:
            NoFeasiblePlanError: If no feasible plan exists for a
                non-empty graph.
        """
        from ..pipeline import PipelineContext, finalize

        ctx = PipelineContext(
            graph=graph,
            hardware=self.hardware,
            options=self.options,
            cache=self.cache,
            obs=self.obs,
            compiler_name=self.name,
            started=time.perf_counter(),
        )
        self.pipeline.run(ctx)
        return finalize(ctx)

