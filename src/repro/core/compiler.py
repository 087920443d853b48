"""CMSwitch compiler: a tuple of passes and the one loop that runs them.

:class:`CMSwitchCompiler` runs the full DACO flow of the paper —

1. flatten the graph and partition oversized operators,
2. dynamic-programming network segmentation with mode-switch awareness,
3. per-segment MIP allocation of compute / memory arrays with pipelined
   scheduling and weight-duplication refinement,
4. code generation into the dual-mode meta-operator flow (DMO).

Each stage is a stateless :class:`~repro.pipeline.passes.Pass` object
(see :mod:`repro.pipeline`); a compiler *is* its :attr:`~CMSwitchCompiler
.passes` tuple.  :meth:`CMSwitchCompiler.compile` runs the passes over a
fresh :class:`~repro.pipeline.context.PipelineContext` and assembles the
:class:`~repro.core.program.CompiledProgram` that the timing and
functional simulators (and the benchmark harness) consume.  Per-pass
wall times ride on ``CompiledProgram.stats["pass_seconds"]``.  Another
compiler is a subclass with another tuple: the baselines swap the
``segment`` pass (:mod:`repro.baselines`), a test oracle or an
instrumentation pass is a slice of :attr:`CMSwitchCompiler.passes` with
one pass inserted.

For application code prefer :class:`repro.api.Session`, the stable
facade over compile / batch / DSE / cache; this module remains the
compiler engine underneath it.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Optional, Tuple

from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from ..obs import NULL_OBS
from ..pipeline.passes import (
    Allocate,
    Codegen,
    Flatten,
    PartitionOversized,
    Pass,
    Refine,
    Segment,
)
from .cache import AllocationCache
from .program import CompiledProgram

# ``CompilerOptions`` is re-exported here (its historical home); it is
# defined next to the segmenter, which reads it.
from .segmentation import CompilerOptions


class CMSwitchCompiler:
    """Dual-mode-aware DNN compiler for CIM accelerators (the paper's tool).

    Args:
        hardware: Target dual-mode hardware abstraction (DEHA).
        options: Compilation options; defaults reproduce the paper's setup.
        cache: The window table (:class:`~repro.core.cache.AllocationCache`)
            its compiles solve through.  When omitted the compiler builds
            its own, once, so a direct compile reports what a fresh
            :class:`repro.api.Session` does; pass one table to many
            compilers to share it (a :class:`~repro.service.CompileService`
            hands its one to every compiler it builds).
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
    #: The passes every compile runs, in order.  Stateless: one tuple
    #: serves every compiler instance and every graph.  Options-gated
    #: passes (``refine``, ``codegen``) skip themselves.
    passes: Tuple[Pass, ...] = (
        Flatten(),
        PartitionOversized(),
        Segment(),
        Allocate(),
        Refine(),
        Codegen(),
    )

    def __init__(
        self,
        hardware: DualModeHardwareAbstraction,
        options: Optional[CompilerOptions] = None,
        cache: Optional[AllocationCache] = None,
        obs=None,
    ) -> None:
        self.hardware = hardware
        self.options = self.pin_options(options or CompilerOptions())
        self.obs = NULL_OBS if obs is None else obs
        self.cache = AllocationCache(metrics=self.obs.metrics) if cache is None else cache

    @classmethod
    def pin_options(cls, options: CompilerOptions) -> CompilerOptions:
        """The options this compiler runs with (a baseline pins some fields)."""
        return options

    def compile(self, graph: Graph) -> CompiledProgram:
        """Compile a graph into a dual-mode execution plan.

        Runs every enabled pass over a fresh
        :class:`~repro.pipeline.context.PipelineContext`, timing each
        into ``stats["pass_seconds"]`` (a disabled pass gets no entry,
        and a ``<pass>:skip`` tracer instant instead of a span), then
        assembles the program.

        Args:
            graph: The computation graph (typically from
                :func:`repro.models.build_model`).

        Returns:
            The compiled program with segment plans, predicted latency,
            per-pass timing stats and, when ``generate_code`` is
            enabled, the meta-operator flow.  Partitioning makes every
            operator fit the chip, so every graph has a plan.
        """
        # Imported here: the context module imports repro.core, which
        # imports this module.
        from ..pipeline.context import PipelineContext

        ctx = PipelineContext(
            graph=graph,
            hardware=self.hardware,
            options=self.options,
            cache=self.cache,
            obs=self.obs,
            started=time.perf_counter(),
        )
        tracer = self.obs.tracer
        with tracer.span("pipeline", graph=graph.name, compiler=self.name):
            for p in self.passes:
                if not p.enabled(ctx):
                    tracer.event(f"{p.name}:skip")
                    continue
                with tracer.span(p.name, kind="pass"):
                    began = time.perf_counter()
                    p.run(ctx)
                    ctx.pass_seconds[p.name] = time.perf_counter() - began

        stats = ctx.stats()
        for key, value in ctx.extras.items():
            stats.setdefault(key, value)
        return CompiledProgram(
            graph_name=graph.name,
            compiler_name=self.name,
            hardware=self.hardware,
            segments=ctx.segments,
            block_repeat=float(graph.metadata.get("block_repeat", 1.0)),
            compile_seconds=stats["wall_seconds"],
            metadata={
                "graph_metadata": dict(graph.metadata),
                "options": asdict(self.options),
                "num_flattened_units": len(ctx.units),
            },
            stats=stats,
            meta_program=ctx.meta_program,
        )
