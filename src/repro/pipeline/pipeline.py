"""The pipeline runner: ordered passes, surgery, instrumentation.

:class:`Pipeline` executes a sequence of :class:`~repro.pipeline.passes
.Pass` objects over one :class:`~repro.pipeline.context.PipelineContext`,
timing each pass into ``ctx.pass_seconds`` — the one pass log; a
context carrying an enabled tracer also gets a span per pass and a
``<pass>:skip`` instant per disabled one.  The pass list is a
first-class value: :meth:`Pipeline.replace`,
:meth:`Pipeline.insert_before` / :meth:`Pipeline.insert_after` and
:meth:`Pipeline.remove` let callers swap a stage (a different
segmentation strategy, an extra instrumentation pass) without touching
the rest — which is what turns the compile pipeline itself into an
explorable artifact.

:func:`build_pipeline` constructs the standard CMSwitch sequence;
:func:`finalize` turns a finished context into a
:class:`~repro.core.program.CompiledProgram` (or raises
:class:`~repro.core.segmentation.NoFeasiblePlanError`), reproducing the
fused compiler's output bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict
from typing import List, Sequence

from ..core.program import CompiledProgram
from ..core.segmentation import NoFeasiblePlanError, plan_cost
from ..obs import NULL_TRACER
from .context import PipelineContext
from .passes import (
    Allocate,
    Codegen,
    Flatten,
    PartitionOversized,
    Pass,
    Refine,
    Segment,
)

__all__ = [
    "Pipeline",
    "build_pipeline",
    "default_passes",
    "finalize",
]


class Pipeline:
    """An ordered, editable sequence of compile passes.

    Args:
        passes: Initial pass objects (names must be unique).  A pass
            that observes or annotates the compile is one more pass
            (:meth:`insert_after`), not a callback.
    """

    def __init__(self, passes: Sequence[Pass] = ()) -> None:
        self._passes: List[Pass] = []
        for p in passes:
            self.append(p)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def passes(self) -> tuple:
        """The pass objects, in execution order."""
        return tuple(self._passes)

    @property
    def names(self) -> List[str]:
        """Pass names, in execution order."""
        return [p.name for p in self._passes]

    def get(self, name: str) -> Pass:
        """The pass registered under ``name``.

        Raises:
            KeyError: If no pass has that name.
        """
        for p in self._passes:
            if p.name == name:
                return p
        raise KeyError(
            f"no pass named {name!r}; pipeline has: {', '.join(self.names)}"
        )

    def _index(self, name: str) -> int:
        for index, p in enumerate(self._passes):
            if p.name == name:
                return index
        raise KeyError(
            f"no pass named {name!r}; pipeline has: {', '.join(self.names)}"
        )

    def _check_free(self, new_pass: Pass) -> None:
        if any(p.name == new_pass.name for p in self._passes):
            raise ValueError(
                f"a pass named {new_pass.name!r} is already registered "
                f"(use replace() to swap it)"
            )

    # ------------------------------------------------------------------ #
    # surgery
    # ------------------------------------------------------------------ #
    def append(self, new_pass: Pass) -> "Pipeline":
        """Add a pass at the end."""
        self._check_free(new_pass)
        self._passes.append(new_pass)
        return self

    def replace(self, name: str, new_pass: Pass) -> "Pipeline":
        """Swap the pass named ``name`` for ``new_pass`` (same position)."""
        index = self._index(name)
        if new_pass.name != name:
            self._check_free(new_pass)
        self._passes[index] = new_pass
        return self

    def insert_before(self, name: str, new_pass: Pass) -> "Pipeline":
        """Insert ``new_pass`` immediately before the pass named ``name``."""
        self._check_free(new_pass)
        self._passes.insert(self._index(name), new_pass)
        return self

    def insert_after(self, name: str, new_pass: Pass) -> "Pipeline":
        """Insert ``new_pass`` immediately after the pass named ``name``."""
        self._check_free(new_pass)
        self._passes.insert(self._index(name) + 1, new_pass)
        return self

    def remove(self, name: str) -> "Pipeline":
        """Drop the pass named ``name``."""
        del self._passes[self._index(name)]
        return self

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Execute every enabled pass over ``ctx``, timing each one.

        Disabled passes (``Pass.enabled(ctx)`` false) get no timing
        entry — ``pass_seconds`` lists exactly the work that ran, in
        order — and a ``<pass>:skip`` tracer instant.  A
        :class:`~repro.core.segmentation.NoFeasiblePlanError` leaves with
        the compile's :meth:`~PipelineContext.stats` so far, whichever
        pass raised it.
        """
        if not ctx.started:
            ctx.started = time.perf_counter()
        tracer = getattr(ctx.obs, "tracer", NULL_TRACER)
        with tracer.span(
            "pipeline", graph=ctx.graph.name, compiler=ctx.compiler_name
        ):
            for p in self._passes:
                if not p.enabled(ctx):
                    tracer.event(f"{p.name}:skip")
                    continue
                with tracer.span(p.name, kind="pass"):
                    began = time.perf_counter()
                    try:
                        p.run(ctx)
                    except NoFeasiblePlanError as exc:
                        exc.stats = ctx.stats()
                        raise
                    ctx.pass_seconds[p.name] = time.perf_counter() - began
        return ctx


def default_passes() -> List[Pass]:
    """The standard CMSwitch pass sequence, fresh instances."""
    return [
        Flatten(),
        PartitionOversized(),
        Segment(),
        Allocate(),
        Refine(),
        Codegen(),
    ]


def build_pipeline() -> Pipeline:
    """A :class:`Pipeline` with the standard CMSwitch pass sequence.

    Options-dependent passes (``Refine``, ``Codegen``) gate themselves
    on the context's options, so one pipeline serves every
    :class:`~repro.core.compiler.CompilerOptions` configuration —
    including the CIM-MLC baseline, which is exactly this pipeline with
    memory mode pinned off.
    """
    return Pipeline(default_passes())


def finalize(ctx: PipelineContext) -> CompiledProgram:
    """Assemble the :class:`CompiledProgram` from a finished context.

    Raises:
        NoFeasiblePlanError: If the chosen plan has infinite cost for a
            non-empty graph.
    """
    segments = ctx.segments
    if segments is None:
        raise RuntimeError("finalize() requires a completed pipeline run")
    stats = ctx.stats()
    if segments and not math.isfinite(plan_cost(segments)):
        raise NoFeasiblePlanError(
            f"no feasible execution plan for graph {ctx.graph.name!r} on "
            f"{ctx.hardware.name!r}: every evaluated plan has infinite cost",
            stats=stats,
        )
    for key, value in ctx.extras.items():
        stats.setdefault(key, value)
    return CompiledProgram(
        graph_name=ctx.graph.name,
        compiler_name=ctx.compiler_name,
        hardware=ctx.hardware,
        segments=segments,
        block_repeat=float(ctx.graph.metadata.get("block_repeat", 1.0)),
        compile_seconds=stats["wall_seconds"],
        metadata={
            "graph_metadata": dict(ctx.graph.metadata),
            "options": asdict(ctx.options),
            "num_flattened_units": len(ctx.units),
        },
        stats=stats,
        meta_program=ctx.meta_program,
    )
