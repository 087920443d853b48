"""Shared machinery of the fixed-mode baseline compilers.

The paper compares CMSwitch against three prior CIM compilers — PUMA,
OCC and CIM-MLC.  All three treat every CIM array as a *compute* resource
(no memory mode), so streamed data is served by the native buffer and the
off-chip link only, and all intermediate data that exceeds the native
buffer spills to main memory between segments.  They differ in their
scheduling strategy:

* **PUMA** — operator duplication plus cross-operator pipelining, with a
  simple greedy segmentation that packs consecutive operators until the
  chip is full.
* **OCC** — per-operator mapping with tiling / loop unrolling; operators
  execute one after another, one per segment (no cross-operator
  pipeline), and the arrays the operator leaves spare duplicate its
  weights.
* **CIM-MLC** — the strongest baseline: the same dynamic-programming
  segmentation and pipelined scheduling CMSwitch uses (CMSwitch adopts its
  kernel optimisations), but with every array fixed in compute mode.

All of them are configurations of :class:`~repro.core.compiler
.CMSwitchCompiler` with ``allow_memory_mode=False``: one cost model, one
allocation engine per option set, one window cache and one plan builder
(:meth:`~repro.core.segmentation.NetworkSegmenter.build_plans`), so
comparisons isolate exactly the contribution the paper claims: the
dual-mode dimension of the optimisation space.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from ..core.compiler import CMSwitchCompiler, CompilerOptions
from ..core.segmentation import FlattenedUnit
from ..hardware.deha import DualModeHardwareAbstraction
from ..pipeline import Pass, PipelineContext, Segment

#: ``(start, end)`` unit ranges (inclusive) in execution order.
Boundaries = List[Tuple[int, int]]
#: Draws a baseline's segment boundaries over the flattened units.
BoundaryPolicy = Callable[[Sequence[FlattenedUnit], DualModeHardwareAbstraction], Boundaries]


class BoundaryPolicySegment(Segment):
    """``Segment`` with the boundaries a policy draws instead of the DP.

    The segmenter is built exactly as ``Segment`` builds it, so
    ``Allocate`` materialises the plans with
    :meth:`~repro.core.segmentation.NetworkSegmenter.build_plans`: one
    window solve per segment, through the shared cache.
    """

    def __init__(self, policy: BoundaryPolicy) -> None:
        self.policy = policy

    def choose_boundaries(self, ctx: PipelineContext) -> Boundaries:
        return self.policy(ctx.units, ctx.hardware)


def policy_passes(policy: BoundaryPolicy) -> Tuple[Pass, ...]:
    """CMSwitch's passes with ``policy`` drawing the segment boundaries."""
    standard = CMSwitchCompiler.passes
    return (*standard[:2], BoundaryPolicySegment(policy), *standard[3:])


class BaselineCompiler(CMSwitchCompiler):
    """A fixed-mode compiler whose segments a policy draws (PUMA, OCC).

    The CMSwitch passes with the greedy engine and memory mode off; a
    subclass puts its boundary policy in the ``segment`` slot
    (:func:`policy_passes`) instead of running the DP.
    ``GreedyAllocator(allow_memory_mode=False)`` is the duplication
    policy: every operator starts at its minimum compute footprint and
    spare arrays grow the bottleneck operator's compute arrays while that
    lowers its latency.  Of ``options`` only ``generate_code`` is
    honoured.
    """

    name = "baseline"
    #: Whether operators within a segment execute as a pipeline.
    pipelined = True

    @classmethod
    def pin_options(cls, options: CompilerOptions) -> CompilerOptions:
        return CompilerOptions(
            pipelined=cls.pipelined,
            use_milp=False,
            allow_memory_mode=False,
            generate_code=options.generate_code,
        )
