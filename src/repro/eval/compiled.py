"""Plan fidelity: evaluate a candidate by compiling it.

:class:`CompileEvaluator` runs the full pass pipeline through a
:class:`~repro.service.CompileService` (program table, shared
allocation cache, program store) and answers with metrics taken from
the real :class:`~repro.core.program.CompiledProgram`.  The parity suite
ratchets that its programs are bit-identical to direct
:meth:`repro.api.Session.compile` output.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cost.energy import estimate_energy
from ..service import CompileJob, CompileJobResult, CompileService
from .base import Evaluation, Evaluator

__all__ = ["CompileEvaluator", "evaluation_from_outcome"]


def evaluation_from_outcome(outcome: CompileJobResult) -> Evaluation:
    """Convert a compile-service outcome into a typed :class:`Evaluation`.

    This is the single place compiled metrics are extracted for
    evaluation purposes (latency, first-order energy, peak arrays,
    solver counters) — the DSE runner used to do this inline.  A
    :class:`~repro.core.segmentation.NoFeasiblePlanError` is a
    legitimate *infeasible* verdict, not a failure; its pre-failure
    solver statistics are preserved either way.
    """
    evaluation = Evaluation(
        fidelity="compile",
        eval_seconds=outcome.wall_seconds,
        allocator_solves=int(outcome.stats.get("allocator_solves", 0)),
        cache_hits=int(outcome.stats.get("allocation_cache_hits", 0)),
        disk_hits=int(outcome.stats.get("allocation_disk_hits", 0)),
        # A pipeline run always times its passes; a served program's
        # re-stamped stats (``repro.service._served``) list none.
        served=outcome.ok and not outcome.stats.get("pass_seconds"),
    )
    if not outcome.ok:
        evaluation.error = outcome.error
        evaluation.failed = not (outcome.error or "").startswith(
            "NoFeasiblePlanError"
        )
        return evaluation
    program = outcome.program
    evaluation.feasible = True
    evaluation.program = program
    evaluation.latency_ms = program.end_to_end_ms
    evaluation.cycles = program.end_to_end_cycles
    evaluation.energy_mj = estimate_energy(program).end_to_end_mj
    evaluation.num_segments = program.num_segments
    evaluation.peak_arrays = max(
        (
            segment.compute_arrays + segment.memory_arrays
            for segment in program.segments
        ),
        default=0,
    )
    return evaluation


class CompileEvaluator(Evaluator):
    """Evaluates by running the full compile pipeline (the paper's flow).

    Args:
        service: The compile service jobs run through; its cache and
            program store govern every evaluation.
    """

    fidelity = "compile"

    def __init__(self, service: Optional[CompileService] = None) -> None:
        self.service = service if service is not None else CompileService()

    def evaluate(self, job: CompileJob) -> Evaluation:
        return evaluation_from_outcome(self.service.compile(job))

    def evaluate_batch(self, jobs: Sequence[CompileJob]) -> List[Evaluation]:
        """Run the batch through the service (one ``compile_batch`` span)."""
        outcomes = self.service.compile_batch(jobs)
        return [evaluation_from_outcome(outcome) for outcome in outcomes]
