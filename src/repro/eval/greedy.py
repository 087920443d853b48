"""Mid-fidelity evaluation: the full pipeline with the greedy allocator.

:class:`GreedyEvaluator` runs every pass the compile tier runs — DP
segmentation, refinement accounting, code generation off —
but swaps the per-segment MILP allocator for the greedy one
(``use_milp=False``), so a candidate is scored by a *real, executable
plan* without paying for a single MILP solve.  That places it between
the rungs the package already has:

* unlike the ``analytical`` tier its metrics come from a concrete plan
  (segment boundaries, mode assignments, inter-segment costs all
  materialised), so candidate rankings reflect the actual plan
  structure, not a closed-form floor;
* unlike the ``compile`` tier its plan is heuristic: the greedy
  allocator can (and on contended segments does) pick worse array
  splits than the MILP optimum, so greedy metrics are **not a bound in
  either direction** on the compile-tier cost.  They are an estimate —
  typically within a few percent, occasionally not — which is exactly
  the trust level a middle successive-halving rung needs: cheap enough
  to score many candidates, faithful enough to rank them.

Because the allocation cache and the per-run solve memo key on the
engine (``"greedy"`` vs ``"exact"``), greedy evaluations never pollute
the optimal engine's cache entries and vice versa; a candidate promoted
from this rung to ``compile`` fidelity starts its solves from whatever the run
has already warmed, exactly as if the greedy rung had not run.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import List, Optional, Sequence

from ..core.compiler import CompilerOptions
from ..service import CompileJob, CompileService
from .base import Evaluation, Evaluator
from .compiled import evaluation_from_outcome

__all__ = ["GreedyEvaluator"]


class GreedyEvaluator(Evaluator):
    """Evaluates via the full pipeline with the greedy (no-MILP) allocator.

    Args:
        service: The compile service jobs run through; its cache,
            backend and pool width govern every evaluation, exactly as
            for :class:`~repro.eval.compiled.CompileEvaluator`.
    """

    fidelity = "greedy"

    def __init__(self, service: Optional[CompileService] = None) -> None:
        self.service = service if service is not None else CompileService()

    @staticmethod
    def _greedy_job(job: CompileJob) -> CompileJob:
        """The same job with the MILP allocator forced off.

        Code generation is also disabled — rung metrics never need the
        meta-operator flow, and the compile tier regenerates it anyway
        for whichever candidates survive.
        """
        options = job.options or CompilerOptions(generate_code=False)
        return dc_replace(
            job, options=dc_replace(options, use_milp=False, generate_code=False)
        )

    def evaluate(self, job: CompileJob) -> Evaluation:
        outcome = self.service.compile(self._greedy_job(job))
        return evaluation_from_outcome(outcome, self.fidelity)

    def evaluate_batch(
        self,
        jobs: Sequence[CompileJob],
        warm_hints: Optional[Sequence[bool]] = None,
    ) -> List[Evaluation]:
        """Run the batch through the service's worker pool."""
        del warm_hints  # greedy evaluation is cheap warm or cold alike
        outcomes = self.service.compile_batch(
            [self._greedy_job(job) for job in jobs]
        )
        return [
            evaluation_from_outcome(outcome, self.fidelity) for outcome in outcomes
        ]
