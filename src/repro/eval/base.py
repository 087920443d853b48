"""The Evaluator protocol and its typed :class:`Evaluation` result.

Before this layer existed, "evaluate a design candidate" *was* "fully
compile it": the DSE runner could only hand jobs to the
:class:`~repro.service.CompileService` and then pick latency/energy off
the compiled program itself.  The evaluator layer separates the
question ("how good is this candidate, and is it feasible?") from the
machinery that answers it.  There are two answers:

* :class:`~repro.eval.analytical.AnalyticalEvaluator` — a **bound**:
  closed-form lower bounds, zero allocator solves (rung 0 of
  multi-fidelity search);
* :class:`~repro.eval.compiled.CompileEvaluator` — a **plan**: the full
  pipeline, unchanged (the parity suite ratchets that its programs are
  bit-identical to direct compilation).

Both answer with the same typed :class:`Evaluation`: the metrics, a
fidelity tag, whether the metrics are lower bounds, and the cost of
producing the answer (wall time and allocator solves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.program import CompiledProgram
from ..service import CompileJob

__all__ = [
    "Evaluation",
    "Evaluator",
    "FIDELITIES",
    "FIDELITY_RANK",
    "fidelity_rank",
]

#: Fidelity tags, cheapest first: a closed-form bound, a compiled plan.
FIDELITIES = ("analytical", "compile")

#: Ordering used to decide whether an existing record satisfies a
#: requested fidelity (higher rank answers for lower requests).
FIDELITY_RANK = {name: rank for rank, name in enumerate(FIDELITIES)}


def fidelity_rank(fidelity: Optional[str]) -> int:
    """Rank of a fidelity tag; an absent tag counts as a plan.

    Records written before fidelity existed were all full compiles, so
    an absent tag must rank as ``"compile"`` for resume compatibility.
    Tags of tiers that no longer exist never get here: the runner
    normalises or drops them when it loads a run directory.
    """
    return FIDELITY_RANK[fidelity or "compile"]


@dataclass
class Evaluation:
    """Typed outcome of evaluating one candidate at one fidelity.

    Attributes:
        fidelity: Which tier produced the answer (``"analytical"`` /
            ``"compile"``).
        feasible: Whether the candidate can execute on the chip.  At
            analytical fidelity this verdict is exact (the shared
            :class:`~repro.core.feasibility.FeasibilityModel` predicates
            agree with the allocators by construction).
        latency_ms / cycles / energy_mj: The candidate's metrics
            (end-to-end).  Lower bounds when ``lower_bound`` is set.
        num_segments: Segments of the compiled plan (0 when unknown —
            the analytical tier never segments).
        peak_arrays: Peak array occupancy (at analytical fidelity, the
            provable minimum any plan must occupy).
        allocator_solves / cache_hits / disk_hits: Solver-side cost of
            producing this answer (all zero for the analytical tier).
        served: True when the compile service answered with a program
            it already had — from its in-memory table or its
            ``cache_dir`` store — and no pass ran.
        eval_seconds: Wall-clock cost of producing this answer.
        lower_bound: True when the metrics are optimistic lower bounds
            rather than a concrete plan's cost.
        program: The compiled program, when a full compile ran.
        error: One-line description of an infeasibility or failure.
        failed: True for genuine errors (unknown model, a crash) —
            distinct from a proven-infeasible candidate.
    """

    fidelity: str
    feasible: bool = False
    latency_ms: float = math.inf
    cycles: float = math.inf
    energy_mj: float = math.inf
    num_segments: int = 0
    peak_arrays: int = 0
    allocator_solves: int = 0
    cache_hits: int = 0
    disk_hits: int = 0
    served: bool = False
    eval_seconds: float = 0.0
    lower_bound: bool = False
    program: Optional[CompiledProgram] = None
    error: Optional[str] = None
    failed: bool = False

    def describe(self) -> str:
        """One-line summary for logs."""
        if self.failed:
            return f"[{self.fidelity}] FAILED ({self.error})"
        if not self.feasible:
            return f"[{self.fidelity}] infeasible"
        bound = " (lower bound)" if self.lower_bound else ""
        return (
            f"[{self.fidelity}] {self.latency_ms:.3f} ms, "
            f"{self.energy_mj:.3f} mJ{bound}, "
            f"{self.allocator_solves} solves, {self.eval_seconds:.3f} s"
        )


class Evaluator:
    """Protocol of one evaluation tier.

    Implementations set :attr:`fidelity` and provide :meth:`evaluate`;
    the default :meth:`evaluate_batch` maps it over the jobs.
    Candidates are :class:`~repro.service.CompileJob` specs — the one
    (model, workload, hardware, options) carrier every layer of this
    codebase already speaks.
    """

    fidelity: str = "compile"

    def evaluate(self, job: CompileJob) -> Evaluation:
        """Evaluate one candidate; failures are captured, never raised."""
        raise NotImplementedError

    def evaluate_batch(self, jobs: Sequence[CompileJob]) -> List[Evaluation]:
        """Evaluate many candidates; results keep the input order."""
        return [self.evaluate(job) for job in jobs]
