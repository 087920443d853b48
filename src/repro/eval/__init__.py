"""Two-fidelity candidate evaluation: a bound, or a plan.

The paper's DSE results (Figs. 16-17) hinge on scoring many (hardware,
option) candidates; this package makes "evaluate a candidate" a
first-class, fidelity-tagged operation with exactly two answers:

* :class:`AnalyticalEvaluator` — the **bound**: closed-form lower
  bounds from :mod:`repro.cost.analytical`, feasibility from the shared
  :class:`~repro.core.feasibility.FeasibilityModel`, **zero** allocator
  solves;
* :class:`CompileEvaluator` — the **plan**: the full pass pipeline
  (bit-identical to direct compilation, ratcheted by the parity suite).

Both return the same typed :class:`Evaluation` (metrics, fidelity tag,
lower-bound flag, cost of evaluation), which is what lets the DSE layer
run the two-rung schedule — a cheap analytical sweep of the whole
space, then full compiles for the survivors — under the existing
ask/tell strategy protocol (``repro dse --fidelity auto``).

Quickstart::

    from repro.eval import AnalyticalEvaluator, CompileEvaluator
    from repro.service import CompileJob

    job = CompileJob("resnet18", hardware="dynaplasia")
    bound = AnalyticalEvaluator().evaluate(job)     # microseconds, 0 solves
    exact = CompileEvaluator().evaluate(job)        # the full pipeline
    assert bound.cycles <= exact.cycles             # a true lower bound
"""

from .analytical import AnalyticalEvaluator
from .base import (
    FIDELITIES,
    FIDELITY_RANK,
    Evaluation,
    Evaluator,
    fidelity_rank,
)
from .compiled import CompileEvaluator, evaluation_from_outcome

__all__ = [
    "AnalyticalEvaluator",
    "CompileEvaluator",
    "Evaluation",
    "Evaluator",
    "FIDELITIES",
    "FIDELITY_RANK",
    "evaluation_from_outcome",
    "fidelity_rank",
]
