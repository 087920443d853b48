"""Design-space exploration over the dual-mode compiler.

The paper's dual-mode abstraction exists so a compiler can trade CIM
arrays against memory capacity per workload — which makes hardware and
allocation design-space exploration the natural heavy-traffic use of
this repo.  This package is that layer, built on the shared allocation
cache and the ``cache_dir`` program store instead of ad-hoc sweep loops:

* :mod:`~repro.dse.space` — declarative :class:`DesignSpace` grids over
  models, workloads, DEHA parameters and compiler options;
* :mod:`~repro.dse.planner` — structural dedup, so batches collapse
  duplicates onto one evaluation;
* :mod:`~repro.dse.strategies` — ``grid`` / ``random`` / ``greedy`` /
  ``successive-halving`` (multi-fidelity) search under an ask/tell
  protocol;
* :mod:`~repro.dse.runner` — the loop: strategy -> state skip ->
  planner -> one of the two :mod:`repro.eval` evaluators (an
  analytical lower bound, or a plan from the full
  :class:`~repro.service.CompileService` pipeline) -> records;
* :mod:`~repro.dse.state` — crash-safe resumable run directories;
* :mod:`~repro.dse.pareto` — latency/energy/arrays Pareto frontiers
  with text and CSV reports.

Quickstart::

    from repro.dse import DesignSpace, run_dse

    space = DesignSpace(
        models=["resnet18"],
        base_hardware="dynaplasia",
        hardware_axes={"num_arrays": [64, 96, 128]},
    )
    result = run_dse(space, strategy="grid", cache_dir="/tmp/programs")
    print(result.render_report())

The CLI front end is ``repro dse`` (see ``repro dse --help``).
"""

from .pareto import (
    DEFAULT_AXES,
    dominates,
    full_fidelity_records,
    pareto_frontier,
    render_report,
    write_csv,
)
from .planner import Plan, PlannedJob, Planner
from .runner import (
    DSEResult,
    DSERunner,
    EvaluationRecord,
    FIDELITY_MODES,
    OBJECTIVES,
    run_dse,
)
from .space import DesignPoint, DesignSpace, ParameterAxis, options_signature
from .state import RunState, RunStateError, STATE_FORMAT_VERSION
from .strategies import (
    STRATEGIES,
    GreedyStrategy,
    GridStrategy,
    RandomStrategy,
    Strategy,
    SuccessiveHalvingStrategy,
    make_strategy,
)

__all__ = [
    "DEFAULT_AXES",
    "DSEResult",
    "DSERunner",
    "DesignPoint",
    "DesignSpace",
    "EvaluationRecord",
    "FIDELITY_MODES",
    "GreedyStrategy",
    "GridStrategy",
    "OBJECTIVES",
    "ParameterAxis",
    "Plan",
    "PlannedJob",
    "Planner",
    "RandomStrategy",
    "RunState",
    "RunStateError",
    "STATE_FORMAT_VERSION",
    "STRATEGIES",
    "Strategy",
    "SuccessiveHalvingStrategy",
    "dominates",
    "full_fidelity_records",
    "make_strategy",
    "options_signature",
    "pareto_frontier",
    "render_report",
    "run_dse",
    "write_csv",
]
