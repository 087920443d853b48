"""Design-space exploration over the dual-mode compiler.

The paper's dual-mode abstraction exists so a compiler can trade CIM
arrays against memory capacity per workload — which makes hardware and
allocation design-space exploration the natural heavy-traffic use of
this repo.  This package is that layer, built on the shared allocation
cache and the ``cache_dir`` program store instead of ad-hoc sweep loops:

* :mod:`~repro.dse.space` — declarative :class:`DesignSpace` grids over
  models, workloads, DEHA parameters and compiler options;
* :mod:`~repro.dse.runner` — one pass over the grid: state skip -> one
  :class:`~repro.service.CompileJob` per point -> a plan from the
  :class:`~repro.service.CompileService`, or an analytical lower bound
  from :mod:`~repro.dse.bound` -> records;
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
    result = run_dse(space, cache_dir="/tmp/programs")
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
from .runner import (
    DSEResult,
    DSERunner,
    EvaluationRecord,
    FIDELITIES,
    OBJECTIVES,
    fidelity_rank,
    run_dse,
)
from .space import DesignPoint, DesignSpace, ParameterAxis, options_signature
from .state import RunState, RunStateError, STATE_FORMAT_VERSION

__all__ = [
    "DEFAULT_AXES",
    "DSEResult",
    "DSERunner",
    "DesignPoint",
    "DesignSpace",
    "EvaluationRecord",
    "FIDELITIES",
    "OBJECTIVES",
    "ParameterAxis",
    "RunState",
    "RunStateError",
    "STATE_FORMAT_VERSION",
    "dominates",
    "fidelity_rank",
    "full_fidelity_records",
    "options_signature",
    "pareto_frontier",
    "render_report",
    "run_dse",
    "write_csv",
]
