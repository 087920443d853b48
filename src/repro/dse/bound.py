"""Rung 0 of a sweep: a closed-form lower bound on a design point, zero solves.

:func:`analytical_bound` answers "how good could this candidate possibly
be, and can it run at all?" without touching the segmentation DP or
either allocation engine.  It flattens the graph exactly the way the
compile pipeline does (profiling, oversized-operator partitioning — both
deterministic and allocator-free), asks the shared
:class:`~repro.core.feasibility.FeasibilityModel` whether every unit
fits, and scores the candidate with the :mod:`repro.cost.analytical`
bounds.

Guarantees (ratcheted by the calibration suite in ``tests/test_eval.py``):

* **feasibility is exact** — a point is feasible exactly when the full
  compiler would produce a program (the unit-fit predicate is necessary
  and sufficient; see :mod:`repro.core.feasibility`);
* **metrics are true lower bounds** — the latency and energy never
  exceed the compiled plan's;
* **zero allocator solves** — neither MILP nor greedy allocation runs,
  so a whole design space is scored in milliseconds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..core.feasibility import FeasibilityModel
from ..core.segmentation import FlattenedUnit, flatten_graph
from ..cost.analytical import AnalyticalEstimate, analytical_graph_estimate
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph

__all__ = ["FLATTEN_MEMO_ENTRIES", "analytical_bound"]

#: Bound of a flattening memo: sweeping many hardware variants of one
#: model re-flattens only when the chip's partitioning budget changes the
#: units, and at most this many (graph, chip) pairs stay pinned.
FLATTEN_MEMO_ENTRIES = 64


def _units(
    graph: Graph, hardware: DualModeHardwareAbstraction, memo: OrderedDict
) -> List[FlattenedUnit]:
    """Flattened units of ``graph`` on ``hardware``, through ``memo``.

    The memo maps ``(id(graph), chip fingerprint) -> (graph, units)``,
    least recently used first.  id(graph) alone is not a safe key — a
    garbage-collected graph's address can be reused by a different
    model's graph — so each entry pins the graph it was built from
    (keeping its id allocated) and is verified by identity on lookup.
    """
    key = (id(graph), hardware.fingerprint())
    entry = memo.get(key)
    if entry is not None and entry[0] is graph:
        memo.move_to_end(key)
        return entry[1]
    units = flatten_graph(graph, hardware)
    memo[key] = (graph, units)
    memo.move_to_end(key)
    while len(memo) > FLATTEN_MEMO_ENTRIES:
        memo.popitem(last=False)
    return units


def analytical_bound(
    graph: Graph,
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
    memo: Optional[OrderedDict] = None,
) -> Tuple[AnalyticalEstimate, Optional[str]]:
    """Lower-bound estimate of ``graph`` on ``hardware``, and its first unfit unit.

    Returns ``(estimate, unfit)``: ``unfit`` names the first flattened
    unit whose minimum footprint exceeds the chip (the point is then
    infeasible and the estimate meaningless), or is ``None``.  Errors
    (a graph the cost model rejects) propagate.  ``memo`` is the
    caller's flattening memo (an ``OrderedDict``, kept to
    :data:`FLATTEN_MEMO_ENTRIES` entries); without one the graph is
    flattened afresh.
    """
    units = _units(graph, hardware, OrderedDict() if memo is None else memo)
    profiles = {unit.name: unit.profile for unit in units}
    unfit = FeasibilityModel(hardware).first_unfit(profiles)
    estimate = analytical_graph_estimate(
        list(profiles.values()),
        hardware,
        allow_memory_mode=allow_memory_mode,
        block_repeat=float(graph.metadata.get("block_repeat", 1.0)),
    )
    return estimate, unfit
