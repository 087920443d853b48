"""Rung 0 of a sweep: a closed-form lower bound on a design point, zero solves.

:func:`analytical_bound` answers "how good could this candidate possibly
be, and can it run at all?" without touching the segmentation DP or
either allocation engine.  It flattens the graph exactly the way the
compile pipeline does (profiling, oversized-operator partitioning — both
deterministic and allocator-free), looks for a unit whose compute floor
exceeds the chip — the same :attr:`~repro.cost.arithmetic.ProfileVectors
.floors` column the segmentation DP decides window fit from — and scores
the candidate with the :mod:`repro.cost.analytical` bounds.

Guarantees (ratcheted by the calibration suite in ``tests/test_eval.py``):

* **feasibility is exact** — a point is feasible exactly when the full
  compiler would produce a program.  Floors are additive, so a unit
  that cannot fit the chip alone belongs to no feasible window and the
  compiler must raise; if every unit fits alone, the
  one-segment-per-unit plan exists and the compiler succeeds;
* **metrics are true lower bounds** — the latency and energy never
  exceed the compiled plan's;
* **zero allocator solves** — neither MILP nor greedy allocation runs,
  so a whole design space is scored in milliseconds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.lru import BoundedLRU
from ..core.segmentation import FlattenedUnit, flatten_graph
from ..cost.analytical import AnalyticalEstimate, analytical_graph_estimate
from ..cost.arithmetic import ProfileVectors
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph

__all__ = ["FLATTEN_MEMO_ENTRIES", "analytical_bound"]

#: Bound of a flattening memo: sweeping many hardware variants of one
#: model re-flattens only when the chip's partitioning budget changes the
#: units, and at most this many (graph, chip) pairs stay pinned.
FLATTEN_MEMO_ENTRIES = 64


def _units(
    graph: Graph, hardware: DualModeHardwareAbstraction, memo: BoundedLRU
) -> List[FlattenedUnit]:
    """Flattened units of ``graph`` on ``hardware``, through ``memo``.

    The memo maps ``(id(graph), chip fingerprint) -> (graph, units)``.
    id(graph) alone is not a safe key — a garbage-collected graph's
    address can be reused by a different model's graph — so each entry
    pins the graph it was built from (keeping its id allocated) and is
    verified by identity on lookup.
    """
    key = (id(graph), hardware.fingerprint())
    entry = memo.get(key, accept=lambda entry: entry[0] is graph)
    if entry is not None:
        return entry[1]
    units = flatten_graph(graph, hardware)
    memo.put(key, (graph, units))
    return units


def analytical_bound(
    graph: Graph,
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
    memo: Optional[BoundedLRU] = None,
) -> Tuple[AnalyticalEstimate, Optional[str]]:
    """Lower-bound estimate of ``graph`` on ``hardware``, and its first unfit unit.

    Returns ``(estimate, unfit)``: ``unfit`` names the first flattened
    unit whose minimum footprint exceeds the chip (the point is then
    infeasible and the estimate meaningless), or is ``None``.  Errors
    (a graph the cost model rejects) propagate.  ``memo`` is the
    caller's flattening memo (a ``BoundedLRU(FLATTEN_MEMO_ENTRIES)``);
    without one the graph is flattened afresh.
    """
    units = flatten_graph(graph, hardware) if memo is None else _units(graph, hardware, memo)
    profiles = [unit.profile for unit in units]
    floors = ProfileVectors(profiles, hardware).floors.tolist()
    unfit = next(
        (unit.name for unit, floor in zip(units, floors) if floor > hardware.num_arrays),
        None,
    )
    estimate = analytical_graph_estimate(
        profiles,
        hardware,
        allow_memory_mode=allow_memory_mode,
        block_repeat=float(graph.metadata.get("block_repeat", 1.0)),
    )
    return estimate, unfit
