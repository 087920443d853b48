"""Rung 0 of a sweep: a closed-form lower bound on a design point, zero solves.

:func:`analytical_bound` answers "how good could this candidate possibly
be?" without touching the segmentation DP or either allocation engine.
It flattens the graph exactly the way the compile pipeline does
(profiling, oversized-operator partitioning — both deterministic and
allocator-free) and scores the candidate with the
:mod:`repro.cost.analytical` bounds.

Guarantees (ratcheted by the calibration suite in ``tests/test_eval.py``):

* **every point has a plan** — partitioning makes each flattened unit
  fit the chip, so the one-segment-per-unit plan exists and the full
  compiler produces a program wherever the bound produces an estimate
  (pinned by the property in ``tests/test_partition_guarantee.py``);
* **metrics are true lower bounds** — the latency and energy never
  exceed the compiled plan's;
* **zero allocator solves** — neither MILP nor greedy allocation runs,
  so a whole design space is scored in milliseconds.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.lru import BoundedLRU
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
) -> AnalyticalEstimate:
    """Lower-bound estimate of ``graph`` on ``hardware``.

    Errors (a graph the cost model rejects) propagate.  ``memo`` is the
    caller's flattening memo (a ``BoundedLRU(FLATTEN_MEMO_ENTRIES)``);
    without one the graph is flattened afresh.
    """
    units = flatten_graph(graph, hardware) if memo is None else _units(graph, hardware, memo)
    return analytical_graph_estimate(
        [unit.profile for unit in units],
        hardware,
        allow_memory_mode=allow_memory_mode,
        block_repeat=float(graph.metadata.get("block_repeat", 1.0)),
    )
