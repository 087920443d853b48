"""Cache-aware planning of design-point evaluations.

A naive DSE loop hands every candidate straight to the compiler.  The
planner inserts the step the two-tier allocation cache makes worthwhile:

* **Structural dedup** — two candidates whose (hardware fingerprint,
  solve-relevant options, flattened operator-profile sequence) coincide
  compile to bit-identical programs, so only one of them is evaluated and
  the result is replicated onto the rest.  This catches duplicated axis
  values, aliased model/workload combinations, and points whose differing
  knobs don't reach the cost model.
* **Warm-first ordering** — each unique candidate is probed against the
  persistent :class:`~repro.core.store.DiskCacheStore` (the key of the
  first allocation window the DP will request, built exactly the way
  :func:`~repro.core.allocation.allocate_segment` builds it).  Candidates
  whose probe hits are scheduled *before* cold ones: warm jobs finish in
  milliseconds and their results reach the strategy sooner, so an
  iterative strategy spends its budget on genuinely new ground first, and
  a batch's thread pool is not blocked on cold solves while warm results
  wait.

The probe is a scheduling heuristic, never a correctness input: a stale
or wrong warmth guess only changes evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cache import AllocationCacheKey, profile_signature
from ..core.segmentation import (
    FlattenedUnit,
    first_window_cache_key,
    flatten_graph,
)
from ..core.store import DiskCacheStore
from ..ir.graph import Graph
from ..models.registry import build_model
from .space import DesignPoint, options_signature

__all__ = ["PlannedJob", "Plan", "Planner"]


@dataclass
class PlannedJob:
    """One canonical compile the batch will actually run.

    Attributes:
        point: The canonical design point.
        graph: Its materialised computation graph (reused by the runner
            so the compile service does not rebuild the model).
        structural_key: Dedup identity of the candidate.
        warm: Whether the disk-store probe found the first allocation
            window already cached.
        duplicates: Points collapsed onto this job; they receive a
            replicated copy of its result.
    """

    point: DesignPoint
    graph: Optional[Graph]
    structural_key: str
    warm: bool = False
    duplicates: List[DesignPoint] = field(default_factory=list)


@dataclass
class Plan:
    """Ordered evaluation plan for one batch of candidates.

    Attributes:
        jobs: Canonical jobs, warm jobs first (stable within groups).
        n_points: Candidates planned (canonical + collapsed).
        n_warm / n_cold: Canonical jobs by probe outcome.
        n_collapsed: Candidates served by another job's result.
    """

    jobs: List[PlannedJob]
    n_points: int = 0
    n_warm: int = 0
    n_cold: int = 0
    n_collapsed: int = 0


class Planner:
    """Plans candidate batches against a persistent allocation store.

    Args:
        store: The disk tier candidates are probed against; None disables
            warmth probing (everything schedules as cold, dedup still
            applies).

    The planner memoises built graphs per (model, workload) and flattened
    units per (graph, hardware fingerprint), so planning a wide sweep
    over one model costs one model build, not one per point.
    """

    def __init__(self, store: Optional[DiskCacheStore] = None) -> None:
        self.store = store
        self._graphs: Dict[Tuple, Graph] = {}
        self._units: Dict[Tuple[int, str], List[FlattenedUnit]] = {}

    # ------------------------------------------------------------------ #
    # candidate materialisation
    # ------------------------------------------------------------------ #
    def graph_for(self, point: DesignPoint) -> Graph:
        """The (memoised) computation graph of a design point."""
        if isinstance(point.model, Graph):
            return point.model
        key = (point.model, point.workload)
        graph = self._graphs.get(key)
        if graph is None:
            graph = build_model(point.model, point.workload)
            self._graphs[key] = graph
        return graph

    def _units_for(self, graph: Graph, point: DesignPoint) -> List[FlattenedUnit]:
        """Flattened schedulable units of ``graph`` on the point's chip."""
        key = (id(graph), point.hardware.fingerprint())
        units = self._units.get(key)
        if units is None:
            units = flatten_graph(graph, point.hardware)
            self._units[key] = units
        return units

    def structural_key(self, point: DesignPoint) -> str:
        """Dedup identity: hardware x options x flattened profile sequence.

        Two points with equal structural keys see identical inputs at
        every stage of the pipeline (the flattening already folded the
        hardware's partitioning budget in), so their compiled programs
        are bit-identical and one evaluation serves both.
        """
        graph = self.graph_for(point)
        units = self._units_for(graph, point)
        signature = tuple(profile_signature(unit.profile) for unit in units)
        return repr(
            (point.hardware.fingerprint(), options_signature(point.options), signature)
        )

    # ------------------------------------------------------------------ #
    # warmth probing
    # ------------------------------------------------------------------ #
    def first_window_key(self, point: DesignPoint) -> Optional[AllocationCacheKey]:
        """The cache key of the first allocation the DP will request.

        Delegates to :func:`repro.core.segmentation
        .first_window_cache_key`, which builds the key exactly the way
        the segmentation DP does.
        """
        graph = self.graph_for(point)
        units = self._units_for(graph, point)
        return first_window_cache_key(units, point.hardware, point.options)

    def is_warm(self, point: DesignPoint) -> bool:
        """Whether the persistent store already holds the point's first solve."""
        if self.store is None:
            return False
        key = self.first_window_key(point)
        if key is None:
            return False
        return self.store.contains(key)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, points: Sequence[DesignPoint], fidelity: str = "compile") -> Plan:
        """Collapse structural duplicates and order warm jobs first.

        A point whose graph cannot even be built (unknown model name, a
        workload its builder rejects) is planned as its own cold job
        with ``graph=None`` — the compile service rebuilds it, fails,
        and the failure lands in that point's record instead of killing
        the batch.

        ``fidelity`` is the tier the batch will be evaluated at.
        Structural dedup applies at both (structurally identical
        candidates score identically at either tier), but the
        disk-store warmth probe only runs for a ``compile`` batch — an
        analytical batch performs no solves, so probing for it would be
        pure I/O.
        """
        jobs_by_key: Dict[str, PlannedJob] = {}
        order: List[str] = []
        for point in points:
            try:
                key = self.structural_key(point)
                graph = self.graph_for(point)
            except Exception:  # noqa: BLE001 - per-point isolation
                key = f"unplannable:{len(order)}:{point.key}"
                graph = None
            job = jobs_by_key.get(key)
            if job is not None:
                job.duplicates.append(point)
                continue
            jobs_by_key[key] = PlannedJob(point=point, graph=graph, structural_key=key)
            order.append(key)
        jobs = [jobs_by_key[key] for key in order]
        probe = fidelity != "analytical"
        for job in jobs:
            job.warm = probe and job.graph is not None and self.is_warm(job.point)
        # Stable warm-first ordering (sort is stable, False < True).
        jobs.sort(key=lambda job: not job.warm)
        n_warm = sum(1 for job in jobs if job.warm)
        n_collapsed = sum(len(job.duplicates) for job in jobs)
        return Plan(
            jobs=jobs,
            n_points=len(points),
            n_warm=n_warm,
            n_cold=len(jobs) - n_warm,
            n_collapsed=n_collapsed,
        )
