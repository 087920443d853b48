"""Planning of design-point evaluations: structural dedup.

A naive DSE loop hands every candidate straight to the compiler.  Two
candidates whose (hardware fingerprint, solve-relevant options,
flattened operator-profile sequence) coincide compile to bit-identical
programs, so the planner evaluates only one of them and the runner
replicates the result onto the rest.  This catches duplicated axis
values, aliased model/workload combinations, and points whose differing
knobs don't reach the cost model.

The planner never touches the disk: whether a candidate was compiled
before is the program store's business
(:meth:`repro.service.CompileService.compile_graph`), and a stored
program costs a file read whatever order the jobs run in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cache import profile_signature
from ..core.segmentation import FlattenedUnit, flatten_graph
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
        duplicates: Points collapsed onto this job; they receive a
            replicated copy of its result.
    """

    point: DesignPoint
    graph: Optional[Graph]
    structural_key: str
    duplicates: List[DesignPoint] = field(default_factory=list)


@dataclass
class Plan:
    """Evaluation plan for one batch of candidates.

    Attributes:
        jobs: Canonical jobs, in the order their points were asked.
        n_points: Candidates planned (canonical + collapsed).
        n_collapsed: Candidates served by another job's result.
    """

    jobs: List[PlannedJob]
    n_points: int = 0
    n_collapsed: int = 0


class Planner:
    """Collapses structurally identical candidates of a batch.

    The planner memoises built graphs per (model, workload) and flattened
    units per (graph, hardware fingerprint), so planning a wide sweep
    over one model costs one model build, not one per point.
    """

    def __init__(self) -> None:
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
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, points: Sequence[DesignPoint]) -> Plan:
        """Collapse structural duplicates (at either fidelity tier:
        structurally identical candidates score identically at both).

        A point whose graph cannot even be built (unknown model name, a
        workload its builder rejects) is planned as its own job with
        ``graph=None`` — the compile service rebuilds it, fails, and the
        failure lands in that point's record instead of killing the
        batch.
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
        return Plan(
            jobs=jobs,
            n_points=len(points),
            n_collapsed=sum(len(job.duplicates) for job in jobs),
        )
