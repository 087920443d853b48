"""The DSE runner: one pass over a design space, resumable.

:class:`DSERunner` walks :meth:`DesignSpace.points() <repro.dse.space.
DesignSpace.points>` in grid order, at one fidelity.  For each point it

1. skips the point when the resumable :class:`~repro.dse.state.RunState`
   already holds its key *at sufficient fidelity* (an analytical record
   does not answer a compile-fidelity run),
2. otherwise turns it into one :class:`~repro.service.CompileJob` over a
   graph the runner builds once per (model, workload), and either
   compiles it through its :class:`~repro.service.CompileService` (a
   plan — a point that repeats an earlier compile is a program-table hit
   with zero solves) or scores it with
   :func:`~repro.dse.bound.analytical_bound` (a bound — closed-form
   lower bounds, zero allocator solves), and
3. builds one :class:`EvaluationRecord` — latency, energy, array usage,
   fidelity tag, solver statistics — and appends it durably to the run
   state.

The pass ends when the budget is spent or the grid is.  The returned
:class:`DSEResult` carries every record known at the end (resumed and
new), the aggregate counters the CLI and CI assert on (evaluated /
skipped / allocator solves / per-fidelity evaluations), and the Pareto
reporting entry points.

:meth:`repro.api.Session.explore` is the public entry point: it builds
a runner over the session's own compile service, so a sweep warm-starts
from every other compile the session served.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace as dc_replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.lru import BoundedLRU
from ..cost.energy import estimate_energy
from ..ir.graph import Graph
from ..models.registry import build_model
from ..service import CompileJob, CompileJobResult, CompileService
from .bound import FLATTEN_MEMO_ENTRIES, analytical_bound
from .pareto import (
    DEFAULT_AXES,
    full_fidelity_records,
    pareto_frontier,
    render_report,
    write_csv,
)
from .space import DesignPoint, DesignSpace
from .state import RunState

__all__ = [
    "DSEResult",
    "DSERunner",
    "EvaluationRecord",
    "FIDELITIES",
    "OBJECTIVES",
    "fidelity_rank",
    "run_dse",
]

#: Supported optimisation objectives (record attribute each minimises).
#: ``trace_p99`` scores a point by replaying a request trace (see
#: :mod:`repro.sim.replay`) under the point's hardware/options and
#: taking the p99 latency — tail latency under traffic instead of
#: single-inference latency.  It requires ``DSERunner(trace=...)``.
OBJECTIVES = {
    "latency": "latency_ms",
    "energy": "energy_mj",
    "trace_p99": "trace_p99_ms",
}

#: Fidelity tags, cheapest first: a closed-form bound, a compiled plan.
FIDELITIES = ("analytical", "compile")


def fidelity_rank(fidelity: Optional[str]) -> int:
    """Rank of a fidelity tag (a higher rank answers lower requests).

    An absent tag counts as a plan: records written before fidelity
    existed were all full compiles.  Tags of tiers that no longer exist
    never get here: :meth:`DSERunner.run` normalises or drops them when
    it loads a run directory.  A run directory can hold an analytical and
    a compile record of one point (a bound sweep, then a plan sweep,
    resumed into one directory); the higher rank is the one reported.
    """
    return FIDELITIES.index(fidelity or "compile")


@dataclass
class EvaluationRecord:
    """Flat, JSON-serialisable outcome of one design point.

    This is the unit the run state persists and the Pareto reports
    consume.  Records written by older versions carry ``coords`` and
    ``space_fingerprint`` keys; :meth:`from_dict` ignores them.

    ``status`` is ``"evaluated"`` (produced by this run — feasible or
    not) or ``"resumed"`` (loaded from the run state, whatever status
    it was written with).

    ``fidelity`` tags which evaluation tier produced the metrics
    (``"analytical"`` metrics are optimistic lower bounds —
    ``lower_bound`` is then also set).  Records written before the
    fidelity field existed deserialise as ``"compile"``, which is what
    they were; so do records of the retired ``"cached"`` tier, whose
    metrics came from a real compile.

    Every buildable model has a plan on every chip (partitioning makes
    each operator fit), so a point is ``feasible`` unless its evaluation
    failed (unknown model, a crash inside the pipeline): ``failed=True``,
    with the error.
    """

    point_key: str
    model: str
    workload: str
    hardware: str
    num_arrays: int
    hardware_fingerprint: str
    allow_memory_mode: bool
    objective: str
    fidelity: str = "compile"
    lower_bound: bool = False
    feasible: bool = False
    latency_ms: float = math.inf
    cycles: float = math.inf
    energy_mj: float = math.inf
    #: p99 latency of the runner's trace replayed under this point's
    #: hardware/options (``inf`` unless the run's objective measured it).
    trace_p99_ms: float = math.inf
    num_segments: int = 0
    peak_arrays: int = 0
    objective_value: float = math.inf
    allocator_solves: int = 0
    cache_hits: int = 0
    disk_hits: int = 0
    wall_seconds: float = 0.0
    status: str = "evaluated"
    error: Optional[str] = None
    failed: bool = False

    def to_dict(self) -> Dict:
        """Strict-JSON rendering: non-finite metrics become ``null``
        (``results.jsonl`` must stay parseable by jq/pandas, which reject
        bare ``Infinity`` tokens)."""
        payload = asdict(self)
        for name in (
            "latency_ms",
            "cycles",
            "energy_mj",
            "trace_p99_ms",
            "objective_value",
        ):
            value = payload[name]
            if value is not None and not math.isfinite(value):
                payload[name] = None
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "EvaluationRecord":
        """Rebuild a record from :meth:`to_dict` output (unknown keys ignored)."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - set of names
        kwargs = {key: value for key, value in payload.items() if key in known}
        if kwargs.get("fidelity") == "cached":
            kwargs["fidelity"] = "compile"
        for name in (
            "latency_ms",
            "cycles",
            "energy_mj",
            "trace_p99_ms",
            "objective_value",
        ):
            value = kwargs.get(name)
            if value is None:
                kwargs[name] = math.inf
        return cls(**kwargs)


@dataclass
class DSEResult:
    """Outcome of one :meth:`DSERunner.run` call.

    Attributes:
        records: The final record of every point known at the end of the
            run — resumed entries first (file order), then this run's,
            in grid order.  A point on record at several fidelities
            appears once, at its highest fidelity.
        new_records: Every record this run produced, in grid order.
        evaluated / skipped: Point counters (skipped = served from the
            run state).
        evaluated_by_fidelity: Evaluations per fidelity tag.
        warm_planned / cold_planned: Points the compile service served
            without running a pass (from its in-memory program table or
            its ``cache_dir`` store) / points that were computed
            (compiled or bounded).
        allocator_solves / disk_hits: Aggregates over ``new_records``.
        objective: The optimisation objective of the run.
        wall_seconds: Wall-clock time of the run loop.
    """

    records: List[EvaluationRecord] = field(default_factory=list)
    new_records: List[EvaluationRecord] = field(default_factory=list)
    evaluated: int = 0
    #: Always 0 (no point is copied from a structural twin any more);
    #: kept because the repository benchmark, ``bench/benchlib/wl_dse.py``,
    #: reads it and ``bench/`` does not change with the library.
    replicated: int = 0
    skipped: int = 0
    evaluated_by_fidelity: Dict[str, int] = field(default_factory=dict)
    warm_planned: int = 0
    cold_planned: int = 0
    allocator_solves: int = 0
    disk_hits: int = 0
    objective: str = "latency"
    wall_seconds: float = 0.0
    _frontier_cache: Dict[Tuple[str, ...], List["EvaluationRecord"]] = field(
        default_factory=dict, repr=False
    )

    def frontier(self, axes: Sequence[str] = DEFAULT_AXES) -> List[EvaluationRecord]:
        """Pareto frontier over ``axes`` of every known record.

        When the run holds any full-fidelity (``compile``) record, only
        those participate — analytical lower bounds
        would otherwise dominate real plans they merely approximate.  A
        pure analytical sweep ranks its bounds against each other, which is
        exactly what a lower-bound screening is for.

        Memoised per axis tuple — the dominance scan is O(n²) and both
        report renderers need the same frontier.
        """
        key = tuple(axes)
        cached = self._frontier_cache.get(key)
        if cached is None:
            cached = pareto_frontier(full_fidelity_records(self.records), axes)
            self._frontier_cache[key] = cached
        return cached

    def render_report(self, axes: Sequence[str] = DEFAULT_AXES) -> str:
        """Text Pareto report over every known record."""
        return render_report(
            self.records, axes, objective=self.objective, frontier=self.frontier(axes)
        )

    def write_csv(self, path: Union[str, Path], axes: Sequence[str] = DEFAULT_AXES) -> Path:
        """CSV report (all records, ``pareto`` flag column)."""
        return write_csv(path, self.records, axes, frontier=self.frontier(axes))

    def summary(self) -> str:
        """Counter block the CLI prints (and CI smoke tests grep)."""
        by_fidelity = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.evaluated_by_fidelity.items())
        ) or "none"
        return "\n".join(
            [
                f"points: {self.evaluated} evaluated, "
                f"{self.skipped} skipped (already evaluated)",
                f"fidelity: {by_fidelity}",
                f"programs: {self.warm_planned} served (table or store), "
                f"{self.cold_planned} computed",
                f"total allocator solves: {self.allocator_solves}",
                f"total disk hits: {self.disk_hits}",
                f"wall time: {self.wall_seconds:.3f} s",
            ]
        )


class DSERunner:
    """Drives one pass of a design space, in grid order, at one fidelity.

    Args:
        space: The candidate grid.
        strategy: Only ``"grid"``, the default; any other value is a
            ``ValueError``.  The parameter stays because the repository
            benchmark (``bench/benchlib/wl_dse.py``, which does not
            change with the library) passes ``strategy="grid"``.
        objective: ``"latency"``, ``"energy"`` or ``"trace_p99"`` — what
            each record's ``objective_value`` is and what reports
            highlight (``trace_p99`` additionally requires ``trace``).
        fidelity: Evaluation tier of every point —
            ``"compile"`` (default, the full pipeline) or
            ``"analytical"`` (closed-form lower bounds, zero solves).
        service: The :class:`~repro.service.CompileService` every
            point compiles through — its allocation cache is the table
            neighbouring points share windows in.  A default one (over
            ``cache_dir``) is built when omitted.
        cache_dir: Program-store directory
            (:class:`~repro.core.store.DiskCacheStore`) of the default
            service: a point an earlier run compiled is read back
            instead of recompiled.  Giving both is a ``ValueError``.
        max_workers: Accepted and ignored.  Compiles run one after
            another (there is no pool to size); the parameter stays only
            because the repository benchmark still passes
            ``max_workers=1``.
        state: Resumable run state (None runs fully in memory).
        trace: Request :class:`~repro.sim.traces.Trace` backing the
            ``trace_p99`` objective.  Each feasible point replays the
            trace under its hardware/options (memoised per distinct
            hardware/options pair — points differing only in
            model/workload share one replay).  Requires
            ``fidelity="compile"``: analytical lower bounds have no
            programs to schedule.
        obs: Optional :class:`~repro.obs.Observability` bundle, threaded
            into the default compile service and trace replays; the
            run records a fidelity-tagged span per evaluated point and
            mirrors counters under ``dse.*``.
    """

    def __init__(
        self,
        space: DesignSpace,
        strategy: str = "grid",
        objective: str = "latency",
        fidelity: str = "compile",
        service: Optional[CompileService] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_workers: Optional[int] = None,
        state: Optional[RunState] = None,
        trace=None,
        obs=None,
    ) -> None:
        from ..obs import NULL_OBS

        if strategy != "grid":
            raise ValueError(
                f"unknown strategy {strategy!r}; a sweep is the grid ('grid')"
            )
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; known: {', '.join(sorted(OBJECTIVES))}"
            )
        if fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {fidelity!r}; known: {', '.join(FIDELITIES)}"
            )
        if service is not None and cache_dir is not None:
            raise ValueError(
                "give DSERunner a service or a cache_dir, not both "
                "(the service already names its store)"
            )
        if objective == "trace_p99":
            if trace is None:
                raise ValueError(
                    "objective 'trace_p99' requires a trace "
                    "(DSERunner(trace=...) / repro dse --trace FILE)"
                )
            if fidelity == "analytical":
                raise ValueError(
                    "objective 'trace_p99' needs real compiled plans; "
                    "fidelity 'analytical' is not supported (use 'compile')"
                )
        self.space = space
        self.objective = objective
        self.fidelity = fidelity
        self.state = state
        self.trace = trace
        # Trace replays are memoised per (hardware, options): the replay
        # outcome does not depend on the point's own model/workload, so
        # a sweep whose axes only vary those costs a single replay.
        self._trace_scores: Dict[Tuple[str, str], float] = {}
        self.obs = NULL_OBS if obs is None else obs
        # Neighbouring design points share most allocation windows (their
        # boundary context is unchanged along a sweep axis); the service's
        # allocation cache is where they find each other's solves.
        self.service = (
            CompileService(cache_dir=cache_dir, obs=self.obs)
            if service is None
            else service
        )
        # One graph per (model, workload): every point of a model shares
        # it, so the service's program key is built from one object and
        # the analytical bound flattens it once per chip.
        self._graphs: Dict[Tuple, Graph] = {}
        self._flatten_memo = BoundedLRU(FLATTEN_MEMO_ENTRIES)

    @staticmethod
    def _satisfies(record: EvaluationRecord, requested: str) -> bool:
        """Whether a known record answers a request at ``requested`` fidelity."""
        return fidelity_rank(getattr(record, "fidelity", None)) >= fidelity_rank(
            requested
        )

    # ------------------------------------------------------------------ #
    # the pass
    # ------------------------------------------------------------------ #
    def run(self, budget: Optional[int] = None) -> DSEResult:
        """Walk the grid until ``budget`` points are evaluated or it ends.

        ``budget`` counts points *evaluated this run*; points skipped via
        the run state are free, so a resumed run spends its whole budget
        on new ground.  A budget of 0 evaluates nothing and reports what
        the run state holds.  This is the one entry point the repository
        benchmark times and wraps.

        Raises:
            ValueError: ``budget`` is negative.
        """
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be at least 0, got {budget}")
        start = time.perf_counter()
        result = DSEResult(objective=self.objective)

        # The best (highest-fidelity, then latest) record per point key:
        # what the run state held when the run began decides the skips,
        # and every record ends up in the report.
        known: Dict[str, EvaluationRecord] = {}
        for payload in self.state.records if self.state is not None else ():
            record = EvaluationRecord.from_dict(payload)
            if record.failed or record.fidelity not in FIDELITIES:
                # Failures (crashed worker, missing model) are retried on
                # resume, not treated as done.  A tier this version no
                # longer has (``"greedy"``: a heuristic plan, neither a
                # bound nor the compiler's answer) is stale: never
                # reported, and its point is evaluated again.
                continue
            record.status = "resumed"
            # The stored objective may differ from this run's (e.g. a
            # latency resume of an energy run): re-derive the score so
            # reports never mix incommensurable scales.
            record.objective = self.objective
            metric = getattr(record, OBJECTIVES[self.objective])
            record.objective_value = metric if record.feasible else math.inf
            current = known.get(record.point_key)
            if current is None or self._satisfies(record, current.fidelity):
                known[record.point_key] = record
        on_record = dict(known)

        for point in self.space.points():
            if budget is not None and result.evaluated >= budget:
                break
            # A point's key (a JSON rendering and a SHA-256) is computed
            # once here and handed to its record.
            key = point.key
            stored = on_record.get(key)
            if stored is not None and self._satisfies(stored, self.fidelity):
                result.skipped += 1
                continue
            job = self._job(point)
            if self.fidelity == "compile":
                outcome = self.service.compile(job)
                # A pipeline run always times its passes; a served
                # program's re-stamped stats list none.
                if outcome.ok and not outcome.stats.get("pass_seconds"):
                    result.warm_planned += 1
                else:
                    result.cold_planned += 1
                record = self._compiled(point, key, outcome)
            else:
                result.cold_planned += 1
                record = self._bounded(point, key, job)
            result.evaluated += 1
            known[key] = record
            if self.state is not None:
                self.state.append(record.to_dict())
            result.new_records.append(record)
            result.allocator_solves += record.allocator_solves
            result.disk_hits += record.disk_hits

        if result.evaluated:
            result.evaluated_by_fidelity[self.fidelity] = result.evaluated
        # One final record per point: resumed entries in file order, this
        # run's in grid order (a plan replaces its point's bound in place).
        result.records = list(known.values())
        result.wall_seconds = time.perf_counter() - start
        return result
    # ------------------------------------------------------------------ #
    # jobs and records
    # ------------------------------------------------------------------ #
    def _job(self, point: DesignPoint) -> CompileJob:
        """The compile job of one point, over the runner's shared graph.

        A model that cannot be built ships as its name: the job's own
        ``resolve_graph`` raises again, into that point's record, and
        the rest of the sweep runs.
        """
        graph: Union[Graph, str] = point.model
        if not isinstance(graph, Graph):
            key = (point.model, point.workload)
            graph = self._graphs.get(key)
            if graph is None:
                try:
                    graph = self._graphs[key] = build_model(point.model, point.workload)
                except Exception:  # noqa: BLE001 - re-raised into the record
                    graph = point.model
        return CompileJob(
            graph,
            workload=point.workload,
            hardware=point.hardware,
            options=dc_replace(point.options, generate_code=False),
            label=point.describe(),
        )

    def _compiled(
        self, point: DesignPoint, key: str, outcome: CompileJobResult
    ) -> EvaluationRecord:
        """The record of one compile: the program's metrics, or its error."""
        if not outcome.ok:
            return self._record(
                point, key, "compile", error=outcome.error, failed=True,
                wall_seconds=outcome.wall_seconds,
            )
        program = outcome.program
        stats = outcome.stats
        return self._record(
            point, key, "compile", feasible=True,
            latency_ms=program.end_to_end_ms,
            cycles=program.end_to_end_cycles,
            energy_mj=estimate_energy(program).end_to_end_mj,
            num_segments=program.num_segments,
            peak_arrays=max(
                (s.compute_arrays + s.memory_arrays for s in program.segments),
                default=0,
            ),
            wall_seconds=outcome.wall_seconds,
            allocator_solves=int(stats.get("allocator_solves", 0)),
            cache_hits=int(stats.get("allocation_cache_hits", 0)),
            disk_hits=int(stats.get("allocation_disk_hits", 0)),
        )

    def _bounded(self, point: DesignPoint, key: str, job: CompileJob) -> EvaluationRecord:
        """The record of one analytical bound (zero solves); errors are captured."""
        start = time.perf_counter()
        hardware = point.hardware
        try:
            estimate = analytical_bound(
                job.resolve_graph(),
                hardware,
                point.options.allow_memory_mode,
                memo=self._flatten_memo,
            )
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            fields = dict(error=f"{type(exc).__name__}: {exc}", failed=True)
        else:
            fields = dict(
                feasible=True,
                latency_ms=hardware.cycles_to_ms(estimate.end_to_end_cycles),
                cycles=estimate.end_to_end_cycles,
                energy_mj=estimate.end_to_end_mj,
                peak_arrays=estimate.min_peak_arrays,
            )
        return self._record(
            point, key, "analytical", lower_bound=True,
            wall_seconds=time.perf_counter() - start, **fields,
        )

    def _record(
        self, point: DesignPoint, key: str, fidelity: str, **fields
    ) -> EvaluationRecord:
        """The persistent record of one evaluated point, whose key is ``key``
        (``fields`` are its metrics)."""
        metrics = self.obs.metrics
        metrics.inc("dse.points")
        metrics.inc(f"dse.points.{fidelity}")
        with self.obs.tracer.span("dse.point", point=key, fidelity=fidelity) as span:
            record = EvaluationRecord(
                point_key=key,
                model=point.model_name,
                workload=point.workload.describe(),
                hardware=point.hardware.name,
                num_arrays=point.hardware.num_arrays,
                hardware_fingerprint=point.hardware.fingerprint(),
                allow_memory_mode=point.options.allow_memory_mode,
                objective=self.objective,
                fidelity=fidelity,
                **fields,
            )
            if not record.feasible:  # a point is not feasible only when it failed
                metrics.inc("dse.points.infeasible")
                span.set(status="failed")
                return record
            if self.objective == "trace_p99":
                record.trace_p99_ms = self._trace_p99(point)
            record.objective_value = getattr(record, OBJECTIVES[self.objective])
            span.set(status="feasible")
            return record

    def _trace_p99(self, point: DesignPoint) -> float:
        """p99 latency of the runner's trace under one point's chip/options.

        Replays :attr:`trace` through the runner's own compile service
        (sharing its allocation cache) with the point's
        hardware and compiler options.  A replay that drops any request
        (a trace model that failed to compile) scores ``inf`` — a
        serving configuration that cannot run the traffic is not a
        candidate, exactly like a failed single compile.
        """
        from ..sim.replay import ReplaySimulator
        from .space import options_signature

        key = (point.hardware.fingerprint(), str(options_signature(point.options)))
        score = self._trace_scores.get(key)
        if score is None:
            self.obs.metrics.inc("dse.trace_replays")
            with self.obs.tracer.span(
                "dse.trace_replay", hardware=point.hardware.name
            ):
                simulator = ReplaySimulator(
                    hardware=point.hardware,
                    service=self.service,
                    options=point.options,
                    obs=self.obs,
                )
                result = simulator.run(self.trace)
            metrics = result.metrics
            if metrics.failed or metrics.served == 0:
                score = math.inf
            else:
                score = metrics.latency_p99_ms
            self._trace_scores[key] = score
        else:
            self.obs.metrics.inc("dse.trace_replay.memo_hits")
        return score


def run_dse(
    space: DesignSpace,
    objective: str = "latency",
    budget: Optional[int] = None,
    **runner_kwargs,
) -> DSEResult:
    """Convenience wrapper: build a :class:`DSERunner` and run it once."""
    return DSERunner(space, objective=objective, **runner_kwargs).run(budget=budget)
