"""The DSE runner: strategy-driven, fidelity-aware, resumable exploration.

:class:`DSERunner` wires the subsystem together.  Each iteration it

1. asks the :mod:`strategy <repro.dse.strategies>` for a batch of
   candidate points (bounded by the remaining budget) and resolves the
   batch's evaluation *fidelity* — the strategy's declared rung when the
   runner is in ``auto`` mode, the runner's fixed fidelity otherwise,
2. skips every point the resumable :class:`~repro.dse.state.RunState`
   already holds *at sufficient fidelity* (their stored records are
   still fed back to the strategy so adaptive search resumes with full
   knowledge; an analytical record does not satisfy a compile-fidelity
   request),
3. hands the rest to the :class:`~repro.dse.planner.Planner` —
   structural duplicates collapse to one evaluation,
4. evaluates the planned jobs through the batch's tier of the
   :mod:`repro.eval` evaluator layer —
   :class:`~repro.eval.AnalyticalEvaluator` (a bound: closed-form lower
   bounds, zero allocator solves) or
   :class:`~repro.eval.CompileEvaluator` (a plan: the full pipeline
   over a :class:`~repro.service.CompileService`) — and
5. converts each typed :class:`~repro.eval.Evaluation` to an
   :class:`EvaluationRecord` — latency, energy, array usage, fidelity
   tag, solver statistics — appends it durably to the run state, and
   tells the strategy.

The loop ends when the budget is spent or the strategy exhausts the
space.  The returned :class:`DSEResult` carries every record known at
the end (resumed and new), the aggregate counters the CLI and CI assert
on (evaluated / replicated / skipped / allocator solves / per-fidelity
evaluations), and the Pareto reporting entry points.

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

from ..eval import (
    FIDELITIES,
    AnalyticalEvaluator,
    CompileEvaluator,
    Evaluation,
    Evaluator,
    fidelity_rank,
)
from ..service import CompileJob, CompileService
from .pareto import (
    DEFAULT_AXES,
    full_fidelity_records,
    pareto_frontier,
    render_report,
    write_csv,
)
from .planner import Planner
from .space import DesignPoint, DesignSpace
from .state import RunState
from .strategies import Strategy, SuccessiveHalvingStrategy, make_strategy

__all__ = [
    "DSEResult",
    "DSERunner",
    "EvaluationRecord",
    "FIDELITY_MODES",
    "OBJECTIVES",
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

#: Valid ``DSERunner(fidelity=...)`` values.  ``"auto"`` defers to the
#: strategy's multi-fidelity schedule (installing a
#: :class:`~repro.dse.strategies.SuccessiveHalvingStrategy` when the
#: given strategy is fidelity-agnostic).
FIDELITY_MODES = FIDELITIES + ("auto",)


@dataclass
class EvaluationRecord:
    """Flat, JSON-serialisable outcome of one design point.

    This is the unit the run state persists, the strategies steer on,
    and the Pareto reports consume.

    ``status`` is one of ``"evaluated"`` (a real evaluation — feasible
    or not), ``"replicated"`` (copied from a structurally identical
    point of the same batch) or ``"resumed"`` (loaded from the run
    state).

    ``fidelity`` tags which evaluation tier produced the metrics
    (``"analytical"`` metrics are optimistic lower bounds —
    ``lower_bound`` is then also set).  Records written before the
    fidelity field existed deserialise as ``"compile"``, which is what
    they were; so do records of the retired ``"cached"`` tier, whose
    metrics came from a real compile.

    An infeasible point (the evaluator proves no plan exists — the
    boundary a DSE sweep exists to find) has ``feasible=False`` with
    ``failed=False``; ``failed=True`` marks genuine errors (unknown
    model, a crash inside the pipeline).
    """

    point_key: str
    model: str
    workload: str
    hardware: str
    num_arrays: int
    hardware_fingerprint: str
    coords: Tuple[int, ...]
    allow_memory_mode: bool
    objective: str
    #: Fingerprint of the space declaration the point was evaluated
    #: under — ``coords`` only index that grid, so a resume under a
    #: different declaration must not reuse them.
    space_fingerprint: str = ""
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
        """Strict-JSON rendering: coords become a list, non-finite
        metrics become ``null`` (``results.jsonl`` must stay parseable
        by jq/pandas, which reject bare ``Infinity`` tokens)."""
        payload = asdict(self)
        payload["coords"] = list(self.coords)
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
        kwargs["coords"] = tuple(kwargs.get("coords", ()))
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
            in evaluation order.  A point evaluated at several
            fidelities (the ``auto`` schedule) appears once, at its
            highest fidelity.
        new_records: Every record this run produced, in evaluation order
            (a promoted point contributes one record per fidelity — the
            honest log of what was paid for).
        evaluated / replicated / skipped: Point counters (skipped =
            served from the run state).
        evaluated_by_fidelity: Canonical evaluations per fidelity tag.
        warm_planned / cold_planned: Canonical jobs the compile service
            served without running a pass (from its in-memory program
            table or its ``cache_dir`` store) / jobs that were computed
            (compiled or bounded).
        allocator_solves / disk_hits: Aggregates over ``new_records``.
        objective: The optimisation objective of the run.
        wall_seconds: Wall-clock time of the run loop.
    """

    records: List[EvaluationRecord] = field(default_factory=list)
    new_records: List[EvaluationRecord] = field(default_factory=list)
    evaluated: int = 0
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
        pure rung-0 sweep ranks its bounds against each other, which is
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
                f"points: {self.evaluated} evaluated, {self.replicated} replicated, "
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
    """Drives one exploration of a design space.

    Args:
        space: The candidate grid.
        strategy: Strategy instance or name (``grid`` / ``random`` /
            ``greedy`` / ``successive-halving``).
        objective: ``"latency"``, ``"energy"`` or ``"trace_p99"`` — what
            adaptive strategies minimise and reports highlight
            (``trace_p99`` additionally requires ``trace``).
        fidelity: Evaluation tier for every batch —
            ``"compile"`` (default, the full pipeline),
            ``"analytical"`` (closed-form lower bounds, zero solves)
            or ``"auto"`` (obey the strategy's two-rung schedule —
            analytical rung 0, survivors compiled; a fidelity-agnostic
            strategy is replaced by
            :class:`~repro.dse.strategies.SuccessiveHalvingStrategy`).
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
            because the repository benchmark (``bench/``, read-only for
            this kind of change) still passes ``max_workers=1``.
        state: Resumable run state (None runs fully in memory).
        batch_size: Points asked from the strategy per iteration.
        seed: Seed used when ``strategy`` is given by name.
        trace: Request :class:`~repro.sim.traces.Trace` backing the
            ``trace_p99`` objective.  Each feasible point replays the
            trace under its hardware/options (memoised per distinct
            hardware/options pair — points differing only in
            model/workload share one replay).  Requires
            ``fidelity="compile"``: analytical lower bounds have no
            programs to schedule.
        obs: Optional :class:`~repro.obs.Observability` bundle, threaded
            into the default compile service and trace replays; the
            run loop records a fidelity-tagged span per batch and per
            evaluated point and mirrors counters under ``dse.*``.
    """

    def __init__(
        self,
        space: DesignSpace,
        strategy: Union[str, Strategy] = "grid",
        objective: str = "latency",
        fidelity: str = "compile",
        service: Optional[CompileService] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_workers: Optional[int] = None,
        state: Optional[RunState] = None,
        batch_size: int = 8,
        seed: int = 0,
        trace=None,
        obs=None,
    ) -> None:
        from ..obs import NULL_OBS

        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; known: {', '.join(sorted(OBJECTIVES))}"
            )
        if fidelity not in FIDELITY_MODES:
            raise ValueError(
                f"unknown fidelity {fidelity!r}; known: {', '.join(FIDELITY_MODES)}"
            )
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
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
            if fidelity in ("analytical", "auto"):
                raise ValueError(
                    "objective 'trace_p99' needs real compiled plans; "
                    f"fidelity {fidelity!r} is not supported (use 'compile')"
                )
        self.space = space
        self.strategy = (
            make_strategy(strategy, seed=seed) if isinstance(strategy, str) else strategy
        )
        if fidelity == "auto" and not getattr(self.strategy, "multi_fidelity", False):
            # "auto" means "schedule by fidelity"; a fidelity-agnostic
            # strategy cannot, so the canonical multi-fidelity schedule
            # takes over (rung-0 analytical sweep, survivors compiled).
            self.strategy = SuccessiveHalvingStrategy(seed=seed)
        self.objective = objective
        self.fidelity = fidelity
        self.state = state
        self.batch_size = batch_size
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
        self.planner = Planner()
        self._evaluators: Dict[str, Evaluator] = {}

    def evaluator(self, fidelity: str) -> Evaluator:
        """The (lazily built, memoised) evaluator of one fidelity tier."""
        evaluator = self._evaluators.get(fidelity)
        if evaluator is None:
            if fidelity == "analytical":
                evaluator = AnalyticalEvaluator()
            elif fidelity == "compile":
                evaluator = CompileEvaluator(self.service)
            else:
                raise ValueError(f"no evaluator for fidelity {fidelity!r}")
            self._evaluators[fidelity] = evaluator
        return evaluator

    def _batch_fidelity(self) -> str:
        """Fidelity of the upcoming batch (read *after* strategy.ask)."""
        if self.fidelity == "auto":
            return getattr(self.strategy, "fidelity", None) or "compile"
        return self.fidelity

    @staticmethod
    def _satisfies(record: EvaluationRecord, requested: str) -> bool:
        """Whether a known record answers a request at ``requested`` fidelity."""
        return fidelity_rank(getattr(record, "fidelity", None)) >= fidelity_rank(
            requested
        )

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self, budget: Optional[int] = None) -> DSEResult:
        """Explore until ``budget`` points are covered or the space ends.

        ``budget`` counts points *covered this run* (fresh evaluations
        plus replications, at any fidelity); points skipped via the run
        state are free, so a resumed run spends its whole budget on new
        ground.
        """
        start = time.perf_counter()
        self.strategy.bind(self.space)
        result = DSEResult(objective=self.objective)

        # ``known`` holds the best (highest-fidelity, then latest) record
        # per point for skip decisions and the final report;
        # ``known_tiers`` additionally keeps each fidelity's own record,
        # so a multi-fidelity strategy resuming a run is told the score
        # of the tier it asked at — ranking rung-0 candidates on a mix
        # of lower bounds and compiled actuals would re-promote a
        # different survivor set on every resume.
        known: Dict[str, EvaluationRecord] = {}
        known_tiers: Dict[Tuple[str, str], EvaluationRecord] = {}

        def remember(record: EvaluationRecord) -> None:
            known_tiers[(record.point_key, record.fidelity)] = record
            current = known.get(record.point_key)
            if current is None or fidelity_rank(record.fidelity) >= fidelity_rank(
                current.fidelity
            ):
                known[record.point_key] = record

        if self.state is not None:
            current_fingerprint = self.space.fingerprint()
            for payload in self.state.records:
                record = EvaluationRecord.from_dict(payload)
                if record.failed:
                    # Genuine failures (crashed worker, missing model) are
                    # retried on resume, not treated as done — only real
                    # outcomes (feasible or proven-infeasible) are final.
                    continue
                if record.fidelity not in FIDELITIES:
                    # A tier this version no longer has (``"greedy"``: a
                    # heuristic plan, neither a bound nor the compiler's
                    # answer) is stale: never reported, and its point is
                    # re-evaluated when a strategy asks for it.
                    continue
                record.status = "resumed"
                if record.space_fingerprint != current_fingerprint:
                    # Coordinates recorded under a *different* space
                    # declaration index into a different grid — dropping
                    # them keeps adaptive strategies from steering on
                    # mislocated scores (the record is still matched,
                    # skipped and reported by point key).
                    record.coords = ()
                # The stored objective may differ from this run's (e.g. a
                # latency resume of an energy run): re-derive the score so
                # strategies and reports never mix incommensurable scales.
                record.objective = self.objective
                metric = getattr(record, OBJECTIVES[self.objective])
                record.objective_value = metric if record.feasible else math.inf
                remember(record)

        # No budget means "run the strategy's whole schedule" — for a
        # multi-fidelity strategy that is more than one pass over the
        # grid (rung 0 plus the promotions), so the cap is the
        # strategy's exhaustion, not the space size.
        budget_left: float = budget if budget is not None else math.inf
        while budget_left > 0 and not self.strategy.exhausted:
            points = self.strategy.ask(min(self.batch_size, budget_left))
            if not points:
                break
            batch_fidelity = self._batch_fidelity()
            fresh: List[DesignPoint] = []
            resumed: List[EvaluationRecord] = []
            for point in points:
                record = known.get(point.key)
                if record is not None and self._satisfies(record, batch_fidelity):
                    result.skipped += 1
                    # Feed the strategy the record of the tier it asked
                    # at when one exists — a rung-0 ask is answered with
                    # the rung-0 score even if a promoted (compiled)
                    # record supersedes it in the report.
                    resumed.append(
                        known_tiers.get((point.key, batch_fidelity), record)
                    )
                else:
                    fresh.append(point)
            batch_records: List[EvaluationRecord] = []
            if fresh:
                with self.obs.tracer.span(
                    "dse.batch", fidelity=batch_fidelity, points=len(fresh)
                ):
                    plan = self.planner.plan(fresh)
                    jobs = [
                        CompileJob(
                            # An unplannable point (graph=None) ships its
                            # model reference; the evaluator's rebuild
                            # surfaces the error into this job's own result.
                            job.graph if job.graph is not None else job.point.model,
                            workload=job.point.workload,
                            hardware=job.point.hardware,
                            options=dc_replace(job.point.options, generate_code=False),
                            label=job.point.describe(),
                        )
                        for job in plan.jobs
                    ]
                    evaluations = self.evaluator(batch_fidelity).evaluate_batch(jobs)
                served = sum(1 for evaluation in evaluations if evaluation.served)
                result.warm_planned += served
                result.cold_planned += len(evaluations) - served
                for planned, evaluation in zip(plan.jobs, evaluations):
                    record = self._record(planned.point, evaluation)
                    batch_records.append(record)
                    result.evaluated += 1
                    result.evaluated_by_fidelity[evaluation.fidelity] = (
                        result.evaluated_by_fidelity.get(evaluation.fidelity, 0) + 1
                    )
                    for duplicate in planned.duplicates:
                        batch_records.append(self._replicate(record, duplicate))
                        result.replicated += 1
                budget_left -= len(fresh)
            for record in batch_records:
                remember(record)
                if self.state is not None:
                    self.state.append(record.to_dict())
                result.new_records.append(record)
                result.allocator_solves += record.allocator_solves
                result.disk_hits += record.disk_hits
            self.strategy.tell(batch_records + resumed)

        # One final record per point: ``known`` keeps resumed entries in
        # file order and this run's in evaluation order, and an ``auto``
        # schedule's promotion overwrites the rung-0 record in place.
        result.records = list(known.values())
        result.wall_seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------ #
    # record construction
    # ------------------------------------------------------------------ #
    def _record(self, point: DesignPoint, evaluation: Evaluation) -> EvaluationRecord:
        """Convert one typed evaluation into the persistent record shape."""
        metrics = self.obs.metrics
        metrics.inc("dse.points")
        metrics.inc(f"dse.points.{evaluation.fidelity}")
        with self.obs.tracer.span(
            "dse.point", point=point.key, fidelity=evaluation.fidelity
        ) as span:
            record = EvaluationRecord(
                point_key=point.key,
                model=point.model_name,
                workload=point.workload.describe(),
                hardware=point.hardware.name,
                num_arrays=point.hardware.num_arrays,
                hardware_fingerprint=point.hardware.fingerprint(),
                coords=point.coords,
                allow_memory_mode=point.options.allow_memory_mode,
                objective=self.objective,
                space_fingerprint=self.space.fingerprint(),
                fidelity=evaluation.fidelity,
                lower_bound=evaluation.lower_bound,
                wall_seconds=evaluation.eval_seconds,
                allocator_solves=evaluation.allocator_solves,
                cache_hits=evaluation.cache_hits,
                disk_hits=evaluation.disk_hits,
            )
            if not evaluation.feasible:
                record.error = evaluation.error
                record.failed = evaluation.failed
                metrics.inc("dse.points.infeasible")
                span.set(status="infeasible")
                return record
            record.feasible = True
            record.latency_ms = evaluation.latency_ms
            record.cycles = evaluation.cycles
            record.energy_mj = evaluation.energy_mj
            record.num_segments = evaluation.num_segments
            record.peak_arrays = evaluation.peak_arrays
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
        (a trace model infeasible under those options) scores ``inf`` —
        a serving configuration that cannot run the traffic is not a
        candidate, exactly like an infeasible single compile.
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

    def _replicate(
        self, canonical: EvaluationRecord, point: DesignPoint
    ) -> EvaluationRecord:
        """Copy a canonical result onto a structurally identical point.

        The copy costs nothing, so its solver counters are zero — the
        CSV stays an honest account of where time actually went.
        """
        return dc_replace(
            canonical,
            point_key=point.key,
            model=point.model_name,
            workload=point.workload.describe(),
            coords=point.coords,
            allocator_solves=0,
            cache_hits=0,
            disk_hits=0,
            wall_seconds=0.0,
            status="replicated",
        )


def run_dse(
    space: DesignSpace,
    strategy: Union[str, Strategy] = "grid",
    objective: str = "latency",
    budget: Optional[int] = None,
    **runner_kwargs,
) -> DSEResult:
    """Convenience wrapper: build a :class:`DSERunner` and run it once."""
    runner = DSERunner(space, strategy=strategy, objective=objective, **runner_kwargs)
    return runner.run(budget=budget)
