"""Trace-driven serving simulator with online CIM<->memory re-provisioning.

The paper's compiler answers "how fast is one inference of one model on
this chip"; this module answers the serving question the ROADMAP
north-star needs: *what happens to tail latency when the chip serves a
multi-model request stream and arrays must flip between compute and
memory mode from one request to the next?*

The simulator is a discrete-event replay of a :class:`~repro.sim.traces.
Trace` against one chip:

1. **Compile pool** — each distinct (model, workload) pair in the trace
   is compiled exactly once through a :class:`~repro.service.
   CompileService` (so the allocation cache makes repeated buckets
   nearly free, and a warm replay performs zero allocator solves).
2. **Event loop** — requests are served FIFO in arrival order on a
   single-chip server whose clock is a
   :class:`~repro.core.clock.ManualClock` advanced in *virtual
   milliseconds*.  A request's service time is its program's predicted
   ``end_to_end_ms``.
3. **Re-provisioning** — when consecutive requests run *different*
   programs, the chip must re-provision its arrays from the layout the
   previous program ended in to the layout the next one starts with.
   That cost is the paper's own mode-switch model (Eq. 1,
   :func:`repro.cost.switching.mode_switch_cycles`) applied across the
   request boundary.  Weight reloading for the incoming program is *not*
   charged here — it is already part of the program's first-segment
   inter-cost (and hence of ``end_to_end_ms``); charging it again would
   double-count.

Stages 1 and 3 are facts about *programs* and are computed once per
distinct program (or ordered program pair) per replay; only stage 2 is
per request, so a replay costs ``O(programs * warm compile + requests)``.

The pure scheduling core (:func:`replay_schedule`) is separated from
compilation so property/metamorphic tests can drive thousands of
randomized schedules without ever invoking the compiler.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace as dataclasses_replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.clock import ManualClock
from ..core.compiler import CompilerOptions
from ..core.program import CompiledProgram
from ..cost.switching import mode_switch_cycles
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import get_preset
from ..models.workload import workload_to_payload
from ..obs import NULL_OBS, NULL_TRACER
from ..service import CompileJob, CompileJobResult, CompileService
from .metrics import ReplayMetrics, compute_metrics
from .traces import Trace

__all__ = [
    "ReplayResult",
    "ReplaySimulator",
    "RequestOutcome",
    "ScheduledRequest",
    "replay_schedule",
]

#: Schema tag of :meth:`ReplayResult.to_json_dict` output.
REPORT_SCHEMA = "repro-replay-report/1"


@dataclass(frozen=True)
class ScheduledRequest:
    """The scheduler-facing view of one request (no compiler objects).

    Attributes:
        request_id: Trace request id.
        model: Model name (metrics are grouped by it).
        arrival_ms: Arrival time on the virtual clock.
        service_ms: Predicted execution time of the request's program, or
            ``None`` when the program failed to compile (the request is
            then dropped without occupying the server).
        program_key: Identity of the program the request runs; the
            switch-cost callable decides the re-provisioning charge from
            consecutive keys.
    """

    request_id: str
    model: str
    arrival_ms: float
    service_ms: Optional[float]
    program_key: str


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one request during replay."""

    request_id: str
    model: str
    arrival_ms: float
    start_ms: float
    switch_ms: float
    service_ms: float
    finish_ms: float
    served: bool
    error: Optional[str] = None

    @property
    def queue_ms(self) -> float:
        """Time spent waiting for the server (excludes re-provisioning)."""
        return self.start_ms - self.arrival_ms

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion latency."""
        return self.finish_ms - self.arrival_ms

    def to_dict(self) -> Dict:
        return {
            "id": self.request_id,
            "model": self.model,
            "arrival_ms": self.arrival_ms,
            "start_ms": self.start_ms,
            "queue_ms": self.queue_ms,
            "switch_ms": self.switch_ms,
            "service_ms": self.service_ms,
            "finish_ms": self.finish_ms,
            "latency_ms": self.latency_ms,
            "served": self.served,
            "error": self.error,
        }


def replay_schedule(
    items: Sequence[ScheduledRequest],
    switch_ms_between: Callable[[Optional[str], str], float],
    clock: Optional[ManualClock] = None,
    tracer=None,
) -> List[RequestOutcome]:
    """Run the FIFO single-server event loop over pre-costed requests.

    Requests are served in the given order (callers pass them
    arrival-sorted, as :class:`~repro.sim.traces.Trace` guarantees).
    For each served request the server waits until both the request has
    arrived and the previous one has finished, pays the re-provisioning
    cost ``switch_ms_between(previous_key, key)``, then executes for
    ``service_ms``.  Failed requests (``service_ms is None``) are
    recorded as unserved and neither occupy the server nor change the
    array layout.

    Everything per-*program* (service time, switch price) arrives
    pre-computed; the per-request work is one Lindley step — two float
    additions — and one record append.  Virtual time is a local float
    that takes exactly the steps ``ManualClock.advance`` would
    (``now += arrival - now``, not ``now = arrival``: the two differ in
    the last bit, and replay reports are compared bit for bit), moves
    only forward (a negative step raises ``ValueError`` as the clock
    would), and is handed to ``clock`` (a fresh :class:`ManualClock` by
    default) once at the end, so the clock finishes at the last
    completion.

    ``tracer`` (an optional :class:`~repro.obs.Tracer`) records a span
    per request — wall-clock time of the event-loop step, with the
    *virtual* arrival/start/finish times as attributes — and a
    ``replay.switch`` instant event whenever a request pays a non-zero
    re-provisioning cost.  The loop tests ``tracer.enabled`` once and
    never calls through a disabled tracer.  The schedule itself is
    byte-identical with and without a tracer.
    """
    clock = clock if clock is not None else ManualClock()
    tracer = tracer if tracer is not None else NULL_TRACER
    traced = tracer.enabled
    now = clock.now()
    outcomes: List[RequestOutcome] = []
    previous_key: Optional[str] = None
    span = None
    try:
        for item in items:
            if traced:
                span = tracer.span(
                    "replay.request", request=item.request_id, model=item.model
                ).__enter__()
            arrival_ms = item.arrival_ms
            service_ms = item.service_ms
            key = item.program_key
            if service_ms is None:
                outcomes.append(
                    RequestOutcome(
                        request_id=item.request_id,
                        model=item.model,
                        arrival_ms=arrival_ms,
                        start_ms=arrival_ms,
                        switch_ms=0.0,
                        service_ms=0.0,
                        finish_ms=arrival_ms,
                        served=False,
                        error=f"program {key!r} failed to compile",
                    )
                )
                if traced:
                    span.set(served=False, arrival_ms=arrival_ms)
            else:
                if arrival_ms > now:
                    now += float(arrival_ms - now)  # server idles
                start_ms = now
                switch_ms = float(switch_ms_between(previous_key, key))
                if traced and switch_ms > 0.0:
                    tracer.event(
                        "replay.switch",
                        switch_ms=switch_ms,
                        previous=previous_key,
                        program=key,
                    )
                if switch_ms + service_ms < 0:
                    raise ValueError("cannot advance a clock backwards")
                now += float(switch_ms + service_ms)
                outcome = RequestOutcome(
                    request_id=item.request_id,
                    model=item.model,
                    arrival_ms=arrival_ms,
                    start_ms=start_ms,
                    switch_ms=switch_ms,
                    service_ms=service_ms,
                    finish_ms=now,
                    served=True,
                )
                outcomes.append(outcome)
                if traced:
                    span.set(
                        served=True,
                        arrival_ms=arrival_ms,
                        start_ms=start_ms,
                        finish_ms=now,
                        switch_ms=switch_ms,
                        latency_ms=outcome.latency_ms,
                    )
                previous_key = key
            if traced:
                span.__exit__(None, None, None)
                span = None
    finally:
        if span is not None:  # the step raised inside an open span
            span.__exit__(*sys.exc_info())
    clock.advance(now - clock.now())
    return outcomes


@dataclass
class ReplayResult:
    """Everything a replay produced: outcomes, metrics, compile stats."""

    trace: Trace
    hardware: DualModeHardwareAbstraction
    outcomes: List[RequestOutcome]
    metrics: ReplayMetrics
    distinct_programs: int = 0
    allocator_solves: int = 0
    allocation_disk_hits: int = 0
    compile_wall_seconds: float = 0.0
    compile_errors: Dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> Dict:
        """JSON report: deterministic metrics plus compile accounting.

        The ``metrics`` sub-dict depends only on the trace, hardware and
        options — it is bit-identical across repeated runs with the same
        seed (the determinism CI job compares exactly this block).  Wall
        time and cache hits live under ``compile``, which legitimately
        varies between cold and warm runs.
        """
        return {
            "schema": REPORT_SCHEMA,
            "hardware": {
                "preset": self.hardware.name,
                "fingerprint": self.hardware.fingerprint(),
            },
            "trace": {
                "requests": len(self.trace),
                "models": self.trace.models,
                "metadata": self.trace.metadata,
            },
            "metrics": self.metrics.to_dict(),
            "compile": {
                "distinct_programs": self.distinct_programs,
                "allocator_solves": self.allocator_solves,
                "allocation_disk_hits": self.allocation_disk_hits,
                "wall_seconds": self.compile_wall_seconds,
                "errors": dict(sorted(self.compile_errors.items())),
            },
        }

    def render_report(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        m = self.metrics
        lines = [
            f"replay: {self.trace.describe()} on {self.hardware.name}",
            (
                f"  programs: {self.distinct_programs} distinct, "
                f"{self.allocator_solves} allocator solve(s), "
                f"{self.allocation_disk_hits} disk hit(s)"
            ),
            (
                f"  served {m.served}/{m.requests} request(s) in "
                f"{m.makespan_ms:.3f} ms -> {m.throughput_rps:.2f} req/s"
            ),
            (
                f"  latency p50={m.latency_p50_ms:.3f} ms "
                f"p99={m.latency_p99_ms:.3f} ms max={m.latency_max_ms:.3f} ms"
            ),
            (
                f"  utilisation={m.utilisation:.3f} "
                f"switch_share={m.switch_share:.4f} "
                f"(switching {m.switch_ms_total:.3f} ms of "
                f"{m.service_ms_total + m.switch_ms_total:.3f} ms busy)"
            ),
        ]
        for key, error in sorted(self.compile_errors.items()):
            lines.append(f"  FAILED {key}: {error}")
        return "\n".join(lines)


def _program_key(model: str, workload) -> str:
    """Stable identity of a (model, workload) pair within one replay."""
    payload = json.dumps(workload_to_payload(workload), sort_keys=True)
    return f"{model}|{payload}"


def _program_keys(trace: Trace) -> List[str]:
    """Program key of every request, each distinct pair rendered once.

    Workloads are frozen (hashable) dataclasses and the generators share
    one instance per (model, bucket), so the lookup usually hits on
    identity.
    """
    rendered: Dict[tuple, str] = {}
    keys: List[str] = []
    for request in trace.requests:
        pair = (request.model, request.workload)
        key = rendered.get(pair)
        if key is None:
            key = rendered[pair] = _program_key(*pair)
        keys.append(key)
    return keys


class ReplaySimulator:
    """Replays request traces against one chip.

    Args:
        hardware: Preset name or hardware abstraction the trace runs on.
        service: Compile service to build programs through (shares its
            allocation cache with everything else using it).  A private
            in-memory service is created when omitted.
        options: Compiler options for the trace's programs.  Code
            generation is forced off — replay only consumes predicted
            timings, and generating code for every distinct workload
            would slow the pool down for nothing.
        obs: Optional :class:`~repro.obs.Observability` bundle; replay
            records a span per served request, ``replay.switch`` instant
            events, a ``replay.queue_depth`` histogram and drop/switch
            counters.  A private service created here inherits the
            bundle (a caller-supplied ``service`` keeps its own).
    """

    def __init__(
        self,
        hardware: Union[str, DualModeHardwareAbstraction] = "dynaplasia",
        service: Optional[CompileService] = None,
        options: Optional[CompilerOptions] = None,
        obs=None,
    ) -> None:
        self.hardware = (
            get_preset(hardware) if isinstance(hardware, str) else hardware
        )
        self.obs = NULL_OBS if obs is None else obs
        self.service = (
            service if service is not None else CompileService(obs=self.obs)
        )
        base = options if options is not None else CompilerOptions()
        if base.generate_code:
            base = dataclasses_replace(base, generate_code=False)
        self.options = base

    # ------------------------------------------------------------------ #
    # compile pool
    # ------------------------------------------------------------------ #
    def compile_pool(
        self, trace: Trace, keys: Optional[Sequence[str]] = None
    ) -> Dict[str, CompileJobResult]:
        """Compile each distinct (model, workload) of the trace once.

        ``keys`` are the requests' program keys when the caller already
        rendered them (:meth:`run` does); they are derived otherwise.
        """
        if keys is None:
            keys = _program_keys(trace)
        jobs: Dict[str, CompileJob] = {}
        for request, key in zip(trace.requests, keys):
            if key not in jobs:
                jobs[key] = CompileJob(
                    request.model,
                    workload=request.workload,
                    hardware=self.hardware,
                    options=self.options,
                    label=key,
                )
        results = self.service.compile_batch(list(jobs.values()))
        return dict(zip(jobs, results))

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def run(self, trace: Trace) -> ReplayResult:
        """Compile the trace's program pool and replay it over virtual time.

        Compile-side work is per distinct *program*: one key rendering,
        one compile, one ``end_to_end_ms`` read, and (lazily, see
        :meth:`_switch_ms_between`) one Eq. 1 pricing per ordered pair
        of programs that actually meet.  Per *request* there is only the
        event-loop step of :func:`replay_schedule`, so a replay costs
        ``O(programs * warm compile + requests)``.  The per-program
        tables are locals of this call — nothing outlives it.
        """
        keys = _program_keys(trace)
        with self.obs.tracer.span("replay.compile_pool", requests=len(trace)):
            pool = self.compile_pool(trace, keys)
        programs: Dict[str, CompiledProgram] = {
            key: result.program for key, result in pool.items() if result.ok
        }
        service_ms = {
            key: program.end_to_end_ms for key, program in programs.items()
        }
        items = [
            ScheduledRequest(
                request_id=request.request_id,
                model=request.model,
                arrival_ms=request.arrival_ms,
                service_ms=service_ms.get(key),
                program_key=key,
            )
            for request, key in zip(trace.requests, keys)
        ]
        with self.obs.tracer.span("replay.schedule", requests=len(items)):
            outcomes = replay_schedule(
                items,
                self._switch_ms_between(programs),
                tracer=self.obs.tracer,
            )
        self._observe(items, outcomes)

        def stats_sum(name: str) -> int:
            return sum(int(result.stats.get(name, 0)) for result in pool.values())

        return ReplayResult(
            trace=trace,
            hardware=self.hardware,
            outcomes=outcomes,
            metrics=compute_metrics(outcomes),
            distinct_programs=len(pool),
            allocator_solves=stats_sum("allocator_solves"),
            allocation_disk_hits=stats_sum("allocation_disk_hits"),
            compile_wall_seconds=sum(r.wall_seconds for r in pool.values()),
            compile_errors={
                key: result.error
                for key, result in sorted(pool.items())
                if not result.ok
            },
        )

    def _observe(
        self,
        items: Sequence[ScheduledRequest],
        outcomes: Sequence[RequestOutcome],
    ) -> None:
        """Mirror one replay's outcomes into the metrics registry.

        Queue depth is measured at each served request's start: the
        number of later requests already arrived but still waiting
        (``arrival_ms <= start_ms``).  Arrivals are sorted (a
        :class:`~repro.sim.traces.Trace` invariant), so a single
        ``bisect`` per request suffices.  The counters are tallied here
        and added once each, not once per request.
        """
        metrics = self.obs.metrics
        if not getattr(metrics, "enabled", False):
            return
        arrivals = [item.arrival_ms for item in items]
        dropped = switches = 0
        for index, outcome in enumerate(outcomes):
            if not outcome.served:
                dropped += 1
                continue
            if outcome.switch_ms > 0.0:
                switches += 1
            depth = bisect_right(arrivals, outcome.start_ms) - (index + 1)
            metrics.observe("replay.queue_depth", max(0, depth))
            metrics.observe("replay.latency_ms", outcome.latency_ms)
        for name, count in (
            ("replay.requests", len(outcomes)),
            ("replay.dropped", dropped),
            ("replay.switches", switches),
        ):
            if count:  # a counter nothing bumped stays out of the snapshot
                metrics.inc(name, count)

    def _switch_ms_between(
        self, programs: Dict[str, CompiledProgram]
    ) -> Callable[[Optional[str], str], float]:
        """Re-provisioning cost between consecutive programs, in ms.

        The chip leaves the previous program in its *last* segment's
        array layout and must enter the next program's *first* segment
        layout; Eq. 1 prices the arrays that flip mode.  Identical
        consecutive programs (the common bucket-repeat case) cost 0, as
        does the very first request (initial configuration is free in
        the paper's model, and the program's own first-segment
        inter-cost already covers its weight loading).

        The returned callable prices each ordered ``(previous, next)``
        pair the first time it occurs and remembers the answer for the
        rest of the replay: a trace over ``P`` programs pays at most
        ``P * (P - 1)`` Eq. 1 evaluations, and only for pairs that
        actually meet.
        """
        priced: Dict[tuple, float] = {}

        def switch_ms(previous_key: Optional[str], key: str) -> float:
            if previous_key is None or previous_key == key:
                return 0.0
            pair = (previous_key, key)
            ms = priced.get(pair)
            if ms is None:
                cycles = mode_switch_cycles(
                    programs[previous_key].segments[-1].resources,
                    programs[key].segments[0].resources,
                    self.hardware,
                )
                ms = priced[pair] = self.hardware.cycles_to_ms(cycles)
            return ms

        return switch_ms
