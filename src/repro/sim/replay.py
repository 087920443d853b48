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
   nearly free, and a warm replay performs zero allocator solves and,
   through the service's recipe memo, builds no graph).
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
import operator
import sys
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass, field, replace as dataclasses_replace
from itertools import compress
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.clock import ManualClock
from ..core.compiler import CompilerOptions
from ..core.program import CompiledProgram
from ..cost.switching import mode_switch_cycles
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import get_preset
from ..models.workload import Workload, workload_to_payload
from ..obs import NULL_OBS, NULL_TRACER
from ..service import CompileJob, CompileJobResult, CompileService
from .metrics import ReplayMetrics, compute_metrics
from .traces import Trace

__all__ = [
    "ReplayResult",
    "ReplaySimulator",
    "ReplayOutcomes",
    "RequestOutcome",
    "replay_schedule",
]

#: Schema tag of :meth:`ReplayResult.to_json_dict` output.
REPORT_SCHEMA = "repro-replay-report/1"


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


class ReplayOutcomes(abc.Sequence):
    """One replay's per-request outcomes, stored as parallel columns.

    Request ``i`` is ``request_ids[i]``, arrived at ``arrivals[i]`` and
    runs program ``programs[i]``, an index into the per-program
    ``keys``, ``models`` and ``service_ms`` (``None`` marks a program
    that failed to compile, whose requests are dropped).  The event loop
    wrote its ``starts[i]``, ``switches[i]`` and ``finishes[i]``; a
    dropped request starts and finishes at its arrival.

    Read as a sequence (``len``, indexing, iteration, ``==`` against
    another one or a list) it yields :class:`RequestOutcome` records,
    each built only when it is read; :func:`~repro.sim.metrics.
    compute_metrics` reads the columns and builds none.
    """

    __slots__ = (
        "request_ids", "arrivals", "programs", "keys", "models", "service_ms",
        "starts", "switches", "finishes",
    )

    def __init__(
        self,
        request_ids: Sequence[str],
        arrivals: Sequence[float],
        programs: Sequence[int],
        keys: Sequence[str],
        models: Sequence[str],
        service_ms: Sequence[Optional[float]],
        starts: Sequence[float],
        switches: Sequence[float],
        finishes: Sequence[float],
    ) -> None:
        self.request_ids = request_ids
        self.arrivals = arrivals
        self.programs = programs
        self.keys = keys
        self.models = models
        self.service_ms = service_ms
        self.starts = starts
        self.switches = switches
        self.finishes = finishes

    @property
    def served(self) -> List[bool]:
        """Whether each request was served (its program compiled)."""
        compiled = [service is not None for service in self.service_ms]
        return list(map(compiled.__getitem__, self.programs))

    def _outcome(
        self, request_id, arrival_ms, program, start_ms, switch_ms, finish_ms
    ) -> RequestOutcome:
        service_ms = self.service_ms[program]
        served = service_ms is not None
        error = None if served else f"program {self.keys[program]!r} failed to compile"
        return RequestOutcome(
            request_id=request_id,
            model=self.models[program],
            arrival_ms=arrival_ms,
            start_ms=start_ms,
            switch_ms=switch_ms,
            service_ms=service_ms if served else 0.0,
            finish_ms=finish_ms,
            served=served,
            error=error,
        )

    def __len__(self) -> int:
        return len(self.arrivals)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._outcome(
            self.request_ids[index], self.arrivals[index], self.programs[index],
            self.starts[index], self.switches[index], self.finishes[index],
        )

    def __iter__(self) -> Iterator[RequestOutcome]:
        for row in zip(
            self.request_ids, self.arrivals, self.programs,
            self.starts, self.switches, self.finishes,
        ):
            yield self._outcome(*row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ReplayOutcomes, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ReplayOutcomes({len(self)} requests)"


def replay_schedule(
    request_ids: Sequence[str],
    arrivals: Sequence[float],
    programs: Sequence[int],
    keys: Sequence[str],
    models: Sequence[str],
    service_ms: Sequence[Optional[float]],
    switch_ms_between: Callable[[Optional[str], str], float],
    clock: Optional[ManualClock] = None,
    tracer=None,
) -> ReplayOutcomes:
    """Run the FIFO single-server event loop over pre-costed requests.

    The first three arguments are per-request columns, the next three
    per-program ones (see :class:`ReplayOutcomes`).  Requests are served
    in column order (callers pass them arrival-sorted, as
    :class:`~repro.sim.traces.Trace` guarantees).  For each served
    request the server waits until both the request has arrived and the
    previous one has finished, pays the re-provisioning cost
    ``switch_ms_between(previous_key, key)``, then executes for its
    program's service time.  Requests of a failed program (service time
    ``None``) are recorded as unserved and neither occupy the server nor
    change the array layout.

    Everything per-*program* arrives pre-computed, and the switch price
    of an ordered pair of programs is asked of ``switch_ms_between``
    the first time the pair meets and read from a program x program
    table after that (``previous_key`` is ``None`` for the first served
    request).  The per-request work is one Lindley step — two float
    additions — and three float appends.  Virtual time is a local float
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
    # priced[previous][program], filled as pairs meet; the extra last
    # row is "no previous program" (before the first served request).
    no_program = len(keys)
    previous_keys = [*keys, None]
    priced: List[List[Optional[float]]] = [
        [None] * no_program for _ in previous_keys
    ]
    starts: List[float] = []
    switches: List[float] = []
    finishes: List[float] = []
    start_append, switch_append, finish_append = (
        starts.append, switches.append, finishes.append
    )
    now = clock.now()
    previous = no_program
    row = priced[previous]
    span = None
    try:
        for request_id, arrival_ms, program in zip(request_ids, arrivals, programs):
            if traced:
                span = tracer.span(
                    "replay.request", request=request_id, model=models[program]
                ).__enter__()
            service = service_ms[program]
            if service is None:
                start_append(arrival_ms)
                switch_append(0.0)
                finish_append(arrival_ms)
                if traced:
                    span.set(served=False, arrival_ms=arrival_ms)
            else:
                if arrival_ms > now:
                    now += float(arrival_ms - now)  # server idles
                start_ms = now
                switch = row[program]
                if switch is None:
                    switch = row[program] = float(
                        switch_ms_between(previous_keys[previous], keys[program])
                    )
                if traced and switch > 0.0:
                    tracer.event(
                        "replay.switch",
                        switch_ms=switch,
                        previous=previous_keys[previous],
                        program=keys[program],
                    )
                if switch + service < 0:
                    raise ValueError("cannot advance a clock backwards")
                now += float(switch + service)
                start_append(start_ms)
                switch_append(switch)
                finish_append(now)
                if traced:
                    span.set(
                        served=True,
                        arrival_ms=arrival_ms,
                        start_ms=start_ms,
                        finish_ms=now,
                        switch_ms=switch,
                        latency_ms=now - arrival_ms,
                    )
                previous = program
                row = priced[program]
            if traced:
                span.__exit__(None, None, None)
                span = None
    finally:
        if span is not None:  # the step raised inside an open span
            span.__exit__(*sys.exc_info())
    clock.advance(now - clock.now())
    return ReplayOutcomes(
        request_ids, arrivals, programs, keys, models, service_ms,
        starts, switches, finishes,
    )


@dataclass
class ReplayResult:
    """Everything a replay produced: outcomes, metrics, compile stats."""

    trace: Trace
    hardware: DualModeHardwareAbstraction
    outcomes: ReplayOutcomes
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


#: One program of a replay: its key, model name and workload.
ProgramEntry = Tuple[str, str, Workload]


def _index_programs(trace: Trace) -> Tuple[List[int], List[ProgramEntry]]:
    """Program index of every request, and the program table it indexes.

    One walk of the trace.  Each request is looked up by ``(model,
    id(workload))`` first — the generators share one ``Workload``
    instance per (model, bucket), so this usually hits without hashing
    the workload — and by value otherwise; only a new value renders its
    key.  The trace holds every workload for the whole walk, so no
    ``id`` is reused.
    """
    by_identity: Dict[Tuple[str, int], int] = {}
    by_value: Dict[Tuple[str, Workload], int] = {}
    table: List[ProgramEntry] = []
    index: List[int] = []
    append = index.append
    for request in trace.requests:
        identity = (request.model, id(request.workload))
        program = by_identity.get(identity)
        if program is None:
            pair = (request.model, request.workload)
            program = by_value.get(pair)
            if program is None:
                program = by_value[pair] = len(table)
                table.append((_program_key(*pair), *pair))
            by_identity[identity] = program
        append(program)
    return index, table


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
        self, trace: Trace, table: Optional[Sequence[ProgramEntry]] = None
    ) -> Dict[str, CompileJobResult]:
        """Compile each distinct (model, workload) of the trace once.

        ``table`` is the trace's program table when the caller already
        built it (:meth:`run` does); it is derived otherwise.  The
        result maps each program key to its compile, in table order.
        """
        if table is None:
            table = _index_programs(trace)[1]
        jobs = [
            CompileJob(
                model,
                workload=workload,
                hardware=self.hardware,
                options=self.options,
                label=key,
            )
            for key, model, workload in table
        ]
        results = self.service.compile_batch(jobs)
        return {key: result for (key, _, _), result in zip(table, results)}

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def run(self, trace: Trace) -> ReplayResult:
        """Compile the trace's program pool and replay it over virtual time.

        Compile-side work is per distinct *program*: one key rendering,
        one compile, one ``end_to_end_ms`` read, and one Eq. 1 pricing
        per ordered pair of programs that actually meet.  Per *request*
        there is one step of the walk that indexes the programs and one
        step of the event loop of :func:`replay_schedule`, both over
        plain columns, so a replay costs ``O(programs * warm compile +
        requests)``.  The per-program tables are locals of this call —
        nothing outlives it.
        """
        programs, table = _index_programs(trace)
        with self.obs.tracer.span("replay.compile_pool", requests=len(trace)):
            pool = self.compile_pool(trace, table)
        compiled: Dict[str, CompiledProgram] = {
            key: result.program for key, result in pool.items() if result.ok
        }
        keys = [key for key, _, _ in table]
        service_ms = [
            compiled[key].end_to_end_ms if key in compiled else None for key in keys
        ]
        requests = trace.requests
        with self.obs.tracer.span("replay.schedule", requests=len(requests)):
            outcomes = replay_schedule(
                [request.request_id for request in requests],
                [request.arrival_ms for request in requests],
                programs,
                keys,
                [model for _, model, _ in table],
                service_ms,
                self._switch_ms_between(compiled),
                tracer=self.obs.tracer,
            )
        self._observe(outcomes)

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

    def _observe(self, outcomes: ReplayOutcomes) -> None:
        """Mirror one replay's outcomes into the metrics registry.

        Queue depth is measured at each served request's start: the
        number of later *served* requests already arrived but still
        waiting (``arrival_ms <= start_ms``); a dropped request never
        waits.  Arrivals are sorted (a :class:`~repro.sim.traces.Trace`
        invariant), so a single ``bisect`` per request suffices.  The
        counters are tallied here and added once each, not once per
        request.
        """
        metrics = self.obs.metrics
        if not getattr(metrics, "enabled", False):
            return
        served = outcomes.served
        arrivals = list(compress(outcomes.arrivals, served))
        switches = 0
        for index, (arrival_ms, start_ms, switch_ms, finish_ms) in enumerate(
            zip(
                arrivals,
                compress(outcomes.starts, served),
                compress(outcomes.switches, served),
                compress(outcomes.finishes, served),
            )
        ):
            if switch_ms > 0.0:
                switches += 1
            depth = bisect_right(arrivals, start_ms) - (index + 1)
            metrics.observe("replay.queue_depth", max(0, depth))
            metrics.observe("replay.latency_ms", finish_ms - arrival_ms)
        for name, count in (
            ("replay.requests", len(outcomes)),
            ("replay.dropped", len(outcomes) - len(arrivals)),
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

        :func:`replay_schedule` asks once per ordered pair that meets,
        so a trace over ``P`` programs pays at most ``P * (P - 1)``
        Eq. 1 evaluations, and only for pairs that actually meet.
        """

        def switch_ms(previous_key: Optional[str], key: str) -> float:
            if previous_key is None or previous_key == key:
                return 0.0
            cycles = mode_switch_cycles(
                programs[previous_key].segments[-1].resources,
                programs[key].segments[0].resources,
                self.hardware,
            )
            return self.hardware.cycles_to_ms(cycles)

        return switch_ms
