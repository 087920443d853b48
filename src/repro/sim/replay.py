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
   ``end_to_end_ms``.  Each request's step (switch + service) is priced
   with numpy, and the Lindley recurrence is solved in numpy rounds that
   reproduce the sequential loop bit for bit; only heavy traffic walks
   the loop itself.
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
from collections import abc
from dataclasses import dataclass, field, replace as dataclasses_replace
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

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
    ``keys``, ``models`` and ``service_ms`` (``None``: the program failed
    to compile and its requests are dropped).  The schedule wrote its
    ``starts[i]``, ``switches[i]`` and ``finishes[i]`` (float64 arrays;
    lists work too); a dropped request starts and finishes at arrival.
    The input columns, and their ``arrival_array`` / ``program_array``,
    are the replayed :class:`~repro.sim.traces.Trace`'s own, not copies.

    Read as a sequence (``len``, indexing, iteration, ``==`` against
    another one or a list) it yields :class:`RequestOutcome` records of
    plain ``float`` / ``bool`` fields, each built only when it is read;
    :func:`~repro.sim.metrics.compute_metrics` builds none.
    """

    __slots__ = (
        "request_ids", "arrivals", "programs", "keys", "models", "service_ms",
        "starts", "switches", "finishes", "arrival_array", "program_array",
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
        arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.request_ids, self.arrivals, self.programs = request_ids, arrivals, programs
        self.keys, self.models, self.service_ms = keys, models, service_ms
        self.starts, self.switches, self.finishes = starts, switches, finishes
        self.arrival_array, self.program_array = (
            arrays if arrays is not None else _arrays_of(arrivals, programs)
        )

    def served_columns(self) -> Tuple[np.ndarray, ...]:
        """``(arrivals, programs, starts, switches, finishes)`` of the
        served requests, in request order, as arrays."""
        floats = (np.asarray(c, np.float64) for c in (self.starts, self.switches, self.finishes))
        columns = (self.arrival_array, self.program_array, *floats)
        if None not in self.service_ms:
            return columns
        served = np.array([s is not None for s in self.service_ms])[self.program_array]
        return tuple(column[served] for column in columns)

    def _outcome(
        self, request_id, arrival_ms, program, start_ms, switch_ms, finish_ms
    ) -> RequestOutcome:
        service_ms = self.service_ms[program]
        served = service_ms is not None
        error = None if served else f"program {self.keys[program]!r} failed to compile"
        return RequestOutcome(
            request_id=request_id,
            model=self.models[program],
            arrival_ms=float(arrival_ms),
            start_ms=float(start_ms),
            switch_ms=float(switch_ms),
            service_ms=float(service_ms) if served else 0.0,
            finish_ms=float(finish_ms),
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


def _arrays_of(arrivals, programs) -> Tuple[np.ndarray, np.ndarray]:
    return np.asarray(arrivals, dtype=np.float64), np.asarray(programs, dtype=np.intp)


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
    arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> ReplayOutcomes:
    """Serve pre-costed requests FIFO on one server, in column order.

    The first three arguments are per-request columns, the next three
    per-program ones (see :class:`ReplayOutcomes`); ``arrays`` may hold
    the arrival and program columns as float64 / ``intp`` arrays already
    (a :class:`~repro.sim.traces.Trace` does).  A served request waits
    until it has arrived and its predecessor has finished, pays
    ``switch_ms_between(previous_key, key)`` (``None`` before the first
    served request), then runs for its program's service time.  A
    request of a failed program (service ``None``) neither occupies the
    server nor changes the array layout.

    The served requests' (previous, program) pairs are coded and each
    pair that meets is priced once; a step is ``switch + service``.  The
    starts are the Lindley recurrence's — ``now += arrival - now`` when
    idle (not ``now = arrival``: the two differ in the last bit, and
    reports are compared bit for bit), start at ``now``, ``now += step``
    — computed in numpy by :func:`_lindley_starts`, bit for bit; the
    finishes are ``starts + steps``, the same additions.  A negative
    step raises ``ValueError`` (as ``ManualClock.advance`` would) at the
    first request that takes one.  Time starts at ``clock.now()`` (a
    fresh :class:`ManualClock` by default), advanced once at the end.
    No numpy float warning escapes: every operation is IEEE arithmetic
    that the Python floats it replaces carried out silently.

    ``tracer`` gets a ``replay.request`` span per request (virtual times
    as attributes) holding a ``replay.switch`` event when it pays a
    switch, emitted from the finished columns: they mark the steps, not
    time them.  A negative step's span closes with the error.
    """
    clock = clock if clock is not None else ManualClock()
    tracer = tracer if tracer is not None else NULL_TRACER
    arrays = arrays if arrays is not None else _arrays_of(arrivals, programs)
    served_arrivals, served_programs = arrival_array, program_array = arrays
    compiled = [service is not None for service in service_ms]
    served_rows = None  # every request is served
    if not all(compiled):
        served_rows = np.flatnonzero(np.array(compiled)[program_array])
        served_arrivals = arrival_array[served_rows]
        served_programs = program_array[served_rows]

    # Pair code previous * P + program; previous P is "none yet".
    count = len(keys)
    previous = np.empty_like(served_programs)
    previous[:1] = count
    previous[1:] = served_programs[:-1]
    pairs = previous * count + served_programs
    price = np.zeros((count + 1) * count)
    previous_keys = [*keys, None]
    for pair in np.flatnonzero(np.bincount(pairs, minlength=price.size)).tolist():
        before, program = divmod(pair, count)
        price[pair] = float(switch_ms_between(previous_keys[before], keys[program]))
    services = np.array([0.0 if s is None else s for s in service_ms])
    with np.errstate(all="ignore"):  # IEEE results, as Python floats give them
        # A step is switch + service, one add per pair; a request takes its pair's.
        step_price = price + np.tile(services, count + 1)
        switches, steps = price[pairs], step_price[pairs]
        negative = np.flatnonzero(steps < 0)[:1]
        stop = len(arrival_array)
        if negative.size:  # schedule (and trace) only the requests before it
            switches, steps = switches[: negative[0]], steps[: negative[0]]
            stop = int(negative[0] if served_rows is None else served_rows[negative[0]])
        start_array = _lindley_starts(served_arrivals[: len(steps)], steps, clock.now())
        finish_array = start_array + steps
    now = float(finish_array[-1]) if len(steps) else clock.now()
    if served_rows is not None:  # scatter back; a dropped request never waits
        rows = served_rows[: len(steps)]
        columns = (arrival_array.copy(), np.zeros_like(arrival_array), arrival_array.copy())
        for column, values in zip(columns, (start_array, switches, finish_array)):
            column[rows] = values
        start_array, switches, finish_array = columns
    outcomes = ReplayOutcomes(
        request_ids, arrivals, programs, keys, models, service_ms,
        start_array, switches, finish_array, arrays,
    )
    if tracer.enabled:
        _trace_requests(tracer, outcomes, [previous_keys[p] for p in previous.tolist()], stop)
    if negative.size:
        model = models[programs[stop]]
        with tracer.span("replay.request", request=request_ids[stop], model=model):
            raise ValueError("cannot advance a clock backwards")
    clock.advance(now - clock.now())
    return outcomes


def _lindley_starts(arrivals: np.ndarray, steps: np.ndarray, now: float) -> np.ndarray:
    """Start times of the Lindley recurrence, bit for bit, mostly in numpy.

    Request ``i`` starts at ``before + (arrivals[i] - before)`` if it
    arrives after ``before``, its predecessor's finish (``now`` for the
    first request), and at ``before`` otherwise; it finishes at
    ``start + steps[i]``.  Callers silence numpy's float warnings.

    Every request first starts at its arrival.  Each round recomputes,
    with exactly those operations, the requests whose predecessor's
    finish moved in the round before (every request in the first), until
    no start moves; moves are compared as bits, so ``-0.0`` against
    ``0.0`` counts and a NaN settles.  A start is a function of its
    arrival and its predecessor's finish only, so the fixed point
    satisfies the recurrence at every request and, the recurrence having
    one solution, is the sequential loop's output in every bit.  Every
    request before the first unsettled one is final at any time.

    An idle request whose predecessor finished after half its arrival
    time starts exactly at its arrival (Sterbenz), so the rounds stop at
    the end of each busy period, and light traffic settles in as many
    rounds as its longest busy period has requests.  A round in which
    more than half of the recomputed starts move hands the first
    unsettled busy period to :func:`_serve_busy`, which settles it
    whole.  Traffic is heavy when more than half of all requests are
    still unsettled after that, and the loop walks the rest one request
    at a time (:func:`_walk`), as it does once the rounds have
    recomputed three times as many requests as there are: linear time.
    """
    count = len(steps)
    # before[i] is request i's predecessor's finish; before[0] is ``now``.
    before = np.empty(count + 1)
    before[0] = now
    np.add(arrivals, steps, out=before[1:])  # each request started at its arrival
    finish = before[:-1]
    starts = np.where(arrivals > finish, finish + (arrivals - finish), finish)
    moved = np.flatnonzero(starts.view(np.int64) != arrivals.view(np.int64))
    np.add(starts, steps, out=before[1:])
    saturated, rows = 2 * moved.size > count, _successors(moved, count)
    budget = 3 * count  # requests the rounds and busy periods may recompute
    while rows.size:
        if saturated:
            first = int(rows[0])
            settled = _serve_busy(first, arrivals, steps, starts, before)
            budget -= 2 * (settled - first)  # its cumsum windows
            rows = rows[np.searchsorted(rows, settled, side="right") :]
            if settled < count:  # the request that found the server idle
                rows = np.concatenate(([settled], rows))
            if not rows.size:
                break
        if 2 * rows.size > count or rows.size > budget:
            _walk(int(rows[0]), arrivals, steps, starts, before)
            break
        budget -= rows.size
        arrival, finish, old = arrivals[rows], before[rows], starts[rows]
        start = np.where(arrival > finish, finish + (arrival - finish), finish)
        moved = np.flatnonzero(start.view(np.int64) != old.view(np.int64))
        saturated = 2 * moved.size > rows.size
        rows, start = rows[moved], start[moved]
        starts[rows] = start
        before[rows + 1] = start + steps[rows]
        rows = _successors(rows, count)
    return starts


def _successors(rows: np.ndarray, count: int) -> np.ndarray:
    """The requests after sorted ``rows``, up to the last of ``count``."""
    return rows[: np.searchsorted(rows, count - 1)] + 1


def _serve_busy(
    first: int, arrivals: np.ndarray, steps: np.ndarray, starts: np.ndarray, before: np.ndarray
) -> int:
    """Settle the busy period that request ``first`` opens; return the
    first request after it that arrives to an idle server (or ``count``).

    ``before[first]`` is final.  A busy server starts each request at its
    predecessor's finish, so the starts are a ``cumsum`` of the steps
    from there (sequential: the loop's ``now += step``, in order), taken
    over windows that double from 64 requests until one holds a request
    that arrives after its predecessor's finish.
    """
    count, width = len(steps), 64
    while first < count:
        end = min(count, first + width)
        chain = np.empty(end - first + 1)
        chain[0], chain[1:] = before[first], steps[first:end]
        np.cumsum(chain, out=chain)
        idle = np.flatnonzero(arrivals[first:end] > chain[:-1])
        busy = int(idle[0]) if idle.size else end - first
        starts[first : first + busy] = chain[:busy]
        before[first + 1 : first + busy + 1] = chain[1 : busy + 1]
        first += busy
        if idle.size:
            break
        width *= 2
    return first


def _walk(
    first: int, arrivals: np.ndarray, steps: np.ndarray, starts: np.ndarray, before: np.ndarray
) -> None:
    """Write ``starts[first:]`` one request at a time from ``before[first]``."""
    starts_tail: List[float] = []
    append = starts_tail.append
    now = float(before[first])
    # A memoryview of a float64 array yields plain floats, no list built.
    for arrival_ms, step in zip(memoryview(arrivals[first:]), memoryview(steps[first:])):
        if arrival_ms > now:
            now += arrival_ms - now  # server idles
        append(now)
        now += step
    starts[first:] = np.fromiter(starts_tail, dtype=np.float64, count=len(starts_tail))


def _trace_requests(tracer, outcomes: ReplayOutcomes, previous: List, stop: int) -> None:
    """Spans and switch events of the first ``stop`` requests, from their
    columns; ``previous`` is each served request's previous key."""
    previous, keys = iter(previous), outcomes.keys
    rows = zip(
        outcomes.request_ids, outcomes.arrivals, outcomes.programs,
        *(c.tolist() for c in (outcomes.starts, outcomes.switches, outcomes.finishes)),
    )
    for request_id, arrival_ms, program, start_ms, switch_ms, finish_ms in islice(rows, stop):
        served = outcomes.service_ms[program] is not None
        with tracer.span(
            "replay.request", request=request_id, model=outcomes.models[program]
        ) as span:
            span.set(served=served, arrival_ms=arrival_ms)
            if not served:
                continue
            before = next(previous)
            if switch_ms > 0.0:
                tracer.event(
                    "replay.switch", switch_ms=switch_ms, previous=before, program=keys[program]
                )
            span.set(
                start_ms=start_ms, finish_ms=finish_ms, switch_ms=switch_ms,
                latency_ms=finish_ms - arrival_ms,
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
    def compile_pool(self, trace: Trace) -> Dict[str, CompileJobResult]:
        """Compile each distinct (model, workload) of the trace once.

        The pool is the trace's program table, in its first-appearance
        order; the result maps each program's key to its compile, in
        that order (a key renders the whole workload, so distinct table
        entries have distinct keys).
        """
        keys = [_program_key(model, workload) for model, workload in trace.table]
        jobs = [
            CompileJob(
                model,
                workload=workload,
                hardware=self.hardware,
                options=self.options,
                label=key,
            )
            for key, (model, workload) in zip(keys, trace.table)
        ]
        return dict(zip(keys, self.service.compile_batch(jobs)))

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def run(self, trace: Trace) -> ReplayResult:
        """Compile the trace's program pool and replay it over virtual time.

        Compile-side work is per distinct *program*: one key rendering,
        one compile, one ``end_to_end_ms`` read, and one Eq. 1 pricing
        per ordered pair of programs that actually meet.  Per *request*
        there is a constant number of numpy operations over the trace's
        own arrays in :func:`replay_schedule` (a Python step only when
        heavy traffic is walked), so a replay costs
        ``O(programs * warm compile + requests)``.  The per-program
        tables are locals of this call — nothing outlives it.
        """
        with self.obs.tracer.span("replay.compile_pool", requests=len(trace)):
            pool = self.compile_pool(trace)
        compiled: Dict[str, CompiledProgram] = {
            key: result.program for key, result in pool.items() if result.ok
        }
        service_ms = [
            float(result.program.end_to_end_ms) if result.ok else None
            for result in pool.values()
        ]
        with self.obs.tracer.span("replay.schedule", requests=len(trace)):
            outcomes = replay_schedule(
                trace.request_ids, trace.arrivals, trace.programs, list(pool),
                [model for model, _ in trace.table], service_ms,
                self._switch_ms_between(compiled), tracer=self.obs.tracer,
                arrays=(trace.arrival_array, trace.program_array),
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
        invariant), so one ``searchsorted`` over the served columns
        finds every depth.  Each histogram takes its samples in one
        ``observe_many`` and each counter is added once, not once per
        request.
        """
        metrics = self.obs.metrics
        if not getattr(metrics, "enabled", False):
            return
        arrivals, _, starts, switches, finishes = outcomes.served_columns()
        if len(arrivals):
            waiting = np.searchsorted(arrivals, starts, side="right")
            depths = waiting - np.arange(1, len(arrivals) + 1)
            metrics.histogram("replay.queue_depth").observe_many(
                memoryview(np.maximum(depths, 0).astype(np.float64))
            )
            metrics.histogram("replay.latency_ms").observe_many(
                memoryview(finishes - arrivals)
            )
        for name, count in (
            ("replay.requests", len(outcomes)),
            ("replay.dropped", len(outcomes) - len(arrivals)),
            ("replay.switches", int(np.count_nonzero(switches > 0.0))),
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
