"""The compile daemon: ``Session`` promoted to a long-lived process.

:class:`CompileDaemon` is the front door of the serving tier — a
stdlib-only threaded HTTP/JSON server over one shared
:class:`~repro.service.CompileService`:

* **Bounded admission.**  Requests land on a bounded work queue served
  by a fixed worker pool; when the queue is full the daemon answers a
  structured 503 immediately instead of stacking threads.  The accept
  loop itself (``ThreadingHTTPServer``) only parses, validates and
  waits — compiles never run on connection threads.
* **In-flight coalescing.**  Requests are keyed by
  :func:`~repro.serve.wire.request_fingerprint` (graph identity × DEHA
  fingerprint × options — the same inputs that determine
  :meth:`CompiledProgram.fingerprint`); concurrent identical requests
  share one compile through :class:`~repro.serve.SingleFlight`.  Every
  waiter is bounded by ``wait_timeout`` (structured 504 on expiry), so
  a slow compile can never wedge the accept loop.
* **Result table.**  A finished ``ok`` compile leaves its pre-encoded
  response in a bounded LRU keyed by the same request fingerprint
  (:class:`ResultTable`); a repeat request is parse → fingerprint →
  lookup → one send, and never reaches the queue, the service or the
  encoder.  Failures are never stored.
* **Warmth at both tiers.**  The service shares allocation windows in
  memory and, with ``cache_dir=``, whole compiled programs through the
  directory every other process mounting it reads and writes; across
  machines the daemon itself is the shared tier.
* **Observability.**  Per-request spans (``serve.request``) flow
  through :mod:`repro.obs`; every count — the daemon's ``serve.*``, the
  cache tiers', the service's and the solver's — lives in the daemon's
  one metrics registry, which ``GET /metrics`` prints line by line and
  ``GET /v1/cache/stats`` groups in JSON.

Endpoints (all JSON, versioned via ``wire_version``):

* ``POST /v1/compile`` — one job in, one compiled program out.
* ``POST /v1/compile_batch`` — many jobs in, per-job outcomes out
  (failures isolated per job, mirroring :meth:`CompileService.compile_batch`).
* ``GET /v1/cache/stats`` — cache/tier counters.
* ``GET /healthz`` — liveness.
* ``GET /metrics`` — text metrics.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..core.compiler import CompilerOptions
from ..models.registry import list_models
from ..obs import Observability
from ..obs.metrics import registry_for
from ..service import CompileJob, CompileJobResult, CompileService
from .coalesce import CoalesceTimeout, Flight, SingleFlight
from .httpbase import (
    QuietHandler,
    ServingHTTPServer,
    read_body,
    respond_bytes,
    respond_json,
    respond_text,
)
from .wire import (
    WIRE_VERSION,
    WireFormatError,
    check_version,
    error_payload,
    job_from_wire,
    program_to_wire,
    request_fingerprint,
)

__all__ = ["CompileDaemon", "ResultTable"]

LOGGER = logging.getLogger("repro")

#: Default bound on queued-but-not-yet-compiling requests.
DEFAULT_QUEUE_LIMIT = 64

#: Default per-waiter bound (seconds) on coalesced/queued waits.
DEFAULT_WAIT_TIMEOUT = 300.0


#: Bounds of the request-level result table (fixed, like
#: ``MAX_BODY_BYTES``: hygiene limits on daemon memory, not tuning
#: knobs).  Bodies of the paper's models are 8-30 KB without generated
#: code, so the entry bound binds first; the byte bound is for the rest.
RESULT_TABLE_ENTRIES = 256
RESULT_TABLE_BYTES = 64 * 1024 * 1024

#: Spans the daemon's tracer retains (drop-oldest).  Nothing ever
#: flushes a long-lived server's tracer, so an unbounded one grows by
#: ~0.5 MB per executed mobilenet compile for the life of the process.
TRACE_RING_SPANS = 4096

#: The daemon's own counters, ``serve.<name>`` in its registry.  Looked
#: up at construction, so each is a ``serve_<name> <integer>`` line on
#: ``/metrics`` from the first scrape on.  ``solves_executed`` is the
#: solver's ``allocator.solves`` seen from the request side, kept under
#: the name the serving docs and checks use.
SERVE_COUNTERS = (
    "requests",
    "bad_requests",
    "compiles_executed",
    "compile_failures",
    "solves_executed",
    "flights_started",
    "coalesced_hits",
    "queue_rejections",
    "wait_timeouts",
    "result_hits",
    "result_evictions",
)


class _QueueFull(Exception):
    """Internal: admission refused because the work queue is at its bound."""


class ResultTable:
    """Bounded LRU of finished compiles: request fingerprint → response body.

    Values are the *pre-encoded* success documents (``"cached": true``),
    ready to be sent as they are.  Both bounds evict least-recently-used
    first; a body that alone exceeds the byte bound is not stored.
    Thread-safe.
    """

    def __init__(self) -> None:
        self.max_entries = RESULT_TABLE_ENTRIES
        self.max_bytes = RESULT_TABLE_BYTES
        self._bodies: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._bodies)

    def get(self, fingerprint: str) -> Optional[bytes]:
        """The stored body (now most recently used), or None."""
        with self._lock:
            body = self._bodies.get(fingerprint)
            if body is not None:
                self._bodies.move_to_end(fingerprint)
            return body

    def put(self, fingerprint: str, body: bytes) -> Tuple[int, int, int]:
        """Store ``body``; returns ``(entries, bytes, evictions)`` deltas."""
        if len(body) > self.max_bytes:
            return 0, 0, 0
        with self._lock:
            entries, size = len(self._bodies), self._bytes
            replaced = self._bodies.pop(fingerprint, None)
            if replaced is not None:
                self._bytes -= len(replaced)
            self._bodies[fingerprint] = body
            self._bytes += len(body)
            evictions = 0
            while len(self._bodies) > self.max_entries or self._bytes > self.max_bytes:
                _, evicted = self._bodies.popitem(last=False)
                self._bytes -= len(evicted)
                evictions += 1
            return len(self._bodies) - entries, self._bytes - size, evictions


def _encode_outcome(result: CompileJobResult) -> Tuple[bool, bytes]:
    """Encode one job outcome once, for every request that shares it.

    Returns ``(ok, tail)``.  ``tail`` is the canonical (sorted-keys)
    JSON of the outcome document without its opening brace and without
    the per-request ``cached``/``coalesced`` flags — :func:`_outcome_body`
    splices those in front, which keeps the bytes canonical because the
    two flags sort before every other key of either document shape.
    """
    if result.ok:
        wire_program = program_to_wire(result.program)
        document = {
            "wire_version": WIRE_VERSION,
            "ok": True,
            "fingerprint": result.program.fingerprint(),
            "wall_seconds": result.wall_seconds,
            "stats": wire_program.get("stats") or {},
            "program": wire_program,
        }
    else:
        document = error_payload(
            "compile_failed",
            result.error or "compile failed",
            stats={k: v for k, v in result.stats.items() if isinstance(v, (int, float, str))},
        )
        document["ok"] = False
    return result.ok, json.dumps(document, sort_keys=True)[1:].encode("utf-8")


def _outcome_body(ok: bool, tail: bytes, coalesced: bool, cached: bool = False) -> bytes:
    """A complete outcome document: this request's flags + the shared tail."""
    flags = {"coalesced": coalesced}
    if ok:
        flags["cached"] = cached
    return json.dumps(flags, sort_keys=True)[:-1].encode("utf-8") + b", " + tail


def _error_slot(code: str, message: str) -> bytes:
    """An encoded batch slot for a job that never produced an outcome."""
    document = error_payload(code, message)
    document["ok"] = False
    return json.dumps(document, sort_keys=True).encode("utf-8")


class CompileDaemon:
    """Long-lived compile server over one shared :class:`CompileService`.

    Args:
        cache_dir: Optional program-store directory (shared with every
            other process mounting it).
        workers: Compile worker threads (the pool that executes jobs;
            connection threads only wait).
        queue_limit: Bound on jobs admitted but not yet compiling;
            beyond it requests get a structured 503.
        wait_timeout: Per-request bound in seconds on waiting for a
            result (queued or coalesced); expiry answers 504 while the
            compile itself keeps running for later requests.
        host: Bind address (loopback by default).
        port: TCP port; 0 picks an ephemeral one (see ``bound_port``).
        obs: Optional :class:`~repro.obs.Observability` bundle; the
            daemon creates an enabled one by default (its tracer a
            ``TRACE_RING_SPANS`` ring) and gives a bundle without a
            recording registry a private one, since ``/metrics`` is
            read from it.
        use_cache: Disable the allocation cache, the program store *and*
            the result table entirely (A/B timing): every request runs a
            full compile.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
        host: str = "127.0.0.1",
        port: int = 0,
        obs: Optional[Observability] = None,
        use_cache: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if obs is None:
            obs = Observability.create(max_spans=TRACE_RING_SPANS)
        self.obs = replace(obs, metrics=registry_for(obs.metrics))
        metrics = self.obs.metrics
        self._serve = {name: metrics.counter(f"serve.{name}") for name in SERVE_COUNTERS}
        # The result table's size: levels, moved by the deltas put() reports.
        self._result_entries = metrics.gauge("serve.result_entries")
        self._result_bytes = metrics.gauge("serve.result_bytes")
        self.service = CompileService(
            cache_dir=cache_dir,
            use_cache=use_cache,
            obs=self.obs,
        )
        #: Options the service substitutes for ``options=None`` — also
        #: what the coalescing fingerprint folds omitted options onto.
        self.default_options = CompilerOptions(generate_code=False)
        self.wait_timeout = wait_timeout
        self.flights = SingleFlight()
        self.results: Optional[ResultTable] = ResultTable() if use_cache else None
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_limit)
        self._draining = threading.Event()
        self._workers: List[threading.Thread] = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
            )
            thread.start()
            self._workers.append(thread)

        daemon = self

        class Handler(QuietHandler):
            server_version = "repro-serve"

            def do_GET(self) -> None:  # noqa: N802 - stdlib casing
                daemon._handle_get(self)

            def do_POST(self) -> None:  # noqa: N802 - stdlib casing
                daemon._handle_post(self)

        self.httpd = ServingHTTPServer((host, port), Handler)
        self.host = host

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, int]:
        """The daemon's ``serve.*`` counters and gauges, read from the registry."""
        values = {name: counter.value for name, counter in self._serve.items()}
        values["result_entries"] = self._result_entries.value
        values["result_bytes"] = self._result_bytes.value
        return values

    @property
    def bound_port(self) -> int:
        """The actual TCP port (meaningful when constructed with port 0)."""
        return self.httpd.bound_port

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.bound_port}"

    # ------------------------------------------------------------------ #
    # worker pool
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:  # drain sentinel
                self._queue.task_done()
                return
            job, flight = item
            try:
                result = self.service.compile(job)
                ok, tail = _encode_outcome(result)
            except BaseException as exc:  # noqa: BLE001 - must settle the flight
                self.flights.finish(flight, error=exc)
                self._queue.task_done()
                continue
            self._serve["compiles_executed"].inc()
            self._serve["solves_executed"].inc(int(result.stats.get("allocator_solves", 0)))
            if not ok:
                self._serve["compile_failures"].inc()
            elif self.results is not None:
                # Stored before the flight retires, so an identical request
                # always finds one of the two: N requests, one compile.
                entries, size, evictions = self.results.put(
                    flight.key, _outcome_body(True, tail, coalesced=False, cached=True)
                )
                self._result_entries.inc(entries)
                self._result_bytes.inc(size)
                self._serve["result_evictions"].inc(evictions)
            self.flights.finish(flight, value=(ok, tail))
            self._queue.task_done()

    def _lookup(self, fingerprint: str) -> Optional[bytes]:
        """The result table's ready-to-send body for a repeat request."""
        if self.results is None:
            return None
        body = self.results.get(fingerprint)
        if body is not None:
            self._serve["result_hits"].inc()
        return body

    def _submit(self, job: CompileJob, fingerprint: str) -> Tuple[Flight, bool]:
        """Admit one job: join an in-flight compile or queue a fresh one.

        Returns:
            ``(flight, coalesced)``; the flight settles to the
            ``(ok, tail)`` of :func:`_encode_outcome`.

        Raises:
            _QueueFull: The work queue is at its bound (only possible
                for would-be leaders; followers always join).
        """
        flight, leader = self.flights.begin(fingerprint)
        if not leader:
            self._serve["coalesced_hits"].inc()
            return flight, True
        self._serve["flights_started"].inc()
        try:
            self._queue.put_nowait((job, flight))
        except queue.Full:
            error = _QueueFull(f"work queue is full ({self._queue.maxsize} pending)")
            self.flights.finish(flight, error=error)
            self._serve["queue_rejections"].inc()
            raise error from None
        return flight, False

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _parse_job(self, payload) -> CompileJob:
        """Wire payload → validated job (raises WireFormatError)."""
        job = job_from_wire(payload)
        if isinstance(job.model, str) and job.model not in set(list_models()):
            raise WireFormatError(
                f"unknown model {job.model!r}; registered models: "
                + ", ".join(list_models())
            )
        return job

    def _compile_one(self, payload) -> Tuple[bool, bytes]:
        """The whole /v1/compile flow for one already-parsed job payload.

        Returns ``(ok, encoded response document)``; raises ``_QueueFull``
        / ``CoalesceTimeout`` / ``WireFormatError`` for the transport
        layer to turn into status codes.
        """
        job = self._parse_job(payload)
        fingerprint = request_fingerprint(job, default_options=self.default_options)
        body = self._lookup(fingerprint)
        if body is not None:
            return True, body
        with self.obs.tracer.span(
            "serve.request", job=job.name, fingerprint=fingerprint[:12]
        ) as span:
            flight, coalesced = self._submit(job, fingerprint)
            ok, tail = self.flights.wait(flight, timeout=self.wait_timeout)
            span.set(coalesced=coalesced, ok=ok)
        return ok, _outcome_body(ok, tail, coalesced)

    def _handle_post(self, handler: QuietHandler) -> None:
        if handler.path not in ("/v1/compile", "/v1/compile_batch"):
            respond_json(handler, 404, error_payload("not_found", handler.path))
            return
        if self._draining.is_set():
            respond_json(
                handler, 503, error_payload("draining", "daemon is shutting down")
            )
            return
        self._serve["requests"].inc()
        body, failure = read_body(handler)
        if failure is not None:
            status, message = failure
            self._serve["bad_requests"].inc()
            respond_json(handler, status, error_payload("bad_request", message))
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self._serve["bad_requests"].inc()
            respond_json(
                handler, 400, error_payload("bad_request", f"invalid JSON body: {exc}")
            )
            return
        try:
            if handler.path == "/v1/compile":
                self._handle_compile(handler, payload)
            else:
                self._handle_compile_batch(handler, payload)
        except WireFormatError as exc:
            self._serve["bad_requests"].inc()
            respond_json(handler, 400, error_payload("bad_request", str(exc)))
        except _QueueFull as exc:
            respond_json(handler, 503, error_payload("queue_full", str(exc)))
        except CoalesceTimeout as exc:
            self._serve["wait_timeouts"].inc()
            respond_json(handler, 504, error_payload("timeout", str(exc)))

    def _handle_compile(self, handler: QuietHandler, payload) -> None:
        check_version(payload, "compile request")
        ok, body = self._compile_one(payload.get("job", payload))
        respond_bytes(handler, 200 if ok else 422, body)

    def _handle_compile_batch(self, handler: QuietHandler, payload) -> None:
        check_version(payload, "compile_batch request")
        jobs_payload = payload.get("jobs")
        if not isinstance(jobs_payload, list) or not jobs_payload:
            raise WireFormatError("'jobs' must be a non-empty array of compile jobs")
        # Admit every job first (identical jobs inside one batch coalesce
        # onto one flight too), then wait; a malformed or refused job
        # fails only its own slot, mirroring CompileService's isolation.
        # Each admission is (None, finished slot) or (flight, coalesced).
        admissions: List[Tuple[Optional[Flight], object]] = []
        for job_payload in jobs_payload:
            try:
                job = self._parse_job(job_payload)
                fingerprint = request_fingerprint(job, default_options=self.default_options)
                body = self._lookup(fingerprint)
                if body is not None:
                    admissions.append((None, body))
                else:
                    admissions.append(self._submit(job, fingerprint))
            except WireFormatError as exc:
                self._serve["bad_requests"].inc()
                admissions.append((None, _error_slot("bad_request", str(exc))))
            except _QueueFull as exc:
                admissions.append((None, _error_slot("queue_full", str(exc))))
        slots: List[bytes] = []
        for flight, value in admissions:
            if flight is None:
                slots.append(value)
                continue
            try:
                ok, tail = self.flights.wait(flight, timeout=self.wait_timeout)
            except CoalesceTimeout as exc:
                self._serve["wait_timeouts"].inc()
                slots.append(_error_slot("timeout", str(exc)))
                continue
            slots.append(_outcome_body(ok, tail, coalesced=value))
        respond_bytes(
            handler,
            200,
            b'{"results": [' + b", ".join(slots) + b'], "wire_version": %d}' % WIRE_VERSION,
        )

    def _handle_get(self, handler: QuietHandler) -> None:
        if handler.path == "/healthz":
            respond_json(
                handler,
                200,
                {
                    "status": "draining" if self._draining.is_set() else "ok",
                    "role": "compile-daemon",
                    "queue_depth": self._queue.qsize(),
                },
            )
            return
        if handler.path == "/v1/cache/stats":
            respond_json(handler, 200, self.cache_stats_payload())
            return
        if handler.path == "/metrics":
            respond_text(handler, 200, self.render_metrics())
            return
        respond_json(handler, 404, error_payload("not_found", handler.path))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def cache_stats_payload(self) -> Dict:
        """JSON document of the registry's counts, grouped by owner."""
        payload: Dict = {
            "wire_version": WIRE_VERSION,
            "serve": self.counters(),
            "coalescing": {"in_flight": len(self.flights)},
        }
        if self.service.cache is not None:
            payload["cache"] = self.service.cache.stats.to_dict()
        if self.service.store is not None:
            payload["disk"] = self.service.store.stats.to_dict()
        return payload

    def render_metrics(self) -> str:
        """Text exposition: one line per counter and gauge of the registry.

        Registry name ``a.b`` prints as ``a_b <value>``; each fact has
        one line.  Two levels that live elsewhere follow: the work
        queue's depth and the spans the tracer's ring dropped.
        """
        snapshot = self.obs.metrics.to_dict()
        values = {**snapshot["counters"], **snapshot["gauges"]}
        lines = [f"{name.replace('.', '_')} {values[name]}" for name in sorted(values)]
        lines.append(f"serve_queue_depth {self._queue.qsize()}")
        lines.append(f"obs_spans_dropped {self.obs.tracer.spans_dropped}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` is called."""
        LOGGER.info(
            "compile daemon: %s (workers=%d, queue<=%d, cache=%s)",
            self.url,
            len(self._workers),
            self._queue.maxsize,
            self.service.cache_dir or "in-memory",
        )
        self.httpd.serve_forever()

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting, optionally drain queued work, release the port.

        With ``drain`` (the default — what SIGTERM does via the CLI):
        new requests are refused with a structured 503, every job
        already admitted runs to completion and settles its waiters,
        the worker pool exits, and only then does the socket close.
        Idempotent, and safe on a daemon whose accept loop never ran.
        """
        self._draining.set()
        if drain:
            for _ in self._workers:
                self._queue.put(None)
            for thread in self._workers:
                thread.join(timeout=timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
