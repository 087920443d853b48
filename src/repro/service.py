"""Batch compilation service: a shared allocation cache and a program store.

Serving many compile requests from one process — design-space-exploration
sweeps, multi-model fleets, repeated compiles of the same network at
different workloads — repeats most of the per-segment allocation solves
(Fig. 18 of the paper).  :class:`CompileService` shares them (what that
saves is measured in the header of :mod:`repro.core.cache`):

* every job compiles against one shared, thread-safe
  :class:`~repro.core.cache.AllocationCache`, so structurally identical
  segments are solved once across the whole batch;
* jobs run concurrently on a thread pool (``concurrent.futures``);
* for CPU-bound fleets where the GIL caps the thread backend (the
  window solver, DP and cost model are pure Python), ``backend="process"`` shuttles
  picklable job specs through a ``ProcessPoolExecutor``; the results are
  bit-identical to the thread backend's (the solvers are deterministic);
* a ``cache_dir`` persists whole compiled programs in a
  :class:`~repro.core.store.DiskCacheStore`: any later process — a new
  CLI invocation, a CI run, a DSE sweep, a pool worker — answers a
  compile an earlier one already did with one file read and one decode
  (:meth:`CompileService.compile_graph` is the one reader and the one
  writer; why programs and not windows is measured in the header of
  :mod:`repro.core.store`);
* each job reports its own statistics (cache hit rate, allocator solves,
  wall time) via :class:`CompileJobResult` and
  ``CompiledProgram.stats``; an error in one job is captured in its
  result and never kills the rest of the batch.

Usage::

    from repro.service import CompileJob, CompileService

    service = CompileService(cache_dir="~/.cache/repro-programs")
    results = service.compile_batch(
        [
            CompileJob("resnet18"),
            CompileJob("bert", workload=Workload(batch_size=4)),
        ]
    )
    for result in results:
        print(result.describe())

The CLI exposes the same path as ``repro compile-batch`` (with
``--cache-dir`` and ``--backend``).
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .core.cache import AllocationCache, CacheStats
from .core.compiler import CMSwitchCompiler, CompilerOptions
from .core.program import CompiledProgram
from .core.store import DiskCacheStore, ProgramKey
from .obs import NULL_OBS, Observability, Span, Tracer
from .hardware.deha import DualModeHardwareAbstraction
from .hardware.presets import get_preset
from .ir.graph import Graph
from .ir.serialization import graph_from_json, graph_to_json
from .models.registry import build_model
from .models.workload import Workload

__all__ = ["CompileJob", "CompileJobResult", "CompileService"]

#: Valid values of ``CompileService(backend=...)``.
BACKENDS = ("thread", "process")


@dataclass
class CompileJob:
    """One compilation request.

    Attributes:
        model: Registered model name (built via
            :func:`repro.models.build_model`) or an already-built
            :class:`~repro.ir.graph.Graph`.
        workload: Workload for model building (defaults to ``Workload()``;
            ignored when ``model`` is a graph).
        hardware: Hardware preset name or abstraction instance.
        options: Compiler options (paper defaults, code generation off,
            when omitted).
        label: Display name; defaults to the model/graph name.
    """

    model: Union[str, Graph]
    workload: Optional[Workload] = None
    hardware: Union[str, DualModeHardwareAbstraction] = "dynaplasia"
    options: Optional[CompilerOptions] = None
    label: Optional[str] = None

    @property
    def name(self) -> str:
        """Human-readable job name."""
        if self.label:
            return self.label
        return self.model if isinstance(self.model, str) else self.model.name

    def resolve_graph(self) -> Graph:
        """Materialise the computation graph of the job."""
        if isinstance(self.model, Graph):
            return self.model
        return build_model(self.model, self.workload or Workload())

    def resolve_hardware(self) -> DualModeHardwareAbstraction:
        """Materialise the hardware abstraction of the job."""
        if isinstance(self.hardware, DualModeHardwareAbstraction):
            return self.hardware
        return get_preset(self.hardware)

    def to_spec(self) -> Dict:
        """Picklable rendering of the job for the process backend.

        Model graphs are shipped as their JSON serialisation (the
        round-trip is exact — see :mod:`repro.ir.serialization`); every
        other field is a plain dataclass or string that pickles as-is.
        """
        return {
            "model": self.model if isinstance(self.model, str) else None,
            "graph_json": (
                graph_to_json(self.model) if isinstance(self.model, Graph) else None
            ),
            "workload": self.workload,
            "hardware": self.hardware,
            "options": self.options,
            "label": self.label,
        }

    @classmethod
    def from_spec(cls, spec: Dict) -> "CompileJob":
        """Rebuild a job from :meth:`to_spec` output (worker side)."""
        model = spec["model"]
        if spec.get("graph_json") is not None:
            model = graph_from_json(spec["graph_json"])
        return cls(
            model,
            workload=spec["workload"],
            hardware=spec["hardware"],
            options=spec["options"],
            label=spec["label"],
        )


@dataclass
class CompileJobResult:
    """Outcome of one job: the program, or the error that stopped it.

    Attributes:
        job: The originating request.
        program: The compiled program (None when the job failed).
        error: One-line error description (None on success).
        error_traceback: Full traceback text of the failure.
        wall_seconds: Wall-clock time the job took inside the service.
        stats: The program's compile statistics (allocator solves, cache
            hits, hit rate).  On failure this is usually empty, except
            for :class:`~repro.core.compiler.NoFeasiblePlanError`, whose
            pre-failure solver statistics are preserved.
        spans: Telemetry spans recorded *in another process* for this
            job (process backend with tracing on).  Thread-backend jobs
            record straight into the service's tracer and leave this
            empty.  Spans pickle bit-identically, so the batch tracer
            can re-root them under its batch span via ``adopt``.
    """

    job: CompileJob
    program: Optional[CompiledProgram] = None
    error: Optional[str] = None
    error_traceback: Optional[str] = None
    wall_seconds: float = 0.0
    stats: Dict = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the job compiled successfully."""
        return self.program is not None

    def describe(self) -> str:
        """One-line summary for logs and the CLI table."""
        if not self.ok:
            return f"{self.job.name}: FAILED ({self.error})"
        hit_rate = self.stats.get("allocation_cache_hit_rate", 0.0)
        return (
            f"{self.job.name}: {self.program.end_to_end_ms:.3f} ms, "
            f"{self.program.num_segments} segments, "
            f"cache hit rate {100.0 * hit_rate:.0f}%, "
            f"{self.wall_seconds:.3f} s"
        )


class CompileService:
    """Compiles many (model, workload, hardware) jobs concurrently.

    Concurrency / sharing contract:

    * ``backend="thread"`` (default) — jobs share one in-process
      :class:`AllocationCache`.  The service object itself is safe to
      use from multiple threads.
    * ``backend="process"`` — jobs are pickled to a
      ``ProcessPoolExecutor``.  Workers cannot see this process's
      in-memory cache (each keeps its own); what they share with this
      process and each other is the ``cache_dir`` program store.
      Results are bit-identical to the thread backend's because every
      solver in the pipeline is deterministic.
    * ``cache_dir`` — every compile of either backend (and of
      :meth:`repro.api.Session.compile`) goes through
      :meth:`compile_graph`: a stored program is read, verified, decoded
      and returned with no pipeline run; a missing one is compiled and
      stored.  A served program is text-only where its meta-operator
      flow is concerned (:class:`~repro.core.program.RenderedMetaProgram`)
      and its ``stats`` describe the call that returned it
      (``allocator_solves: 0``, every segment an
      ``allocation_disk_hits``).

    Args:
        cache: Shared allocation cache; a fresh bounded one is created
            when omitted.
        max_workers: Default pool width for :meth:`compile_batch`
            (None lets ``concurrent.futures`` choose).
        use_cache: Disable the shared cache and the program store
            entirely (for A/B timing).
        backend: ``"thread"`` or ``"process"`` (see contract above).
        cache_dir: Directory of the persistent program store
            (:class:`~repro.core.store.DiskCacheStore`) shared across
            threads, worker processes and future invocations.
        solve_memo: Optional per-run
            :class:`~repro.core.memo.SolveMemo` shared by every compile
            the service performs (thread backend; process workers cannot
            see it).  A DSE run passes its own memo here so neighbouring
            design points reuse allocation solves even when the service
            has no cache.
        obs: Optional :class:`~repro.obs.Observability` bundle.  The
            service opens a span per batch and per job (thread-backend
            job spans nest under the batch span across pool threads;
            process-backend workers trace locally and ship their spans
            home for re-rooting) and threads the metrics registry into
            the cache and the store it creates.
    """

    def __init__(
        self,
        cache: Optional[AllocationCache] = None,
        max_workers: Optional[int] = None,
        use_cache: bool = True,
        backend: str = "thread",
        cache_dir: Optional[Union[str, Path]] = None,
        solve_memo=None,
        obs: Optional[Observability] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.backend = backend
        self.obs = NULL_OBS if obs is None else obs
        self.cache_dir = str(Path(cache_dir).expanduser()) if cache_dir is not None else None
        self.cache: Optional[AllocationCache] = None
        self.store: Optional[DiskCacheStore] = None
        if use_cache:
            # `cache is None`, not truthiness: an empty AllocationCache
            # has len() == 0.
            self.cache = (
                AllocationCache(metrics=self.obs.metrics) if cache is None else cache
            )
            if self.cache_dir:
                self.store = DiskCacheStore(self.cache_dir, metrics=self.obs.metrics)
        self.solve_memo = solve_memo
        self.max_workers = max_workers

    # ------------------------------------------------------------------ #
    # single compile (the one place the program store is consulted)
    # ------------------------------------------------------------------ #
    def compile_graph(
        self,
        graph: Graph,
        hardware: DualModeHardwareAbstraction,
        options: CompilerOptions,
    ) -> CompiledProgram:
        """Compile one graph, through the program store when there is one.

        Every compile the service, a :class:`~repro.api.Session` or a
        pool worker performs comes through here, and nothing else reads
        or writes the store.  Hit: read, verify, decode, return — with
        the statistics of *this* call (see :func:`_served`).  Miss
        (absent, corrupt, foreign or other-version entry — all counted
        by the store, none raised): run the pipeline, store the program.

        Raises:
            NoFeasiblePlanError: No feasible plan exists for the graph.
        """
        key = None
        if self.store is not None:
            start = time.perf_counter()
            key = ProgramKey.build(graph, hardware, options, CMSwitchCompiler.name)
            program = self.store.get(key)
            if program is not None:
                return _served(program, time.perf_counter() - start)
        program = CMSwitchCompiler(
            hardware,
            options,
            cache=self.cache,
            solve_memo=self.solve_memo,
            obs=self.obs,
        ).compile(graph)
        if key is not None:
            self.store.put(key, program)
        return program

    # ------------------------------------------------------------------ #
    # single job
    # ------------------------------------------------------------------ #
    def compile(self, job: CompileJob, _parent=None) -> CompileJobResult:
        """Compile one job, capturing any failure in the result.

        ``_parent`` is an internal telemetry hook: batch runs pass their
        batch span so pool-thread job spans nest under it.
        """
        start = time.perf_counter()
        with self.obs.tracer.span("compile", parent=_parent, job=job.name) as span:
            try:
                program = self.compile_graph(
                    job.resolve_graph(),
                    job.resolve_hardware(),
                    job.options or CompilerOptions(generate_code=False),
                )
            except Exception as exc:  # noqa: BLE001 - isolation is the contract
                span.set(ok=False)
                return CompileJobResult(
                    job=job,
                    error=f"{type(exc).__name__}: {exc}",
                    error_traceback=traceback.format_exc(),
                    wall_seconds=time.perf_counter() - start,
                    # NoFeasiblePlanError carries the solver work done before
                    # the failure; batch accounting must not drop it.
                    stats=dict(getattr(exc, "stats", None) or {}),
                )
            span.set(ok=True)
            return CompileJobResult(
                job=job,
                program=program,
                wall_seconds=time.perf_counter() - start,
                stats=dict(program.stats),
            )

    # ------------------------------------------------------------------ #
    # batches
    # ------------------------------------------------------------------ #
    def compile_batch(
        self,
        jobs: Sequence[CompileJob],
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> List[CompileJobResult]:
        """Compile all jobs concurrently; results keep the input order.

        A failing job yields a :class:`CompileJobResult` with ``ok ==
        False``; the remaining jobs are unaffected — this holds on both
        backends (a worker-process crash fails only its own jobs).

        Args:
            max_workers: Pool width override for this batch.
            backend: ``"thread"`` / ``"process"`` override for this batch
                (defaults to the service's backend).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        backend = backend if backend is not None else self.backend
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        workers = max_workers if max_workers is not None else self.max_workers
        with self.obs.tracer.span(
            "compile_batch", jobs=len(jobs), backend=backend
        ) as batch:
            if backend == "process":
                return self._compile_batch_processes(jobs, workers, batch)
            if (workers is not None and workers <= 1) or len(jobs) == 1:
                return [self.compile(job) for job in jobs]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(
                    pool.map(lambda job: self.compile(job, _parent=batch), jobs)
                )

    def _compile_batch_processes(
        self, jobs: Sequence[CompileJob], workers: Optional[int], batch_span=None
    ) -> List[CompileJobResult]:
        """Fan the batch out to a process pool (program store shared, if any).

        Each job travels as a picklable spec (:meth:`CompileJob.to_spec`)
        and comes back as a pickled :class:`CompileJobResult`; the
        original job object is restored on the result so callers keep
        identity (e.g. a ``Graph`` passed by reference).  Pool-level
        failures — unpicklable payloads, a killed worker — are folded
        into the affected jobs' results instead of raising.
        """
        # Only this backend needs multiprocessing; a module-scope import would
        # load it into every process that imports the API.
        from concurrent.futures import ProcessPoolExecutor

        specs = [
            {
                **job.to_spec(),
                "cache_dir": self.cache_dir,
                "use_cache": self.cache is not None,
                "trace": bool(self.obs.tracer.enabled),
            }
            for job in jobs
        ]
        if workers is not None:
            workers = max(1, min(workers, len(specs)))
        results: List[CompileJobResult] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_compile_spec_in_worker, spec) for spec in specs]
            for job, future in zip(jobs, futures):
                try:
                    result = future.result()
                    result.job = job
                except Exception as exc:  # noqa: BLE001 - isolation is the contract
                    result = CompileJobResult(
                        job=job,
                        error=f"{type(exc).__name__}: {exc}",
                        error_traceback=traceback.format_exc(),
                    )
                if result.spans:
                    # Worker-recorded spans: re-id into this tracer and
                    # re-root under the batch span.
                    self.obs.tracer.adopt(result.spans, parent=batch_span)
                results.append(result)
        return results

    def close(self) -> None:
        """Idempotent no-op: the service holds nothing to release.

        Batch pools are per-call and the program store opens its files
        per operation.  Kept because callers (the repository benchmark among
        them) end a service's life with it.
        """

    # ------------------------------------------------------------------ #
    # service-level statistics
    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self) -> CacheStats:
        """Aggregate cache counters across every job served so far.

        Thread-backend jobs all hit ``self.cache``, so this is the whole
        story there.  Process-backend jobs run against per-worker caches
        in other processes; their activity shows up in each job's
        ``result.stats``, not here.
        """
        if self.cache is None:
            return CacheStats()
        return self.cache.stats.snapshot()


def _served(program: CompiledProgram, seconds: float) -> CompiledProgram:
    """Re-stamp a program the store returned with this call's statistics.

    The stored ``stats`` / ``metadata`` describe the compile that wrote
    the entry; the caller asked what *this* call cost: no solve, no pass,
    every segment's allocation read from disk.  Plan-derived entries
    (``num_flattened_units``, ``refine_extra_compute_arrays``, ...) stay.
    """
    segments = len(program.segments)
    program.compile_seconds = seconds
    program.stats.update(
        allocator_solves=0,
        allocation_cache_hits=segments,
        allocation_disk_hits=segments,
        allocation_cache_hit_rate=1.0,
        wall_seconds=seconds,
        pass_seconds={},
        pass_events=[],
    )
    program.metadata.update(allocation_calls=0, dp_seconds=0.0, passes=[])
    return program


# ---------------------------------------------------------------------- #
# process-backend worker (module level so it pickles)
# ---------------------------------------------------------------------- #

#: The worker process's allocation cache: every job a worker serves
#: shares one in-memory table (created on the first job).
_WORKER_CACHE: Optional[AllocationCache] = None


def _compile_spec_in_worker(spec: Dict) -> CompileJobResult:
    """Compile one job spec inside a pool worker.

    Job-level failures are captured in the returned result (mirroring
    :meth:`CompileService.compile`); only infrastructure failures — a
    spec that cannot be rebuilt, say — surface as exceptions, which the
    parent folds into the job's result.
    """
    global _WORKER_CACHE
    job = CompileJob.from_spec(spec)
    use_cache = spec.get("use_cache", True)
    if use_cache and _WORKER_CACHE is None:
        _WORKER_CACHE = AllocationCache()
    obs = Observability(tracer=Tracer()) if spec.get("trace") else None
    service = CompileService(
        cache=_WORKER_CACHE if use_cache else None,
        use_cache=use_cache,
        cache_dir=spec.get("cache_dir"),
        obs=obs,
    )
    result = service.compile(job)
    if obs is not None:
        result.spans = obs.tracer.flush()
    return result
