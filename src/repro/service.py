"""Batch compilation service: a shared allocation cache and a program store.

Serving many compile requests from one process — design-space-exploration
sweeps, multi-model fleets, repeated compiles of the same network at
different workloads — repeats most of the per-segment allocation solves
(Fig. 18 of the paper).  :class:`CompileService` shares them (what that
saves is measured in the header of :mod:`repro.core.cache`):

* every job compiles against one shared, thread-safe
  :class:`~repro.core.cache.AllocationCache`, so structurally identical
  segments are solved once across the whole batch;
* a batch is a loop: jobs run one after another in input order, so a
  duplicate job always finds its twin's solves in the cache and per-job
  solve counts repeat from run to run (why there is no pool is measured
  in ``docs/architecture.md``, "Why a batch is a loop"; several cores
  are used by running several ``repro`` processes over one ``cache_dir``);
* a ``cache_dir`` persists whole compiled programs in a
  :class:`~repro.core.store.DiskCacheStore`: any later process — a new
  CLI invocation, a CI run, a DSE sweep — answers a compile an earlier
  one already did with one file read and one decode
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
``--cache-dir``).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .core.cache import AllocationCache, CacheStats
from .core.compiler import CMSwitchCompiler, CompilerOptions
from .core.program import CompiledProgram
from .core.store import DiskCacheStore, ProgramKey
from .obs import NULL_OBS, Observability
from .hardware.deha import DualModeHardwareAbstraction
from .hardware.presets import get_preset
from .ir.graph import Graph
from .models.registry import build_model
from .models.workload import Workload

__all__ = ["CompileJob", "CompileJobResult", "CompileService"]


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
    """

    job: CompileJob
    program: Optional[CompiledProgram] = None
    error: Optional[str] = None
    error_traceback: Optional[str] = None
    wall_seconds: float = 0.0
    stats: Dict = field(default_factory=dict)

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
    """Compiles (model, workload, hardware) jobs against shared caches.

    Sharing contract:

    * Every job shares one in-process :class:`AllocationCache`.  A batch
      runs its jobs one after another; the service object itself is safe
      to use from several threads (the ``repro serve`` daemon's workers
      share one), its cache and store being locked.
    * ``cache_dir`` — every compile (and every
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
        use_cache: Disable the shared cache and the program store
            entirely (for A/B timing).
        cache_dir: Directory of the persistent program store
            (:class:`~repro.core.store.DiskCacheStore`) shared across
            threads, processes and future invocations.
        obs: Optional :class:`~repro.obs.Observability` bundle.  The
            service opens a span per batch and per job (job spans nest
            under the batch span) and threads the metrics registry into
            the cache and the store it creates.
    """

    def __init__(
        self,
        cache: Optional[AllocationCache] = None,
        use_cache: bool = True,
        cache_dir: Optional[Union[str, Path]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
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

        Every compile the service or a :class:`~repro.api.Session`
        performs comes through here, and nothing else reads or writes
        the store.  Hit: read, verify, decode, return — with the
        statistics of *this* call (see :func:`_served`).  Miss
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
            hardware, options, cache=self.cache, obs=self.obs
        ).compile(graph)
        if key is not None:
            self.store.put(key, program)
        return program

    # ------------------------------------------------------------------ #
    # single job
    # ------------------------------------------------------------------ #
    def compile(self, job: CompileJob) -> CompileJobResult:
        """Compile one job, capturing any failure in the result."""
        start = time.perf_counter()
        with self.obs.tracer.span("compile", job=job.name) as span:
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
    def compile_batch(self, jobs: Sequence[CompileJob]) -> List[CompileJobResult]:
        """Compile the jobs one after another; results keep the input order.

        A failing job yields a :class:`CompileJobResult` with ``ok ==
        False``; the remaining jobs are unaffected.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        with self.obs.tracer.span("compile_batch", jobs=len(jobs)):
            return [self.compile(job) for job in jobs]

    def close(self) -> None:
        """Idempotent no-op: the service holds nothing to release.

        The program store opens its files per operation.  Kept because
        callers (the repository benchmark among them) end a service's
        life with it.
        """

    # ------------------------------------------------------------------ #
    # service-level statistics
    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self) -> CacheStats:
        """Aggregate cache counters across every job served so far."""
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
