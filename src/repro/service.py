"""Batch compilation service: a program table over a window cache and a store.

Serving many compile requests from one process — design-space-exploration
sweeps, multi-model fleets, the replay simulator's program pool — repeats
whole compiles, and between different compiles most of the per-segment
allocation solves (Fig. 18 of the paper).  :class:`CompileService` shares
both:

* a compile the service already answered is a key and a lookup: one
  bounded in-memory :class:`ProgramTable` maps the
  :class:`~repro.core.store.ProgramKey` of (graph, chip, options,
  compiler) to the finished program, so the repeat runs no pass at all
  (measured in ``docs/architecture.md``, "Why one program table"); a
  repeat *by model name* does not even build its graph, because a
  bounded recipe memo remembers each :class:`ModelRecipe`'s graph
  digest, all the key needs;
* every compile that does run shares one thread-safe
  :class:`~repro.core.cache.AllocationCache`, so structurally identical
  segments of *different* programs are solved once (what that saves is
  measured in the header of :mod:`repro.core.cache`);
* a batch is a loop: jobs run one after another in input order, so a
  duplicate job always finds its twin's program in the table and per-job
  solve counts repeat from run to run (why there is no pool is measured
  in ``docs/architecture.md``, "Why a batch is a loop"; several cores
  are used by running several ``repro`` processes over one ``cache_dir``);
* a ``cache_dir`` persists whole compiled programs in a
  :class:`~repro.core.store.DiskCacheStore` under the same key: any
  later process — a new CLI invocation, a CI run, a DSE sweep — answers
  a compile an earlier one already did with one file read and one
  decode, then keeps it in its own table
  (:meth:`CompileService.compile_graph` is the one reader and the one
  writer of both; why programs and not windows is measured in the header
  of :mod:`repro.core.store`);
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .baselines import get_compiler
from .core.cache import AllocationCache, CacheStats
from .core.compiler import CMSwitchCompiler, CompilerOptions
from .core.lru import BoundedLRU
from .core.program import CompiledProgram
from .core.store import DiskCacheStore, ProgramKey
from .obs import NULL_OBS, Observability
from .hardware.deha import DualModeHardwareAbstraction
from .hardware.presets import get_preset
from .ir.graph import Graph
from .models.registry import ModelBuilder, model_builder
from .models.workload import Workload

__all__ = [
    "CompileJob",
    "CompileJobResult",
    "CompileService",
    "ModelRecipe",
    "ProgramTable",
    "default_job_options",
]

#: Bounds of the in-memory program table: the entry and weight bounds of
#: its :class:`~repro.core.lru.BoundedLRU`, where a program weighs its
#: segment count.  Fixed, like the daemon's request-table bounds
#: (``RESULT_TABLE_*`` in :mod:`repro.serve.coalesce`): hygiene limits on
#: a long-lived service's memory, not tuning knobs.  Where programs are
#: long a segment plan retains 2.5-4 KB (tracemalloc: llama2-7b on
#: ``small-test-chip``, 6,177 one-unit segments with their generated
#: code), so the segment budget is 40-64 MB; the largest program the zoo
#: produces (llama2-13b on that chip, 9,681 segments) fits, and every
#: benchmark workload stays far below both bounds.  The recipe memo
#: shares the entry bound: it keeps one digest per named program.
PROGRAM_TABLE_ENTRIES = 256
PROGRAM_TABLE_SEGMENTS = 16_384


def default_job_options() -> CompilerOptions:
    """The options a :class:`CompileJob` without its own compiles under:
    paper defaults, code generation off.

    The one home of the batch default — the daemon's request fingerprint
    folds omitted options onto it too.  A fresh instance per call,
    because options are mutable.
    """
    return CompilerOptions(generate_code=False)


@dataclass(frozen=True)
class ModelRecipe:
    """A registered model at one workload: a graph not built yet.

    What a named compile hands :meth:`CompileService.compile_graph`, and
    the key of the service's recipe memo (recipe → graph digest).
    ``builder`` is the registered object itself, so re-registering the
    name (:func:`~repro.models.registry.register_model` with
    ``overwrite=True``) makes a different recipe — a memo miss, never
    the old builder's program.  The memo relies on every registered
    builder being a pure function of its workload: equal recipes build
    graphs with equal :meth:`~repro.ir.graph.Graph.digest`.
    """

    model: str
    builder: ModelBuilder
    workload: Workload

    @classmethod
    def of(cls, model: str, workload: Optional[Workload] = None) -> "ModelRecipe":
        """The recipe ``model`` names now (``Workload()`` when omitted).

        Raises:
            KeyError: ``model`` is not a registered name.
        """
        return cls(model, model_builder(model), workload or Workload())

    def build(self) -> Graph:
        """Build the graph: the one place a named compile runs a builder."""
        return self.builder(self.workload)


@dataclass
class CompileJob:
    """One compilation request.

    Attributes:
        model: Registered model name (its registered builder runs
            through :class:`ModelRecipe`, only when no tier has the
            program) or an already-built :class:`~repro.ir.graph.Graph`.
        workload: Workload for model building (defaults to ``Workload()``;
            ignored when ``model`` is a graph).
        hardware: Hardware preset name or abstraction instance.
        options: Compiler options (:func:`default_job_options` when
            omitted).
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
        return ModelRecipe.of(self.model, self.workload).build()

    def resolve_model(self) -> Union[Graph, ModelRecipe]:
        """What :meth:`CompileService.compile_graph` takes: the job's
        graph, or the recipe of its model name (nothing is built)."""
        if isinstance(self.model, Graph):
            return self.resolve_graph()
        return ModelRecipe.of(self.model, self.workload)

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
            hits, hit rate); empty on failure.
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


def _private(program: CompiledProgram) -> CompiledProgram:
    """A copy that shares no top-level container with ``program``.

    One copy of the instance ``__dict__`` (the way :mod:`copy` rebuilds
    an object: no dataclass reflection, no ``__init__``) with a fresh
    ``segments`` list and fresh ``stats`` and ``metadata`` dicts.  The
    :class:`~repro.core.program.SegmentPlan` objects, the hardware and
    the meta-operator flow are shared: nothing mutates them once a
    compile has returned.
    """
    state = program.__dict__.copy()
    state["segments"] = list(program.segments)
    state["stats"] = dict(program.stats)
    state["metadata"] = dict(program.metadata)
    copy = object.__new__(type(program))
    copy.__dict__ = state
    return copy


class ProgramTable:
    """Bounded LRU of finished compiles: program key → compiled program.

    The in-memory tier of :meth:`CompileService.compile_graph`, keyed by
    the same :class:`~repro.core.store.ProgramKey` as the on-disk one —
    whose ``__eq__`` compares the whole key tuple, so a digest collision is
    a miss here exactly as it is there.  Both bounds evict
    least-recently-used first; a program that alone exceeds the segment
    budget is not stored.  The table's own object is never handed out:
    :meth:`put` keeps a private copy and :meth:`get` returns another
    one.  Thread-safe.
    """

    def __init__(self) -> None:
        self._programs = BoundedLRU(PROGRAM_TABLE_ENTRIES, PROGRAM_TABLE_SEGMENTS)

    def __len__(self) -> int:
        return len(self._programs)

    def get(self, key: ProgramKey) -> Optional[CompiledProgram]:
        """A copy of the stored program (now most recently used), or None."""
        program = self._programs.get(key)
        return None if program is None else _private(program)

    def put(self, key: ProgramKey, program: CompiledProgram) -> int:
        """Store a copy of ``program``; returns the entries evicted for it."""
        return self._programs.put(key, _private(program), len(program.segments))[2]


class CompileService:
    """Compiles (model, workload, hardware) jobs against shared caches.

    Sharing contract:

    * Every compile (and every :meth:`repro.api.Session.compile`) goes
      through :meth:`compile_graph`, which asks three tiers in order: the
      in-memory :class:`ProgramTable` (a copy comes back, no pass runs;
      a named compile finds its graph digest in the recipe memo first,
      so a hit builds no graph),
      the ``cache_dir`` store when there is one (read, verified, decoded,
      remembered in the table), the pipeline (compiled, stored,
      remembered).  A program either tier served carries ``stats`` that
      describe the call that returned it (``allocator_solves: 0``; every
      segment an ``allocation_disk_hits`` when the store answered, none
      when the table did); one read from disk is text-only where its
      meta-operator flow is concerned
      (:class:`~repro.core.program.RenderedMetaProgram`), one this
      service compiled itself keeps its executable flow.
    * Compiles that do run share one in-process :class:`AllocationCache`,
      the window table the service builds on its own metrics registry
      and hands to every compiler it builds (:attr:`cache`).
      A batch runs its jobs one after another; the service object itself
      is safe to use from several threads (the ``repro serve`` daemon's
      workers share one), its table, cache and store being locked.

    Args:
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
        cache_dir: Optional[Union[str, Path]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.obs = NULL_OBS if obs is None else obs
        self.cache_dir = str(Path(cache_dir).expanduser()) if cache_dir is not None else None
        self.programs = ProgramTable()
        # ModelRecipe -> graph digest: a named repeat builds no graph.
        self.recipes = BoundedLRU(PROGRAM_TABLE_ENTRIES)
        self.cache = AllocationCache(metrics=self.obs.metrics)
        self.store: Optional[DiskCacheStore] = (
            DiskCacheStore(self.cache_dir, metrics=self.obs.metrics) if self.cache_dir else None
        )

    # ------------------------------------------------------------------ #
    # single compile (the one place the program tiers are consulted)
    # ------------------------------------------------------------------ #
    def compile_graph(
        self,
        graph: Union[Graph, ModelRecipe],
        hardware: DualModeHardwareAbstraction,
        options: CompilerOptions,
        compiler: str = CMSwitchCompiler.name,
    ) -> CompiledProgram:
        """Compile one graph: program table, then program store, then pipeline.

        Every compile the service or a :class:`~repro.api.Session`
        performs comes through here — CMSwitch's and the baselines'
        alike — and nothing else reads or writes either tier.
        ``compiler`` names an entry of the one registry,
        :data:`repro.baselines.COMPILERS`; it is part of the key, and the
        compiler is built only on a miss.  The key is built on every call
        from the graph's :meth:`~repro.ir.graph.Graph.digest` — serialised
        once per graph object, which seals it against in-place edits — and
        from the options as they are now (options stay mutable in place).
        ``graph`` may be a :class:`ModelRecipe` instead: its digest comes
        from the recipe memo, so the graph is built only when the memo
        has no digest for it or when both tiers miss.
        Table hit: a copy of the stored program.  Store hit: read, verify,
        decode, remember.
        Either way the program carries the statistics of *this* call
        (see :func:`_served`).  Miss (absent, evicted, corrupt, foreign
        or other-version entry — all counted, none raised): run the
        pipeline, store and remember the program.  A failed compile is
        remembered nowhere.

        The returned program's ``segments`` list, ``stats`` and
        ``metadata`` are the caller's own; its
        :class:`~repro.core.program.SegmentPlan` objects are shared with
        the table and must be treated as read-only (nothing in this
        package mutates a returned plan).

        Raises:
            KeyError: ``compiler`` is not a registered name.
        """
        start = time.perf_counter()
        metrics = self.obs.metrics
        graph, digest = self._digest(graph)
        key = ProgramKey.build(digest, hardware, options, compiler)
        program = self.programs.get(key)
        if program is not None:
            metrics.inc("programs.hits")
            return _served(program, time.perf_counter() - start, disk=False)
        if self.store is not None:
            program = self.store.get(key)
            if program is not None:
                metrics.inc("programs.disk_promotions")
                self._remember(key, program)
                return _served(program, time.perf_counter() - start, disk=True)
        metrics.inc("programs.misses")
        if isinstance(graph, ModelRecipe):
            graph = graph.build()
        program = get_compiler(
            compiler, hardware, options, cache=self.cache, obs=self.obs
        ).compile(graph)
        if self.store is not None:
            self.store.put(key, program)
        self._remember(key, program)
        return program

    def _digest(
        self, graph: Union[Graph, ModelRecipe]
    ) -> Tuple[Union[Graph, ModelRecipe], str]:
        """The digest of ``graph``, and ``graph`` — built if that took a build.

        A recipe the memo knows costs a lookup; an unknown one is built
        once here and its digest remembered.
        """
        if isinstance(graph, Graph):
            return graph, graph.digest()
        digest = self.recipes.get(graph)
        if digest is None:
            recipe, graph = graph, graph.build()
            digest = graph.digest()
            self.recipes.put(recipe, digest)
        return graph, digest

    def _remember(self, key: ProgramKey, program: CompiledProgram) -> None:
        """Keep ``program`` in the table, counting what it pushed out."""
        self.obs.metrics.inc("programs.evictions", self.programs.put(key, program))

    # ------------------------------------------------------------------ #
    # single job
    # ------------------------------------------------------------------ #
    def compile(self, job: CompileJob) -> CompileJobResult:
        """Compile one job, capturing any failure in the result."""
        start = time.perf_counter()
        with self.obs.tracer.span("compile", job=job.name) as span:
            try:
                program = self.compile_graph(
                    job.resolve_model(),
                    job.resolve_hardware(),
                    job.options or default_job_options(),
                )
            except Exception as exc:  # noqa: BLE001 - isolation is the contract
                span.set(ok=False)
                return CompileJobResult(
                    job=job,
                    error=f"{type(exc).__name__}: {exc}",
                    error_traceback=traceback.format_exc(),
                    wall_seconds=time.perf_counter() - start,
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
        return self.cache.stats


def _served(program: CompiledProgram, seconds: float, disk: bool) -> CompiledProgram:
    """Re-stamp a program a tier returned with this call's statistics.

    The kept ``stats`` describe the compile that produced the entry; the
    caller asked what *this* call cost: no solve, no pass, every
    segment's allocation found ready — read from disk when the store
    answered (``disk``), not when the table did.  Plan-derived entries
    (``refine_extra_compute_arrays``, ``metadata["num_flattened_units"]``,
    ...) stay.  ``program`` must be the caller's own copy.
    """
    segments = len(program.segments)
    program.compile_seconds = seconds
    program.stats.update(
        allocator_solves=0,
        allocation_cache_hits=segments,
        allocation_disk_hits=segments if disk else 0,
        allocation_cache_hit_rate=1.0,
        wall_seconds=seconds,
        pass_seconds={},
    )
    return program
