"""The stable public API: one :class:`Session` over compile / batch / DSE.

Compiling one graph, running a batch and exploring a design space each
need a hardware preset and a cache directory.  A :class:`Session`
carries that context once:

* ``session.compile(model, workload)`` — one graph through the pass
  pipeline, raising on failure (asked again, the same question is a
  lookup in the service's program table: no pass runs);
* ``session.compile_batch(jobs)`` — many jobs, one after another,
  through the shared :class:`~repro.service.CompileService`, failures
  isolated per job;
* ``session.explore(space)`` — a :mod:`repro.dse` run against the same
  cache and program store, so a sweep warm-starts from every compile the
  session already did;
* ``session.replay(trace)`` — a request trace through the serving
  simulator (:mod:`repro.sim.replay`), same cache and store again;
* ``session.cache`` / ``session.cache_stats`` — the shared in-memory
  allocation cache all of the above feed; ``session.store`` — the
  ``cache_dir`` program store (None without one).

Usage::

    from repro.api import Session

    with Session(hardware="dynaplasia", cache_dir="~/.cache/repro") as session:
        program = session.compile("resnet18")
        results = session.compile_batch(["bert", "vgg16"])
        sweep = session.explore(space, budget=16)
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from .core.cache import AllocationCache, CacheStats
from .core.compiler import CompilerOptions
from .core.program import CompiledProgram
from .core.store import DiskCacheStore
from .hardware.deha import DualModeHardwareAbstraction
from .hardware.presets import get_preset
from .ir.graph import Graph
from .models.workload import Workload
from .obs import (
    NULL_OBS,
    MetricsRegistry,
    Observability,
    Tracer,
    profile_report,
    write_chrome_trace,
    write_span_jsonl,
)
from .service import CompileJob, CompileJobResult, CompileService, ModelRecipe

__all__ = ["Session"]

#: Jobs a session accepts: full specs, bare model names, or built graphs.
JobLike = Union[CompileJob, str, Graph]


class Session:
    """One configured entry point over the whole compilation stack.

    A session owns the shared in-memory :class:`AllocationCache` (its
    service's one window table), the optional ``cache_dir`` program
    store and the default hardware/options, and routes every public
    operation — single compiles, batches, design-space exploration,
    cache inspection — through them.  Sessions are cheap to construct and
    safe to share between threads (the underlying service, cache and
    store are).

    Args:
        hardware: Default target — a preset name or a
            :class:`DualModeHardwareAbstraction`.
        options: Default :class:`CompilerOptions` for :meth:`compile`
            (paper defaults when omitted; batch jobs default to the
            service's code-generation-off options unless the job or
            call says otherwise).
        cache_dir: Directory of the persistent program store
            (:class:`~repro.core.store.DiskCacheStore`): every compile
            is looked up there first and written there after, so a
            later session or process answers a repeated compile with one
            read and no solve.  A program served from it
            carries its meta-operator flow as text only — compile
            without ``cache_dir`` for one the functional simulator can
            execute.
        trace: Telemetry switch (off by default — the disabled path is a
            measured-overhead-free no-op).  Accepts ``True`` (collect
            spans + metrics in a fresh :class:`~repro.obs.Observability`
            bundle), a :class:`~repro.obs.Tracer` or
            :class:`~repro.obs.Observability` to bring your own, or a
            path, which additionally becomes :meth:`export_trace`'s
            default output file.  Everything the session runs — compiles,
            batches, DSE sweeps, replays — records into the one bundle.
    """

    def __init__(
        self,
        hardware: Union[str, DualModeHardwareAbstraction] = "dynaplasia",
        options: Optional[CompilerOptions] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        trace: Union[None, bool, str, Path, Tracer, Observability] = None,
    ) -> None:
        self.hardware = (
            get_preset(hardware) if isinstance(hardware, str) else hardware
        )
        self._trace_path: Optional[Path] = None
        if isinstance(trace, Observability):
            self.obs = trace
        elif isinstance(trace, Tracer):
            self.obs = Observability(tracer=trace, metrics=MetricsRegistry())
        elif isinstance(trace, (str, Path)):
            self.obs = Observability.create()
            self._trace_path = Path(trace)
        elif trace:
            self.obs = Observability.create()
        else:
            self.obs = NULL_OBS
        # Whether the caller pinned session-wide options matters for
        # batches: an explicit choice must govern every entry point, but
        # the *implicit* defaults differ by entry point (interactive
        # compiles keep code generation on, batch jobs historically run
        # with it off) and silently forcing one onto the other would
        # change batch behaviour.
        self._options_given = options is not None
        self.options = options or CompilerOptions()
        self.service = CompileService(cache_dir=cache_dir, obs=self.obs)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Idempotent no-op: a session holds nothing that needs releasing.

        Kept so ``with Session(...) as session:`` and explicit
        ``close()`` calls stay valid ends of a session's life.
        """

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # single compile
    # ------------------------------------------------------------------ #
    def compile(
        self,
        model: Union[str, Graph],
        workload: Optional[Workload] = None,
        options: Optional[CompilerOptions] = None,
        hardware: Optional[Union[str, DualModeHardwareAbstraction]] = None,
        compiler: str = "cmswitch",
    ) -> CompiledProgram:
        """Compile one model (or pre-built graph) through the pipeline.

        Unlike :meth:`compile_batch` this raises on failure — it is the
        interactive, "give me the program or tell me why not" call.  A
        compile this session already answered comes back as the caller's
        own copy of that program with the statistics of *this* call
        (``allocator_solves: 0``, no pass times); see
        :meth:`repro.service.CompileService.compile_graph`.  Asked by
        model name, the repeat does not build the graph either: the
        name, its registered builder and the workload are the
        :class:`~repro.service.ModelRecipe` the service remembers the
        graph's digest under.

        Args:
            model: Registered model name or a :class:`Graph`.
            workload: Workload for model building (ignored for graphs;
                defaults to ``Workload()``).
            options: Per-call override of the session's default options.
            hardware: Per-call override of the session's hardware.
            compiler: Registered compiler name — ``"cmswitch"`` or a
                baseline (``"cim-mlc"``, ``"puma"``, ``"occ"``); baselines
                share the session's program table, store and window cache.

        Raises:
            KeyError: Unknown model or compiler name.
        """
        source = model if isinstance(model, Graph) else ModelRecipe.of(model, workload)
        target = self.hardware if hardware is None else (
            get_preset(hardware) if isinstance(hardware, str) else hardware
        )
        return self.service.compile_graph(
            source, target, options or self.options, compiler
        )

    # ------------------------------------------------------------------ #
    # batches
    # ------------------------------------------------------------------ #
    def job(
        self,
        model: Union[str, Graph],
        workload: Optional[Workload] = None,
        options: Optional[CompilerOptions] = None,
        label: Optional[str] = None,
    ) -> CompileJob:
        """A :class:`CompileJob` against this session's hardware.

        Options resolve like :meth:`compile`: the per-call value wins,
        then session options *explicitly* passed to the constructor;
        with neither, the job carries ``None`` and the service applies
        its batch default (code generation off).
        """
        if options is None and self._options_given:
            options = self.options
        return CompileJob(
            model,
            workload=workload,
            hardware=self.hardware,
            options=options,
            label=label,
        )

    def compile_batch(self, jobs: Sequence[JobLike]) -> List[CompileJobResult]:
        """Compile many jobs, in order, against the shared cache.

        Args:
            jobs: :class:`CompileJob` specs; bare model names / graphs
                are coerced to jobs on the session's hardware.

        Returns:
            One :class:`CompileJobResult` per job, input order kept; a
            failing job is captured in its result, never raised.
        """
        return self.service.compile_batch(
            [job if isinstance(job, CompileJob) else self.job(job) for job in jobs]
        )

    # ------------------------------------------------------------------ #
    # trace replay
    # ------------------------------------------------------------------ #
    def replay(
        self,
        trace,
        options: Optional[CompilerOptions] = None,
        hardware: Optional[Union[str, DualModeHardwareAbstraction]] = None,
    ):
        """Replay a request :class:`~repro.sim.traces.Trace` on this session.

        Compiles each distinct (model, workload) of the trace once
        through the session's :class:`CompileService` — so repeated
        replays and everything else the session compiles share one
        allocation cache — and schedules the programs over virtual time
        with dual-mode re-provisioning charged between requests.  See
        :class:`~repro.sim.replay.ReplaySimulator`.

        Args:
            trace: The trace to replay.
            options: Per-call override of the session's options (code
                generation is forced off either way — replay only
                consumes predicted timings).
            hardware: Per-call override of the session's hardware.

        Returns:
            The :class:`~repro.sim.replay.ReplayResult`.
        """
        from .sim.replay import ReplaySimulator

        target = self.hardware if hardware is None else (
            get_preset(hardware) if isinstance(hardware, str) else hardware
        )
        if options is None and self._options_given:
            options = self.options
        simulator = ReplaySimulator(
            hardware=target, service=self.service, options=options, obs=self.obs
        )
        return simulator.run(trace)

    # ------------------------------------------------------------------ #
    # design-space exploration
    # ------------------------------------------------------------------ #
    def explore(
        self,
        space,
        objective: str = "latency",
        fidelity: str = "compile",
        budget: Optional[int] = None,
        state=None,
        trace=None,
    ):
        """Explore a :class:`~repro.dse.DesignSpace` against this cache.

        Builds a :class:`~repro.dse.DSERunner` over the session's own
        compile service, so exploration warm-starts from (and
        contributes back to) every other compile the session serves.
        The sweep is one pass over ``space.points()`` in grid order.

        Args:
            space: The :class:`~repro.dse.DesignSpace` to explore.
            objective: ``"latency"``, ``"energy"`` or ``"trace_p99"``
                (requires ``trace``).
            fidelity: Evaluation tier — ``"compile"`` (default, the
                full pipeline) or ``"analytical"`` (closed-form lower
                bounds, zero allocator solves; see
                :mod:`repro.dse.bound`).
            budget: Max design points to evaluate (whole space if None).
            state: Optional resumable :class:`~repro.dse.RunState`.
            trace: Request :class:`~repro.sim.traces.Trace` replayed per
                surviving point when ``objective="trace_p99"``.

        Returns:
            The :class:`~repro.dse.DSEResult`.
        """
        from .dse import DSERunner

        runner = DSERunner(
            space,
            objective=objective,
            fidelity=fidelity,
            service=self.service,
            state=state,
            trace=trace,
            obs=self.obs,
        )
        return runner.run(budget=budget)

    # ------------------------------------------------------------------ #
    # cache access
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> AllocationCache:
        """The shared allocation cache."""
        return self.service.cache

    @property
    def store(self) -> Optional[DiskCacheStore]:
        """The ``cache_dir`` program store (None without a directory)."""
        return self.service.store

    @property
    def cache_dir(self) -> Optional[str]:
        """The program store's directory, when one is configured."""
        return self.service.cache_dir

    @property
    def cache_stats(self) -> CacheStats:
        """Aggregate cache counters across everything this session ran."""
        return self.service.cache_stats

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    @property
    def tracer(self):
        """The session's span tracer (a no-op unless ``trace`` was set)."""
        return self.obs.tracer

    @property
    def metrics(self):
        """The session's metrics registry (no-op unless ``trace`` set)."""
        return self.obs.metrics

    def export_trace(self, path: Union[None, str, Path] = None) -> Path:
        """Write everything recorded so far as a Chrome/Perfetto trace.

        Args:
            path: Output file; defaults to the path given as
                ``Session(trace=...)``.

        Raises:
            ValueError: Tracing is off, or no path is available.
        """
        target = Path(path) if path is not None else self._trace_path
        if target is None:
            raise ValueError("no trace path: pass one here or as Session(trace=path)")
        if not self.obs.tracer.enabled:
            raise ValueError("tracing is off; construct the Session with trace=...")
        return write_chrome_trace(target, self.obs.tracer.spans())

    def write_span_log(self, path: Union[str, Path]) -> Path:
        """Write the recorded spans as JSONL (one object per span)."""
        return write_span_jsonl(path, self.obs.tracer.spans())

    def profile_report(self, top: int = 15) -> str:
        """Text profile: top spans by total wall + the metrics table."""
        return profile_report(self.obs.tracer.spans(), self.obs.metrics, top=top)

    def describe(self) -> str:
        """One-line session summary for logs."""
        cache = self.cache_dir or "in-memory"
        return f"Session(hardware={self.hardware.name!r}, cache={cache})"
