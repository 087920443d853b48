"""Spans around each layer's public entry points, recorded from ``bench/``.

The traced run of a workload replaces a handful of functions of the
program with timing wrappers (installed here, removed again before the
run ends — the program's own files are untouched).  A span is
``(id, parent, name, start, end, thread)``; the parent is the span that
was open on the same thread when this one began.  Spans stay in memory
and are written to ``bench/out/`` when the run ends.

Layer boundaries wrapped (module → span name):

* ``core.compiler``   ``CMSwitchCompiler.compile``          → ``compiler.compile``
* ``pipeline.passes`` each pass's ``run``                   → ``pipeline.<pass>``
* ``core.segmentation`` ``allocate_segment`` (one DP window) → ``segmentation.window``
* ``core.allocation`` ``MIPAllocator.allocate``             → ``allocation.solve``
*                     ``candidate_allocations``             → ``allocation.candidates``
*                     ``refine_with_spare_arrays``          → ``allocation.refine``
* ``cost.latency``    ``operator_latency_cycles`` (count only, via ``core.allocation``)
* ``core.cache``      ``AllocationCache.lookup``            → ``cache.lookup``
* ``core.memo``       ``SolveMemo.lookup``                  → ``memo.lookup``
* ``core.store``      ``DiskCacheStore.get`` / ``put``      → ``store.get`` / ``store.put``
* ``service``         ``CompileService.compile``            → ``service.compile``
* ``serve.client``    ``Client.compile``, ``program_from_wire`` → ``client.compile``, ``wire.decode``
* ``dse.runner``      ``DSERunner.run``                     → ``dse.run``
* ``sim.replay``      ``ReplaySimulator.compile_pool``, ``replay_schedule``
                                                            → ``replay.compile_pool``, ``replay.schedule``
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, int]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # One counter dict per thread (``+=`` on a shared dict loses
        # updates when threads interleave); ``counts`` sums them.
        self._thread_counts: List[Dict[str, int]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._summary: Dict[str, Tuple[int, float]] = {}
        self._summary_len = 0

    # recording -------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> Dict[str, int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            self._thread_counts.append(counts)
        return counts

    @property
    def counts(self) -> Dict[str, int]:
        """Counter totals over every thread that counted."""
        total: Dict[str, int] = defaultdict(int)
        for counts in list(self._thread_counts):
            for name, value in counts.items():
                total[name] += value
        return total

    def _begin(self) -> Tuple[int, int, float]:
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _end(self, name: str, span_id: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end, threading.get_ident()))

    # wrappers --------------------------------------------------------- #
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        flag: Optional[Callable[[object], bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``flag(result)`` true additionally bumps the ``<name>.flagged``
        counter (a cache hit, an infeasible solve).
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id, parent, start = tracer._begin()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(name, span_id, parent, start)
            if flag is not None and flag(result):
                tracer._counts()[name + ".flagged"] += 1
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a call counter (too hot for spans)."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer._counts()[name] += 1
            return original(*args, **kwargs)

        self._installed.append((owner, attr, original))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        """Put every wrapped function back (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # queries (made after the traced section) --------------------------- #
    def _by_name(self) -> Dict[str, Tuple[int, float]]:
        """name → (calls, total seconds), rebuilt when spans were added."""
        if self._summary_len != len(self.spans):
            summary: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
            for span in self.spans:
                entry = summary[span[2]]
                entry[0] += 1
                entry[1] += span[4] - span[3]
            self._summary = {name: (int(v[0]), v[1]) for name, v in summary.items()}
            self._summary_len = len(self.spans)
        return self._summary

    def calls(self, name: str) -> int:
        return self._by_name().get(name, (0, 0.0))[0]

    def total_ms(self, name: str) -> float:
        return self._by_name().get(name, (0, 0.0))[1] * 1000.0

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_ms(name) * 1000.0 / calls if calls else 0.0

    def self_ms(self, names: Iterable[str]) -> float:
        """Time inside spans called ``names`` not covered by their child spans."""
        wanted = set(names)
        owners = {span[0]: span for span in self.spans if span[2] in wanted}
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[1] in owners:
                children[span[1]].append((span[3], span[4]))
        total = 0.0
        for span_id, span in owners.items():
            total += (span[4] - span[3]) - covered(children.get(span_id, []))
        return total * 1000.0

    def write(self, path: str, header: Dict[str, object]) -> None:
        """One JSON object per line: a header, then every span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header, "counts": dict(self.counts)}) + "\n")
            for span_id, parent, name, start, end, thread in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "thread": thread}
                    )
                    + "\n"
                )


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` (children may overlap across threads)."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end <= edge:
            continue
        total += end - max(start, edge)
        edge = end
    return total


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the layer boundaries listed in the module docstring."""
    from repro import service
    from repro.core import allocation, cache, compiler, memo, segmentation, store
    from repro.dse import runner as dse_runner
    from repro.pipeline import passes
    from repro.serve import client as serve_client
    from repro.sim import replay

    tracer.wrap(compiler.CMSwitchCompiler, "compile", "compiler.compile")
    for pass_class in (
        passes.Flatten, passes.PartitionOversized, passes.Segment, passes.Allocate,
        passes.FixedModeFallback, passes.Refine, passes.Codegen,
    ):
        tracer.wrap(pass_class, "run", f"pipeline.{pass_class.name}")
    tracer.wrap(
        segmentation, "allocate_segment", "segmentation.window",
        flag=lambda result: not result.feasible,
    )
    tracer.wrap(allocation.MIPAllocator, "allocate", "allocation.solve")
    tracer.wrap(allocation, "candidate_allocations", "allocation.candidates")
    tracer.wrap(allocation, "refine_with_spare_arrays", "allocation.refine")
    tracer.count(allocation, "operator_latency_cycles", "cost.latency")
    hit = lambda result: result is not None  # noqa: E731
    tracer.wrap(cache.AllocationCache, "lookup", "cache.lookup", flag=hit)
    tracer.wrap(memo.SolveMemo, "lookup", "memo.lookup", flag=hit)
    tracer.wrap(store.DiskCacheStore, "get", "store.get", flag=hit)
    tracer.wrap(store.DiskCacheStore, "put", "store.put")
    tracer.wrap(service.CompileService, "compile", "service.compile")
    tracer.wrap(serve_client.Client, "compile", "client.compile")
    tracer.wrap(serve_client, "program_from_wire", "wire.decode")
    tracer.wrap(dse_runner.DSERunner, "run", "dse.run")
    tracer.wrap(replay.ReplaySimulator, "compile_pool", "replay.compile_pool")
    tracer.wrap(replay, "replay_schedule", "replay.schedule")
