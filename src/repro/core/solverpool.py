"""Shared worker pool for window-allocation solves (the parallel cold path).

The sequential DP requests one window allocation at a time although the
windows of one wavefront are independent.  With a :class:`SolverPool`
the segmenter submits every candidate window of a DP wavefront as a
batch of :class:`WindowSolve` requests and consumes the tickets in
order.  (The pool was built when a window solve was a ~4 ms HiGHS call
that released the GIL; the exact engine is ~0.1 ms of pure Python, so
threads no longer overlap it — see CHANGES.md for the measured
sequential vs ``--solve-jobs 4`` numbers.)

The pool preserves the sequential tier discipline exactly:

* **probe before dispatch** — each submission probes the per-run
  :class:`~repro.core.memo.SolveMemo` and then the shared
  :class:`~repro.core.cache.AllocationCache` (whose lookup already
  cascades memory → disk → remote) in the submitting thread, the same
  order :func:`~repro.core.allocation.allocate_segment` uses, and a hit
  resolves the ticket immediately without touching a worker;
* **single-flight dedup** — misses join a
  :class:`~repro.serve.coalesce.SingleFlight` table keyed by the solve's
  structural :class:`~repro.core.cache.AllocationCacheKey`; concurrent
  identical solves (different compiles hitting the pool of one
  :class:`~repro.service.CompileService`, or speculative lookahead)
  run once and share the positional :class:`~repro.core.cache.CacheEntry`;
* **write-through** — a fresh solve is written through the requester's
  memo and cache from the worker thread (both are thread-safe), so the
  very next probe anywhere hits.

Strict-mode parity (the default DP dispatch policy) rests on a small
invariant: within one DP wavefront every candidate window ends at the
same unit but starts at a different one, so the windows have different
lengths and therefore *necessarily distinct* cache keys — single-flight
dedup can never collapse two windows the sequential DP would have solved
separately, and consuming tickets in the sequential probe order
reproduces its solve counts, tier counters and results bit-identically.

A solve that raises inside a worker settles its flight with the error;
the segmenter converts it into an infeasible window (losing only that
DP edge) and the pool keeps serving — one poisoned window never wedges
a compile.  ``close()`` is idempotent and the pool is a context manager.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..cost.arithmetic import OperatorProfile
from ..hardware.deha import DualModeHardwareAbstraction
from ..obs import NULL_OBS
from .allocation import (
    AllocationResult,
    infeasible_result,
    key_options,
    segment_fits,
    solve_segment,
)
from .cache import AllocationCacheKey, CacheEntry

__all__ = ["SolverPool", "WindowSolve", "resolve_workers"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count option (None → one per available core).

    Raises:
        ValueError: If ``workers`` is not ``None`` or an ``int >= 1``.
    """
    if workers is None:
        try:
            import os

            return max(1, len(os.sched_getaffinity(0)))
        except (AttributeError, OSError):
            import os

            return max(1, os.cpu_count() or 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"solve workers must be an int >= 1 or None, got {workers!r}")
    if workers < 1:
        raise ValueError(f"solve workers must be >= 1, got {workers}")
    return workers


@dataclass
class WindowSolve:
    """One window-allocation solve request, as the segmenter frames it.

    Carries exactly the arguments of
    :func:`~repro.core.allocation.allocate_segment` plus the observability
    context a worker thread cannot infer (the tracer and the requesting
    pass's span id).  ``attrs`` label the per-solve span (window bounds).
    """

    profiles: Mapping[str, OperatorProfile]
    hardware: DualModeHardwareAbstraction
    allocator: object
    pipelined: bool = True
    refine: bool = True
    reserve_arrays: int = 0
    inbound_arrays: int = 0
    cache: Optional[object] = None
    memo: Optional[object] = None
    tracer: Optional[object] = None
    parent_span: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def cache_key(self) -> AllocationCacheKey:
        """The structural key of this solve (also the single-flight key)."""
        return AllocationCacheKey.build(
            self.profiles,
            self.hardware,
            **key_options(
                self.allocator,
                self.pipelined,
                self.refine,
                self.reserve_arrays,
                self.inbound_arrays,
            ),
        )


class _ResolvedTicket:
    """A submission served without a worker (tier hit or unfit window)."""

    __slots__ = ("_result",)

    def __init__(self, result: AllocationResult) -> None:
        self._result = result

    def result(self, timeout: Optional[float] = None) -> AllocationResult:
        return self._result


class _LeaderTicket:
    """The submission that owns the flight; wraps the executor future."""

    __slots__ = ("_future",)

    def __init__(self, future) -> None:
        self._future = future

    def result(self, timeout: Optional[float] = None) -> AllocationResult:
        return self._future.result(timeout)


class _FollowerTicket:
    """A submission coalesced onto another's in-flight identical solve."""

    __slots__ = ("_pool", "_flight", "_solve", "_key")

    def __init__(self, pool: "SolverPool", flight, solve: WindowSolve, key) -> None:
        self._pool = pool
        self._flight = flight
        self._solve = solve
        self._key = key

    def result(self, timeout: Optional[float] = None) -> AllocationResult:
        entry, leader_memo, leader_cache = self._pool._flights.wait(
            self._flight, timeout=timeout
        )
        result = entry.to_result(list(self._solve.profiles))
        # The leader wrote through its own tiers; replicate only into
        # tiers the leader does not share with this requester.
        solve = self._solve
        if solve.cache is not None and solve.cache is not leader_cache:
            solve.cache.put(self._key, solve.profiles, result)
        if solve.memo is not None and solve.memo is not leader_memo:
            solve.memo.put(self._key, solve.profiles, result)
        return result


class SolverPool:
    """Thread-pool executor of window-allocation solves (see module doc).

    Args:
        workers: Worker threads; ``None`` means one per available core.
            ``workers=1`` is a valid degenerate pool — same machinery,
            sequential throughput — which the parity suite uses to pin
            the wavefront dispatch against the sequential DP.
        obs: Optional :class:`~repro.obs.Observability` bundle; the pool
            maintains ``solver_pool.*`` gauges and counters on its
            metrics registry.  Exact counters live on the pool itself.

    One pool is meant to be *shared* — per :class:`~repro.api.Session` /
    :class:`~repro.service.CompileService`, across every batch job — so
    total solver concurrency stays bounded by one worker budget instead
    of multiplying per compile (the oversubscription rule; the process
    backend therefore never propagates ``solve_jobs`` into workers).
    """

    def __init__(self, workers: Optional[int] = None, obs: Optional[object] = None) -> None:
        from concurrent.futures import ThreadPoolExecutor

        # Imported lazily: repro.serve's package init pulls in the
        # daemon → service chain, which itself imports this module.
        from ..serve.coalesce import SingleFlight

        self.workers = resolve_workers(workers)
        self._metrics = obs.metrics if obs is not None else NULL_OBS.metrics
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-solve"
        )
        self._flights = SingleFlight()
        self._lock = threading.Lock()
        self._closed = False
        # Exact counters (the metrics registry mirrors a subset).
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.dedup_hits = 0
        self.tier_hits = 0
        self.speculative_waste = 0
        self.solve_seconds = 0.0
        self._queued = 0
        self._inflight = 0
        # Busy-wall accounting: seconds during which >= 1 solve was in
        # flight.  Compared against ``solve_seconds`` (the sum of per-
        # solve durations) it shows the achieved solver concurrency.
        self._busy_seconds = 0.0
        self._busy_since: Optional[float] = None

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, solve: WindowSolve):
        """Submit one window solve; returns a ticket with ``result()``.

        Mirrors :func:`~repro.core.allocation.allocate_segment` up to the
        point of solving — fit check, memo probe, cache probe (with memo
        promotion) — in the *submitting* thread, so tier counters advance
        in the caller's order exactly as they would sequentially.  Only a
        full miss reaches a worker; concurrent identical misses coalesce
        onto one flight.

        Raises:
            RuntimeError: The pool has been closed.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("SolverPool is closed")
        names = list(solve.profiles)
        if not segment_fits(solve.profiles, solve.hardware):
            return _ResolvedTicket(infeasible_result())
        key = solve.cache_key()
        if solve.memo is not None:
            hit = solve.memo.lookup(key, names, solve.inbound_arrays)
            if hit is not None:
                self._note_tier_hit()
                return _ResolvedTicket(hit)
        if solve.cache is not None:
            hit = solve.cache.lookup(key, names, solve.inbound_arrays)
            if hit is not None:
                if solve.memo is not None:
                    solve.memo.put(key, solve.profiles, hit)
                self._note_tier_hit()
                return _ResolvedTicket(hit)
        flight, leader = self._flights.begin(key)
        if not leader:
            with self._lock:
                self.dedup_hits += 1
            self._metrics.inc("solver_pool.dedup_hits")
            return _FollowerTicket(self, flight, solve, key)
        with self._lock:
            self.dispatched += 1
            self._queued += 1
            queued = self._queued
        self._metrics.inc("solver_pool.dispatched")
        self._metrics.set_gauge("solver_pool.queue_depth", queued)
        future = self._executor.submit(self._run, solve, key, flight)
        return _LeaderTicket(future)

    def record_waste(self, count: int) -> None:
        """Account ``count`` speculative solves that were never consumed."""
        if count <= 0:
            return
        with self._lock:
            self.speculative_waste += count
        self._metrics.inc("solver_pool.speculative_waste", count)

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _run(self, solve: WindowSolve, key: AllocationCacheKey, flight) -> AllocationResult:
        started = time.perf_counter()
        with self._lock:
            self._queued -= 1
            self._inflight += 1
            if self._inflight == 1:
                self._busy_since = started
            queued, inflight = self._queued, self._inflight
        self._metrics.set_gauge("solver_pool.queue_depth", queued)
        self._metrics.set_gauge("solver_pool.inflight", inflight)
        tracer = solve.tracer if solve.tracer is not None else NULL_OBS.tracer
        try:
            with tracer.span(
                "allocator.solve", parent=solve.parent_span, **solve.attrs
            ) as span:
                result = solve_segment(
                    solve.allocator,
                    solve.profiles,
                    solve.hardware,
                    solve.pipelined,
                    solve.refine,
                    solve.reserve_arrays,
                    solve.inbound_arrays,
                )
                span.set(solver=result.solver, cached=False)
            if solve.cache is not None:
                solve.cache.put(key, solve.profiles, result)
            if solve.memo is not None:
                solve.memo.put(key, solve.profiles, result)
        except BaseException as exc:
            with self._lock:
                self.failed += 1
            self._metrics.inc("solver_pool.failures")
            self._flights.finish(flight, error=exc)
            self._finish_accounting(started)
            raise
        entry = CacheEntry.from_result(solve.profiles, result)
        self._flights.finish(flight, value=(entry, solve.memo, solve.cache))
        with self._lock:
            self.completed += 1
        self._finish_accounting(started)
        self._metrics.observe("solver_pool.solve_seconds", time.perf_counter() - started)
        return result

    def _finish_accounting(self, started: float) -> None:
        now = time.perf_counter()
        with self._lock:
            self.solve_seconds += now - started
            self._inflight -= 1
            if self._inflight == 0 and self._busy_since is not None:
                self._busy_seconds += now - self._busy_since
                self._busy_since = None
            inflight = self._inflight
        self._metrics.set_gauge("solver_pool.inflight", inflight)

    def _note_tier_hit(self) -> None:
        with self._lock:
            self.tier_hits += 1
        self._metrics.inc("solver_pool.tier_hits")

    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def wall_seconds(self) -> float:
        """Seconds during which at least one solve was in flight."""
        with self._lock:
            busy = self._busy_seconds
            if self._busy_since is not None:
                busy += time.perf_counter() - self._busy_since
        return busy

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def stats_dict(self) -> Dict[str, object]:
        """Plain counters for reports (``--json-out``, ``/metrics``)."""
        with self._lock:
            busy = self._busy_seconds
            if self._busy_since is not None:
                busy += time.perf_counter() - self._busy_since
            return {
                "workers": self.workers,
                "dispatched": self.dispatched,
                "completed": self.completed,
                "failed": self.failed,
                "dedup_hits": self.dedup_hits,
                "tier_hits": self.tier_hits,
                "speculative_waste": self.speculative_waste,
                "solve_seconds": self.solve_seconds,
                "wall_seconds": busy,
            }

    def close(self, wait: bool = True) -> None:
        """Shut the pool down (idempotent; in-flight solves finish)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
