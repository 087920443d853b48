"""Shared segment-allocation cache (in memory).

The DP segmentation asks the allocator for every candidate window (Fig. 18
of the paper).  :class:`AllocationCache` memoises those solves *across*
segmentation runs, compilers and compile requests of one process.  Its
traffic is reuse between *different* compiles — the repeated projections
inside one transformer block (13 % of a cold compile's probes), the
neighbouring points of a DSE sweep (328 of the benchmark grid's 646
probes), the fixed-mode twin of a dual-mode compile — because the *same*
compile asked twice never gets here: the service's program table
answers it whole (:class:`repro.service.ProgramTable`).  With the exact
~85 µs window solver the saving per hit is modest — walking the DP of
the benchmark's five-model set on ``dynaplasia`` with every window a hit
still costs ~40 ms against ~140 ms cold (2 cores, Python 3.11, plain
wall), which is why whole-program reuse sits in front — and it does not
survive a process border: reading one window back from disk (≈ 135 µs)
costs more than solving it, so windows live in memory only and what a
``cache_dir`` persists is the whole compiled program
(:mod:`repro.core.store`; the numbers and the reasoning are in its
header).

* the key is **structural** — the hardware fingerprint, the ordered cost
  profiles of the segment's operators (names excluded) and the options
  that influence the solve (engine, pipelining, refinement, memory mode,
  boundary reserve).  Structurally identical segments — the same model
  compiled twice, the repeated projection layers of a transformer block
  — hit the same entry;
* entries store allocations positionally, so a hit is re-labelled with
  the requesting segment's operator names and returned as a fresh
  :class:`~repro.core.allocation.AllocationResult` that is bit-identical
  to what a cold solve would produce;
* a fixed-mode (``allow_memory_mode=False``) lookup that misses may fall
  back to the dual-mode entry for the same key when that entry uses no
  memory-mode arrays: the dual-mode optimum then lies inside the
  fixed-mode search space, so reusing it is exact (a *cross-mode hit*);
* the cache is size-bounded (LRU eviction) and thread-safe, so one
  instance can back a whole :class:`~repro.service.CompileService`.

Usage::

    cache = AllocationCache(max_entries=4096)
    compiler = CMSwitchCompiler(hardware, cache=cache)
    program = compiler.compile(graph)          # cold: solves and stores
    program = compiler.compile(graph)          # warm: pure cache hits
    print(cache.stats.hit_rate)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..cost.arithmetic import OperatorProfile, profile_signature
from ..cost.latency import OperatorAllocation
from ..hardware.deha import DualModeHardwareAbstraction
from ..obs.metrics import registry_for
from .allocation import AllocationResult, UnitWindow

__all__ = [
    "AllocationCache",
    "AllocationCacheKey",
    "CacheEntry",
    "CacheStats",
    "profile_signature",
    "segment_signature",
]


def segment_signature(profiles: Mapping[str, OperatorProfile]) -> Tuple[Tuple, ...]:
    """Ordered structural identity of a whole segment.

    A :class:`~repro.core.allocation.UnitWindow` answers with a slice of
    the signatures its columns built once per operator; any other
    mapping has them derived here — the same tuples either way.
    """
    if isinstance(profiles, UnitWindow):
        return profiles.signature
    return tuple(profile_signature(profile) for profile in profiles.values())


@dataclass(frozen=True)
class AllocationCacheKey:
    """Cache key of one segment-allocation solve.

    Attributes:
        hardware: :meth:`DualModeHardwareAbstraction.fingerprint` digest.
        segment: Ordered structural signatures of the segment's operators.
        engine: Allocation engine name (``"exact"`` / ``"milp"`` /
            ``"greedy"``).
        pipelined: Whether the segment latency model pipelines operators.
        refine: Whether duplication refinement ran after the solve.
        allow_memory_mode: Whether memory-mode arrays were permitted.
        reserve_arrays: Arrays withheld from refinement for boundary
            buffering.
        inbound_arrays: Arrays' worth of live data entering the segment,
            which the refinement's memory option is credited for
            retaining.  A fixed-mode solve cannot act on it, so its key
            always records 0.
    """

    hardware: str
    segment: Tuple[Tuple, ...]
    engine: str
    pipelined: bool
    refine: bool
    allow_memory_mode: bool
    reserve_arrays: int
    inbound_arrays: int = 0

    @classmethod
    def build(
        cls,
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        *,
        engine: str,
        pipelined: bool,
        refine: bool,
        allow_memory_mode: bool,
        reserve_arrays: int,
        inbound_arrays: int = 0,
    ) -> "AllocationCacheKey":
        """Build the key for one ``allocate_segment`` invocation."""
        return cls(
            hardware=hardware.fingerprint(),
            segment=segment_signature(profiles),
            engine=engine,
            pipelined=pipelined,
            refine=refine,
            allow_memory_mode=allow_memory_mode,
            reserve_arrays=int(reserve_arrays),
            inbound_arrays=int(inbound_arrays) if allow_memory_mode else 0,
        )

    def dual_mode_variant(self, inbound_arrays: int = 0) -> "AllocationCacheKey":
        """The dual-mode solve of the same window (cross-mode lookup).

        ``inbound_arrays`` is the window's inbound count, which the
        fixed-mode key dropped.  A memory-free dual-mode result never
        took the retention-credited memory option, so it is what the
        fixed-mode solve of that window produces.
        """
        return replace(self, allow_memory_mode=True, inbound_arrays=int(inbound_arrays))


@dataclass(frozen=True)
class CacheEntry:
    """Stored outcome of one solve, with allocations kept positionally.

    The in-memory LRU maps keys to entries.  Operator names are *not*
    part of an entry — allocations are positional, so one entry serves
    every structurally identical segment regardless of labels.
    Both refinements of a solve (``unreserved`` is the result's twin)
    travel as one entry — one LRU slot, one key.
    """

    allocations: Tuple[Tuple[int, int], ...]
    latency_cycles: float
    feasible: bool
    solver: str
    unreserved: Optional["CacheEntry"] = None

    @classmethod
    def from_result(
        cls,
        profiles: Mapping[str, OperatorProfile],
        result: AllocationResult,
    ) -> Optional["CacheEntry"]:
        """Build the positional entry for ``result`` solved over ``profiles``.

        Returns None for a feasible result that does not cover every
        profiled operator (a foreign/partial result) — such results must
        never be stored, or a later hit would silently drop operators.
        """
        allocations = tuple(
            (
                result.allocations[name].compute_arrays,
                result.allocations[name].memory_arrays,
            )
            for name in profiles
            if name in result.allocations
        )
        if len(allocations) != len(profiles) and result.feasible:
            return None
        unreserved = None
        if result.unreserved is not None:
            unreserved = cls.from_result(profiles, result.unreserved)
            if unreserved is None:
                return None
        return cls(
            allocations=allocations if result.feasible else tuple(),
            latency_cycles=result.latency_cycles,
            feasible=result.feasible,
            solver=result.solver,
            unreserved=unreserved,
        )

    @property
    def memory_free(self) -> bool:
        """Whether the entry uses no memory-mode arrays anywhere."""
        return all(memory == 0 for _, memory in self.allocations)

    def to_result(self, names: Sequence[str]) -> AllocationResult:
        """Materialise an :class:`AllocationResult` for ``names``."""
        allocations = {
            name: OperatorAllocation(compute_arrays=compute, memory_arrays=memory)
            for name, (compute, memory) in zip(names, self.allocations)
        }
        return AllocationResult(
            allocations=allocations,
            latency_cycles=self.latency_cycles,
            feasible=self.feasible,
            solver=self.solver,
            from_cache=True,
            unreserved=(
                self.unreserved.to_result(names) if self.unreserved is not None else None
            ),
        )


@dataclass(frozen=True)
class CacheStats:
    """Read-only view of one :class:`AllocationCache`'s ``cache.*`` counters.

    Attributes:
        hits: Lookups served from the cache (cross-mode hits included).
        cross_mode_hits: Fixed-mode lookups served by a memory-free
            dual-mode entry.
        misses: Lookups that required a fresh solve.
        stores: Entries written.
        evictions: Entries dropped by the LRU bound.
    """

    hits: int = 0
    cross_mode_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        """Plain-dictionary rendering for reports and program stats."""
        return {
            "hits": self.hits,
            "cross_mode_hits": self.cross_mode_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class AllocationCache:
    """Keyed, size-bounded, thread-safe cache of segment-allocation solves.

    Key invariants (callers — the segmenter, :class:`CompileService`, DSE
    sweeps — rely on all of them):

    * **Exactness** — a hit is bit-identical to what a cold solve would
      return for the same key; keys include every option that influences
      the solve, and :meth:`DualModeHardwareAbstraction.fingerprint`
      covers every cost-relevant hardware parameter, so changing any of
      them changes the key (there is no way to get a stale answer by
      tweaking hardware or options).
    * **Thread safety** — all public methods may be called concurrently;
      one instance backs the :class:`~repro.service.CompileService`
      the ``repro serve`` daemon's worker threads share.
    * **Per process** — nothing here crosses a process border; what a
      ``cache_dir`` shares between processes is whole programs
      (:class:`~repro.core.store.DiskCacheStore`).

    Args:
        max_entries: LRU capacity; the oldest entry is evicted when a
            new store would exceed it.  Must be positive.
        metrics: Optional :class:`~repro.obs.MetricsRegistry` that holds
            the cache's counters, one ``cache.<field>`` per
            :class:`CacheStats` field (a private registry when omitted).
            Two caches given one registry count into the same counters.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        metrics: Optional[object] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[AllocationCacheKey, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.metrics = registry_for(metrics)
        self._counters = {
            field.name: self.metrics.counter(f"cache.{field.name}")
            for field in fields(CacheStats)
        }

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """The counters as they stand now (a fresh view per read)."""
        return CacheStats(**{name: c.value for name, c in self._counters.items()})

    # ------------------------------------------------------------------ #
    # key-level API (what allocate_segment talks to — the key is built
    # once per solve and shared between lookup and store)
    # ------------------------------------------------------------------ #
    @staticmethod
    def make_key(
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        **options,
    ) -> AllocationCacheKey:
        """Build the cache key for one solve (see
        :meth:`AllocationCacheKey.build` for the options)."""
        return AllocationCacheKey.build(profiles, hardware, **options)

    def lookup(
        self, key: AllocationCacheKey, names: Sequence[str], inbound_arrays: int = 0
    ) -> Optional[AllocationResult]:
        """Return a cached result for ``key``, or None on a miss.

        Probes the exact entry, then — for a fixed-mode lookup — the
        dual-mode entry of the same window, which is reused only when it
        allocates no memory-mode arrays (then it lies inside the
        fixed-mode space and is exact for it); ``inbound_arrays`` is the
        window's inbound count, which names that dual-mode entry.
        ``names`` labels the returned allocations.
        """
        with self._lock:
            entry, hit_key, cross_mode = self._probe(key, inbound_arrays)
            if entry is not None:
                self._entries.move_to_end(hit_key)
        if entry is None:
            self._counters["misses"].inc()
            return None
        self._counters["hits"].inc()
        if cross_mode:
            self._counters["cross_mode_hits"].inc()
        return entry.to_result(names)

    def _probe(
        self, key: AllocationCacheKey, inbound_arrays: int
    ) -> Tuple[Optional[CacheEntry], AllocationCacheKey, bool]:
        """Exact + cross-mode probe (lock held).

        Returns ``(entry, key it was found under, cross-mode hit)``.
        """
        entry = self._entries.get(key)
        if entry is not None:
            return entry, key, False
        if not key.allow_memory_mode:
            dual_key = key.dual_mode_variant(inbound_arrays)
            dual_entry = self._entries.get(dual_key)
            if dual_entry is not None and dual_entry.memory_free:
                return dual_entry, dual_key, True
        return None, key, False

    def _insert(self, key: AllocationCacheKey, entry: CacheEntry) -> None:
        """Insert into the in-memory LRU, evicting past capacity (lock held)."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._counters["evictions"].inc()

    def put(
        self,
        key: AllocationCacheKey,
        profiles: Mapping[str, OperatorProfile],
        result: AllocationResult,
    ) -> None:
        """Store the outcome of a fresh solve under ``key``."""
        entry = CacheEntry.from_result(profiles, result)
        if entry is None:
            return  # partial allocation (foreign result); never cache it
        with self._lock:
            self._insert(key, entry)
        self._counters["stores"].inc()

    # ------------------------------------------------------------------ #
    # segment-level convenience wrapper
    # ------------------------------------------------------------------ #
    def lookup_segment(
        self,
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        **options,
    ) -> Optional[AllocationResult]:
        """One-shot :meth:`make_key` + :meth:`lookup`."""
        return self.lookup(self.make_key(profiles, hardware, **options), list(profiles))

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
