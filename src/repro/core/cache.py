"""Shared segment-allocation cache.

The DP segmentation asks the allocator for every candidate window (Fig. 18
of the paper).  :class:`AllocationCache` memoises those solves *across*
segmentation runs, compilers and even compile requests.  With the exact
~85 µs window solver the saving is modest — the benchmark's five-model
set on ``dynaplasia`` (2 cores, Python 3.11) compiles cold in 0.17 s,
from a warm disk tier in 0.15 s, and populating that tier costs 0.5–0.8 s —
so the hierarchy stops at the local disk:

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
  instance can back a whole :class:`~repro.service.CompileService`;
* an optional second tier — a
  :class:`~repro.core.store.DiskCacheStore` — persists entries across
  processes: memory misses fall through to disk, disk hits are promoted
  into memory, and fresh solves are written through, so a cold process
  pointed at a warmed cache directory compiles with zero solver calls.

Usage::

    cache = AllocationCache(max_entries=4096)
    compiler = CMSwitchCompiler(hardware, cache=cache)
    program = compiler.compile(graph)          # cold: solves and stores
    program = compiler.compile(graph)          # warm: pure cache hits
    print(cache.stats.hit_rate)

    # Cross-process persistence: any process pointed at the same
    # directory warms from the entries every earlier process solved.
    cache = AllocationCache(store=DiskCacheStore("~/.cache/repro-allocs"))
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cost.arithmetic import OperatorProfile
from ..cost.latency import OperatorAllocation
from ..hardware.deha import DualModeHardwareAbstraction
from ..obs.metrics import NULL_METRICS
from .allocation import AllocationResult
from .store import DiskCacheStore

__all__ = [
    "AllocationCache",
    "AllocationCacheKey",
    "CacheEntry",
    "CacheStats",
    "DiskCacheStore",
    "profile_signature",
    "segment_signature",
]


def profile_signature(profile: OperatorProfile) -> Tuple:
    """Structural identity of one operator profile (the name excluded).

    Two operators with the same signature receive identical allocations
    from every engine, so the cache may share their solutions.
    """
    return (
        profile.op_type,
        profile.macs,
        profile.input_elements,
        profile.output_elements,
        profile.weight_elements,
        profile.stationary_elements,
        profile.streamed_input_elements,
        profile.extra_streamed_elements,
        profile.has_static_weight,
        profile.matmul_m,
        profile.matmul_k,
        profile.matmul_n,
    )


def segment_signature(profiles: Mapping[str, OperatorProfile]) -> Tuple[Tuple, ...]:
    """Ordered structural identity of a whole segment."""
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

    This is the unit both cache tiers move around: the in-memory LRU maps
    keys to entries directly, and :class:`~repro.core.store.DiskCacheStore`
    persists the :meth:`to_payload` rendering.  Operator names are *not*
    part of an entry — allocations are positional, so one entry serves
    every structurally identical segment regardless of labels.
    Both refinements of a solve (``unreserved`` is the result's twin)
    travel as one entry — one LRU slot, one disk record, one key.
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
        The single constructor both cache tiers and the per-run memo
        share, so "what is storable" has one definition.
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

    def to_result(self, names: Sequence[str], from_disk: bool = False) -> AllocationResult:
        """Materialise an :class:`AllocationResult` for ``names``.

        ``from_disk`` marks results served by the persistent tier so
        compile statistics can attribute the hit per job.
        """
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
            from_disk=from_disk,
            unreserved=(
                self.unreserved.to_result(names, from_disk)
                if self.unreserved is not None
                else None
            ),
        )

    # ------------------------------------------------------------------ #
    # on-disk payload (consumed by DiskCacheStore)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict:
        """JSON-compatible rendering for the persistent store."""
        payload = {
            "allocations": [list(pair) for pair in self.allocations],
            "latency_cycles": self.latency_cycles,
            "feasible": self.feasible,
            "solver": self.solver,
        }
        if self.unreserved is not None:
            payload["unreserved"] = self.unreserved.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "CacheEntry":
        """Rebuild an entry from :meth:`to_payload` output.

        Raises:
            TypeError/ValueError/KeyError: On any shape or type mismatch
                (a twin that carries a twin included) — the disk store
                converts those into a corrupt-entry miss.
        """
        unreserved = None
        if "unreserved" in payload:
            unreserved = cls.from_payload(payload["unreserved"])
            if unreserved.unreserved is not None:
                raise ValueError("an 'unreserved' twin cannot carry its own")
        allocations = []
        for pair in payload["allocations"]:
            compute, memory = pair  # raises ValueError on wrong arity
            if isinstance(compute, bool) or isinstance(memory, bool):
                raise TypeError("allocation counts must be integers")
            allocations.append((int(compute), int(memory)))
        latency = payload["latency_cycles"]
        if isinstance(latency, bool) or not isinstance(latency, (int, float)):
            raise TypeError("'latency_cycles' must be a number")
        latency = float(latency)
        feasible = payload["feasible"]
        solver = payload["solver"]
        if not isinstance(feasible, bool):
            raise TypeError("'feasible' must be a boolean")
        if not isinstance(solver, str):
            raise TypeError("'solver' must be a string")
        return cls(
            allocations=tuple(allocations),
            latency_cycles=latency,
            feasible=feasible,
            solver=solver,
            unreserved=unreserved,
        )


@dataclass
class CacheStats:
    """Counters of one :class:`AllocationCache`.

    Attributes:
        hits: Lookups served from the cache (cross-mode and disk hits
            included).
        cross_mode_hits: Fixed-mode lookups served by a memory-free
            dual-mode entry.
        disk_hits: Lookups that missed in memory but were served by the
            persistent second tier (and promoted into memory).
        misses: Lookups that required a fresh solve.
        stores: Entries written.
        evictions: Entries dropped by the LRU bound.
    """

    hits: int = 0
    cross_mode_hits: int = 0
    disk_hits: int = 0
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

    def snapshot(self) -> "CacheStats":
        """Independent copy of the counters."""
        return CacheStats(
            hits=self.hits,
            cross_mode_hits=self.cross_mode_hits,
            disk_hits=self.disk_hits,
            misses=self.misses,
            stores=self.stores,
            evictions=self.evictions,
        )

    def to_dict(self) -> Dict[str, float]:
        """Plain-dictionary rendering for reports and program stats."""
        return {
            "hits": self.hits,
            "cross_mode_hits": self.cross_mode_hits,
            "disk_hits": self.disk_hits,
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
      one instance can back a whole multi-threaded
      :class:`~repro.service.CompileService`.
    * **Process safety** — the in-memory tier is per-process, but with a
      ``store`` attached, entries written by any process become visible
      to every other process sharing the directory (the disk tier is the
      only cross-process channel; see
      :class:`~repro.core.store.DiskCacheStore` for its guarantees).
    * Disk I/O never happens while the in-memory lock is held, so slow
      filesystems cannot serialise concurrent compile threads.

    Args:
        max_entries: LRU capacity of the in-memory tier; the oldest entry
            is evicted when a new store would exceed it.  Must be
            positive.  (Disk-tier capacity is bounded separately by the
            store's ``max_bytes``.)
        store: Optional persistent second tier.  Memory misses fall
            through to it, its hits are promoted into memory, and fresh
            solves are written through to it.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`.  Tier
            counters are *mirrored* into it under ``cache.memory.*`` /
            ``cache.disk.*`` names; ``self.stats`` stays the exact,
            bit-compatible source of truth either way.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        store: Optional[DiskCacheStore] = None,
        metrics: Optional[object] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.store = store
        self._entries: "OrderedDict[AllocationCacheKey, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        self.metrics = NULL_METRICS if metrics is None else metrics

    def __len__(self) -> int:
        return len(self._entries)

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

        The lookup cascades through the tiers: exact in-memory entry,
        cross-mode in-memory entry, then (with a ``store`` attached) the
        same two probes against the disk tier, promoting a disk hit into
        memory.  A fixed-mode lookup's cross-mode
        probe reuses the dual-mode entry of the same key only when that
        entry allocates no memory-mode arrays (then it lies inside the
        fixed-mode space and is exact for it); ``inbound_arrays`` is the
        window's inbound count, which names that dual-mode entry.
        ``names`` labels the returned allocations.
        """
        with self._lock:
            entry, hit_key, cross_mode = self._probe(self._entries.get, key, inbound_arrays)
            if entry is not None:
                self._entries.move_to_end(hit_key)
                self.stats.hits += 1
                if cross_mode:
                    self.stats.cross_mode_hits += 1
                self.metrics.inc("cache.memory.hits")
                return entry.to_result(names)
        if self.store is not None:
            # Disk probes run outside the lock: a slow filesystem must not
            # serialise the compile threads sharing this cache.
            entry, hit_key, cross_mode = self._probe(self.store.get, key, inbound_arrays)
            if entry is not None:
                with self._lock:
                    self._insert(hit_key, entry)
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    if cross_mode:
                        self.stats.cross_mode_hits += 1
                self.metrics.inc("cache.disk.hits")
                return entry.to_result(names, from_disk=True)
        with self._lock:
            self.stats.misses += 1
        self.metrics.inc("cache.misses")
        return None

    @staticmethod
    def _probe(
        get, key: AllocationCacheKey, inbound_arrays: int
    ) -> Tuple[Optional[CacheEntry], AllocationCacheKey, bool]:
        """Exact + cross-mode probe of one tier through its ``get``.

        Returns ``(entry, key it was found under, cross-mode hit)``.
        The memory tier is probed with the lock held, the disk tier
        without.
        """
        entry = get(key)
        if entry is not None:
            return entry, key, False
        if not key.allow_memory_mode:
            dual_key = key.dual_mode_variant(inbound_arrays)
            dual_entry = get(dual_key)
            if dual_entry is not None and dual_entry.memory_free:
                return dual_entry, dual_key, True
        return None, key, False

    def _insert(self, key: AllocationCacheKey, entry: CacheEntry) -> None:
        """Insert into the in-memory LRU, evicting past capacity (lock held)."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def put(
        self,
        key: AllocationCacheKey,
        profiles: Mapping[str, OperatorProfile],
        result: AllocationResult,
    ) -> None:
        """Store the outcome of a fresh solve under ``key``.

        The entry lands in the in-memory tier immediately and is written
        through to the persistent tier (when attached) outside the lock.
        """
        entry = CacheEntry.from_result(profiles, result)
        if entry is None:
            return  # partial allocation (foreign result); never cache it
        with self._lock:
            self._insert(key, entry)
            self.stats.stores += 1
        self.metrics.inc("cache.stores")
        if self.store is not None:
            self.store.put(key, entry)

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
        """Drop every in-memory entry (counters and the disk tier are kept)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the counters (entries are kept)."""
        with self._lock:
            self.stats = CacheStats()
