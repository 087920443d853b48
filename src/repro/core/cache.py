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
window solver (~110 µs a solve, engine plus refinement; ~16 µs a hit)
the saving per hit is modest — compiling the benchmark's five-model set
on ``dynaplasia`` with every window a hit (fresh ``CMSwitchCompiler``
objects over the table a first round filled) still costs ~37 ms
against ~104 ms cold (medians of 7 passes; 2-core container, Python
3.11.7, numpy 2.4.6, plain wall), which is why whole-program reuse sits
in front — and it does not survive a process border: reading one window
back from disk (≈ 135 µs) costs more than solving it, so windows live in
memory only and what a ``cache_dir`` persists is the whole compiled
program (:mod:`repro.core.store`; the numbers and the reasoning are in
its header).

* the key is **structural** — the hardware fingerprint, the ordered cost
  profiles of the segment's operators (names excluded) and the options
  that influence the solve (engine, pipelining, refinement, memory mode,
  boundary reserve).  Structurally identical segments — the same model
  compiled twice, the repeated projection layers of a transformer block
  — hit the same entry;
* an entry is the :class:`~repro.core.allocation.AllocationResult` the
  solve returned (its ``unreserved`` twin in the same slot); results are
  positional from the solve on, so a hit is that result relabelled with
  the requesting segment's operator names — a fresh result bit-identical
  to what a cold solve would produce, built without touching a pair;
* a fixed-mode (``allow_memory_mode=False``) lookup that misses may fall
  back to the dual-mode entry for the same key when that entry uses no
  memory-mode arrays: the dual-mode optimum then lies inside the
  fixed-mode search space, so reusing it is exact (a *cross-mode hit*);
* the cache is bounded (:data:`WINDOW_TABLE_ENTRIES`) and thread-safe
  (its entries live in a :class:`~repro.core.lru.BoundedLRU`), so one
  instance can back a whole :class:`~repro.service.CompileService`.

Every window is solved by :func:`~repro.core.allocation.allocate_segment`:
probe this table, solve on a miss, store.  A compiler built without a
table makes its own; the service hands its one to every compiler::

    compiler = CMSwitchCompiler(hardware)      # owns compiler.cache
    program = compiler.compile(graph)          # cold: solves and stores
    twin = CMSwitchCompiler(hardware, cache=compiler.cache)
    program = twin.compile(graph)              # warm: pure cache hits
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..cost.arithmetic import OperatorProfile, profile_signature
from ..obs.metrics import registry_for
# The key is defined next to the solve it describes; re-exported here.
from .allocation import AllocationCacheKey, AllocationResult, UnitWindow, segment_signature
from .lru import BoundedLRU

__all__ = [
    "WINDOW_TABLE_ENTRIES",
    "AllocationCache",
    "AllocationCacheKey",
    "CacheStats",
    "profile_signature",
    "segment_signature",
]

#: Entry bound of every :class:`AllocationCache`.  Fixed, like
#: :data:`repro.service.PROGRAM_TABLE_ENTRIES`: a hygiene limit on a
#: long-lived service's memory, not a tuning knob.
WINDOW_TABLE_ENTRIES = 4096


def _storable(result: AllocationResult, names: Tuple[str, ...]) -> bool:
    """Whether ``result`` and its twin belong to the window ``names``: a
    feasible partial, foreign or reordered result is never stored, or a
    later hit would hand its pairs to the wrong operators."""
    return (not result.feasible or result.names == names) and (
        result.unreserved is None or _storable(result.unreserved, names)
    )


def _relabelled(result: AllocationResult, names: Tuple[str, ...]) -> AllocationResult:
    """A stored ``result`` as a cache hit labelled ``names``."""
    twin = result.unreserved
    if twin is not None:
        twin = AllocationResult(
            names, twin.pairs, twin.latency_cycles, twin.feasible, twin.solver, True
        )
    return AllocationResult(
        names, result.pairs, result.latency_cycles, result.feasible, result.solver, True, twin
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

    Holds at most :data:`WINDOW_TABLE_ENTRIES` entries; the least
    recently used one is evicted when a new store would exceed that.

    Args:
        metrics: Optional :class:`~repro.obs.MetricsRegistry` that holds
            the cache's counters, one ``cache.<field>`` per
            :class:`CacheStats` field (a private registry when omitted).
            Two caches given one registry count into the same counters.
    """

    def __init__(self, metrics: Optional[object] = None) -> None:
        self._entries = BoundedLRU(WINDOW_TABLE_ENTRIES)
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
    # what allocate_segment talks to — it builds the key once per solve
    # (AllocationCacheKey.build) and shares it between lookup and store
    # ------------------------------------------------------------------ #
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
        stored = self._entries.get(key)
        if stored is None and not key.allow_memory_mode:
            stored = self._entries.get(
                key.dual_mode_variant(inbound_arrays),
                accept=lambda result: result.memory_arrays == 0,
            )
            if stored is not None:
                self._counters["cross_mode_hits"].inc()
        if stored is None:
            self._counters["misses"].inc()
            return None
        self._counters["hits"].inc()
        return _relabelled(stored, tuple(names))

    def put(
        self,
        key: AllocationCacheKey,
        profiles: Mapping[str, OperatorProfile],
        result: AllocationResult,
    ) -> None:
        """Store the outcome of a fresh solve under ``key``."""
        names = profiles.names if isinstance(profiles, UnitWindow) else tuple(profiles)
        if not _storable(result, names):
            return  # partial allocation (foreign result); never cache it
        self._counters["evictions"].inc(self._entries.put(key, result)[2])
        self._counters["stores"].inc()

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
