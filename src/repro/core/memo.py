"""Per-run memoisation of segment-allocation solves.

:class:`SolveMemo` is the light sibling of
:class:`~repro.core.cache.AllocationCache`: an unbounded, thread-safe,
in-memory map from :class:`~repro.core.cache.AllocationCacheKey` to the
solve outcome, meant to live for the duration of *one* run — a DSE
sweep, a compile batch — and then be dropped.

Why a second memo when the shared cache exists:

* the shared cache is optional (``use_cache=False`` services have
  none) and bounded (LRU eviction can drop a window a neighbouring
  design point is about to request).  The memo is always there for the
  run and never evicts, so neighbouring design points
  that share allocation windows — the common case along one axis of a
  sweep, where most windows' boundary context is unchanged — reuse each
  other's solves even on a cache-less run;
* its counters are *per run*:
  :attr:`SolveMemo.hits` / :attr:`SolveMemo.misses` answer "how much
  solve reuse did this sweep get", which the shared cache's lifetime
  counters cannot.

The memo deliberately speaks the same duck-typed key API as
``AllocationCache`` (``make_key`` / ``lookup`` / ``put``), keyed by the
same structural :class:`AllocationCacheKey`, so
:func:`~repro.core.allocation.allocate_segment` can probe it without a
new protocol and a hit is bit-identical to a cold solve by the same
argument the cache's exactness rests on.  Cross-process sharing is out
of scope — processes share whole programs through the ``cache_dir``
store only.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional, Sequence

from ..hardware.deha import DualModeHardwareAbstraction
from ..obs.metrics import NULL_METRICS
from .allocation import AllocationResult
from .cache import AllocationCache, AllocationCacheKey, CacheEntry
from ..cost.arithmetic import OperatorProfile

__all__ = ["SolveMemo"]


class SolveMemo:
    """Unbounded per-run memo of allocation solves (thread-safe).

    One instance is created per run (``DSERunner`` makes its own) and
    threaded through ``SegmentationOptions.solve_memo`` into every
    segmenter the run spawns; all of them — across design points,
    dual- and fixed-mode alike — then share solves in process memory.

    Args:
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; hits,
            misses and stores are mirrored under ``memo.*`` while the
            plain counters stay the exact source of truth.

    Attributes:
        hits: Lookups served from the memo (cross-mode hits included).
        misses: Lookups that fell through (to the shared cache or a
            fresh solve).
        stores: Entries written.
    """

    def __init__(self, metrics: Optional[object] = None) -> None:
        self._entries: Dict[AllocationCacheKey, CacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.metrics = NULL_METRICS if metrics is None else metrics

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def make_key(
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        **options,
    ) -> AllocationCacheKey:
        """Build the structural key for one solve (same as the cache's)."""
        return AllocationCacheKey.build(profiles, hardware, **options)

    def lookup(
        self, key: AllocationCacheKey, names: Sequence[str], inbound_arrays: int = 0
    ) -> Optional[AllocationResult]:
        """Return the memoised result for ``key``, or None.

        The cache's own probe: exact entry first, then — for a
        fixed-mode key — the memory-free dual-mode entry of the same
        window (named by its ``inbound_arrays``), which is exact for it.
        """
        with self._lock:
            entry, _, _ = AllocationCache._probe(self._entries.get, key, inbound_arrays)
            if entry is None:
                self.misses += 1
                self.metrics.inc("memo.misses")
                return None
            self.hits += 1
        self.metrics.inc("memo.hits")
        return entry.to_result(names)

    def put(
        self,
        key: AllocationCacheKey,
        profiles: Mapping[str, OperatorProfile],
        result: AllocationResult,
    ) -> None:
        """Memoise the outcome of one solve under ``key``."""
        entry = CacheEntry.from_result(profiles, result)
        if entry is None:
            return  # partial allocation (foreign result); never memoise it
        with self._lock:
            self._entries[key] = entry
            self.stores += 1
        self.metrics.inc("memo.stores")

    def stats_dict(self) -> Dict[str, int]:
        """Plain counters for reports and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": len(self._entries),
        }
