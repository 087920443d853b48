"""One bounded, thread-safe LRU: the storage of every in-memory table.

Windows (``AllocationCache``), programs (``ProgramTable``), the compile
service's recipe memo, the daemon's settled flights (``SingleFlight``)
and the DSE flattening memo live here.
Owners keep the counters: :meth:`BoundedLRU.put` returns its changes as
deltas, so gauges moved by them stay exact under concurrent puts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, List, Optional, Tuple

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """Least-recently-used mapping under an entry bound and an optional weight bound.

    Args:
        max_entries: Most entries kept; must be positive.
        max_weight: Most total weight kept, or None for no weight bound.
    """

    def __init__(self, max_entries: int, max_weight: Optional[int] = None) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.max_weight = max_weight
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self._weight = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[Hashable]:
        """The keys, least recently used first (a snapshot)."""
        with self._lock:
            return list(self._entries)

    def get(self, key, accept: Optional[Callable[[object], bool]] = None):
        """The value under ``key``, now the most recently used; or None.

        A value ``accept`` rejects is a miss and is not promoted.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (accept is not None and not accept(entry[0])):
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, weight: int = 1) -> Tuple[int, int, int]:
        """Store ``value`` as the most recently used entry, evicting LRU-first.

        Returns ``(entries_delta, weight_delta, evictions)``; a value whose
        ``weight`` alone exceeds the weight bound is refused: ``(0, 0, 0)``.
        """
        if self.max_weight is not None and weight > self.max_weight:
            return 0, 0, 0
        with self._lock:
            entries, total = len(self._entries), self._weight
            replaced = self._entries.pop(key, None)
            self._weight += weight - (0 if replaced is None else replaced[1])
            self._entries[key] = (value, weight)
            evictions = 0
            while len(self._entries) > self.max_entries or (
                self.max_weight is not None and self._weight > self.max_weight
            ):
                self._weight -= self._entries.popitem(last=False)[1][1]
                evictions += 1
            return len(self._entries) - entries, self._weight - total, evictions

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._weight = 0
