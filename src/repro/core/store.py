"""Persistent on-disk allocation-cache store.

The in-memory :class:`~repro.core.cache.AllocationCache` dies with the
process: every new CLI invocation, CI run or DSE sweep solves its
windows again (what that costs is measured in the header of
:mod:`repro.core.cache`).  The cached solves are ideal for cross-process
persistence — they are keyed purely structurally (hardware fingerprint x
operator-profile sequence x solve options) and the allocation engines
are deterministic, so an entry computed by one process is bit-identical
to what any other process would compute.  :class:`DiskCacheStore` is
that persistence layer: a content-addressed store of cache entries under
one directory, safe to share between threads, processes and successive
runs.

Design rules (each one is load-bearing for multi-process sharing):

* **Content addressing** — an entry's file name is the SHA-256 digest of
  the canonical JSON rendering of its :class:`AllocationCacheKey`; the
  full key payload is stored *inside* the entry and compared on read, so
  a digest collision (or a file copied to the wrong name) reads as a
  miss, never as a wrong answer.
* **Atomic writes** — entries are written to a temporary file in the
  same directory and published with :func:`os.replace`, so a reader
  never observes a half-written entry and two processes racing on the
  same key both leave a complete file behind.
* **Versioned format** — every entry carries ``format_version``
  (:data:`FORMAT_VERSION`).  A reader refuses entries written by a
  *newer* format (treated as a miss, the file is left alone — it belongs
  to the newer writer); entries from an obsolete older format are also
  misses and may be overwritten.
* **Corruption tolerance** — truncated, garbled or type-mangled entry
  files degrade to a cache miss (counted in
  :attr:`DiskStoreStats.corrupt_entries`), never to an exception in the
  compile pipeline.
* **Bounded size** — when the store grows past ``max_bytes`` the oldest
  entries (by file modification time) are evicted after a write.

The store deliberately knows nothing about allocation semantics: it maps
keys to :class:`~repro.core.cache.CacheEntry` payloads.  The two-tier
composition (memory in front, disk behind) lives in
:class:`~repro.core.cache.AllocationCache`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from .clock import SYSTEM_CLOCK, Clock
from ..obs.metrics import NULL_METRICS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache imports store)
    from .cache import AllocationCacheKey, CacheEntry

__all__ = ["DiskCacheStore", "DiskStoreStats", "FORMAT_VERSION", "key_digest"]

#: Version of the on-disk entry format.  Bump it whenever the entry
#: payload, the key canonicalisation, or the meaning of any stored field
#: changes; readers refuse entries with a different version (see module
#: docstring for the newer/older asymmetry).
FORMAT_VERSION = 3

#: Default size budget: generous for real sweeps, small enough that a
#: forgotten cache directory cannot fill a CI disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Entry files live at ``<root>/<2-hex-char shard>/<64-hex digest>.json``.
#: Maintenance (eviction, pruning, clearing) matches *only* this shape, so
#: foreign files sharing the directory — a DSE run state nested under the
#: cache dir, editor droppings, a README — are never deleted or counted.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")
_ENTRY_RE = re.compile(r"^[0-9a-f]{64}\.json$")


def _key_payload(key: "AllocationCacheKey") -> Dict:
    """Canonical JSON-compatible rendering of a cache key.

    The ``segment`` signature tuples become lists (JSON has no tuples);
    :func:`_payload_matches_key` compares modulo that transformation.
    """
    return {
        "hardware": key.hardware,
        "segment": [list(signature) for signature in key.segment],
        "engine": key.engine,
        "pipelined": key.pipelined,
        "refine": key.refine,
        "allow_memory_mode": key.allow_memory_mode,
        "reserve_arrays": key.reserve_arrays,
        "inbound_arrays": key.inbound_arrays,
    }


def key_digest(key: "AllocationCacheKey") -> str:
    """Content address of a cache key: SHA-256 over its canonical JSON.

    Stable across processes, Python versions and hash randomisation —
    the digest is computed from sorted-key JSON, never from ``hash()``.
    """
    canonical = json.dumps(_key_payload(key), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class DiskStoreStats:
    """Counters of one :class:`DiskCacheStore`.

    Attributes:
        hits: Reads that returned an entry.
        misses: Reads that found no (usable) entry.
        stores: Entries written.
        evictions: Entry files removed by the size bound.
        corrupt_entries: Reads that found an unreadable/garbled entry.
        version_rejections: Reads that found an entry with a different
            format version (newer writers' files are left in place).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt_entries: int = 0
    version_rejections: int = 0

    def snapshot(self) -> "DiskStoreStats":
        """Independent copy of the counters."""
        return DiskStoreStats(
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            evictions=self.evictions,
            corrupt_entries=self.corrupt_entries,
            version_rejections=self.version_rejections,
        )

    def to_dict(self) -> Dict[str, int]:
        """Plain-dictionary rendering for reports and program stats."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt_entries": self.corrupt_entries,
            "version_rejections": self.version_rejections,
        }


class DiskCacheStore:
    """Content-addressed on-disk store of allocation-cache entries.

    One instance owns one directory.  Many instances — across threads,
    processes and machines sharing a filesystem — may point at the same
    directory concurrently: writes are atomic (tmp + rename), reads
    tolerate every partial state, and racing writers of the same key are
    harmless because the solve they store is deterministic, so both
    write the same payload.

    Invariants callers may rely on:

    * :meth:`get` never raises on bad on-disk state; any unreadable or
      foreign file is a miss.
    * :meth:`put` either publishes a complete entry or (on filesystem
      errors) leaves the store unchanged; it never publishes a partial
      file.
    * Entries written by a newer :data:`FORMAT_VERSION` are never
      deleted or overwritten blindly by an older reader — they are
      skipped (version rejection) so a rolling upgrade cannot destroy
      the newer fleet's cache.

    Args:
        root: Directory holding the store (created on demand).
        max_bytes: Size budget; after a write that pushes the store past
            it, the oldest entry files are evicted until it fits.  Must
            be positive.
        clock: Time source for age-based maintenance (TTL cutoffs, the
            CLI's entry-age display).  Defaults to the real system
            clock; tests inject a :class:`~repro.core.clock.ManualClock`
            so GC behaviour is deterministic.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; every
            counter bump is mirrored under ``store.<counter>`` while
            ``self.stats`` stays the exact source of truth.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: int = DEFAULT_MAX_BYTES,
        clock: Optional[Clock] = None,
        metrics: Optional[object] = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.clock = SYSTEM_CLOCK if clock is None else clock
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = DiskStoreStats()
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._lock = threading.Lock()
        self._approx_bytes: Optional[int] = None  # lazily scanned

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def _entry_path(self, digest: str) -> Path:
        """Sharded path of one entry (two-hex-char fan-out directories)."""
        return self.root / digest[:2] / f"{digest}.json"

    def _entry_files(self) -> List[Path]:
        """Every entry file currently in the store.

        Only files matching the content-addressed layout are reported —
        anything else under the directory belongs to someone else and is
        invisible to store maintenance.
        """
        files: List[Path] = []
        try:
            shards = list(self.root.iterdir())
        except OSError:
            return files
        for shard in shards:
            if not _SHARD_RE.match(shard.name) or not shard.is_dir():
                continue
            try:
                children = list(shard.iterdir())
            except OSError:
                continue
            for path in children:
                if _ENTRY_RE.match(path.name) and path.is_file():
                    files.append(path)
        return files

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #
    def get(self, key: "AllocationCacheKey") -> Optional["CacheEntry"]:
        """Return the stored entry for ``key``, or None.

        Never raises on bad on-disk state: missing files, truncated or
        garbled JSON, wrong-version entries and digest collisions all
        count as misses (with the corresponding stat bumped).
        """
        from .cache import CacheEntry  # local import: cache.py imports this module

        path = self._entry_path(key_digest(key))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError):
            self._count("corrupt_entries")
            self._count("misses")
            return None
        try:
            version = payload["format_version"]
            if version != FORMAT_VERSION:
                self._count("version_rejections")
                self._count("misses")
                return None
            if payload["key"] != _key_payload(key):
                # Digest collision or a file copied to the wrong name.
                self._count("misses")
                return None
            entry = CacheEntry.from_payload(payload["entry"])
        except (KeyError, TypeError, ValueError):
            self._count("corrupt_entries")
            self._count("misses")
            return None
        self._count("hits")
        return entry

    def contains(self, key: "AllocationCacheKey") -> bool:
        """Cheap existence probe for ``key`` — no stats side effects.

        Used by the DSE planner to order warm candidates before cold
        ones.  This is a scheduling heuristic, not a read: the file is
        not opened, so a corrupt or foreign entry may probe as present
        (the subsequent real :meth:`get` still degrades it to a miss).
        """
        try:
            return self._entry_path(key_digest(key)).is_file()
        except OSError:
            return False

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    def put(self, key: "AllocationCacheKey", entry: "CacheEntry") -> None:
        """Persist ``entry`` under ``key`` (atomic, last-writer-wins).

        Filesystem failures are swallowed: persistence is an optimisation
        and must never fail a compile that already has its result.
        """
        path = self._entry_path(key_digest(key))
        payload = {
            "format_version": FORMAT_VERSION,
            "key": _key_payload(key),
            "entry": entry.to_payload(),
        }
        text = json.dumps(payload, sort_keys=True)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # The tmp file lives next to the target so os.replace stays a
            # same-filesystem atomic rename.
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        with self._lock:
            self.stats.stores += 1
            if self._approx_bytes is not None:
                self._approx_bytes += len(text)
            over_budget = self._total_bytes_locked() > self.max_bytes
        if over_budget:
            self._evict_to_budget()

    # ------------------------------------------------------------------ #
    # size bounding
    # ------------------------------------------------------------------ #
    def _total_bytes_locked(self) -> int:
        """Approximate store size; scans the directory once, then tracks."""
        if self._approx_bytes is None:
            total = 0
            for path in self._entry_files():
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
            self._approx_bytes = total
        return self._approx_bytes

    def total_bytes(self) -> int:
        """Exact current size of the store (rescans the directory)."""
        with self._lock:
            self._approx_bytes = None
            return self._total_bytes_locked()

    def _evict_to_budget(self) -> None:
        """Remove oldest entry files (by mtime) until the budget fits.

        The directory scan and the unlinks run *without* the lock — on a
        large store over a slow filesystem they may take a while, and
        concurrent get/put must not stall behind them.  Races with other
        evicting processes are tolerated: a file deleted under our feet
        simply no longer counts.
        """
        sized: List[Tuple[float, int, Path]] = []
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((stat.st_mtime, stat.st_size, path))
        sized.sort()  # oldest first
        total = sum(size for _, size, _ in sized)
        evicted = 0
        for _, size, path in sized:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        with self._lock:
            self._approx_bytes = total
            self.stats.evictions += evicted

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entry_files())

    def usage(self) -> Dict[str, float]:
        """Current on-disk footprint (rescans the directory).

        Returns:
            ``{"files", "bytes", "oldest_mtime", "newest_mtime"}`` —
            the mtimes are 0.0 for an empty store.
        """
        files = 0
        total = 0
        oldest = newest = 0.0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            files += 1
            total += stat.st_size
            oldest = stat.st_mtime if files == 1 else min(oldest, stat.st_mtime)
            newest = max(newest, stat.st_mtime)
        with self._lock:
            self._approx_bytes = total
        return {
            "files": files,
            "bytes": total,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Expire old entries (TTL) and/or shrink to a size budget (GC).

        Both policies are one-shot maintenance passes — the operational
        complement of the automatic post-write ``max_bytes`` eviction:

        * ``max_age_seconds`` removes every entry whose file mtime is
          older than ``now - max_age_seconds`` (TTL; cached solves never
          go *stale* — keys are exact — but an abandoned sweep's entries
          are dead weight);
        * ``max_bytes`` then removes oldest-first (mtime LRU) until the
          store fits the budget.

        Races with concurrent writers/evictors are tolerated the same
        way eviction tolerates them: a file deleted under our feet
        simply stops counting.

        Args:
            now: Reference time for the TTL (default: the store's
                clock — real time unless a test injected one).

        Returns:
            ``{"removed_files", "removed_bytes", "remaining_files",
            "remaining_bytes"}``.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ValueError("max_age_seconds must be non-negative")
        now = self.clock.now() if now is None else now
        sized: List[Tuple[float, int, Path]] = []
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((stat.st_mtime, stat.st_size, path))
        sized.sort()  # oldest first
        remaining = sum(size for _, size, _ in sized)
        removed_files = 0
        removed_bytes = 0
        keep: List[Tuple[float, int, Path]] = []
        cutoff = now - max_age_seconds if max_age_seconds is not None else None
        for mtime, size, path in sized:
            expired = cutoff is not None and mtime < cutoff
            over_budget = max_bytes is not None and remaining > max_bytes
            if not (expired or over_budget):
                keep.append((mtime, size, path))
                continue
            try:
                path.unlink()
            except OSError:
                keep.append((mtime, size, path))
                continue
            remaining -= size
            removed_files += 1
            removed_bytes += size
        with self._lock:
            self._approx_bytes = remaining
            self.stats.evictions += removed_files
        return {
            "removed_files": removed_files,
            "removed_bytes": removed_bytes,
            "remaining_files": len(keep),
            "remaining_bytes": remaining,
        }

    def clear(self) -> None:
        """Delete every entry file (the directory itself is kept)."""
        with self._lock:
            for path in self._entry_files():
                try:
                    path.unlink()
                except OSError:
                    continue
            self._approx_bytes = 0

    def _count(self, counter: str) -> None:
        """Thread-safe stat increment (mirrored into the metrics registry)."""
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self.metrics.inc(f"store.{counter}")
