"""Persistent on-disk program store.

``cache_dir`` keeps the *compiled artefact*, not the solver's
sub-problems: :class:`DiskCacheStore` maps one :class:`ProgramKey` —
the graph, the chip, every compiler option and the compiler's name — to
one bit-exact encoded :class:`~repro.core.program.CompiledProgram`
(:func:`~repro.core.program.program_to_payload`).  A process pointed at
a populated directory answers a compile it has seen before with one file
read and one decode: no flattening, no DP, no allocator.

**Why programs, not windows.**  Until format version 3 this store held
one entry per allocation *window*.  Since the exact allocator made a
window solve cost ~85 µs, reading a window back (digest + open + parse +
key compare, ≈ 135 µs) cost more than recomputing it, and a 100 %-warm
directory still ran the whole DP: on the benchmark's five-model set
(2 cores, Python 3.11, ``python3 bench/run.py``, machine-normalised) a
disk-warm pass took 117–128 ms against ~153 ms cold, and populating the
directory made a 30-point DSE sweep 2–3× slower than having no
directory at all (186–277 ms against 86–140).  At program granularity
the same pass is 5 reads (7.7–8.3 ms, 15× less) and the sweep writes 30
files instead of 318 (120–152 ms; 26–34 ms when a fresh runner re-reads
them, against 78–121 ms over the window files).  The known cost: a
*different* program that shares windows with stored ones re-solves them
in a new process — cheaper than reading them, per the numbers above.
Windows are shared in memory only
(:class:`~repro.core.cache.AllocationCache`).

Design rules (each one is load-bearing for multi-process sharing):

* **Content addressing** — an entry's file name is the SHA-256 digest of
  the canonical JSON rendering of its :class:`ProgramKey`; the full key
  payload is stored *inside* the entry and compared on read, so a digest
  collision (or a file copied to the wrong name) reads as a miss, never
  as a wrong program.
* **Atomic writes** — entries are written to a temporary file in the
  same directory and published with :func:`os.replace`, so a reader
  never observes a half-written entry and two processes racing on the
  same key both leave a complete file behind.
* **Versioned format** — every entry carries ``format_version``
  (:data:`FORMAT_VERSION`).  A reader refuses entries written by a
  *newer* format (treated as a miss, the file is left alone — it belongs
  to the newer writer); entries from an obsolete older format (the
  version-3 window files included) are also misses and may be
  overwritten.
* **Corruption tolerance** — truncated, garbled or type-mangled entry
  files degrade to a miss (counted in
  :attr:`DiskStoreStats.corrupt_entries`), never to an exception in the
  compile path.
* **Bounded size** — when the store grows past ``max_bytes`` the oldest
  entries (by file modification time) are evicted after a write.

The one reader and the one writer are in
:meth:`repro.service.CompileService.compile_graph`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from ..ir.serialization import graph_to_json
from ..obs.metrics import registry_for
from .clock import SYSTEM_CLOCK, Clock
from .program import CompiledProgram, program_from_payload, program_to_payload

__all__ = ["DiskCacheStore", "DiskStoreStats", "FORMAT_VERSION", "ProgramKey"]

#: Version of the on-disk entry format.  Bump it whenever the entry
#: payload, the key canonicalisation, or the meaning of any stored field
#: changes; readers refuse entries with a different version (see module
#: docstring for the newer/older asymmetry).  Versions up to 3 held one
#: allocation window per entry.
FORMAT_VERSION = 4

#: Default size budget: generous for real sweeps, small enough that a
#: forgotten cache directory cannot fill a CI disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Entry files live at ``<root>/<2-hex-char shard>/<64-hex digest>.json``.
#: Maintenance (eviction, pruning, clearing) matches *only* this shape, so
#: foreign files sharing the directory — a DSE run state nested under the
#: cache dir, editor droppings, a README — are never deleted or counted.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")
_ENTRY_RE = re.compile(r"^[0-9a-f]{64}\.json$")


class ProgramKey:
    """Identity of one compile: everything that determines its program.

    Two compiles with equal keys produce bit-identical
    :meth:`CompiledProgram.fingerprint` results (every pass is
    deterministic), so the store may answer one with the other's
    program.

    Attributes:
        payload: ``{"graph", "hardware", "options", "compiler"}`` — the
            SHA-256 of the graph's exact JSON serialisation, the
            :meth:`DualModeHardwareAbstraction.fingerprint`, every
            compiler option (``generate_code`` included: it changes the
            artefact) and the compiler's name.  Stored inside the entry
            and compared on read.
        digest: SHA-256 over the payload's canonical (sorted-key) JSON —
            the entry's content address.  Stable across processes,
            Python versions and hash randomisation.
    """

    __slots__ = ("payload", "digest")

    def __init__(self, payload: Dict) -> None:
        self.payload = payload
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self.digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def build(
        cls,
        graph: Graph,
        hardware: DualModeHardwareAbstraction,
        options,
        compiler: str,
    ) -> "ProgramKey":
        """The key of compiling ``graph`` for ``hardware`` under ``options``.

        ``options`` is the :class:`~repro.core.compiler.CompilerOptions`
        dataclass the compile will actually run with (defaults already
        substituted).
        """
        graph_json = graph_to_json(graph, indent=None)
        return cls(
            {
                "graph": hashlib.sha256(graph_json.encode("utf-8")).hexdigest(),
                "hardware": hardware.fingerprint(),
                "options": asdict(options),
                "compiler": compiler,
            }
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProgramKey) and self.payload == other.payload

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProgramKey({self.digest[:12]})"


@dataclass(frozen=True)
class DiskStoreStats:
    """Read-only view of one :class:`DiskCacheStore`'s ``store.*`` counters.

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
    """Content-addressed on-disk store of compiled programs.

    One instance owns one directory.  Many instances — across threads,
    processes and machines sharing a filesystem — may point at the same
    directory concurrently: writes are atomic (tmp + rename), reads
    tolerate every partial state, and racing writers of the same key are
    harmless because the compile they store is deterministic, so both
    write the same plan.

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
        metrics: Optional :class:`~repro.obs.MetricsRegistry` that holds
            the store's counters, one ``store.<field>`` per
            :class:`DiskStoreStats` field (a private registry when
            omitted).
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
        self.metrics = registry_for(metrics)
        self._counters = {
            field.name: self.metrics.counter(f"store.{field.name}")
            for field in fields(DiskStoreStats)
        }
        self._lock = threading.Lock()
        self._approx_bytes: Optional[int] = None  # lazily scanned

    @property
    def stats(self) -> DiskStoreStats:
        """The counters as they stand now (a fresh view per read)."""
        return DiskStoreStats(**{name: c.value for name, c in self._counters.items()})

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
    def get(self, key: ProgramKey) -> Optional[CompiledProgram]:
        """Return the stored program for ``key``, or None.

        Never raises on bad on-disk state: missing files, truncated or
        garbled JSON, wrong-version entries, digest collisions and
        payloads that do not decode all count as misses (with the
        corresponding stat bumped).  The program comes back exactly as
        it was written — ``stats`` and ``metadata`` describe the compile
        that produced it.
        """
        path = self._entry_path(key.digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self._counters["misses"].inc()
            return None
        except (OSError, ValueError):
            self._counters["corrupt_entries"].inc()
            self._counters["misses"].inc()
            return None
        try:
            version = payload["format_version"]
            if version != FORMAT_VERSION:
                self._counters["version_rejections"].inc()
                self._counters["misses"].inc()
                return None
            if payload["key"] != key.payload:
                # Digest collision or a file copied to the wrong name.
                self._counters["misses"].inc()
                return None
            program = program_from_payload(payload["program"])
        except (KeyError, TypeError, ValueError):
            self._counters["corrupt_entries"].inc()
            self._counters["misses"].inc()
            return None
        self._counters["hits"].inc()
        return program

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    def put(self, key: ProgramKey, program: CompiledProgram) -> None:
        """Persist ``program`` under ``key`` (atomic, last-writer-wins).

        Filesystem failures are swallowed: persistence is an optimisation
        and must never fail a compile that already has its result.
        """
        path = self._entry_path(key.digest)
        payload = {
            "format_version": FORMAT_VERSION,
            "key": key.payload,
            "program": program_to_payload(program),
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
        self._counters["stores"].inc()
        with self._lock:
            if self._approx_bytes is not None:
                self._approx_bytes += len(text)
            over_budget = self._total_bytes_locked() > self.max_bytes
        if over_budget:
            self.prune(max_bytes=self.max_bytes)

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

        Both policies are one-shot passes; :meth:`put` runs the size
        one itself whenever a write takes the store over ``max_bytes``:

        * ``max_age_seconds`` removes every entry whose file mtime is
          older than ``now - max_age_seconds`` (TTL; stored programs
          never go *stale* — keys are exact — but an abandoned sweep's
          entries, or a directory of pre-version-4 window files, are
          dead weight);
        * ``max_bytes`` then removes oldest-first (mtime LRU) until the
          store fits the budget.

        The directory scan and the unlinks run *without* the lock — on a
        large store over a slow filesystem they may take a while, and
        concurrent get/put must not stall behind them.  Races with other
        writers/evictors are tolerated: a file deleted under our feet
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
        self._counters["evictions"].inc(removed_files)
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
