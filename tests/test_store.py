"""Tests for the persistent disk cache store and the process compile backend.

Covers the ISSUE-2 acceptance surface: disk warm starts with zero
allocator solves, corruption tolerance, version-mismatch rejection,
eviction under a tiny size budget, concurrent same-key writers from two
processes, and thread/process backend result parity.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    SYSTEM_CLOCK,
    AllocationCache,
    CacheEntry,
    CMSwitchCompiler,
    CompilerOptions,
    DiskCacheStore,
    ManualClock,
)
from repro.core.cache import AllocationCacheKey
from repro.core.store import FORMAT_VERSION, key_digest
from repro.cost.arithmetic import profile_graph
from repro.service import CompileJob, CompileService

REPO_ROOT = Path(__file__).resolve().parent.parent


def _synthetic_key(**overrides) -> AllocationCacheKey:
    """A structurally plausible key without running the profiler."""
    fields = dict(
        hardware="feedfacefeedface",
        segment=(("linear", 1024, 32, 32, 1024, 1024, 32, 0, True, 1, 32, 32),),
        engine="milp",
        pipelined=True,
        refine=True,
        allow_memory_mode=True,
        reserve_arrays=0,
    )
    fields.update(overrides)
    return AllocationCacheKey(**fields)


def _entry(allocations=((2, 1), (3, 0)), latency=123.5, solver="milp") -> CacheEntry:
    return CacheEntry(
        allocations=tuple(tuple(pair) for pair in allocations),
        latency_cycles=latency,
        feasible=True,
        solver=solver,
    )


def _entry_file(store: DiskCacheStore, key: AllocationCacheKey) -> Path:
    digest = key_digest(key)
    return store.root / digest[:2] / f"{digest}.json"


class TestDiskCacheStore:
    def test_roundtrip(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key, entry = _synthetic_key(), _entry()
        assert store.get(key) is None
        store.put(key, entry)
        assert store.get(key) == entry
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert len(store) == 1

    def test_digest_is_stable_across_instances(self, tmp_path):
        key = _synthetic_key()
        assert key_digest(key) == key_digest(_synthetic_key())
        assert key_digest(key) != key_digest(_synthetic_key(engine="greedy"))

    def test_infeasible_entry_roundtrip(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = _synthetic_key()
        entry = CacheEntry(
            allocations=(), latency_cycles=float("inf"), feasible=False, solver="infeasible"
        )
        store.put(key, entry)
        got = store.get(key)
        assert got is not None and not got.feasible
        assert got.latency_cycles == float("inf")

    def test_corrupted_entry_is_miss_not_crash(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = _synthetic_key()
        store.put(key, _entry())
        _entry_file(store, key).write_text("{ this is not json", encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1
        # The store recovers: a fresh put repairs the entry.
        store.put(key, _entry())
        assert store.get(key) == _entry()

    def test_type_mangled_entry_is_miss(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = _synthetic_key()
        store.put(key, _entry())
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["entry"]["allocations"] = "not-a-list-of-pairs"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1

    def test_newer_version_rejected_and_left_in_place(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = _synthetic_key()
        store.put(key, _entry())
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.version_rejections == 1
        # A newer writer's file must survive an older reader.
        assert path.exists()

    def test_v1_entry_is_rejected_and_counted_never_served(self, tmp_path):
        """A directory written before the key gained ``inbound_arrays``.

        Format 1 keys had no inbound count and named the default engine
        ``"milp"``; even planted at the address today's reader probes,
        such an entry is a counted version rejection, not a plan.
        """
        assert FORMAT_VERSION == 3
        store = DiskCacheStore(tmp_path)
        key = _synthetic_key()
        store.put(key, _entry())
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = 1
        del payload["key"]["inbound_arrays"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.version_rejections == 1
        assert store.stats.hits == 0
        # An obsolete entry may be overwritten; the rewrite is served.
        store.put(key, _entry())
        assert store.get(key) == _entry()

    def test_v2_directory_is_all_misses(self, tmp_path):
        """Format 2 entries had no ``unreserved`` twin: the reserved half
        alone would let the DP miss the plan the twin wins, so a v2
        directory reads as empty — counted, never an error or a hit."""
        store = DiskCacheStore(tmp_path)
        keys = [_synthetic_key(reserve_arrays=reserve) for reserve in range(4)]
        for key in keys:
            store.put(key, _entry())
            path = _entry_file(store, key)
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["format_version"] = 2
            path.write_text(json.dumps(payload), encoding="utf-8")
        assert [store.get(key) for key in keys] == [None] * 4
        assert store.stats.version_rejections == 4
        assert store.stats.hits == 0 and store.stats.corrupt_entries == 0

    def test_entry_with_unreserved_twin_roundtrips_bit_exact(self, tmp_path):
        twin = _entry(allocations=((4, 1), (3, 0)), latency=0.1 + 0.2)
        entry = CacheEntry(
            allocations=((2, 1), (3, 0)), latency_cycles=1e9 / 3.0, feasible=True,
            solver="exact", unreserved=twin,
        )
        assert CacheEntry.from_payload(json.loads(json.dumps(entry.to_payload()))) == entry
        assert "unreserved" not in twin.to_payload()
        store = DiskCacheStore(tmp_path)
        store.put(_synthetic_key(reserve_arrays=3), entry)
        assert store.get(_synthetic_key(reserve_arrays=3)) == entry
        assert len(store) == 1  # both refinements: one record, one key

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda twin: "not-an-object",
            lambda twin: None,
            lambda twin: {k: v for k, v in twin.items() if k != "latency_cycles"},
            lambda twin: {**twin, "allocations": [[1]]},
            lambda twin: {**twin, "feasible": "yes"},
            lambda twin: {**twin, "unreserved": dict(twin)},
        ],
        ids=["string", "null", "truncated", "bad-pair", "bad-type", "nested-twin"],
    )
    def test_mangled_unreserved_twin_is_a_corrupt_miss(self, tmp_path, mangle):
        store = DiskCacheStore(tmp_path)
        key = _synthetic_key(reserve_arrays=3)
        store.put(key, CacheEntry(
            allocations=((2, 1),), latency_cycles=9.0, feasible=True, solver="exact",
            unreserved=_entry(allocations=((4, 1),)),
        ))
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["entry"]["unreserved"] = mangle(payload["entry"]["unreserved"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None  # never the reserved half on its own
        assert store.stats.corrupt_entries == 1 and store.stats.hits == 0

    def test_inbound_count_is_part_of_the_content_address(self):
        assert key_digest(_synthetic_key()) != key_digest(_synthetic_key(inbound_arrays=2))

    def test_foreign_key_payload_is_miss(self, tmp_path):
        """A file whose stored key disagrees with its name is never served."""
        store = DiskCacheStore(tmp_path)
        key, other = _synthetic_key(), _synthetic_key(reserve_arrays=3)
        store.put(other, _entry())
        source = _entry_file(store, other)
        target = _entry_file(store, key)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())  # entry copied to the wrong name
        assert store.get(key) is None

    def test_eviction_under_tiny_budget(self, tmp_path):
        entry = _entry()
        probe = DiskCacheStore(tmp_path / "probe")
        probe.put(_synthetic_key(), entry)
        entry_bytes = probe.total_bytes()

        store = DiskCacheStore(tmp_path / "store", max_bytes=2 * entry_bytes)
        for reserve in range(6):
            store.put(_synthetic_key(reserve_arrays=reserve), entry)
        assert store.stats.evictions > 0
        assert store.total_bytes() <= store.max_bytes
        assert len(store) <= 2
        # The newest entry survives (eviction is oldest-first).
        assert store.get(_synthetic_key(reserve_arrays=5)) == entry

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCacheStore(tmp_path, max_bytes=0)

    def test_clear(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(_synthetic_key(), _entry())
        store.clear()
        assert len(store) == 0 and store.total_bytes() == 0
        assert store.get(_synthetic_key()) is None


class TestClockDrivenGC:
    """TTL maintenance runs off an injected clock — no real time, no sleeps."""

    EPOCH = 1_700_000_000.0  # arbitrary fixed "now"

    def _store_with_aged_entries(self, root, clock):
        """Three entries whose mtimes sit 0 h / 2 h / 50 h in the past."""
        store = DiskCacheStore(root, clock=clock)
        ages_hours = {0: 0.0, 1: 2.0, 2: 50.0}
        for reserve, age in ages_hours.items():
            key = _synthetic_key(reserve_arrays=reserve)
            store.put(key, _entry())
            stamp = clock.now() - age * 3600.0
            os.utime(_entry_file(store, key), (stamp, stamp))
        return store

    def test_prune_ttl_uses_injected_clock(self, tmp_path):
        clock = ManualClock(start=self.EPOCH)
        store = self._store_with_aged_entries(tmp_path, clock)
        outcome = store.prune(max_age_seconds=24 * 3600)
        assert outcome["removed_files"] == 1  # only the 50 h entry
        assert outcome["remaining_files"] == 2
        assert store.get(_synthetic_key(reserve_arrays=2)) is None
        assert store.get(_synthetic_key(reserve_arrays=1)) == _entry()

    def test_advancing_the_clock_expires_more(self, tmp_path):
        clock = ManualClock(start=self.EPOCH)
        store = self._store_with_aged_entries(tmp_path, clock)
        assert store.prune(max_age_seconds=3 * 3600)["removed_files"] == 1
        # One "day" passes — instantly — and the survivors age out too.
        clock.advance(24 * 3600)
        assert store.prune(max_age_seconds=3 * 3600)["removed_files"] == 2
        assert len(store) == 0

    def test_explicit_now_still_overrides_the_clock(self, tmp_path):
        clock = ManualClock(start=self.EPOCH)
        store = self._store_with_aged_entries(tmp_path, clock)
        future = self.EPOCH + 7 * 24 * 3600
        outcome = store.prune(max_age_seconds=60 * 3600, now=future)
        assert outcome["removed_files"] == 3

    def test_manual_clock_refuses_to_run_backwards(self):
        clock = ManualClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        assert clock.now() == clock.perf() == 5.0

    def test_default_clock_is_real_time(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        assert store.clock is SYSTEM_CLOCK
        import time as real_time

        before = real_time.time()
        reading = store.clock.now()
        assert before - 1.0 <= reading <= real_time.time() + 1.0


class TestTwoTierCache:
    def test_disk_warm_start_compiles_with_zero_solves(self, small_chip, tiny_cnn_graph, tmp_path):
        """Acceptance: a cold process pointed at a warmed dir does 0 solves."""
        options = CompilerOptions(generate_code=False)
        warm_writer = AllocationCache(store=DiskCacheStore(tmp_path))
        cold = CMSwitchCompiler(small_chip, options, cache=warm_writer).compile(tiny_cnn_graph)
        assert cold.stats["allocator_solves"] > 0

        # A fresh cache + store simulates a brand-new process.
        fresh = AllocationCache(store=DiskCacheStore(tmp_path))
        warm = CMSwitchCompiler(small_chip, options, cache=fresh).compile(tiny_cnn_graph)
        assert warm.stats["allocator_solves"] == 0
        assert fresh.stats.disk_hits > 0
        assert warm.end_to_end_cycles == cold.end_to_end_cycles
        assert [s.allocations for s in warm.segments] == [
            s.allocations for s in cold.segments
        ]

    def test_disk_hits_promote_into_memory(self, small_chip, tiny_mlp_graph, tmp_path):
        profiles = profile_graph(tiny_mlp_graph)
        options = dict(engine="milp", pipelined=True, refine=True,
                       allow_memory_mode=True, reserve_arrays=0)
        key = AllocationCache.make_key(profiles, small_chip, **options)
        DiskCacheStore(tmp_path).put(key, _entry(allocations=tuple((1, 0) for _ in profiles)))

        reader = AllocationCache(store=DiskCacheStore(tmp_path))
        assert reader.lookup(key, list(profiles)) is not None
        assert reader.stats.disk_hits == 1
        # Second lookup is served by the promoted in-memory entry.
        assert reader.lookup(key, list(profiles)) is not None
        assert reader.stats.disk_hits == 1 and reader.stats.hits == 2

    def test_cross_mode_hit_from_disk(self, small_chip, tiny_mlp_graph, tmp_path):
        """A memory-free dual-mode entry on disk serves a fixed-mode lookup."""
        profiles = profile_graph(tiny_mlp_graph)
        base = dict(engine="milp", pipelined=True, refine=True, reserve_arrays=0)
        dual_key = AllocationCache.make_key(profiles, small_chip, allow_memory_mode=True, **base)
        DiskCacheStore(tmp_path).put(dual_key, _entry(allocations=tuple((2, 0) for _ in profiles)))

        reader = AllocationCache(store=DiskCacheStore(tmp_path))
        fixed_key = AllocationCache.make_key(profiles, small_chip, allow_memory_mode=False, **base)
        hit = reader.lookup(fixed_key, list(profiles))
        assert hit is not None and hit.from_cache
        assert reader.stats.cross_mode_hits == 1 and reader.stats.disk_hits == 1

    def test_corrupt_store_never_breaks_a_compile(self, small_chip, tiny_cnn_graph, tmp_path):
        options = CompilerOptions(generate_code=False)
        writer = AllocationCache(store=DiskCacheStore(tmp_path))
        CMSwitchCompiler(small_chip, options, cache=writer).compile(tiny_cnn_graph)
        for path in Path(tmp_path).glob("*/*.json"):
            path.write_text("garbage", encoding="utf-8")
        fresh = AllocationCache(store=DiskCacheStore(tmp_path))
        program = CMSwitchCompiler(small_chip, options, cache=fresh).compile(tiny_cnn_graph)
        assert program.stats["allocator_solves"] > 0  # re-solved, not crashed
        assert fresh.store.stats.corrupt_entries > 0


def _hammer_store(root: str, reserve: int, rounds: int) -> None:
    """Worker: repeatedly write (and read back) one key in a shared store."""
    store = DiskCacheStore(root)
    key = _synthetic_key(reserve_arrays=reserve)
    entry = _entry()
    for _ in range(rounds):
        store.put(key, entry)
        got = store.get(key)
        assert got is None or got == entry


class TestConcurrentWriters:
    def test_two_processes_same_key(self, tmp_path):
        """Racing writers of the same key leave one complete, correct entry."""
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_hammer_store, args=(str(tmp_path), 0, 25))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        store = DiskCacheStore(tmp_path)
        assert store.get(_synthetic_key(reserve_arrays=0)) == _entry()
        assert len(store) == 1


class TestProcessBackend:
    def _jobs(self, small_chip):
        return [
            CompileJob("tiny-cnn", hardware=small_chip),
            CompileJob("no-such-model", hardware=small_chip),
            CompileJob("tiny-mlp", hardware=small_chip),
        ]

    def test_bit_identical_to_thread_backend(self, small_chip, tmp_path):
        """Acceptance: process backend == thread backend, result for result."""
        jobs = self._jobs(small_chip)
        thread = CompileService(cache_dir=tmp_path / "t").compile_batch(jobs)
        process = CompileService(
            backend="process", cache_dir=tmp_path / "p", max_workers=2
        ).compile_batch(jobs)
        assert [r.ok for r in thread] == [r.ok for r in process] == [True, False, True]
        for t, p in zip(thread, process):
            assert p.job is t.job  # original job objects restored
            if not t.ok:
                assert p.error and p.error_traceback
                continue
            assert p.program.end_to_end_cycles == t.program.end_to_end_cycles
            assert [s.allocations for s in p.program.segments] == [
                s.allocations for s in t.program.segments
            ]

    def test_workers_share_solves_through_disk_store(self, small_chip, tmp_path):
        service = CompileService(backend="process", cache_dir=tmp_path, max_workers=2)
        cold = service.compile_batch([CompileJob("tiny-cnn", hardware=small_chip)])
        assert cold[0].ok and cold[0].stats["allocator_solves"] > 0
        warm = service.compile_batch(
            [CompileJob("tiny-cnn", hardware=small_chip) for _ in range(2)]
        )
        assert all(r.ok for r in warm)
        assert sum(r.stats["allocator_solves"] for r in warm) == 0

    def test_graph_jobs_travel_by_serialization(self, small_chip, tiny_mlp_graph):
        results = CompileService(backend="process", max_workers=1).compile_batch(
            [CompileJob(tiny_mlp_graph, hardware=small_chip)]
        )
        assert results[0].ok
        assert results[0].job.model is tiny_mlp_graph
        reference = CMSwitchCompiler(
            small_chip, CompilerOptions(generate_code=False)
        ).compile(tiny_mlp_graph)
        assert results[0].program.end_to_end_cycles == reference.end_to_end_cycles

    def test_cache_and_cache_dir_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            CompileService(cache=AllocationCache(), cache_dir=tmp_path)

    def test_explicit_cache_with_store_is_honoured_by_workers(self, small_chip, tmp_path):
        """Workers pick up the disk store attached to an explicit cache."""
        cache = AllocationCache(store=DiskCacheStore(tmp_path))
        service = CompileService(cache=cache, backend="process", max_workers=1)
        cold = service.compile_batch([CompileJob("tiny-cnn", hardware=small_chip)])
        assert cold[0].ok and cold[0].stats["allocator_solves"] > 0
        assert len(cache.store) > 0  # workers wrote through the shared dir
        fresh_reader = AllocationCache(store=DiskCacheStore(tmp_path))
        warm = CompileService(cache=fresh_reader).compile_batch(
            [CompileJob("tiny-cnn", hardware=small_chip)]
        )
        assert warm[0].stats["allocator_solves"] == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            CompileService(backend="rocket")


class TestCrossProcessWarmStartCLI:
    def test_second_invocation_does_zero_solves(self, tmp_path):
        """Acceptance: a second *process* on the same --cache-dir solves nothing."""
        command = [
            sys.executable, "-m", "repro.cli", "compile-batch",
            "tiny-cnn", "--hardware", "small-test-chip",
            "--cache-dir", str(tmp_path),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        first = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300
        )
        assert first.returncode == 0, first.stderr
        second = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300
        )
        assert second.returncode == 0, second.stderr
        assert "total allocator solves: 0" in second.stdout


def _put_same_digest(root: str, rounds: int) -> None:
    """Worker: re-write (and read back) one fixed key while GC runs."""
    store = DiskCacheStore(root)
    key = _synthetic_key()
    entry = _entry()
    for _ in range(rounds):
        store.put(key, entry)
        got = store.get(key)
        # Pruned-away is fine (a miss); a *different* entry never is.
        assert got is None or got == entry


def _prune_repeatedly(root: str, rounds: int, max_bytes: int) -> None:
    """Worker: run the GC in a tight loop against racing writers."""
    store = DiskCacheStore(root)
    for _ in range(rounds):
        outcome = store.prune(max_bytes=max_bytes)
        assert outcome["removed_files"] >= 0


class TestPrunePutRace:
    """`prune()` racing `put()` on the same digest (ISSUE-9 satellite).

    The cache server runs GC while daemons write through to it, so a
    prune sweep deciding to delete a file just as a writer re-creates it
    must never surface a torn entry or an exception — only complete
    entries or clean misses — and the budget must hold once writers stop.
    """

    def test_prune_racing_put_same_digest(self, tmp_path):
        root = str(tmp_path)
        # A budget of one entry: every prune pass is eviction-happy, so
        # the delete-vs-recreate window is exercised constantly.
        entry_bytes = 512
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_put_same_digest, args=(root, 120)),
            ctx.Process(target=_put_same_digest, args=(root, 120)),
            ctx.Process(target=_prune_repeatedly, args=(root, 120, entry_bytes)),
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        # No torn entries: whatever survived parses back exactly.
        store = DiskCacheStore(root)
        got = store.get(_synthetic_key())
        assert got is None or got == _entry()
        # The budget is respected once the racing writers have stopped.
        store.prune(max_bytes=entry_bytes)
        assert store.usage()["bytes"] <= entry_bytes
        assert len(store) <= 1
