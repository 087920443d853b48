"""Tests for the on-disk program store.

The store maps one program key (graph, chip, options, compiler) to one
bit-exact encoded ``CompiledProgram``.  Covered here: fingerprint-exact
round trips over a zoo sample x the option matrix x who wrote the
directory (this process or another), a disk-warm compile that never
reaches the allocator, the statistics of a served program, every
on-disk fault degrading to a counted miss plus a normal compile, eviction and pruning (over a directory that still holds
version-3 window files too), concurrent same-key writers from two
processes, and a second CLI process warm-starting from the first's
directory.
"""

from __future__ import annotations

import errno
import functools
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.api import Session
from repro.core import (
    SYSTEM_CLOCK,
    AllocationCache,
    CMSwitchCompiler,
    CompilerOptions,
    DiskCacheStore,
    ManualClock,
)
from repro.core.program import RenderedMetaProgram, program_to_payload
from repro.core.store import FORMAT_VERSION, ProgramKey
from repro.hardware import get_preset, small_test_chip
from repro.models import Workload, build_model, list_models
from repro.obs import Observability
from repro.service import CompileJob, CompileService

REPO_ROOT = Path(__file__).resolve().parent.parent


def _key(n: int = 0, **overrides) -> ProgramKey:
    """A structurally plausible key without building a graph.

    ``n`` numbers the graph digest, so ``_key(0)``, ``_key(1)``, ... are
    distinct programs of one chip under one set of options.
    """
    payload = {
        "graph": f"{n:064x}",
        "hardware": "feedfacefeedface",
        "options": asdict(CompilerOptions()),
        "compiler": "cmswitch",
    }
    payload.update(overrides)
    return ProgramKey(payload)


@functools.lru_cache(maxsize=None)
def _program():
    """One real compiled program (meta-operator flow included)."""
    return CMSwitchCompiler(small_test_chip(), CompilerOptions()).compile(
        build_model("tiny-mlp", Workload(batch_size=1))
    )


def _entry_file(store: DiskCacheStore, key: ProgramKey) -> Path:
    return store.root / key.digest[:2] / f"{key.digest}.json"


def _same(got, program) -> bool:
    """Whether ``got`` is ``program`` as far as the fingerprint can see."""
    return got is not None and got.fingerprint() == program.fingerprint()


#: A format-version-3 entry: one allocation *window*, as the store held
#: before it was re-levelled to programs.
_V3_WINDOW_ENTRY = {
    "format_version": 3,
    "key": {
        "hardware": "feedfacefeedface",
        "segment": [["linear", 1024, 32, 32, 1024, 1024, 32, 0, True, 1, 32, 32]],
        "engine": "exact",
        "pipelined": True,
        "refine": True,
        "allow_memory_mode": True,
        "reserve_arrays": 0,
        "inbound_arrays": 0,
    },
    "entry": {
        "allocations": [[2, 1]],
        "latency_cycles": (123.5).hex(),
        "feasible": True,
        "solver": "exact",
    },
}


def _plant_v3_window_files(root: Path, count: int) -> None:
    """Leave ``count`` version-3 window files where a v3 store kept them."""
    for n in range(count):
        digest = f"ab{n:062x}"
        path = root / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_V3_WINDOW_ENTRY), encoding="utf-8")


class TestDiskCacheStore:
    def test_roundtrip(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key, program = _key(), _program()
        assert store.get(key) is None
        store.put(key, program)
        got = store.get(key)
        assert _same(got, program)
        # The entry comes back exactly as written: plan, report payload
        # and the flow as its rendered text.
        assert got.stats == program.stats
        assert got.end_to_end_cycles == program.end_to_end_cycles
        assert isinstance(got.meta_program, RenderedMetaProgram)
        assert got.meta_program.render() == program.meta_program.render()
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert len(store) == 1

    def test_digest_is_stable_across_instances(self, tmp_path):
        assert _key().digest == _key().digest
        assert _key().digest != _key(compiler="cim-mlc").digest
        assert _key() == _key() and _key() != _key(1)

    def test_every_key_field_is_part_of_the_content_address(self, small_chip):
        graph = build_model("tiny-mlp", Workload(batch_size=1))
        options = CompilerOptions()
        base = ProgramKey.build(graph, small_chip, options, "cmswitch")
        rebuilt = build_model("tiny-mlp", Workload(batch_size=1))
        assert ProgramKey.build(rebuilt, small_chip, options, "cmswitch").digest == base.digest
        others = [
            ProgramKey.build(
                build_model("tiny-mlp", Workload(batch_size=2)), small_chip, options, "cmswitch"
            ),
            ProgramKey.build(graph, get_preset("dynaplasia"), options, "cmswitch"),
            ProgramKey.build(graph, small_chip, options, "cim-mlc"),
        ]
        # Every option is part of the address — the ones that only
        # change the artefact (``generate_code``) included.
        for name, value in asdict(options).items():
            flipped = (not value) if isinstance(value, bool) else value + 1
            changed = CompilerOptions(**{**asdict(options), name: flipped})
            others.append(ProgramKey.build(graph, small_chip, changed, "cmswitch"))
        digests = {key.digest for key in others}
        assert len(digests) == len(others) and base.digest not in digests

    def test_corrupted_entry_is_miss_not_crash(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = _key()
        store.put(key, _program())
        _entry_file(store, key).write_text("{ this is not json", encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1
        # The store recovers: a fresh put repairs the entry.
        store.put(key, _program())
        assert _same(store.get(key), _program())

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.99], ids=["empty", "half", "tail"])
    def test_truncated_entry_is_a_counted_miss(self, tmp_path, keep):
        store = DiskCacheStore(tmp_path)
        key = _key()
        store.put(key, _program())
        path = _entry_file(store, key)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: int(len(text) * keep)], encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1 and store.stats.misses == 1

    def test_type_mangled_entry_is_miss(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = _key()
        store.put(key, _program())
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["program"]["segments"] = "not-a-list-of-segments"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda program: "not-an-object",
            lambda program: None,
            lambda program: {k: v for k, v in program.items() if k != "hardware"},
            lambda program: {
                **program,
                "segments": [
                    {**program["segments"][0], "allocations": {"op": [1]}},
                    *program["segments"][1:],
                ],
            },
            lambda program: {**program, "meta_program": 7},
            lambda program: {
                **program,
                "segments": [{**program["segments"][0], "intra_cycles": "0xnothex"}],
            },
        ],
        ids=["string", "null", "truncated", "bad-pair", "bad-type", "bad-float"],
    )
    def test_mangled_program_is_a_corrupt_miss(self, tmp_path, mangle):
        store = DiskCacheStore(tmp_path)
        key = _key()
        store.put(key, _program())
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["program"] = mangle(payload["program"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None  # never half a program
        assert store.stats.corrupt_entries == 1 and store.stats.hits == 0

    def test_newer_version_rejected_and_left_in_place(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = _key()
        store.put(key, _program())
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.version_rejections == 1
        # A newer writer's file must survive an older reader.
        assert path.exists()

    def test_v1_entry_is_rejected_and_counted_never_served(self, tmp_path):
        """Formats 1–3 held allocation windows; even planted at the
        address today's reader probes, such an entry is a counted
        version rejection, not a program."""
        assert FORMAT_VERSION == 4
        store = DiskCacheStore(tmp_path)
        key = _key()
        path = _entry_file(store, key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({**_V3_WINDOW_ENTRY, "format_version": 1}), encoding="utf-8"
        )
        assert store.get(key) is None
        assert store.stats.version_rejections == 1
        assert store.stats.hits == 0 and store.stats.corrupt_entries == 0
        # An obsolete entry may be overwritten; the rewrite is served.
        store.put(key, _program())
        assert _same(store.get(key), _program())

    def test_v2_directory_is_all_misses(self, tmp_path):
        """A directory of version-2 and version-3 window entries reads as
        empty — counted, never an error or a hit."""
        store = DiskCacheStore(tmp_path)
        keys = [_key(n) for n in range(4)]
        for n, key in enumerate(keys):
            path = _entry_file(store, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps({**_V3_WINDOW_ENTRY, "format_version": 2 + n % 2}),
                encoding="utf-8",
            )
        assert [store.get(key) for key in keys] == [None] * 4
        assert store.stats.version_rejections == 4
        assert store.stats.hits == 0 and store.stats.corrupt_entries == 0

    def test_foreign_key_payload_is_miss(self, tmp_path):
        """A file whose stored key disagrees with its name is never served."""
        store = DiskCacheStore(tmp_path)
        key, other = _key(), _key(1)
        store.put(other, _program())
        source = _entry_file(store, other)
        target = _entry_file(store, key)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())  # entry copied to the wrong name
        assert store.get(key) is None
        assert store.stats.misses == 1 and store.stats.hits == 0

    def test_eviction_under_tiny_budget(self, tmp_path):
        program = _program()
        probe = DiskCacheStore(tmp_path / "probe")
        probe.put(_key(), program)
        entry_bytes = probe.total_bytes()

        store = DiskCacheStore(tmp_path / "store", max_bytes=2 * entry_bytes)
        for n in range(6):
            store.put(_key(n), program)
            stamp = 1_700_000_000.0 + n  # strictly increasing mtimes
            os.utime(_entry_file(store, _key(n)), (stamp, stamp))
        assert store.stats.evictions > 0
        assert store.total_bytes() <= store.max_bytes
        assert len(store) <= 2
        # The newest entry survives (eviction is oldest-first).
        assert _same(store.get(_key(5)), program)

    def test_eviction_and_prune_see_leftover_v3_window_files(self, tmp_path):
        """Window files a version-3 store left behind are dead weight the
        size bound evicts first (they are the oldest) and a TTL prunes."""
        program = _program()
        probe = DiskCacheStore(tmp_path / "probe")
        probe.put(_key(), program)
        entry_bytes = probe.total_bytes()

        root = tmp_path / "store"
        _plant_v3_window_files(root, 5)
        old = 1_600_000_000.0
        for path in root.glob("*/*.json"):
            os.utime(path, (old, old))
        store = DiskCacheStore(root, max_bytes=entry_bytes + 64)
        assert store.usage()["files"] == 5
        store.put(_key(), program)
        assert store.stats.evictions == 5
        assert len(store) == 1 and _same(store.get(_key()), program)

        _plant_v3_window_files(root, 3)
        for path in root.glob("ab/*.json"):
            os.utime(path, (old, old))
        outcome = store.prune(max_age_seconds=24 * 3600)
        assert outcome["removed_files"] == 3 and outcome["remaining_files"] == 1
        assert _same(store.get(_key()), program)

    @pytest.mark.parametrize(
        "target, error",
        [
            ("tempfile.mkstemp", PermissionError(errno.EACCES, "read-only directory")),
            ("os.replace", OSError(errno.ENOSPC, "no space left on device")),
        ],
        ids=["unwritable", "enospc"],
    )
    def test_put_swallows_filesystem_errors(self, tmp_path, monkeypatch, target, error):
        def fail(*args, **kwargs):
            raise error

        store = DiskCacheStore(tmp_path)
        monkeypatch.setattr(target, fail)
        store.put(_key(), _program())  # must not raise
        monkeypatch.undo()
        assert store.stats.stores == 0
        assert store.get(_key()) is None
        assert list(tmp_path.glob("*/*")) == []  # no partial or tmp file left

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCacheStore(tmp_path, max_bytes=0)

    def test_clear(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(_key(), _program())
        store.clear()
        assert len(store) == 0 and store.total_bytes() == 0
        assert store.get(_key()) is None


class TestClockDrivenGC:
    """TTL maintenance runs off an injected clock — no real time, no sleeps."""

    EPOCH = 1_700_000_000.0  # arbitrary fixed "now"

    def _store_with_aged_entries(self, root, clock):
        """Three entries whose mtimes sit 0 h / 2 h / 50 h in the past."""
        store = DiskCacheStore(root, clock=clock)
        ages_hours = {0: 0.0, 1: 2.0, 2: 50.0}
        for n, age in ages_hours.items():
            store.put(_key(n), _program())
            stamp = clock.now() - age * 3600.0
            os.utime(_entry_file(store, _key(n)), (stamp, stamp))
        return store

    def test_prune_ttl_uses_injected_clock(self, tmp_path):
        clock = ManualClock(start=self.EPOCH)
        store = self._store_with_aged_entries(tmp_path, clock)
        outcome = store.prune(max_age_seconds=24 * 3600)
        assert outcome["removed_files"] == 1  # only the 50 h entry
        assert outcome["remaining_files"] == 2
        assert store.get(_key(2)) is None
        assert _same(store.get(_key(1)), _program())

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


# ---------------------------------------------------------------------- #
# the store behind CompileService / Session
# ---------------------------------------------------------------------- #
#: (model, chip) sample of the zoo: the three tiny models on the test
#: chip plus one paper-scale transformer on the paper's chip.
ZOO_SAMPLE = (
    ("tiny-mlp", "small-test-chip"),
    ("tiny-cnn", "small-test-chip"),
    ("tiny-transformer", "small-test-chip"),
    ("bert", "dynaplasia"),
)
OPTION_MATRIX = (
    {},
    {"refine": False},
    {"pipelined": False},
    {"include_switch_cost": False},
    {"allow_memory_mode": False},
    {"generate_code": False},
)
_WORKLOAD = Workload(batch_size=1, seq_len=16)


def _matrix_jobs():
    return [
        CompileJob(
            model, workload=_WORKLOAD, hardware=chip, options=CompilerOptions(**overrides)
        )
        for model, chip in ZOO_SAMPLE
        for overrides in OPTION_MATRIX
    ]


@pytest.fixture(scope="module")
def matrix_cold():
    """Fingerprints of the matrix compiled with no store anywhere."""
    return [
        CMSwitchCompiler(job.resolve_hardware(), job.options)
        .compile(job.resolve_graph())
        .fingerprint()
        for job in _matrix_jobs()
    ]


class TestTwoTierCache:
    """The two tiers after the re-level: windows in memory, programs on disk."""

    def test_disk_warm_start_compiles_with_zero_solves(
        self, small_chip, tiny_cnn_graph, tmp_path
    ):
        """Acceptance: a cold process pointed at a warmed dir does 0 solves."""
        options = CompilerOptions(generate_code=False)
        writer = CompileService(cache_dir=tmp_path)
        cold = writer.compile_graph(tiny_cnn_graph, small_chip, options)
        assert cold.stats["allocator_solves"] > 0
        assert writer.store.stats.stores == 1

        # A fresh service (fresh memory cache, fresh store object)
        # simulates a brand-new process.
        fresh = CompileService(cache_dir=tmp_path)
        warm = fresh.compile_graph(tiny_cnn_graph, small_chip, options)
        assert warm.stats["allocator_solves"] == 0
        assert fresh.store.stats.hits == 1
        assert fresh.cache.stats.lookups == 0  # no window was even asked for
        assert warm.end_to_end_cycles == cold.end_to_end_cycles
        assert [s.allocations for s in warm.segments] == [
            s.allocations for s in cold.segments
        ]

    def test_corrupt_store_never_breaks_a_compile(self, small_chip, tiny_cnn_graph, tmp_path):
        options = CompilerOptions(generate_code=False)
        CompileService(cache_dir=tmp_path).compile_graph(tiny_cnn_graph, small_chip, options)
        for path in Path(tmp_path).glob("*/*.json"):
            path.write_text("garbage", encoding="utf-8")
        fresh = CompileService(cache_dir=tmp_path)
        program = fresh.compile_graph(tiny_cnn_graph, small_chip, options)
        assert program.stats["allocator_solves"] > 0  # re-compiled, not crashed
        assert fresh.store.stats.corrupt_entries == 1
        # The recompile repaired the entry.
        assert CompileService(cache_dir=tmp_path).compile_graph(
            tiny_cnn_graph, small_chip, options
        ).stats["allocator_solves"] == 0


def _populate_store(root: str) -> None:
    """Child-process body: compile the matrix into the store at ``root``."""
    written = CompileService(cache_dir=root).compile_batch(_matrix_jobs())
    assert all(r.ok and r.stats["allocation_disk_hits"] == 0 for r in written)


class TestProgramStore:
    @pytest.mark.parametrize("writer", ["thread", "process"])
    def test_round_trip_is_fingerprint_identical(self, writer, matrix_cold, tmp_path):
        """Acceptance: zoo sample x option matrix x who wrote the directory.

        ``thread``: this process populated it; ``process``: another
        process did (several processes over one ``cache_dir`` is how
        several cores are used).  Either way a fresh session reads back
        exactly the cold compile's programs, solving nothing.
        """
        jobs = _matrix_jobs()
        if writer == "process":
            child = multiprocessing.get_context("fork").Process(
                target=_populate_store, args=(str(tmp_path),)
            )
            child.start()
            child.join(timeout=120)
            assert child.exitcode == 0
        else:
            written = CompileService(cache_dir=tmp_path).compile_batch(jobs)
            assert [r.program.fingerprint() for r in written] == matrix_cold
            assert all(r.stats["allocation_disk_hits"] == 0 for r in written)
        assert len(DiskCacheStore(tmp_path)) == len(jobs)

        with Session(cache_dir=tmp_path) as session:
            for job, cold in zip(jobs, matrix_cold):
                program = session.compile(
                    job.resolve_graph(), hardware=job.resolve_hardware(), options=job.options
                )
                assert program.fingerprint() == cold, job.describe()
                assert program.stats["allocator_solves"] == 0
            assert session.store.stats.hits == len(jobs)
            assert session.store.stats.misses == 0 and session.store.stats.stores == 0

    def test_disk_warm_compile_never_reaches_the_allocator(
        self, small_chip, tiny_cnn_graph, tmp_path, monkeypatch
    ):
        """One store read, zero ``allocate_segment`` calls."""
        import repro.core.segmentation as segmentation

        with Session(hardware=small_chip, cache_dir=tmp_path) as session:
            cold = session.compile(tiny_cnn_graph)

        def tripwire(*args, **kwargs):
            raise AssertionError("a disk-warm compile called allocate_segment")

        reads = []
        real_get = DiskCacheStore.get

        def counting_get(self, key):
            reads.append(key)
            return real_get(self, key)

        monkeypatch.setattr(segmentation, "allocate_segment", tripwire)
        monkeypatch.setattr(DiskCacheStore, "get", counting_get)
        with Session(hardware=small_chip, cache_dir=tmp_path) as session:
            warm = session.compile(tiny_cnn_graph)
        assert len(reads) == 1
        assert warm.fingerprint() == cold.fingerprint()

    def test_served_program_reports_the_call_that_returned_it(
        self, small_chip, tiny_cnn_graph, tmp_path
    ):
        options = CompilerOptions()
        cold = CompileService(cache_dir=tmp_path).compile_graph(
            tiny_cnn_graph, small_chip, options
        )
        # A fresh compile read nothing from disk and says so.
        assert cold.stats["allocation_disk_hits"] == 0
        assert cold.stats["allocator_solves"] > 0 and cold.stats["pass_seconds"]

        served = CompileService(cache_dir=tmp_path).compile_graph(
            tiny_cnn_graph, small_chip, options
        )
        segments = len(served.segments)
        assert served.stats["allocator_solves"] == 0
        assert served.stats["allocation_cache_hits"] == segments
        assert served.stats["allocation_disk_hits"] == segments
        assert served.stats["allocation_cache_hit_rate"] == 1.0
        assert served.stats["pass_seconds"] == {} and "pass_events" not in served.stats
        assert served.stats["wall_seconds"] == served.compile_seconds
        assert 0.0 < served.compile_seconds < cold.compile_seconds
        assert served.metadata["allocation_calls"] == 0
        assert served.metadata["dp_seconds"] == 0.0
        assert served.metadata["passes"] == []
        # Plan-derived entries are the writer's.
        for name in set(cold.stats) - {
            "allocator_solves", "allocation_cache_hits", "allocation_disk_hits",
            "allocation_cache_hit_rate", "wall_seconds", "pass_seconds",
        }:
            assert served.stats[name] == cold.stats[name], name
        # The entry itself still describes the compile that wrote it.
        stored = DiskCacheStore(tmp_path).get(
            ProgramKey.build(tiny_cnn_graph, small_chip, options, "cmswitch")
        )
        assert stored.stats["allocator_solves"] == cold.stats["allocator_solves"]

    def test_encoding_is_byte_identical_to_the_asdict_rendering(self):
        """The encoder reads the flat records by field name; no byte may move.

        Reference: ``dataclasses.asdict`` over each profile and resources
        record, which is how format version 4 / wire version 1 were
        defined.  Every zoo program on the test chip, JSON text compared
        in emission order (stricter than the store's sorted rendering).
        """
        from repro.serve.wire import WIRE_VERSION

        assert (FORMAT_VERSION, WIRE_VERSION) == (4, 1)
        options = CompilerOptions(generate_code=False)
        with Session(hardware="small-test-chip", options=options) as session:
            for model in list_models():
                program = session.compile(model)
                payload = program_to_payload(program)
                reference = dict(
                    payload,
                    segments=[
                        dict(
                            encoded,
                            profiles={
                                name: asdict(profile)
                                for name, profile in segment.profiles.items()
                            },
                            resources=(
                                None if segment.resources is None
                                else asdict(segment.resources)
                            ),
                        )
                        for encoded, segment in zip(payload["segments"], program.segments)
                    ],
                )
                assert json.dumps(payload) == json.dumps(reference), model

    def test_store_hit_is_promoted_to_the_program_table(
        self, small_chip, tiny_cnn_graph, tmp_path
    ):
        """Fresh service, populated directory: disk once, memory after."""
        options = CompilerOptions()
        cold = CompileService(cache_dir=tmp_path).compile_graph(
            tiny_cnn_graph, small_chip, options
        )
        obs = Observability.create()
        fresh = CompileService(cache_dir=tmp_path, obs=obs)
        first = fresh.compile_graph(tiny_cnn_graph, small_chip, options)
        segments = len(first.segments)
        assert fresh.store.stats.hits == 1
        assert first.stats["allocation_disk_hits"] == segments
        second = fresh.compile_graph(tiny_cnn_graph, small_chip, options)
        assert fresh.store.stats.hits == 1 and fresh.store.stats.misses == 0
        assert second.stats["allocator_solves"] == 0
        assert second.stats["allocation_cache_hits"] == segments
        assert second.stats["allocation_disk_hits"] == 0
        assert second.fingerprint() == first.fingerprint() == cold.fingerprint()
        # What came from disk stays text-only, also from the table.
        assert isinstance(second.meta_program, RenderedMetaProgram)
        assert fresh.store.stats.stores == 0 and fresh.cache.stats.lookups == 0
        counters = obs.metrics.to_dict()["counters"]
        assert counters["programs.disk_promotions"] == 1
        assert counters["programs.hits"] == 1 and "programs.misses" not in counters

    @pytest.mark.parametrize(
        "fault, counter",
        [
            ("truncated", "corrupt_entries"),
            ("zero-length", "corrupt_entries"),
            ("foreign", "misses"),
            ("version-3", "version_rejections"),
            ("version-5", "version_rejections"),
        ],
    )
    def test_bad_entry_is_a_counted_miss_and_a_normal_compile(
        self, small_chip, tiny_cnn_graph, tiny_mlp_graph, tmp_path, fault, counter
    ):
        """ROADMAP 4(c): every bad entry is a counted miss and a normal compile."""
        options = CompilerOptions(generate_code=False)
        writer = CompileService(cache_dir=tmp_path)
        cold = writer.compile_graph(tiny_cnn_graph, small_chip, options)
        key = ProgramKey.build(tiny_cnn_graph, small_chip, options, "cmswitch")
        path = _entry_file(writer.store, key)
        text = path.read_text(encoding="utf-8")
        if fault == "truncated":
            path.write_text(text[: len(text) // 2], encoding="utf-8")
        elif fault == "zero-length":
            path.write_text("", encoding="utf-8")
        elif fault == "foreign":
            # Another key's complete, valid entry under this digest's name.
            writer.compile_graph(tiny_mlp_graph, small_chip, options)
            other = ProgramKey.build(tiny_mlp_graph, small_chip, options, "cmswitch")
            path.write_bytes(_entry_file(writer.store, other).read_bytes())
        elif fault == "version-3":
            path.write_text(json.dumps(_V3_WINDOW_ENTRY), encoding="utf-8")
        else:
            payload = json.loads(text)
            payload["format_version"] = FORMAT_VERSION + 1
            path.write_text(json.dumps(payload), encoding="utf-8")

        fresh = CompileService(cache_dir=tmp_path)
        program = fresh.compile_graph(tiny_cnn_graph, small_chip, options)
        assert program.stats["allocator_solves"] > 0  # re-compiled, not crashed
        assert program.stats["allocation_disk_hits"] == 0
        assert program.fingerprint() == cold.fingerprint()
        assert getattr(fresh.store.stats, counter) == 1
        assert fresh.store.stats.misses == 1 and fresh.store.stats.hits == 0

    @pytest.mark.parametrize(
        "target, error",
        [
            ("tempfile.mkstemp", PermissionError(errno.EACCES, "read-only directory")),
            ("os.replace", OSError(errno.ENOSPC, "no space left on device")),
        ],
        ids=["unwritable", "enospc"],
    )
    def test_unwritable_store_never_breaks_a_compile(
        self, small_chip, tiny_cnn_graph, tmp_path, monkeypatch, target, error
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(target, fail)
        service = CompileService(cache_dir=tmp_path)
        program = service.compile_graph(
            tiny_cnn_graph, small_chip, CompilerOptions(generate_code=False)
        )
        assert program.stats["allocator_solves"] > 0
        assert service.store.stats.stores == 0 and len(service.store) == 0

    def test_failed_compile_stores_nothing(
        self, small_chip, tiny_cnn_graph, tmp_path, monkeypatch
    ):
        from repro.core.segmentation import NoFeasiblePlanError

        def no_plan(self, graph):
            raise NoFeasiblePlanError("nope")

        monkeypatch.setattr(CMSwitchCompiler, "compile", no_plan)
        service = CompileService(cache_dir=tmp_path)
        # Raised again on the repeat: neither tier remembers a failure.
        for attempt in (1, 2):
            with pytest.raises(NoFeasiblePlanError):
                service.compile_graph(tiny_cnn_graph, small_chip, CompilerOptions())
            assert service.store.stats.misses == attempt
        assert len(service.store) == 0 and len(service.programs) == 0

    def test_the_window_knobs_are_gone(self, tmp_path):
        """No spelling selects window persistence any more."""
        with pytest.raises(TypeError, match="store"):
            AllocationCache(store=DiskCacheStore(tmp_path))
        assert not hasattr(AllocationCache(), "store")
        assert CompileService().store is None
        assert CompileService(cache_dir=tmp_path, use_cache=False).store is None

    def test_cache_and_cache_dir_combine(self, small_chip, tmp_path):
        """An explicit memory cache and a program store are independent."""
        cache = AllocationCache()
        service = CompileService(cache=cache, cache_dir=tmp_path)
        assert service.cache is cache and service.store is not None
        first = service.compile(CompileJob("tiny-cnn", hardware=small_chip))
        assert first.ok and cache.stats.stores > 0 and service.store.stats.stores == 1
        # The same service again: its program table answers before the
        # store or the windows do.
        lookups = cache.stats.lookups
        second = service.compile(CompileJob("tiny-cnn", hardware=small_chip))
        assert second.stats["allocator_solves"] == 0
        assert second.stats["allocation_disk_hits"] == 0
        assert cache.stats.lookups == lookups and service.store.stats.hits == 0
        # The store is read on the *first* compile of a fresh service.
        fresh = CompileService(cache=AllocationCache(), cache_dir=tmp_path)
        third = fresh.compile(CompileJob("tiny-cnn", hardware=small_chip))
        assert third.stats["allocation_disk_hits"] > 0
        assert fresh.store.stats.hits == 1 and fresh.cache.stats.lookups == 0


def _hammer_store(root: str, n: int, rounds: int) -> None:
    """Worker: repeatedly write (and read back) one key in a shared store."""
    store = DiskCacheStore(root)
    key, program = _key(n), _program()
    for _ in range(rounds):
        store.put(key, program)
        got = store.get(key)
        assert got is None or _same(got, program)


class TestConcurrentWriters:
    def test_two_processes_same_key(self, tmp_path):
        """Racing writers of the same key leave one complete, correct entry."""
        _program()  # compiled once, inherited by the forks
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
        assert _same(store.get(_key(0)), _program())
        assert len(store) == 1
        assert list(tmp_path.glob("*/.*.tmp")) == []


class TestCrossProcessWarmStartCLI:
    def test_second_invocation_does_zero_solves(self, tmp_path):
        """Acceptance: a second *process* on the same --cache-dir solves nothing."""
        command = [
            sys.executable, "-m", "repro.cli", "compile-batch",
            "tiny-cnn", "tiny-mlp", "--hardware", "small-test-chip",
            "--cache-dir", str(tmp_path),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        run = functools.partial(
            subprocess.run, capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=300,
        )
        first = run(command)
        assert first.returncode == 0, first.stderr
        assert "pass wall time:" in first.stdout
        second = run(command)
        assert second.returncode == 0, second.stderr
        assert "total allocator solves: 0" in second.stdout
        assert "disk store: 2 hits, 0 stores" in second.stdout
        stats = run(
            [sys.executable, "-m", "repro.cli", "cache", "stats", "--cache-dir", str(tmp_path)]
        )
        assert stats.returncode == 0, stats.stderr
        assert "cache: 2 entries" in stats.stdout  # one per compiled model


def _put_same_digest(root: str, rounds: int) -> None:
    """Worker: re-write (and read back) one fixed key while GC runs."""
    store = DiskCacheStore(root)
    key, program = _key(), _program()
    for _ in range(rounds):
        store.put(key, program)
        got = store.get(key)
        # Pruned-away is fine (a miss); a *different* entry never is.
        assert got is None or _same(got, program)


def _prune_repeatedly(root: str, rounds: int, max_bytes: int) -> None:
    """Worker: run the GC in a tight loop against racing writers."""
    store = DiskCacheStore(root)
    for _ in range(rounds):
        outcome = store.prune(max_bytes=max_bytes)
        assert outcome["removed_files"] >= 0


class TestPrunePutRace:
    """`prune()` racing `put()` on the same digest.

    A maintenance job may run GC while compiles write to the directory,
    so a prune sweep deciding to delete a file just as a writer
    re-creates it must never surface a torn entry or an exception — only
    complete entries or clean misses — and the budget must hold once
    writers stop.
    """

    def test_prune_racing_put_same_digest(self, tmp_path):
        root = str(tmp_path)
        _program()  # compiled once, inherited by the forks
        # A budget below one entry: every prune pass is eviction-happy,
        # so the delete-vs-recreate window is exercised constantly.
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
        got = store.get(_key())
        assert got is None or _same(got, _program())
        # The budget is respected once the racing writers have stopped.
        store.prune(max_bytes=entry_bytes)
        assert store.usage()["bytes"] <= entry_bytes
        assert len(store) <= 1
