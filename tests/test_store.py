"""Tests for the on-disk program store.

The store maps one program key (graph, chip, options, compiler) to one
bit-exact encoded ``CompiledProgram``.  Covered here: fingerprint-exact
round trips over a zoo sample x the option matrix x who wrote the
directory (this process or another), a disk-warm compile that never
reaches the allocator, the statistics of a served program, every
on-disk fault degrading to a counted miss plus a normal compile,
eviction and pruning (over a directory that still holds version-3
window files too), concurrent same-key writers from two processes, and
a second CLI process warm-starting from the first's directory.  The
encoding of every corpus program (byte for byte, and back) is a
property in ``tests/test_corpus.py``.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import hashlib
import json
import multiprocessing
import os
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.cli import main
from repro.core import (
    SYSTEM_CLOCK,
    AllocationCache,
    CMSwitchCompiler,
    CompilerOptions,
    DiskCacheStore,
    ManualClock,
)
from repro.core.program import RenderedMetaProgram
from repro.core.store import FORMAT_VERSION, ProgramKey
from repro.cost.arithmetic import OperatorProfile
from repro.cost.switching import SegmentResources
from repro.hardware import get_preset, small_test_chip
from repro.models import Workload, build_model
from repro.obs import Observability
from repro.service import CompileJob, CompileService


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


PROFILE_FIELDS = [f.name for f in fields(OperatorProfile)]
RESOURCES_FIELDS = [f.name for f in fields(SegmentResources)]


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
        base = ProgramKey.build(graph.digest(), small_chip, options, "cmswitch")
        rebuilt = build_model("tiny-mlp", Workload(batch_size=1))
        rebuilt_key = ProgramKey.build(rebuilt.digest(), small_chip, options, "cmswitch")
        assert rebuilt_key.digest == base.digest
        others = [
            ProgramKey.build(
                build_model("tiny-mlp", Workload(batch_size=2)).digest(),
                small_chip,
                options,
                "cmswitch",
            ),
            ProgramKey.build(graph.digest(), get_preset("dynaplasia"), options, "cmswitch"),
            ProgramKey.build(graph.digest(), small_chip, options, "cim-mlc"),
        ]
        # Every option is part of the address — the ones that only
        # change the artefact (``generate_code``) included.
        for name, value in asdict(options).items():
            flipped = (not value) if isinstance(value, bool) else value + 1
            changed = CompilerOptions(**{**asdict(options), name: flipped})
            others.append(ProgramKey.build(graph.digest(), small_chip, changed, "cmswitch"))
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
                    {
                        **program["segments"][0],
                        "allocations": [[1], *program["segments"][0]["allocations"][1:]],
                    },
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

    def test_v4_program_entry_is_rejected_and_overwritten(self, tmp_path):
        """Version 4 held programs of a compiler whose plans have since
        moved: one planted at the probed address is a counted version
        rejection, and the next ``put`` replaces it."""
        store = DiskCacheStore(tmp_path)
        key = _key()
        store.put(key, _program())
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**payload, "format_version": 4}), encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.version_rejections == 1
        assert store.stats.hits == 0 and store.stats.corrupt_entries == 0
        store.put(key, _program())
        assert json.loads(path.read_text(encoding="utf-8"))["format_version"] == FORMAT_VERSION
        assert _same(store.get(key), _program())

    @staticmethod
    def _plant_per_operator_entry(tmp_path, version: int):
        """A store holding ``_program()`` in the shape versions 5 and 6
        wrote: one profile object per operator (version 5 adds its
        ``name``), allocations and resources as objects."""
        store = DiskCacheStore(tmp_path)
        key = _key()
        store.put(key, _program())
        path = _entry_file(store, key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        program = payload["program"]
        table = [dict(zip(PROFILE_FIELDS, row)) for row in program.pop("profiles")]
        for segment in program["segments"]:
            names = segment["operator_names"]
            segment["allocations"] = dict(zip(names, segment["allocations"]))
            segment["profiles"] = {
                name: {**table[row], **({"name": name} if version == 5 else {})}
                for name, row in zip(names, segment["profiles"])
            }
            if segment["resources"] is not None:
                segment["resources"] = dict(zip(RESOURCES_FIELDS, segment["resources"]))
        path.write_text(json.dumps({**payload, "format_version": version}), encoding="utf-8")
        return store, key, path

    def _assert_rejected_and_overwritten(self, store, key, path):
        assert store.get(key) is None
        assert store.stats.version_rejections == 1
        assert store.stats.hits == 0 and store.stats.corrupt_entries == 0
        store.put(key, _program())
        rewritten = json.loads(path.read_text(encoding="utf-8"))
        assert rewritten["format_version"] == FORMAT_VERSION
        # No profile carries a name, and no operator an object of its own.
        assert all(len(row) == len(PROFILE_FIELDS) for row in rewritten["program"]["profiles"])
        assert all(
            isinstance(segment[field], list)
            for segment in rewritten["program"]["segments"]
            for field in ("allocations", "profiles")
        )
        assert _same(store.get(key), _program())

    def test_v5_program_entry_is_rejected_and_overwritten(self, tmp_path):
        """Version 5 stored a ``name`` in every operator profile: such an
        entry, planted at the probed address, is a counted version
        rejection (never a corrupt entry), and the next ``put`` writes
        the nameless profile table under the current version."""
        self._assert_rejected_and_overwritten(*self._plant_per_operator_entry(tmp_path, 5))

    def test_v6_program_entry_is_rejected_and_overwritten(self, tmp_path):
        """Version 6 stored one profile object per operator: a counted
        version rejection, rewritten as a table and positional segments."""
        self._assert_rejected_and_overwritten(*self._plant_per_operator_entry(tmp_path, 6))

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
        entry_bytes = probe.usage()["bytes"]

        store = DiskCacheStore(tmp_path / "store", max_bytes=2 * entry_bytes)
        for n in range(6):
            store.put(_key(n), program)
            stamp = 1_700_000_000.0 + n  # strictly increasing mtimes
            os.utime(_entry_file(store, _key(n)), (stamp, stamp))
        assert store.stats.evictions > 0
        assert store.usage()["bytes"] <= store.max_bytes
        assert len(store) <= 2
        # The newest entry survives (eviction is oldest-first).
        assert _same(store.get(_key(5)), program)

    def test_eviction_and_prune_see_leftover_v3_window_files(self, tmp_path):
        """Window files a version-3 store left behind are dead weight the
        size bound evicts first (they are the oldest) and a TTL prunes."""
        program = _program()
        probe = DiskCacheStore(tmp_path / "probe")
        probe.put(_key(), program)
        entry_bytes = probe.usage()["bytes"]

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
        assert len(store) == 0 and store.usage()["bytes"] == 0
        assert store.get(_key()) is None


class TestProgramKey:
    """The key's contract: hash from its fields, digest only when asked."""

    def test_equal_payloads_hash_equal_in_any_option_order(self):
        options = asdict(CompilerOptions())
        reordered = dict(reversed(list(options.items())))
        assert list(reordered) != list(options)
        key, other = _key(), _key(options=reordered)
        assert key == other and hash(key) == hash(other)
        assert key.digest == other.digest
        changed = _key(options={**options, "refine": False})
        assert changed != key and hash(changed) != hash(key)

    def test_build_reads_every_option(self, small_chip, tiny_mlp_graph):
        options = CompilerOptions(refine=False, max_segment_operators=5)
        key = ProgramKey.build(tiny_mlp_graph.digest(), small_chip, options, "cmswitch")
        assert key.payload == {
            "graph": tiny_mlp_graph.digest(),
            "hardware": small_chip.fingerprint(),
            "options": asdict(options),
            "compiler": "cmswitch",
        }
        assert key == ProgramKey(json.loads(json.dumps(key.payload)))

    def test_digest_is_the_sha256_of_the_canonical_payload(self, small_chip, tiny_mlp_graph):
        key = ProgramKey.build(
            tiny_mlp_graph.digest(), small_chip, CompilerOptions(), "cmswitch"
        )
        canonical = json.dumps(key.payload, sort_keys=True, separators=(",", ":"))
        assert key.digest == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert key.digest is key.digest  # rendered once

    @pytest.fixture
    def digests_rendered(self, monkeypatch):
        """Every ``hashlib.sha256`` call made by the store module."""
        import repro.core.store as store_module

        rendered = []

        def sha256(data=b""):
            rendered.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(store_module, "hashlib", SimpleNamespace(sha256=sha256))
        return rendered

    def test_a_table_hit_renders_no_digest(self, digests_rendered):
        graph = build_model("tiny-mlp", Workload(batch_size=1))
        with Session(hardware="small-test-chip") as session:
            session.compile(graph)
            warm = session.compile(graph)
        assert warm.stats["allocator_solves"] == 0 and digests_rendered == []

    def test_a_store_lookup_renders_the_digest_once(self, digests_rendered, tmp_path):
        graph = build_model("tiny-mlp", Workload(batch_size=1))
        with Session(hardware="small-test-chip", cache_dir=tmp_path) as session:
            session.compile(graph)  # store miss, then put: one key, one digest
            session.compile(graph)  # table hit
        assert len(digests_rendered) == 1

    def test_a_payload_names_every_option_or_is_refused(self):
        options = asdict(CompilerOptions())
        del options["refine"]
        with pytest.raises(ValueError, match="options"):
            _key(options=options)
        with pytest.raises(ValueError, match="options"):
            _key(options={**asdict(CompilerOptions()), "unknown": 1})

    @pytest.fixture
    def reflections(self, monkeypatch):
        """Every ``dataclasses.fields`` / ``dataclasses.replace`` call made
        through any name a ``repro`` module (or ``dataclasses``) binds them
        to, and every key payload rendered."""
        calls = []
        modules = [dataclasses] + [
            module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for function in (dataclasses.fields, dataclasses.replace):

            def counting(*args, _function=function, **kwargs):
                calls.append(_function.__name__)
                return _function(*args, **kwargs)

            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, name, counting)
        payload = ProgramKey.__dict__["payload"]

        def rendered(key):
            calls.append("payload")
            return payload.__get__(key, ProgramKey)

        # The setter keeps a key whose payload is a plain slot working.
        monkeypatch.setattr(
            ProgramKey, "payload", property(rendered, getattr(payload, "__set__", None))
        )
        return calls

    def test_a_table_hit_reflects_on_no_dataclass_and_renders_no_payload(self, reflections):
        """A hit is a tuple lookup and one shallow copy: no options dict,
        no ``dataclasses.fields``, no ``dataclasses.replace``."""
        graph = build_model("tiny-mlp", Workload(batch_size=1))
        with Session(hardware="small-test-chip") as session:
            cold = session.compile(graph)
            reflections.clear()
            warm = session.compile(graph)
        assert warm.stats["allocator_solves"] == 0 and reflections == []
        assert warm.fingerprint() == cold.fingerprint()
        assert warm.segments is not cold.segments and warm.stats is not cold.stats
        assert warm.metadata is not cold.metadata and vars(warm).keys() == vars(cold).keys()


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
        clock.advance_to(clock.now() + 24 * 3600)
        assert store.prune(max_age_seconds=3 * 3600)["removed_files"] == 2
        assert len(store) == 0

    def test_a_week_on_the_clock_expires_every_entry(self, tmp_path):
        """The TTL's reference time is the store's clock alone: a week
        later a 60 h TTL removes every entry."""
        clock = ManualClock(start=self.EPOCH)
        store = self._store_with_aged_entries(tmp_path, clock)
        clock.advance_to(self.EPOCH + 7 * 24 * 3600)
        outcome = store.prune(max_age_seconds=60 * 3600)
        assert outcome["removed_files"] == 3 and outcome["remaining_files"] == 0
        with pytest.raises(TypeError):
            store.prune(max_age_seconds=60 * 3600, now=self.EPOCH)

    def test_manual_clock_refuses_to_run_backwards(self):
        clock = ManualClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)
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
        assert [(s.operator_names, s.pairs) for s in warm.segments] == [
            (s.operator_names, s.pairs) for s in cold.segments
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
        # The stats are the one record of the call: no metadata mirrors them.
        for mirror in ("allocation_calls", "dp_seconds", "passes"):
            assert mirror not in served.metadata and mirror not in cold.metadata
        # Plan-derived entries are the writer's.
        for name in set(cold.stats) - {
            "allocator_solves", "allocation_cache_hits", "allocation_disk_hits",
            "allocation_cache_hit_rate", "wall_seconds", "pass_seconds",
        }:
            assert served.stats[name] == cold.stats[name], name
        # The entry itself still describes the compile that wrote it.
        stored = DiskCacheStore(tmp_path).get(
            ProgramKey.build(tiny_cnn_graph.digest(), small_chip, options, "cmswitch")
        )
        assert stored.stats["allocator_solves"] == cold.stats["allocator_solves"]

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
        key = ProgramKey.build(tiny_cnn_graph.digest(), small_chip, options, "cmswitch")
        path = _entry_file(writer.store, key)
        text = path.read_text(encoding="utf-8")
        if fault == "truncated":
            path.write_text(text[: len(text) // 2], encoding="utf-8")
        elif fault == "zero-length":
            path.write_text("", encoding="utf-8")
        elif fault == "foreign":
            # Another key's complete, valid entry under this digest's name.
            writer.compile_graph(tiny_mlp_graph, small_chip, options)
            other = ProgramKey.build(tiny_mlp_graph.digest(), small_chip, options, "cmswitch")
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
        def broken(self, graph):
            raise RuntimeError("nope")

        monkeypatch.setattr(CMSwitchCompiler, "compile", broken)
        service = CompileService(cache_dir=tmp_path)
        # Raised again on the repeat: neither tier remembers a failure.
        for attempt in (1, 2):
            with pytest.raises(RuntimeError, match="nope"):
                service.compile_graph(tiny_cnn_graph, small_chip, CompilerOptions())
            assert service.store.stats.misses == attempt
        assert len(service.store) == 0 and len(service.programs) == 0

    def test_the_window_knobs_are_gone(self, tmp_path):
        """No spelling selects window persistence any more."""
        with pytest.raises(TypeError, match="store"):
            AllocationCache(store=DiskCacheStore(tmp_path))
        assert not hasattr(AllocationCache(), "store")
        assert CompileService().store is None
        assert not any(tmp_path.iterdir())

    def test_cache_and_cache_dir_combine(self, small_chip, tmp_path):
        """The service's window table and its program store are independent."""
        service = CompileService(cache_dir=tmp_path)
        cache = service.cache
        assert service.store is not None
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
        fresh = CompileService(cache_dir=tmp_path)
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
    def test_second_invocation_does_zero_solves(self, tmp_path, capsys, cli_process):
        """Acceptance: a second *process* on the same --cache-dir solves
        nothing; a type-mangled entry (a list where a segment's profiles
        belong) is a counted corrupt miss and a recompile, never a crash."""
        command = [
            "compile-batch", "mobilenet", "bert", "--seq-len", "32", "--cache-dir", str(tmp_path)
        ]
        assert main(command) == 0
        cold = capsys.readouterr().out
        assert "total allocator solves: 0" not in cold
        assert re.search("pass wall time:.*segment", cold)
        warm = cli_process(*command)
        assert warm.returncode == 0, warm.stderr
        assert "total allocator solves: 0" in warm.stdout
        assert "disk store: 2 hits, 0 stores" in warm.stdout
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "cache: 2 entries" in capsys.readouterr().out  # one per compiled model
        path = sorted(tmp_path.glob("*/*.json"))[0]
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["program"]["segments"][0]["profiles"] = {"a": 1}
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert main(command) == 0
        solves = re.search(r"total allocator solves:.*?(\S+)$", capsys.readouterr().out, re.M)
        assert int(solves.group(1)) > 0


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
