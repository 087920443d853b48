"""Tests for the serving tier: wire format, coalescing, daemon.

Covers the ISSUE-9 acceptance surface: fingerprint-bit-identical wire
round trips, single-flight coalescing (exactly one allocator-solving
compile for N concurrent identical requests), the `Session` context
manager, and the batch JSON report; and the ISSUE-12 fast path: the
request-level result table, one write per response on `TCP_NODELAY`
sockets, the daemon's bounded tracer and shutdown of a server that never
served.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.core.compiler import CompilerOptions
from repro.models.workload import Phase, Workload
from repro.serve import (
    Client,
    CoalesceTimeout,
    CompileDaemon,
    CompileRequestError,
    SingleFlight,
    WireFormatError,
    job_from_wire,
    job_to_wire,
    program_from_wire,
    program_to_wire,
    request_fingerprint,
)
from repro.serve import daemon as daemon_module
from repro.serve.daemon import ResultTable
from repro.serve.httpbase import QuietHandler
from repro.serve.wire import WIRE_VERSION, check_version
from repro.service import CompileJob, CompileJobResult


@pytest.fixture()
def daemon(tmp_path):
    daemon = CompileDaemon(cache_dir=tmp_path / "daemon-cache", workers=2)
    daemon.start_background()
    yield daemon
    daemon.shutdown()


# ---------------------------------------------------------------------- #
# wire format
# ---------------------------------------------------------------------- #
class TestWireFormat:
    def test_job_roundtrip_by_name(self):
        job = CompileJob(
            "tiny-mlp",
            workload=Workload(batch_size=4, seq_len=32, phase=Phase.PREFILL),
            hardware="small-test-chip",
            options=CompilerOptions(generate_code=False),
            label="probe",
        )
        back = job_from_wire(job_to_wire(job))
        assert back.model == "tiny-mlp"
        assert back.workload == job.workload
        assert back.hardware == "small-test-chip"
        assert back.options == job.options
        assert back.label == "probe"

    def test_graph_job_travels_by_serialization(self, tiny_mlp_graph):
        job = CompileJob(tiny_mlp_graph)
        back = job_from_wire(job_to_wire(job))
        assert not isinstance(back.model, str)
        assert back.model.name == tiny_mlp_graph.name
        assert [op.name for op in back.model.operators] == [
            op.name for op in tiny_mlp_graph.operators
        ]

    def test_program_roundtrip_is_fingerprint_bit_identical(self, small_chip, tiny_mlp_graph):
        from repro.core.compiler import CMSwitchCompiler

        for generate_code in (False, True):
            program = CMSwitchCompiler(
                small_chip, CompilerOptions(generate_code=generate_code)
            ).compile(tiny_mlp_graph)
            back = program_from_wire(program_to_wire(program))
            assert back.fingerprint() == program.fingerprint()
            assert back.end_to_end_cycles == program.end_to_end_cycles
            assert back.num_segments == program.num_segments

    def test_wire_survives_json_serialisation(self, small_chip, tiny_mlp_graph):
        """The payload must survive an actual JSON encode/decode (floats!)."""
        from repro.core.compiler import CMSwitchCompiler

        program = CMSwitchCompiler(
            small_chip, CompilerOptions(generate_code=False)
        ).compile(tiny_mlp_graph)
        payload = json.loads(json.dumps(program_to_wire(program)))
        assert program_from_wire(payload).fingerprint() == program.fingerprint()

    def test_unknown_option_field_rejected(self):
        wire = job_to_wire(CompileJob("tiny-mlp", options=CompilerOptions()))
        wire["options"]["no_such_option"] = True
        with pytest.raises(WireFormatError):
            job_from_wire(wire)

    def test_newer_wire_version_rejected(self):
        with pytest.raises(WireFormatError):
            check_version({"wire_version": WIRE_VERSION + 1}, "test document")
        with pytest.raises(WireFormatError):
            check_version({}, "test document")

    def test_model_and_graph_are_mutually_exclusive(self):
        wire = job_to_wire(CompileJob("tiny-mlp"))
        wire["graph_json"] = "{}"
        with pytest.raises(WireFormatError):
            job_from_wire(wire)


class TestRequestFingerprint:
    def test_deterministic(self):
        job = CompileJob("tiny-mlp", workload=Workload(batch_size=2))
        assert request_fingerprint(job) == request_fingerprint(job)

    def test_sensitive_to_compile_determining_inputs(self):
        base = CompileJob("tiny-mlp")
        fp = request_fingerprint(base)
        assert request_fingerprint(CompileJob("tiny-cnn")) != fp
        assert (
            request_fingerprint(CompileJob("tiny-mlp", workload=Workload(batch_size=8)))
            != fp
        )
        assert (
            request_fingerprint(CompileJob("tiny-mlp", hardware="small-test-chip")) != fp
        )
        assert (
            request_fingerprint(
                CompileJob("tiny-mlp", options=CompilerOptions(pipelined=False))
            )
            != fp
        )

    def test_label_does_not_change_identity(self):
        assert request_fingerprint(
            CompileJob("tiny-mlp", label="a")
        ) == request_fingerprint(CompileJob("tiny-mlp", label="b"))

    def test_default_options_fold(self):
        """options=None coalesces with the daemon's explicit batch default."""
        default = CompilerOptions(generate_code=False)
        assert request_fingerprint(
            CompileJob("tiny-mlp"), default_options=default
        ) == request_fingerprint(CompileJob("tiny-mlp", options=default))
        # ... but not with a *different* explicit choice.
        assert request_fingerprint(
            CompileJob("tiny-mlp"), default_options=default
        ) != request_fingerprint(
            CompileJob("tiny-mlp", options=CompilerOptions(generate_code=True))
        )

    def test_identity_is_pinned(self):
        """Result tables, single-flight keys and the benchmark's cold =
        memory = disk = served check all hang off this digest: a change
        to the option set (or its wire spelling) must show up here."""
        wire = job_to_wire(CompileJob("tiny-mlp", options=CompilerOptions()))
        assert sorted(wire["options"]) == [
            "allow_memory_mode",
            "generate_code",
            "include_switch_cost",
            "max_segment_operators",
            "pipelined",
            "refine",
            "use_milp",
        ]
        job = CompileJob(
            "tiny-cnn",
            workload=Workload(batch_size=2),
            hardware="small-test-chip",
            options=CompilerOptions(generate_code=False),
        )
        assert request_fingerprint(job) == (
            "8a64e27a9240dbbcc4bb41a7a2e8ad8e125f543b2411d1ac418f7804e723c63d"
        )


# ---------------------------------------------------------------------- #
# single-flight coalescing
# ---------------------------------------------------------------------- #
class TestSingleFlight:
    def test_concurrent_callers_share_one_computation(self):
        flights = SingleFlight()
        calls = []
        gate = threading.Event()
        barrier = threading.Barrier(4)
        outcomes = []
        joined = []
        begin = flights.begin

        def counted_begin(key):
            flight, leader = begin(key)
            joined.append(leader)
            return flight, leader

        flights.begin = counted_begin

        def work():
            calls.append(1)
            gate.wait(5)
            return "result"

        def run():
            barrier.wait(5)
            value, coalesced = flights.do("key", work, timeout=10)
            outcomes.append((value, coalesced))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Let every follower join the flight before the leader finishes.
        import time

        deadline = time.monotonic() + 10
        while len(joined) < 4 and time.monotonic() < deadline:
            time.sleep(0.001)
        gate.set()
        for thread in threads:
            thread.join(10)
        assert len(calls) == 1
        assert [value for value, _ in outcomes] == ["result"] * 4
        assert sorted(coalesced for _, coalesced in outcomes) == [False, True, True, True]
        assert sorted(joined) == [False, False, False, True]  # one leader
        assert len(flights) == 0

    def test_leader_failure_propagates_and_is_not_replayed(self):
        flights = SingleFlight()
        boom = RuntimeError("solver exploded")

        flight, leader = flights.begin("key")
        assert leader
        follower_error = []

        def follow():
            try:
                flights.wait(flight, timeout=5)
            except RuntimeError as exc:
                follower_error.append(exc)

        thread = threading.Thread(target=follow)
        thread.start()
        flights.finish(flight, error=boom)
        thread.join(5)
        assert follower_error == [boom]
        # The failed flight is retired: the next caller leads afresh.
        _, leader_again = flights.begin("key")
        assert leader_again

    def test_wait_timeout(self):
        flights = SingleFlight()
        flight, _ = flights.begin("slow")
        with pytest.raises(CoalesceTimeout):
            flights.wait(flight, timeout=0.01)
        # The flight is still in the air for everyone else.
        _, leader = flights.begin("slow")
        assert not leader
        flights.finish(flight, value="done")


# ---------------------------------------------------------------------- #
# the compile daemon
# ---------------------------------------------------------------------- #
class TestCompileDaemon:
    def test_concurrent_identical_requests_coalesce_to_one_compile(self, daemon):
        """The acceptance tripwire: N clients, one allocator-solving compile."""
        fan_out = 4
        barrier = threading.Barrier(fan_out)
        results, errors = [], []

        def fire():
            client = Client(daemon.url, retries=1)
            try:
                barrier.wait(10)
                results.append(client.compile("tiny-mlp", hardware="small-test-chip"))
            except Exception as exc:  # noqa: BLE001 - assert below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=fire) for _ in range(fan_out)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors
        assert len(results) == fan_out
        fingerprints = {result.fingerprint for result in results}
        assert len(fingerprints) == 1
        assert all(result.verify() for result in results)
        counters = daemon.counters()
        assert counters["compiles_executed"] == 1
        # A client arriving after the flight retired hits the result table.
        assert counters["coalesced_hits"] + counters["result_hits"] == fan_out - 1
        assert sum(result.coalesced or result.cached for result in results) == fan_out - 1
        # The solver tripwire: total solves equal one cold compile's.
        local = Session(hardware="small-test-chip")
        program = local.compile("tiny-mlp", options=CompilerOptions(generate_code=False))
        assert counters["solves_executed"] == program.stats["allocator_solves"]
        assert fingerprints == {program.fingerprint()}

    def test_unknown_model_is_a_structured_400(self, daemon):
        client = Client(daemon.url, retries=1)
        with pytest.raises(CompileRequestError) as excinfo:
            client.compile("no-such-model")
        assert excinfo.value.code == "bad_request"
        assert "registered models" in str(excinfo.value)
        client.close()

    @pytest.mark.parametrize(
        "removed", ["solve_jobs", "speculative_solves", "fixed_mode_fallback"]
    )
    def test_removed_runtime_option_is_an_unknown_option_400(self, daemon, removed):
        wire = job_to_wire(CompileJob("tiny-mlp", options=CompilerOptions()))
        wire["options"][removed] = 2
        client = Client(daemon.url, retries=1)
        status, document = client._request(
            "POST", "/v1/compile", {"wire_version": WIRE_VERSION, "job": wire}
        )
        client.close()
        assert status == 400
        assert f"unknown compiler option(s): {removed}" in document["error"]["message"]

    def test_batch_endpoint_isolates_failures(self, daemon):
        client = Client(daemon.url, retries=1)
        outcomes = client.compile_batch(
            [
                CompileJob("tiny-mlp", hardware="small-test-chip"),
                CompileJob("no-such-model"),
            ]
        )
        assert len(outcomes) == 2
        assert outcomes[0].verify()
        assert isinstance(outcomes[1], CompileRequestError)
        client.close()

    def test_stats_and_metrics_endpoints(self, daemon):
        client = Client(daemon.url, retries=1)
        client.compile("tiny-mlp", hardware="small-test-chip")
        stats = client.cache_stats()
        assert stats["serve"]["requests"] >= 1
        # Memory and disk are the whole cache hierarchy (the fixture
        # daemon has a cache_dir): no third block, no third counter set.
        assert set(stats) == {"wire_version", "serve", "coalescing", "cache", "disk"}
        text = client.metrics_text()
        assert "serve_compiles_executed" in text
        assert "serve_flights_started" in text
        assert "store_hits" in text and "cache_remote_" not in text
        client.close()

    def test_draining_daemon_refuses_new_work(self, tmp_path):
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        client = Client(daemon.url, retries=0)
        assert client.healthy(wait_seconds=5)
        daemon._draining.set()
        with pytest.raises(CompileRequestError) as excinfo:
            client.compile("tiny-mlp", hardware="small-test-chip")
        assert excinfo.value.code == "draining"
        client.close()
        daemon.shutdown()


# ---------------------------------------------------------------------- #
# /metrics: the daemon's registry, one line per fact
# ---------------------------------------------------------------------- #
def _exposition(text: str) -> dict:
    """``/metrics`` as name → value, asserting no name repeats."""
    names = [line.split(" ", 1)[0] for line in text.splitlines()]
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    return dict(line.split(" ", 1) for line in text.splitlines())


class TestMetricsExposition:
    def test_fresh_daemon_prints_the_serve_counters_at_zero(self):
        """What the benchmark's serve_warm and scripts/check_serve.py parse
        exists before the first request (a missing line is a KeyError)."""
        daemon = CompileDaemon(workers=1)
        try:
            lines = _exposition(daemon.render_metrics())
        finally:
            daemon.shutdown()
        for name in ("requests", "compiles_executed", "coalesced_hits",
                     "solves_executed", "result_hits"):
            assert lines[f"serve_{name}"] == "0", name

    def test_result_table_size_is_a_level(self):
        daemon = CompileDaemon(workers=1)
        daemon.results.max_entries = 1
        daemon.start_background()
        try:
            with Client(daemon.url, retries=1) as client:
                client.compile("tiny-mlp", hardware="small-test-chip")
                client.compile("tiny-cnn", hardware="small-test-chip")
                lines = _exposition(client.metrics_text())
        finally:
            daemon.shutdown()
        first, second = (
            daemon.results.get(
                request_fingerprint(
                    CompileJob(model, hardware="small-test-chip"),
                    default_options=daemon.default_options,
                )
            )
            for model in ("tiny-mlp", "tiny-cnn")
        )
        assert first is None and second is not None
        assert lines["serve_result_entries"] == "1"
        assert lines["serve_result_bytes"] == str(len(second))
        assert lines["serve_result_evictions"] == "1"
        gauges = daemon.obs.metrics.to_dict()["gauges"]
        assert set(gauges) == {"serve.result_entries", "serve.result_bytes"}

    def test_each_fact_is_printed_once(self, daemon, monkeypatch):
        """A compile, a repeat and a 3-way coalesced burst over a cache_dir:
        every line is a registry counter or gauge (or one of two levels),
        printed once, and ``/v1/cache/stats`` shows the same values."""
        real_compile = daemon.service.compile
        gate = threading.Event()

        def held(job):
            if job.model == "tiny-cnn":
                gate.wait(30)
            return real_compile(job)

        monkeypatch.setattr(daemon.service, "compile", held)
        with Client(daemon.url, retries=1) as client:
            client.compile("tiny-mlp", hardware="small-test-chip")
            assert client.compile("tiny-mlp", hardware="small-test-chip").cached
            burst = []

            def fire():
                with Client(daemon.url, retries=1) as own:
                    burst.append(own.compile("tiny-cnn", hardware="small-test-chip"))

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while daemon.counters()["coalesced_hits"] < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            gate.set()
            for thread in threads:
                _join(thread)
            assert sorted(result.coalesced for result in burst) == [False, True, True]
            lines = _exposition(client.metrics_text())
            stats = client.cache_stats()

        registry = daemon.obs.metrics.to_dict()
        values = {**registry["counters"], **registry["gauges"]}
        assert set(lines) == {name.replace(".", "_") for name in values} | {
            "serve_queue_depth", "obs_spans_dropped",
        }
        assert [name for name in lines if name.startswith("obs_")] == ["obs_spans_dropped"]
        for name, value in values.items():
            assert lines[name.replace(".", "_")] == str(value), name
        assert values["serve.coalesced_hits"] == 2 and values["serve.compiles_executed"] == 2

        def owned(prefix):
            return {n[len(prefix):]: v for n, v in values.items() if n.startswith(prefix)}

        assert stats["serve"] == owned("serve.")
        assert stats["coalescing"] == {"in_flight": 0}
        assert stats["cache"].pop("hit_rate") == daemon.service.cache.stats.hit_rate
        assert stats["cache"] == owned("cache.")
        assert stats["disk"] == owned("store.")


# ---------------------------------------------------------------------- #
# the request-level result table
# ---------------------------------------------------------------------- #
def _join(thread: threading.Thread, seconds: float = 20.0) -> None:
    thread.join(seconds)
    assert not thread.is_alive(), "timed out"


class TestResultTable:
    @pytest.fixture()
    def daemon(self):
        daemon = CompileDaemon(workers=2)
        daemon.start_background()
        yield daemon
        daemon.shutdown()

    @pytest.fixture()
    def client(self, daemon):
        with Client(daemon.url, retries=1) as client:
            yield client

    def test_lru_eviction_under_the_entry_bound(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "RESULT_TABLE_ENTRIES", 2)
        table = ResultTable()
        assert table.put("a", b"aaaa") == (1, 4, 0)
        assert table.put("b", b"bb") == (1, 2, 0)
        assert table.get("a") == b"aaaa"  # "b" is now least recently used
        assert table.put("c", b"c") == (0, -1, 1)
        assert table.get("b") is None
        assert table.get("a") == b"aaaa" and table.get("c") == b"c"
        assert len(table) == 2

    def test_lru_eviction_under_the_byte_bound(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "RESULT_TABLE_BYTES", 10)
        table = ResultTable()
        table.put("a", b"aaaa")
        table.put("b", b"bbbb")
        table.get("a")
        assert table.put("c", b"cccc") == (0, 0, 1)  # 12 bytes > 10: "b" goes
        assert table.get("b") is None and table.get("a") and table.get("c")
        # Replacing a key accounts for the body it displaces.
        assert table.put("a", b"aaaaaa") == (0, 2, 0)
        # A body that alone exceeds the bound is refused, evicting nothing.
        assert table.put("huge", b"x" * 11) == (0, 0, 0)
        assert table.get("huge") is None and len(table) == 2

    def test_concurrent_puts_keep_the_accounting_exact(self, monkeypatch):
        """The daemon's gauges are sums of put() deltas: none may be lost."""
        monkeypatch.setattr(daemon_module, "RESULT_TABLE_ENTRIES", 5)
        monkeypatch.setattr(daemon_module, "RESULT_TABLE_BYTES", 40)
        table = ResultTable()
        totals = [[0, 0, 0] for _ in range(8)]

        def work(index: int) -> None:
            for step in range(300):
                key = f"k{(index * 7 + step) % 11}"
                delta = table.put(key, b"x" * (1 + (index + step) % 12))
                totals[index] = [a + b for a, b in zip(totals[index], delta)]
                table.get(f"k{step % 11}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                _join(thread)
        finally:
            sys.setswitchinterval(interval)
        entries, size, _ = (sum(column) for column in zip(*totals))
        retained = [table.get(f"k{i}") for i in range(11)]
        assert entries == len(table) == sum(body is not None for body in retained) <= 5
        assert size == sum(len(body) for body in retained if body) <= 40

    def test_repeat_request_is_answered_from_the_table(self, daemon, client):
        first = client.compile("tiny-mlp", hardware="small-test-chip")
        assert not first.cached and not first.coalesced
        executed = daemon.counters()
        assert executed["compiles_executed"] == 1 and executed["solves_executed"] > 0
        assert executed["result_entries"] == 1 and executed["result_bytes"] > 0

        again = client.compile("tiny-mlp", hardware="small-test-chip")
        assert again.cached and not again.coalesced
        assert again.verify()
        local = Session(hardware="small-test-chip").compile(
            "tiny-mlp", options=CompilerOptions(generate_code=False)
        )
        assert again.fingerprint == first.fingerprint == local.fingerprint()
        # A hit reports the compile that produced it, and runs none itself.
        assert again.stats == first.stats and again.wall_seconds == first.wall_seconds
        counters = daemon.counters()
        assert counters["result_hits"] == 1
        for name in ("compiles_executed", "solves_executed", "result_entries", "result_bytes"):
            assert counters[name] == executed[name], name
        assert counters["flights_started"] == 1
        text = client.metrics_text()
        assert "serve_result_hits 1\n" in text and "serve_result_entries 1\n" in text
        assert client.cache_stats()["serve"]["result_hits"] == 1

    def test_failed_compile_is_never_stored(self, daemon, client, monkeypatch):
        real_compile = daemon.service.compile
        calls = []

        def flaky(job):
            calls.append(job)
            if len(calls) == 1:
                return CompileJobResult(job=job, error="boom")
            return real_compile(job)

        monkeypatch.setattr(daemon.service, "compile", flaky)
        with pytest.raises(CompileRequestError) as excinfo:
            client.compile("tiny-mlp", hardware="small-test-chip")
        assert excinfo.value.code == "compile_failed" and excinfo.value.status == 422
        assert "cached" not in excinfo.value.payload
        assert daemon.counters()["result_entries"] == 0
        # The next identical request compiles afresh; only that one is kept.
        assert not client.compile("tiny-mlp", hardware="small-test-chip").cached
        assert client.compile("tiny-mlp", hardware="small-test-chip").cached
        counters = daemon.counters()
        assert counters["compiles_executed"] == 2 and counters["compile_failures"] == 1
        assert len(calls) == 2

    def test_any_compile_determining_input_misses(self, daemon, client):
        jobs = [
            CompileJob("tiny-mlp", hardware="small-test-chip"),
            CompileJob(
                "tiny-mlp",
                hardware="small-test-chip",
                options=CompilerOptions(generate_code=False, pipelined=False),
            ),
            CompileJob("tiny-mlp", hardware="dynaplasia"),
            CompileJob("tiny-mlp", hardware="small-test-chip", workload=Workload(batch_size=2)),
        ]
        assert not any(client.compile(job).cached for job in jobs)
        assert daemon.counters()["compiles_executed"] == len(jobs)
        assert daemon.counters()["result_entries"] == len(jobs)
        # ... while a label, which identifies nothing, still hits.
        assert client.compile(
            CompileJob("tiny-mlp", hardware="small-test-chip", label="again")
        ).cached

    def test_daemon_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "RESULT_TABLE_ENTRIES", 2)
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        try:
            with Client(daemon.url, retries=1) as client:
                def compile_(model):
                    return client.compile(model, hardware="small-test-chip")

                compile_("tiny-mlp")
                compile_("tiny-cnn")
                assert compile_("tiny-mlp").cached  # tiny-cnn is now oldest
                compile_("tiny-transformer")
                counters = daemon.counters()
                assert counters["result_evictions"] == 1
                assert counters["result_entries"] == len(daemon.results) == 2
                assert compile_("tiny-mlp").cached
                assert not compile_("tiny-cnn").cached
        finally:
            daemon.shutdown()

    def test_batch_slots_hit_individually(self, daemon, client):
        client.compile("tiny-mlp", hardware="small-test-chip")
        jobs = [
            CompileJob("tiny-mlp", hardware="small-test-chip"),
            CompileJob("tiny-cnn", hardware="small-test-chip"),
            CompileJob("no-such-model"),
        ]
        hit, miss, bad = client.compile_batch(jobs)
        assert hit.cached and hit.verify()
        assert not miss.cached and miss.verify()
        assert isinstance(bad, CompileRequestError) and bad.code == "bad_request"
        assert daemon.counters()["compiles_executed"] == 2
        hit, now_hit, _ = client.compile_batch(jobs)
        assert hit.cached and now_hit.cached
        assert now_hit.fingerprint == miss.fingerprint
        counters = daemon.counters()
        assert counters["compiles_executed"] == 2 and counters["result_hits"] == 3

    def test_use_cache_false_bypasses_the_table(self):
        daemon = CompileDaemon(workers=1, use_cache=False)
        daemon.start_background()
        try:
            assert daemon.results is None
            with Client(daemon.url, retries=1) as client:
                results = [
                    client.compile("tiny-mlp", hardware="small-test-chip") for _ in range(2)
                ]
            assert not any(result.cached for result in results)
            counters = daemon.counters()
            assert counters["compiles_executed"] == 2
            assert counters["result_hits"] == counters["result_entries"] == 0
        finally:
            daemon.shutdown()

    def test_draining_refuses_even_a_stored_request(self, daemon, client):
        client.compile("tiny-mlp", hardware="small-test-chip")
        daemon._draining.set()
        with pytest.raises(CompileRequestError) as excinfo:
            client.compile("tiny-mlp", hardware="small-test-chip")
        assert excinfo.value.code == "draining" and excinfo.value.status == 503
        assert daemon.counters()["result_hits"] == 0


# ---------------------------------------------------------------------- #
# transport: one write per response, on a TCP_NODELAY socket
# ---------------------------------------------------------------------- #
@pytest.fixture()
def wire_tap(monkeypatch):
    """Record every ``wfile.write`` and each accepted socket's TCP_NODELAY."""
    tap = SimpleNamespace(writes=[], nodelay=[])
    stdlib_setup = QuietHandler.setup

    class RecordingWfile:
        def __init__(self, wfile):
            self._wfile = wfile

        def write(self, data):
            tap.writes.append(bytes(data))
            return self._wfile.write(data)

        def __getattr__(self, name):
            return getattr(self._wfile, name)

    def setup(handler):
        stdlib_setup(handler)
        tap.nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        handler.wfile = RecordingWfile(handler.wfile)

    monkeypatch.setattr(QuietHandler, "setup", setup)
    return tap


def _assert_whole_responses(writes, expected: int) -> list:
    """Each write is one complete HTTP response; returns the bodies."""
    assert len(writes) == expected
    bodies = []
    for write in writes:
        assert write.startswith(b"HTTP/1.1 ")
        head, separator, body = write.partition(b"\r\n\r\n")
        assert separator
        headers = dict(
            line.split(": ", 1) for line in head.decode("latin-1").split("\r\n")[1:]
        )
        assert int(headers["Content-Length"]) == len(body) or not body
        bodies.append(body)
    return bodies


class TestSingleSendTransport:
    def test_compile_daemon_writes_each_response_once(self, wire_tap, monkeypatch):
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        real_compile = daemon.service.compile
        monkeypatch.setattr(
            daemon.service,
            "compile",
            lambda job: CompileJobResult(job=job, error="boom")
            if job.label == "fail"
            else real_compile(job),
        )
        job = CompileJob("tiny-mlp", hardware="small-test-chip")
        try:
            with Client(daemon.url, retries=0) as client:
                assert client.healthy()
                client.compile(job)  # executed
                client.compile(job)  # result-table hit
                client.compile_batch([job, CompileJob("no-such-model")])
                with pytest.raises(CompileRequestError):
                    client.compile(CompileJob("tiny-cnn", label="fail"))  # 422
                with pytest.raises(CompileRequestError):
                    client.compile("no-such-model")  # 400
                client.cache_stats()
                client.metrics_text()
                assert client._request("GET", "/nope")[0] == 404
        finally:
            daemon.shutdown()
        bodies = _assert_whole_responses(wire_tap.writes, 9)
        assert wire_tap.nodelay and all(wire_tap.nodelay)
        # Spliced and assembled bodies stay canonical sorted-key JSON.
        for body in bodies[1:6]:
            assert body == json.dumps(json.loads(body), sort_keys=True).encode("utf-8")
        executed, hit = json.loads(bodies[1]), json.loads(bodies[2])
        assert (executed.pop("cached"), hit.pop("cached")) == (False, True)
        assert executed == hit

# ---------------------------------------------------------------------- #
# long-lived server hygiene: bounded tracer, shutdown in any state
# ---------------------------------------------------------------------- #
class TestServerLifecycle:
    def test_daemon_tracer_stops_growing_with_executed_compiles(self, monkeypatch):
        ring = 24
        monkeypatch.setattr(daemon_module, "TRACE_RING_SPANS", ring)
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        try:
            with Client(daemon.url, retries=1) as client:
                compiles = 0
                while daemon.obs.tracer.spans_dropped == 0 or compiles < 4:
                    compiles += 1
                    assert compiles <= 64, "tracer never filled its ring"
                    result = client.compile(
                        "tiny-mlp",
                        hardware="small-test-chip",
                        workload=Workload(batch_size=compiles),
                    )
                    assert not result.cached
                text = client.metrics_text()
            assert daemon.counters()["compiles_executed"] == compiles
            assert len(daemon.obs.tracer.spans()) <= ring
            assert daemon.obs.tracer.spans_dropped > 0
            assert f"obs_spans_dropped {daemon.obs.tracer.spans_dropped}\n" in text
            # The service's program-table counters come through the registry.
            assert f"programs_misses {compiles}\n" in text
        finally:
            daemon.shutdown()

    def test_shutdown_before_serving_returns(self):
        daemon = CompileDaemon(workers=1)
        assert daemon.service.compile(CompileJob("tiny-mlp", hardware="small-test-chip")).ok
        thread = threading.Thread(target=daemon.shutdown, daemon=True)
        thread.start()
        _join(thread)
        # A serve loop that starts after the shutdown (SIGTERM racing
        # start-up) must return instead of serving forever.
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        _join(thread)

    def test_shutdown_is_idempotent_after_serving(self, daemon):
        with Client(daemon.url, retries=0) as client:
            assert client.healthy()
        daemon.shutdown()
        thread = threading.Thread(target=daemon.shutdown, daemon=True)
        thread.start()
        _join(thread)


# ---------------------------------------------------------------------- #
# Session lifecycle
# ---------------------------------------------------------------------- #
class TestSessionLifecycle:
    def test_context_manager_closes_and_stays_usable(self):
        with Session(hardware="small-test-chip") as session:
            assert session.compile("tiny-mlp").num_segments >= 1
        session.close()  # idempotent
        assert session.compile("tiny-mlp").num_segments >= 1  # still usable


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #
class TestBatchJsonOut:
    def test_json_report_mirrors_the_table(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(["compile-batch", "tiny-mlp", "--json-out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "total allocator solves:" in stdout  # grep lines survive
        report = json.loads(out.read_text())
        assert report["totals"]["jobs"] == 1
        assert report["totals"]["failures"] == 0
        job = report["jobs"][0]
        assert job["label"] == "tiny-mlp" and job["ok"]
        assert job["allocator_solves"] == report["totals"]["allocator_solves"]
        assert job["latency_ms"] > 0
        assert "cache" in report
