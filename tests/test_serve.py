"""Tests for the serving tier: wire format, coalescing, daemon.

Covers the ISSUE-9 acceptance surface: fingerprint-bit-identical wire
round trips, single-flight coalescing (exactly one allocator-solving
compile for N concurrent identical requests), the `Session` context
manager, and the batch JSON report; and the ISSUE-12 fast path: the
request-level result table, one write per response on `TCP_NODELAY`
sockets, the daemon's bounded tracer and shutdown of a server that never
served; and the client's transport: one write per request, and framing
faults injected by a canned-reply stub server.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.core.compiler import CompilerOptions
from repro.ir import Graph
from repro.models import build_model
from repro.models.workload import Phase, Workload
from repro.serve import (
    Client,
    ClientError,
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
from repro.serve import client as client_module
from repro.serve import coalesce as coalesce_module
from repro.serve import daemon as daemon_module
from repro.serve.coalesce import FOLLOW, HIT, LEAD, Flight
from repro.serve import httpbase
from repro.serve.httpbase import QuietHandler
from repro.serve.wire import WIRE_VERSION, check_version
from repro.service import CompileJob, CompileJobResult, default_job_options


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

    def test_a_preset_is_fingerprinted_once(self, monkeypatch):
        """Jobs naming a preset share its chip, so its digest is rendered once."""
        from repro.hardware import DualModeHardwareAbstraction, presets

        monkeypatch.setattr(presets, "_SHARED", {})
        renders = []
        to_dict = DualModeHardwareAbstraction.to_dict
        monkeypatch.setattr(
            DualModeHardwareAbstraction,
            "to_dict",
            lambda chip: renders.append(chip.name) or to_dict(chip),
        )
        first = request_fingerprint(CompileJob("tiny-mlp", hardware="prime"))
        second = request_fingerprint(CompileJob("tiny-cnn", hardware="prime"))
        assert first != second and renders == ["prime"]

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

    def test_a_graph_is_identified_by_its_digest(self):
        first, twin = (build_model("tiny-mlp", Workload(batch_size=1)) for _ in range(2))
        assert request_fingerprint(CompileJob(first)) == request_fingerprint(CompileJob(twin))
        edited = Graph.from_dict(first.to_dict())
        edited.metadata["block_repeat"] = 2.0
        assert request_fingerprint(CompileJob(edited)) != request_fingerprint(CompileJob(first))


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

        def work():
            calls.append(1)
            gate.wait(5)
            return "result"

        def run():
            barrier.wait(5)
            flight, role = flights.begin("key")
            joined.append(role)
            if role == LEAD:
                try:
                    value = work()
                except BaseException as exc:
                    flights.finish(flight, error=exc)
                    raise
                flights.finish(flight, value=value)
                outcomes.append((value, False))
            else:
                outcomes.append((flights.wait(flight, timeout=10), True))

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
        assert sorted(joined) == [FOLLOW, FOLLOW, FOLLOW, LEAD]  # one leader
        assert len(flights) == 0 and len(flights.retained) == 0

    def test_leader_failure_propagates_and_is_not_replayed(self):
        flights = SingleFlight()
        boom = RuntimeError("solver exploded")

        flight, role = flights.begin("key")
        assert role == LEAD
        follower_error = []

        def follow():
            try:
                flights.wait(flight, timeout=5)
            except RuntimeError as exc:
                follower_error.append(exc)

        thread = threading.Thread(target=follow)
        thread.start()
        # A failure is retired, never retained, even when offered a weight.
        assert flights.finish(flight, error=boom, weight=1) == (0, 0, 0)
        thread.join(5)
        assert follower_error == [boom]
        # The failed flight is retired: the next caller leads afresh.
        _, role_again = flights.begin("key")
        assert role_again == LEAD

    def test_wait_timeout(self):
        flights = SingleFlight()
        flight, _ = flights.begin("slow")
        with pytest.raises(CoalesceTimeout):
            flights.wait(flight, timeout=0.01)
        # The flight is still in the air for everyone else.
        _, role = flights.begin("slow")
        assert role == FOLLOW
        flights.finish(flight, value="done")

    def test_a_retained_flight_answers_later_callers(self):
        flights = SingleFlight()
        flight, _ = flights.begin("key")
        assert flights.finish(flight, value="answer", weight=6) == (1, 6, 0)
        # Settled: out of the air, in the retained table, under one lock.
        assert len(flights) == 0 and len(flights.retained) == 1
        hit, role = flights.begin("key")
        assert role == HIT and hit is flight and hit.value == "answer"
        assert len(flights) == 0


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

    def test_a_graph_request_miss_serialises_its_graph_once(
        self, daemon, graph_serialisations
    ):
        """The request fingerprint and the program key share ``Graph.digest``."""
        graph = build_model("tiny-mlp", Workload(batch_size=1))
        job = job_to_wire(CompileJob(graph, hardware="small-test-chip"))
        del graph_serialisations[:]  # the client's encoding is not the daemon's work
        with Client(daemon.url, retries=1) as client:
            status, document = client._request(
                "POST", "/v1/compile", {"wire_version": WIRE_VERSION, "job": job}
            )
        assert status == 200 and not document.get("cached")
        assert daemon.counters()["compiles_executed"] == 1
        assert graph_serialisations == [graph.name]

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

    def test_batch_slot_on_a_refused_leader_fails_alone(self, monkeypatch):
        """A batch slot that joined a flight whose leader the full queue
        refused fails with ``queue_full``; the rest of the batch is served."""
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        real_put = daemon._queue.put_nowait
        held = threading.Event()
        puts = []

        def put_nowait(item):
            puts.append(item)
            if len(puts) > 1:
                return real_put(item)
            # Refuse the leader only once the batch's slot has joined it.
            held.set()
            deadline = time.monotonic() + 30
            while daemon.counters()["coalesced_hits"] < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            raise queue.Full

        monkeypatch.setattr(daemon._queue, "put_nowait", put_nowait)
        refusals = []

        def lead():
            with Client(daemon.url, retries=0) as client:
                try:
                    client.compile("tiny-mlp", hardware="small-test-chip")
                except CompileRequestError as exc:
                    refusals.append(exc.code)

        try:
            leader = threading.Thread(target=lead)
            leader.start()
            assert held.wait(30)
            with Client(daemon.url, retries=0) as client:
                joined, own = client.compile_batch(
                    [
                        CompileJob("tiny-mlp", hardware="small-test-chip"),
                        CompileJob("tiny-cnn", hardware="small-test-chip"),
                    ]
                )
            _join(leader)
        finally:
            daemon.shutdown()
        assert refusals == ["queue_full"]
        assert isinstance(joined, CompileRequestError) and joined.code == "queue_full"
        assert own.verify() and not own.coalesced
        counters = daemon.counters()
        assert counters["queue_rejections"] == 1 and counters["coalesced_hits"] == 1
        assert counters["compiles_executed"] == 1 and len(daemon.flights) == 0

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

    @pytest.mark.parametrize("wait_timeout", [-1.0, float("nan")])
    def test_a_negative_or_nan_wait_bound_is_refused(self, wait_timeout):
        """Either would answer every request that is not a retained hit
        with an immediate 504."""
        with pytest.raises(ValueError, match="wait_timeout"):
            CompileDaemon(workers=1, wait_timeout=wait_timeout)

    def test_zero_and_infinite_wait_bounds_start(self):
        """0 gives up on anything not ready; inf waits as long as a lock can."""
        for wait_timeout, kept in ((0.0, 0.0), (float("inf"), threading.TIMEOUT_MAX)):
            daemon = CompileDaemon(workers=1, wait_timeout=wait_timeout)
            try:
                assert daemon.wait_timeout == kept
            finally:
                daemon.shutdown()

    def test_the_default_options_are_the_services(self):
        """The fingerprint folds omitted options onto what the service
        compiles them with, read from one helper."""
        daemon = CompileDaemon(workers=1)
        try:
            assert daemon.default_options == default_job_options()
            assert daemon.default_options is not default_job_options()
            job = CompileJob("tiny-mlp", hardware="small-test-chip")
            assert daemon.service.compile(job).ok
            # The same program key: a table hit, no pass runs.
            explicit = replace(job, options=default_job_options())
            assert daemon.service.compile(explicit).stats["pass_seconds"] == {}
            assert request_fingerprint(
                job, default_options=daemon.default_options
            ) == request_fingerprint(explicit)
        finally:
            daemon.shutdown()

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
        daemon.flights.retained.max_entries = 1
        daemon.start_background()
        try:
            with Client(daemon.url, retries=1) as client:
                client.compile("tiny-mlp", hardware="small-test-chip")
                client.compile("tiny-cnn", hardware="small-test-chip")
                lines = _exposition(client.metrics_text())
        finally:
            daemon.shutdown()
        first, second = (
            daemon.flights.retained.get(
                request_fingerprint(
                    CompileJob(model, hardware="small-test-chip"),
                    default_options=daemon.default_options,
                )
            )
            for model in ("tiny-mlp", "tiny-cnn")
        )
        assert first is None and second is not None
        # What a hit on the retained flight sends: its flags + the shared tail.
        hit_body = daemon_module._outcome_body(
            True, second.value[1], coalesced=False, cached=True
        )
        assert lines["serve_result_entries"] == "1"
        assert lines["serve_result_bytes"] == str(len(hit_body))
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

    @staticmethod
    def _settle(flights, key, body):
        """Lead a flight for ``key`` and settle it retained, weighing ``body``."""
        flight, role = flights.begin(key)
        assert role == LEAD
        return flights.finish(flight, value=body, weight=len(body))

    @staticmethod
    def _answer(flights, key):
        """The retained answer ``begin`` hits, or None (the probe's flight retired)."""
        flight, role = flights.begin(key)
        if role == HIT:
            return flight.value
        assert role == LEAD
        flights.finish(flight)
        return None

    def test_lru_eviction_under_the_entry_bound(self, monkeypatch):
        monkeypatch.setattr(coalesce_module, "RESULT_TABLE_ENTRIES", 2)
        flights = SingleFlight()
        assert self._settle(flights, "a", b"aaaa") == (1, 4, 0)
        assert self._settle(flights, "b", b"bb") == (1, 2, 0)
        assert self._answer(flights, "a") == b"aaaa"  # "b" is now least recently used
        assert self._settle(flights, "c", b"c") == (0, -1, 1)
        assert self._answer(flights, "b") is None
        assert self._answer(flights, "a") == b"aaaa" and self._answer(flights, "c") == b"c"
        assert len(flights.retained) == 2 and len(flights) == 0

    def test_lru_eviction_under_the_byte_bound(self, monkeypatch):
        monkeypatch.setattr(coalesce_module, "RESULT_TABLE_BYTES", 10)
        flights = SingleFlight()
        self._settle(flights, "a", b"aaaa")
        self._settle(flights, "b", b"bbbb")
        self._answer(flights, "a")
        assert self._settle(flights, "c", b"cccc") == (0, 0, 1)  # 12 bytes > 10: "b" goes
        assert self._answer(flights, "b") is None
        assert self._answer(flights, "a") and self._answer(flights, "c")
        # Replacing a key accounts for the body it displaces.
        assert flights.finish(Flight("a"), value=b"aaaaaa", weight=6) == (0, 2, 0)
        # A body that alone exceeds the bound is refused, evicting nothing.
        assert self._settle(flights, "huge", b"x" * 11) == (0, 0, 0)
        assert self._answer(flights, "huge") is None and len(flights.retained) == 2

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
        monkeypatch.setattr(coalesce_module, "RESULT_TABLE_ENTRIES", 2)
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
                assert counters["result_entries"] == len(daemon.flights.retained) == 2
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

    def test_every_ok_answer_is_retained(self):
        """A daemon without a ``cache_dir`` still keeps every ok answer,
        and its cache stats always carry the window cache."""
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        try:
            with Client(daemon.url, retries=1) as client:
                results = [
                    client.compile("tiny-mlp", hardware="small-test-chip") for _ in range(2)
                ]
            assert [result.cached for result in results] == [False, True]
            counters = daemon.counters()
            assert counters["compiles_executed"] == 1
            assert counters["result_hits"] == counters["result_entries"] == 1
            assert len(daemon.flights.retained) == 1 and len(daemon.flights) == 0
            payload = daemon.cache_stats_payload()
            assert "cache" in payload and "disk" not in payload
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

    def test_client_writes_each_request_once(self, daemon, client_tap):
        job = CompileJob("tiny-mlp", hardware="small-test-chip")
        with Client(daemon.url, retries=0) as client:
            assert client.healthy()
            client.compile(job)
            client.compile_batch([job])
            client.cache_stats()
            client.metrics_text()
            assert client._request("GET", "/nope")[0] == 404
        assert client_tap.connects == 1
        requests = []
        for write in client_tap.writes:
            head, separator, body = write.partition(b"\r\n\r\n")
            assert separator
            request_line, *lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            assert int(headers.get("Content-Length", 0)) == len(body)
            requests.append(request_line)
        assert requests == [
            "GET /healthz HTTP/1.1",
            "POST /v1/compile HTTP/1.1",
            "POST /v1/compile_batch HTTP/1.1",
            "GET /v1/cache/stats HTTP/1.1",
            "GET /metrics HTTP/1.1",
            "GET /nope HTTP/1.1",
        ]
        assert all(client_tap.nodelay)

    def test_the_daemon_still_reads_a_request_split_over_two_sends(self, daemon):
        """curl-style clients send the headers, then the body."""
        body = json.dumps(
            {
                "wire_version": WIRE_VERSION,
                "job": job_to_wire(CompileJob("tiny-mlp", hardware="small-test-chip")),
            }
        ).encode("utf-8")
        head = (
            "POST /v1/compile HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(("127.0.0.1", daemon.bound_port), timeout=30) as sock:
            sock.sendall(head)
            time.sleep(0.05)
            sock.sendall(body)
            with sock.makefile("rb") as reader:
                status_line = reader.readline()
                length = 0
                for line in iter(reader.readline, b"\r\n"):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                document = json.loads(reader.read(length))
        assert status_line.startswith(b"HTTP/1.1 200 ")
        assert document["ok"] and not document["cached"]
        program = program_from_wire(document["program"])
        assert program.fingerprint() == document["fingerprint"]


@pytest.fixture()
def client_tap(monkeypatch):
    """Record every write on the client's sockets, its TCP_NODELAY, and connects."""
    tap = SimpleNamespace(writes=[], nodelay=[], connects=0)
    create_connection = socket.create_connection

    class RecordingSocket:
        def __init__(self, sock):
            self._sock = sock

        def _record(self, data):
            tap.writes.append(bytes(data))
            tap.nodelay.append(
                self._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        def sendall(self, data, *flags):
            self._record(data)
            return self._sock.sendall(data, *flags)

        def __getattr__(self, name):
            return getattr(self._sock, name)

    def connect(*args, **kwargs):
        tap.connects += 1
        return RecordingSocket(create_connection(*args, **kwargs))

    monkeypatch.setattr(client_module.socket, "create_connection", connect)
    return tap


# ---------------------------------------------------------------------- #
# client framing: injected faults end in ClientError or a reconnect
# ---------------------------------------------------------------------- #
class CannedServer:
    """An HTTP stub that answers every request with the same canned bytes.

    Counts accepted connections and requests read.  With ``closing`` it
    closes a connection after each reply; otherwise it waits for the
    next request on it, so a client that reads past its response hangs.
    """

    def __init__(self, reply: bytes, closing: bool = False) -> None:
        self.reply, self.closing = reply, closing
        self.accepts = self.requests = 0
        self._stop = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        with self._listener:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                self.accepts += 1
                threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as reader:
            while True:
                length = None
                for line in iter(reader.readline, b"\r\n"):
                    if not line:
                        return  # the client hung up
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                reader.read(length or 0)
                self.requests += 1
                conn.sendall(self.reply)
                if self.closing:
                    return

    def stop(self) -> None:
        self._stop.set()


@pytest.fixture()
def canned():
    servers = []

    def start(reply: bytes, closing: bool = False) -> CannedServer:
        servers.append(CannedServer(reply, closing))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


def _pad(headers: int) -> bytes:
    return b"".join(b"X-Pad-%d: x\r\n" % i for i in range(headers))


_OK = b'{"ok": true}'


class TestClientFraming:
    @pytest.mark.parametrize(
        "reply, closing",
        [
            (b"garbage\r\n\r\n", False),
            (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + _OK, False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + _OK, True),
            (b"HTTP/1.1 200 OK\r\n" + _pad(100) + b"Content-Length: 12\r\n\r\n" + _OK, False),
            (
                b"HTTP/1.1 200 OK\r\nX-Pad: " + b"x" * 65536 + b"\r\n"
                b"Content-Length: 12\r\n\r\n" + _OK,
                False,
            ),
        ],
        ids=["garbled-status", "no-length", "short-body", "101-headers", "long-line"],
    )
    def test_a_framing_fault_is_a_client_error_after_the_retries(self, canned, reply, closing):
        server = canned(reply, closing)
        start = time.perf_counter()
        with Client(server.url, timeout=5.0, retries=1, backoff=0.01) as client:
            with pytest.raises(ClientError, match=r"after 2 attempt\(s\)") as excinfo:
                client.cache_stats()
        # Nothing waited for EOF or a socket timeout.
        assert time.perf_counter() - start < 2.0
        assert type(excinfo.value) is ClientError
        assert server.accepts == 2  # every retry on a fresh socket

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 12\r\n\r\n" + _OK,
            b"HTTP/1.0 200 OK\r\nContent-Length: 12\r\n\r\n" + _OK,
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_a_closing_response_drops_the_socket(self, canned, reply):
        server = canned(reply, closing=True)
        with Client(server.url, timeout=5.0, retries=0) as client:
            for _ in range(3):
                assert client.cache_stats() == {"ok": True}
        assert (server.accepts, server.requests) == (3, 3)

    def test_a_keep_alive_response_keeps_the_socket(self, canned):
        # 99 padding headers + Content-Length: exactly the 100 allowed.
        server = canned(b"HTTP/1.1 200 OK\r\n" + _pad(99) + b"Content-Length: 12\r\n\r\n" + _OK)
        with Client(server.url, timeout=5.0, retries=0) as client:
            for _ in range(3):
                assert client.cache_stats() == {"ok": True}
        assert (server.accepts, server.requests) == (1, 3)

    def test_a_structured_error_is_never_retried(self, canned):
        error = b'{"error": {"code": "compile_failed", "message": "boom"}}'
        server = canned(
            b"HTTP/1.1 422 Unprocessable Entity\r\nContent-Length: %d\r\n\r\n%s"
            % (len(error), error)
        )
        with Client(server.url, timeout=5.0, retries=3, backoff=0.01) as client:
            with pytest.raises(CompileRequestError) as excinfo:
                client.cache_stats()
        assert (excinfo.value.code, excinfo.value.status) == ("compile_failed", 422)
        assert (server.accepts, server.requests) == (1, 1)

    @pytest.mark.parametrize(
        "version", [1, 2, WIRE_VERSION + 1], ids=["v1", "v2", "newer"]
    )
    @pytest.mark.parametrize("batch", [False, True], ids=["compile", "compile_batch"])
    def test_an_unreadable_program_is_a_client_error_after_one_request(
        self, canned, small_chip, tiny_mlp_graph, version, batch
    ):
        """A program of another wire version is a ``ClientError`` naming
        the daemon and both versions, never a raw ``WireFormatError``
        and never retried.  The version alone refuses it, before its
        shape is read (version 1 stored every profile's name, version 2
        one profile object per operator)."""
        from repro.core.compiler import CMSwitchCompiler

        program = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=False)).compile(
            tiny_mlp_graph
        )
        document = {**program_to_wire(program), "wire_version": version}
        result = {"ok": True, "wire_version": version, "program": document}
        answer = {"results": [result], "wire_version": version} if batch else result
        body = json.dumps(answer).encode("utf-8")
        server = canned(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
        with Client(server.url, timeout=5.0, retries=3, backoff=0.01) as client:
            with pytest.raises(ClientError) as excinfo:
                client.compile_batch(["tiny-mlp"]) if batch else client.compile("tiny-mlp")
        assert type(excinfo.value) is ClientError
        assert isinstance(excinfo.value.__cause__, WireFormatError)
        message = str(excinfo.value)
        assert server.url in message
        assert f"wire_version {version}" in message and f"reader's {WIRE_VERSION}" in message
        assert (server.accepts, server.requests) == (1, 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("wall_seconds", "soon"), ("stats", [1, 2]),
            ("wall_seconds", 10**400), ("wall_seconds", float("inf")),
            ("wall_seconds", float("nan")),
        ],
        ids=[
            "wall-seconds-string", "stats-array",
            "wall-seconds-overflow", "wall-seconds-inf", "wall-seconds-nan",
        ],
    )
    def test_a_bad_result_field_is_a_client_error_after_one_request(
        self, canned, small_chip, tiny_mlp_graph, field, value
    ):
        """A success whose ``wall_seconds`` is not a finite double (a
        string, an integer too large for one, ``Infinity``, ``NaN``) or
        whose ``stats`` is not an object is a ``ClientError`` naming the
        daemon, never a raw ``ValueError`` / ``TypeError`` /
        ``OverflowError``, and never retried."""
        from repro.core.compiler import CMSwitchCompiler

        program = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=False)).compile(
            tiny_mlp_graph
        )
        answer = {
            "ok": True, "wire_version": WIRE_VERSION, "program": program_to_wire(program),
            field: value,
        }
        body = json.dumps(answer).encode("utf-8")
        server = canned(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
        with Client(server.url, timeout=5.0, retries=3, backoff=0.01) as client:
            with pytest.raises(ClientError, match=field) as excinfo:
                client.compile("tiny-mlp")
        assert type(excinfo.value) is ClientError
        assert server.url in str(excinfo.value)
        assert (server.accepts, server.requests) == (1, 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("wall_seconds", "soon"), ("stats", [1, 2]),
            ("wall_seconds", 10**400), ("wall_seconds", float("inf")),
            ("wall_seconds", float("nan")),
        ],
        ids=[
            "wall-seconds-string", "stats-array",
            "wall-seconds-overflow", "wall-seconds-inf", "wall-seconds-nan",
        ],
    )
    def test_a_bad_batch_result_field_is_a_client_error_after_one_request(
        self, canned, small_chip, tiny_mlp_graph, field, value
    ):
        """``compile_batch`` reads each success entry as ``compile`` reads
        its answer: a bad ``wall_seconds`` or ``stats`` in one entry is a
        ``ClientError`` naming the daemon, never retried."""
        from repro.core.compiler import CMSwitchCompiler

        program = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=False)).compile(
            tiny_mlp_graph
        )
        entry = {
            "ok": True, "wire_version": WIRE_VERSION, "program": program_to_wire(program),
            field: value,
        }
        body = json.dumps({"results": [entry], "wire_version": WIRE_VERSION}).encode("utf-8")
        server = canned(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
        with Client(server.url, timeout=5.0, retries=3, backoff=0.01) as client:
            with pytest.raises(ClientError, match=field) as excinfo:
                client.compile_batch(["tiny-mlp"])
        assert type(excinfo.value) is ClientError
        assert server.url in str(excinfo.value)
        assert (server.accepts, server.requests) == (1, 1)

    @pytest.mark.parametrize(
        "answer, batch",
        [
            ({"ok": True, "wire_version": WIRE_VERSION}, False),
            ({"results": [{"ok": True, "wire_version": WIRE_VERSION}]}, True),
            ({"results": [1]}, True),
            ({"results": 5}, True),
            ({"results": {"ok": True}}, True),
            ({}, True),
            ([{"ok": True}], False),
            ([{"results": []}], True),
        ],
        ids=[
            "ok-without-program", "batch-ok-without-program", "batch-non-object-result",
            "batch-number-results", "batch-object-results", "batch-without-results",
            "list-answer", "batch-list-answer",
        ],
    )
    def test_a_malformed_answer_is_a_client_error_after_one_request(
        self, canned, answer, batch
    ):
        """An answer this client cannot read — a success without its
        program, batch ``results`` that are not an array of objects, a
        document that is not an object — is a ``ClientError`` naming the
        daemon, never a raw ``KeyError`` / ``TypeError`` /
        ``AttributeError``, and never retried."""
        if isinstance(answer, dict) and batch:
            answer = {**answer, "wire_version": WIRE_VERSION}
        body = json.dumps(answer).encode("utf-8")
        server = canned(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
        with Client(server.url, timeout=5.0, retries=3, backoff=0.01) as client:
            with pytest.raises(ClientError) as excinfo:
                client.compile_batch(["tiny-mlp"]) if batch else client.compile("tiny-mlp")
        assert type(excinfo.value) is ClientError
        assert server.url in str(excinfo.value)
        assert (server.accepts, server.requests) == (1, 1)

    def test_a_malformed_batch_error_is_the_jobs_request_error(self, canned):
        """A failed batch entry whose ``error`` is not an object still
        yields its ``CompileRequestError`` in the list."""
        body = json.dumps(
            {"wire_version": WIRE_VERSION, "results": [{"ok": False, "error": "boom"}]}
        ).encode("utf-8")
        server = canned(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
        with Client(server.url, timeout=5.0, retries=0) as client:
            (outcome,) = client.compile_batch(["tiny-mlp"])
        assert isinstance(outcome, CompileRequestError)
        assert (outcome.code, outcome.status) == ("error", 200)


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

    def test_an_idle_daemon_stops_promptly(self):
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        with Client(daemon.url, retries=0) as client:
            assert client.healthy()
        start = time.perf_counter()
        daemon.shutdown()
        assert time.perf_counter() - start < 0.2

    def test_a_silent_connection_is_closed_and_counted(self, monkeypatch):
        """A peer that connects and sends nothing holds its handler thread
        only for ``READ_TIMEOUT_SECONDS``; a keep-alive client the daemon
        timed out meanwhile reconnects through its retry."""
        monkeypatch.setattr(httpbase, "READ_TIMEOUT_SECONDS", 0.2)
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        try:
            with Client(daemon.url, retries=2) as client:
                assert client.healthy()  # opens the keep-alive connection
                with socket.create_connection((daemon.host, daemon.bound_port), 10) as silent:
                    start = time.perf_counter()
                    assert silent.recv(1) == b""  # closed by the daemon, unanswered
                    assert time.perf_counter() - start < 5
                deadline = time.perf_counter() + 10
                while daemon.counters()["read_timeouts"] < 2:  # both connections
                    assert time.perf_counter() < deadline, daemon.counters()
                    time.sleep(0.02)
                result = client.compile("tiny-mlp", hardware="small-test-chip")
                assert result.program.num_segments >= 1
                lines = _exposition(client.metrics_text())
            # (A slow scheduler may time the idle client out once more.)
            assert int(lines["serve_read_timeouts"]) >= 2
        finally:
            daemon.shutdown()

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
