"""Tests for the observability layer (:mod:`repro.obs`).

Covers the tracer (nesting, threads, adoption), the metrics registry,
the exporters (Chrome trace well-formedness, JSONL, profile report), the
null objects' no-op contract, the pipeline/service/DSE/replay
instrumentation, and the CLI's quiet-by-default logging behaviour.
"""

from __future__ import annotations

import json
import math
import pickle
from array import array
import re
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.obs.metrics as obs_metrics

from repro.api import Session
from repro.cli import main
from repro.core.clock import ManualClock
from repro.models.workload import Workload
from repro.obs import (
    NULL_METRICS,
    NULL_OBS,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    Span,
    Tracer,
    chrome_trace_events,
    profile_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_span_jsonl,
)
from repro.service import CompileJob, CompileService

DOCS = Path(__file__).resolve().parents[1] / "docs"


class TestTracer:
    def test_nested_spans_record_parentage_and_durations(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, process="test")
        with tracer.span("outer", kind="pass"):
            clock.advance_to(clock.now() + 1.0)
            with tracer.span("inner") as inner:
                clock.advance_to(clock.now() + 0.5)
                inner.set(solver="exact")
        spans = tracer.spans()
        assert [s.name for s in spans] == ["outer", "inner"]
        outer, inner = spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.duration == pytest.approx(1.5)
        assert inner.duration == pytest.approx(0.5)
        assert outer.attrs == {"kind": "pass"}
        assert inner.attrs == {"solver": "exact"}

    def test_exception_annotates_and_closes_the_span(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "RuntimeError"

    def test_event_nests_under_the_active_span(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("parent") as parent:
            tracer.event("ping", detail=1)
        spans = tracer.spans()
        instant = next(s for s in spans if s.instant)
        assert instant.name == "ping"
        assert instant.parent_id == parent.span_id
        assert instant.duration == 0.0

    def test_flush_empties_and_clear_drops(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a"):
            pass
        assert len(tracer.flush()) == 1
        assert tracer.spans() == []
        with tracer.span("b"):
            pass
        tracer.clear()
        assert tracer.spans() == []

    def test_thread_buffers_merge_into_a_well_formed_forest(self):
        tracer = Tracer()
        errors = []

        def work(index: int) -> None:
            try:
                with tracer.span(f"outer-{index}"):
                    with tracer.span("inner", index=index):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        spans = tracer.spans()
        assert len(spans) == 8
        by_id = {s.span_id: s for s in spans}
        # Every parent link resolves, and each inner's parent is its own
        # thread's outer (per-thread stacks never leak across threads).
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id
            if span.name == "inner":
                parent = by_id[span.parent_id]
                assert parent.name == f"outer-{span.attrs['index']}"
                assert parent.thread == span.thread

    def test_bounded_mode_keeps_the_newest_spans_and_counts_drops(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, max_spans=3)
        for index in range(5):
            clock.advance_to(clock.now() + 1.0)
            tracer.event(f"e{index}")
        assert [s.name for s in tracer.spans()] == ["e2", "e3", "e4"]
        assert tracer.spans_dropped == 2
        assert len(tracer.flush()) == 3 and tracer.spans() == []
        assert Tracer().spans_dropped == 0 and NULL_TRACER.spans_dropped == 0
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_bounded_mode_is_one_ring_across_threads(self):
        """Retention must not scale with thread count (one per connection)."""
        tracer = Tracer(max_spans=16)

        def work() -> None:
            for _ in range(50):
                with tracer.span("request"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tracer.spans()) == 16
        assert tracer.spans_dropped == 8 * 50 - 16  # no lost updates


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        registry.gauge("depth").set(4.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("latency", value)
        snapshot = registry.to_dict()
        assert snapshot["counters"] == {"hits": 3}
        assert snapshot["gauges"] == {"depth": 4.0}
        latency = snapshot["histograms"]["latency"]
        assert latency["count"] == 4
        assert latency["mean"] == pytest.approx(2.5)
        assert latency["min"] == 1.0 and latency["max"] == 4.0

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert histogram.percentile(99) == pytest.approx(99.0, abs=1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]), max_size=300
        )
    )
    def test_summary_percentiles_are_percentile(self, values):
        """One sorted copy serves both of summary()'s ranks, bit for bit."""
        histogram = MetricsRegistry().histogram("h")
        histogram.observe_many(values)
        summary = histogram.summary()
        for q in (50, 99):
            assert repr(summary[f"p{q}"]) == repr(histogram.percentile(q))

    def test_summary_sorts_the_samples_once(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe_many([3.0, 1.0, 2.0])
        with mock.patch.object(
            obs_metrics, "sorted", create=True, side_effect=sorted
        ) as counted:
            assert histogram.summary()["p50"] == 2.0
        assert counted.call_count == 1

    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.floats()
                | st.integers(-3, 3)
                | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
            ),
            max_size=6,
        )
    )
    @example(batches=[[1.0, 0.5], [math.nan, 0.0, 2.0]])  # NaN first in a later batch
    @example(batches=[[-0.0], [math.inf, -math.inf, 1.0]])  # a signed zero, then inf - inf
    def test_observe_many_is_observe_of_each_value(self, batches):
        """Count, in-order total, min / max (NaN and signed zeros included)
        and the retained samples, across the sample cap, bit for bit."""
        with mock.patch.object(obs_metrics, "_HISTOGRAM_SAMPLE_CAP", 8):
            bulk, single = MetricsRegistry().histogram("h"), MetricsRegistry().histogram("h")
            for batch in batches:
                if all(type(value) is float for value in batch):
                    bulk.observe_many(memoryview(array("d", batch)))  # read as doubles
                else:
                    bulk.observe_many(iter(batch))
                for value in batch:
                    single.observe(value)

        def state(histogram):
            return repr(
                (histogram.count, histogram.total, histogram.min, histogram.max,
                 histogram._samples)
            )

        assert state(bulk) == state(single)
        NULL_METRICS.histogram("h").observe_many([1.0])  # inert

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_render_table_mentions_every_instrument(self):
        registry = MetricsRegistry()
        registry.inc("solves")
        registry.observe("depth", 2.0)
        table = registry.render_table()
        assert "solves" in table and "depth" in table

    def test_null_objects_are_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_METRICS.enabled is False
        assert NULL_OBS.enabled is False
        with NULL_TRACER.span("nothing", key=1) as handle:
            handle.set(more=2)
        assert NULL_TRACER.spans() == []
        NULL_METRICS.inc("nothing")
        NULL_METRICS.observe("nothing", 1.0)
        assert NULL_METRICS.counter("nothing").value == 0

    def test_observability_create_is_enabled(self):
        obs = Observability.create()
        assert obs.enabled
        assert obs.tracer.enabled and obs.metrics.enabled


class TestExport:
    def _sample_spans(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, process="test")
        with tracer.span("outer"):
            clock.advance_to(clock.now() + 0.1)
            with tracer.span("inner"):
                clock.advance_to(clock.now() + 0.2)
            tracer.event("marker")
            clock.advance_to(clock.now() + 0.1)
        return tracer.spans()

    def test_chrome_trace_round_trip_validates(self):
        events = chrome_trace_events(self._sample_spans())
        totals = validate_chrome_trace({"traceEvents": events})
        assert totals["outer"] == pytest.approx(0.4)
        assert totals["inner"] == pytest.approx(0.2)

    def test_chrome_trace_has_metadata_and_instants(self):
        events = chrome_trace_events(self._sample_spans())
        phases = {event["ph"] for event in events}
        assert {"M", "B", "E", "i"} <= phases

    def test_write_chrome_trace_file(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", self._sample_spans())
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(payload)

    def test_span_jsonl_round_trips(self, tmp_path):
        spans = self._sample_spans()
        path = write_span_jsonl(tmp_path / "spans.jsonl", spans)
        restored = [
            Span.from_dict(json.loads(line))
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert restored == spans

    def test_validate_rejects_mis_nesting(self):
        bad = {
            "traceEvents": [
                {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0.0},
                {"ph": "B", "name": "b", "pid": 1, "tid": 1, "ts": 1.0},
                {"ph": "E", "name": "a", "pid": 1, "tid": 1, "ts": 2.0},
            ]
        }
        with pytest.raises(ValueError, match="mis-nested"):
            validate_chrome_trace(bad)

    def test_validate_rejects_unclosed_spans(self):
        bad = {"traceEvents": [{"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0.0}]}
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(bad)

    def test_validate_rejects_time_regression(self):
        bad = {
            "traceEvents": [
                {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 5.0},
                {"ph": "E", "name": "a", "pid": 1, "tid": 1, "ts": 1.0},
            ]
        }
        with pytest.raises(ValueError, match="regress"):
            validate_chrome_trace(bad)

    def test_profile_report_lists_spans_and_metrics(self):
        registry = MetricsRegistry()
        registry.inc("allocator.solves", 3)
        report = profile_report(self._sample_spans(), registry)
        assert "== profile: top spans ==" in report
        assert "outer" in report and "inner" in report
        assert "allocator.solves" in report


class TestPipelineInstrumentation:
    def test_pass_spans_match_pass_seconds(self):
        session = Session(hardware="small-test-chip", trace=True)
        program = session.compile("tiny-mlp")
        totals = validate_chrome_trace(
            {"traceEvents": chrome_trace_events(session.tracer.spans())}
        )
        for pass_name, seconds in program.stats["pass_seconds"].items():
            assert totals[pass_name] == pytest.approx(seconds, abs=5e-3)

    def test_disabled_session_records_nothing(self):
        session = Session(hardware="small-test-chip")
        session.compile("tiny-mlp")
        assert session.tracer.spans() == []
        assert not session.obs.enabled

    def test_allocator_counters_mirror_solver_work(self):
        session = Session(hardware="small-test-chip", trace=True)
        session.compile("tiny-mlp")
        counters = session.metrics.to_dict()["counters"]
        assert counters["allocator.solves"] > 0
        assert counters["cache.stores"] > 0


class TestServiceInstrumentation:
    def test_thread_backend_forest_is_well_formed(self, tmp_path):
        """(Id kept from the pool days.)  A batch's span forest: every
        ``compile`` span is a child of the one ``compile_batch`` span."""
        obs = Observability.create()
        service = CompileService(obs=obs)
        jobs = [
            CompileJob("tiny-mlp", hardware="small-test-chip", label=f"job-{i}")
            for i in range(3)
        ]
        results = service.compile_batch(jobs)
        assert all(result.ok for result in results)
        spans = obs.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        batch = next(s for s in spans if s.name == "compile_batch")
        compiles = [s for s in spans if s.name == "compile"]
        assert len(compiles) == 3
        for span in compiles:
            assert span.parent_id == batch.span_id
            assert span.thread == batch.thread
        for span in spans:
            assert span.parent_id is None or span.parent_id in by_id
        # The forest exports to a valid Chrome trace.
        assert validate_chrome_trace({"traceEvents": chrome_trace_events(spans)})

    def test_span_pickle_round_trip_is_bit_identical(self):
        span = Span(
            name="compile",
            start=1.25,
            end=2.5,
            span_id=7,
            parent_id=3,
            thread="MainThread@1",
            process="pid-123",
            attrs={"job": "bert", "ok": True},
            instant=False,
        )
        clone = pickle.loads(pickle.dumps(span))
        assert clone == span
        assert clone.to_dict() == span.to_dict()

class TestReplayAndDseInstrumentation:
    def _trace(self):
        from repro.sim.traces import poisson_trace

        return poisson_trace(
            ["tiny-mlp"], num_requests=5, rate_rps=200.0, seed=1,
            seq_len_buckets=(16,),
        )

    def test_replay_records_request_spans_and_queue_depth(self):
        session = Session(hardware="small-test-chip", trace=True)
        result = session.replay(self._trace())
        assert result.metrics.served == 5
        spans = session.tracer.spans()
        requests = [s for s in spans if s.name == "replay.request"]
        assert len(requests) == 5
        snapshot = session.metrics.to_dict()
        assert snapshot["counters"]["replay.requests"] == 5
        assert snapshot["histograms"]["replay.queue_depth"]["count"] == 5

    def test_replay_metrics_identical_with_and_without_tracing(self):
        traced = Session(hardware="small-test-chip", trace=True)
        plain = Session(hardware="small-test-chip")
        trace = self._trace()
        assert (
            traced.replay(trace).metrics.to_dict()
            == plain.replay(trace).metrics.to_dict()
        )

    def test_dse_points_are_fidelity_tagged(self):
        from repro.dse import DesignSpace

        session = Session(hardware="small-test-chip", trace=True)
        space = DesignSpace(
            models=["tiny-cnn"],
            base_hardware="small-test-chip",
            option_axes={"max_segment_operators": [4, 8]},
        )
        result = session.explore(space, fidelity="analytical")
        assert len(result.records) == 2
        points = [s for s in session.tracer.spans() if s.name == "dse.point"]
        assert len(points) == 2
        assert all(s.attrs["fidelity"] == "analytical" for s in points)
        counters = session.metrics.to_dict()["counters"]
        assert counters["dse.points.analytical"] == 2
        assert "dse.points.cold" not in counters


def _owner_table():
    """``docs/observability.md``'s metric table: registry name → (kind, line)."""
    text = DOCS.joinpath("observability.md").read_text(encoding="utf-8")
    section = text.split("## One metric, one owner", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        name, kind, _, exposition = cells
        rows[name.strip("`")] = (kind, exposition.strip("`"))
    return rows


class TestMetricOwnerTable:
    def _emitted(self, tmp_path):
        """Registry name → kind over a compile + repeats over a cache_dir, a
        sweep, a daemon round trip and a replay.

        The sweep has a third, failing point and the replay an unknown
        model so the names counted only on those paths are emitted too.
        """
        from repro.dse import DesignSpace
        from repro.serve import Client, CompileDaemon
        from repro.sim.traces import Trace, TraceRequest, poisson_trace

        registries = []
        compiled = Observability.create()
        Session("small-test-chip", cache_dir=tmp_path / "a", trace=compiled).compile("tiny-mlp")
        again = Session("small-test-chip", cache_dir=tmp_path / "a", trace=compiled)
        again.compile("tiny-mlp")  # from the store
        again.compile("tiny-mlp")  # from the program table
        registries.append(compiled.metrics)

        sweep = Session("small-test-chip", trace=True)
        sweep.explore(
            DesignSpace(
                models=["tiny-mlp", "tiny-cnn", "no-such-model"],
                base_hardware="small-test-chip",
            ),
            objective="trace_p99",
            trace=poisson_trace(
                ["tiny-mlp", "tiny-cnn"], num_requests=6, rate_rps=200.0, seed=1,
                seq_len_buckets=(16,),
            ),
        )
        registries.append(sweep.metrics)

        daemon = CompileDaemon(cache_dir=tmp_path / "daemon", workers=1)
        threading.Thread(target=daemon.serve_forever, daemon=True).start()
        try:
            with Client(daemon.url, retries=1) as client:
                client.compile("tiny-mlp", hardware="small-test-chip")
        finally:
            daemon.shutdown()
        registries.append(daemon.obs.metrics)

        replay = Session("small-test-chip", trace=True)
        replay.replay(
            Trace(
                requests=[
                    TraceRequest(f"r{i}", float(i), model, Workload(batch_size=1, seq_len=16))
                    for i, model in enumerate(["tiny-mlp", "tiny-cnn", "no-such-model"])
                ]
            )
        )
        registries.append(replay.metrics)

        emitted = {}
        for registry in registries:
            snapshot = registry.to_dict()
            for kind in ("counters", "gauges", "histograms"):
                for name in snapshot[kind]:
                    emitted[name] = kind[:-1]
        return emitted

    def test_table_lists_exactly_the_emitted_names(self, tmp_path):
        rows = _owner_table()
        patterns = {
            row: re.compile(re.sub(r"<\w+>", "[a-z_]+", re.escape(row)) + "$")
            for row in rows
            if "<" in row
        }
        emitted = self._emitted(tmp_path)
        matched = {}
        for name, kind in emitted.items():
            row = name if name in rows else next(
                (row for row, pattern in patterns.items() if pattern.match(name)), None
            )
            assert row is not None, f"{name} is emitted but not in the table"
            assert rows[row][0] == kind, name
            matched[row] = name
        assert set(matched) == set(rows), set(rows) - set(matched)
        # The /metrics column is the registry name with dots as underscores.
        for row, (_, exposition) in rows.items():
            assert exposition in ("—", row.replace(".", "_")), row


class TestSessionExports:
    def test_trace_path_session_exports_on_demand(self, tmp_path):
        target = tmp_path / "session.json"
        session = Session(hardware="small-test-chip", trace=target)
        session.compile("tiny-mlp")
        path = session.export_trace()
        assert path == target
        assert validate_chrome_trace(path)

    def test_export_without_tracing_raises(self, tmp_path):
        session = Session(hardware="small-test-chip")
        with pytest.raises(ValueError, match="tracing is off"):
            session.export_trace(tmp_path / "x.json")

    def test_export_without_path_raises(self):
        session = Session(hardware="small-test-chip", trace=True)
        with pytest.raises(ValueError, match="no trace path"):
            session.export_trace()

    def test_profile_report_from_session(self):
        session = Session(hardware="small-test-chip", trace=True)
        session.compile("tiny-mlp")
        report = session.profile_report()
        assert "== profile: top spans ==" in report
        assert "pipeline" in report


class TestCliObservability:
    def test_cli_quiet_by_default(self, tmp_path, capsys):
        code = main(
            ["dse", "--fidelity", "analytical",
             "--run-dir", str(tmp_path / "run")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # Machine-checkable stdout lines survive the logging migration.
        assert "total allocator solves:" in captured.out

    def test_cli_verbose_routes_status_to_stderr(self, tmp_path, capsys):
        code = main(
            ["-v", "dse", "--fidelity", "analytical",
             "--run-dir", str(tmp_path / "run")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert re.search("^dse:", captured.err, re.M)
        assert "dse:" not in captured.out

    def test_cli_trace_out_and_profile(self, tmp_path, capsys, check_trace):
        trace_path = tmp_path / "batch.json"
        code = main(
            ["compile-batch", "mobilenet", "bert", "--seq-len", "32",
             "--trace-out", str(trace_path), "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"chrome trace: {trace_path}" in out
        assert "== profile: top spans ==" in out
        totals = validate_chrome_trace(trace_path)
        assert "compile_batch" in totals and "segment" in totals
        assert check_trace.main([str(trace_path)]) == 0

    def test_pass_spans_agree_with_the_compilers_pass_seconds(self, tmp_path, check_trace):
        assert check_trace.main(["--out", str(tmp_path / "trace.json")]) == 0
