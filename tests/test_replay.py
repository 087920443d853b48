"""The serving replay simulator (:mod:`repro.sim.replay`).

Six layers of assurance:

* **Conformance** — a single-request replay agrees with the
  :class:`TimingSimulator` replay of the same program within the
  existing modelling tolerance, across the tiny zoo x option matrix.
* **Determinism** — same seed, same metrics JSON, bit for bit.
* **Metamorphic properties** — driven through the pure scheduling core
  (:func:`replay_schedule`), no compiles needed: stretching arrival
  gaps never increases queueing delay, merging schedules preserves
  total served work, p50 <= p99 and utilisation stays in [0, 1] on
  randomized schedules.
* **Differential** — :func:`replay_schedule` equals a ten-line in-test
  Lindley recurrence float for float, with and without a tracer.
* **Golden fixtures** — two committed traces replay to frozen metrics.
* **Program granularity** — a replay renders each program key and prices
  each ordered program pair at most once, however long the trace.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.replay as replay_module
from repro.api import Session
from repro.core.clock import ManualClock
from repro.core.compiler import CMSwitchCompiler, CompilerOptions
from repro.models.registry import build_model
from repro.models.workload import Workload
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.sim.metrics import compute_metrics, percentile
from repro.sim.replay import ReplaySimulator, ScheduledRequest, replay_schedule
from repro.sim.timing import TimingSimulator
from repro.sim.traces import (
    Trace,
    TraceRequest,
    bursty_trace,
    load_trace,
    poisson_trace,
)
from repro.cli import main

DATA_DIR = Path(__file__).parent / "data"

#: (model, workload) pairs covering the tiny zoo's graph shapes.
ZOO = [
    ("tiny-mlp", Workload(batch_size=1, seq_len=32)),
    ("tiny-cnn", Workload(batch_size=1, seq_len=32)),
    ("tiny-transformer", Workload(batch_size=1, seq_len=16)),
]

#: Option matrix of the conformance sweep: dual-mode and fixed-mode.
OPTION_MATRIX = [
    CompilerOptions(generate_code=False),
    CompilerOptions(generate_code=False, allow_memory_mode=False),
]


def _single_request_trace(model: str, workload: Workload) -> Trace:
    return Trace(
        requests=[
            TraceRequest(
                request_id="r0", arrival_ms=0.0, model=model, workload=workload
            )
        ]
    )


# ---------------------------------------------------------------------- #
# conformance: replay pins to the timing simulator
# ---------------------------------------------------------------------- #
class TestConformance:
    @pytest.mark.parametrize("model,workload", ZOO, ids=[m for m, _ in ZOO])
    @pytest.mark.parametrize(
        "options", OPTION_MATRIX, ids=["dual-mode", "fixed-mode"]
    )
    def test_single_request_matches_timing_simulator(
        self, small_chip, model, workload, options
    ):
        """A one-request replay is the old single-program story retold.

        The replay charges the request its program's ``end_to_end_ms``
        exactly; per graph pass that must agree with the
        :class:`TimingSimulator`'s independent replay of the generated
        meta-operator flow within the established modelling tolerance
        (``rel=2.0`` — the same bound ``test_tracks_compiler_prediction``
        pins the compiler's own prediction with).
        """
        result = ReplaySimulator(small_chip, options=options).run(
            _single_request_trace(model, workload)
        )
        assert not result.compile_errors
        outcome = result.outcomes[0]
        assert outcome.served and outcome.switch_ms == 0.0

        # An independent compile with code generation on, for the
        # timing simulator (which replays the meta-operator flow).
        program = CMSwitchCompiler(
            small_chip, dataclasses.replace(options, generate_code=True)
        ).compile(build_model(model, workload))
        # Code generation must not change the predicted timing the
        # replay charged.
        assert outcome.service_ms == pytest.approx(program.end_to_end_ms)

        report = TimingSimulator(small_chip).run(program)
        service_cycles = outcome.service_ms / small_chip.cycles_to_ms(1.0)
        per_pass_cycles = service_cycles / program.block_repeat
        assert report.total_cycles == pytest.approx(per_pass_cycles, rel=2.0)

    def test_single_request_metrics_shape(self, small_chip):
        result = ReplaySimulator(small_chip).run(
            _single_request_trace("tiny-mlp", Workload(batch_size=1, seq_len=32))
        )
        metrics = result.metrics
        assert metrics.served == metrics.requests == 1
        assert metrics.latency_p50_ms == metrics.latency_p99_ms
        assert metrics.utilisation == 1.0  # one request, zero idle time
        assert metrics.switch_ms_total == 0.0


# ---------------------------------------------------------------------- #
# determinism
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_seed_bit_identical_metrics_json(self):
        def run():
            trace = poisson_trace(
                ["tiny-mlp", "tiny-cnn"], num_requests=14, seed=9,
                seq_len_buckets=(16, 32),
            )
            result = ReplaySimulator("small-test-chip").run(trace)
            return json.dumps(result.metrics.to_dict(), sort_keys=True)

        assert run() == run()

    def test_session_replay_matches_direct_simulator(self, tmp_path):
        trace = poisson_trace(["tiny-mlp"], num_requests=6, seed=4)
        session = Session(hardware="small-test-chip")
        via_session = session.replay(trace)
        direct = ReplaySimulator("small-test-chip").run(trace)
        assert via_session.metrics.to_dict() == direct.metrics.to_dict()


# ---------------------------------------------------------------------- #
# metamorphic properties on the pure scheduling core
# ---------------------------------------------------------------------- #
def _schedule(arrivals_services, keys=None, switch_ms=0.05):
    """Helper: run the pure core over (arrival, service) pairs."""
    items = [
        ScheduledRequest(
            request_id=f"r{i}",
            model="m",
            arrival_ms=arrival,
            service_ms=service,
            program_key=keys[i] if keys else "p0",
        )
        for i, (arrival, service) in enumerate(arrivals_services)
    ]

    def switch(prev, key):
        return 0.0 if prev is None or prev == key else switch_ms

    return replay_schedule(items, switch)


# Bounded, non-degenerate virtual-time quantities.
_gaps = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=1, max_size=30
)
_services = st.floats(min_value=0.001, max_value=20.0, allow_nan=False)


class TestMetamorphic:
    @settings(max_examples=60, deadline=None)
    @given(gaps=_gaps, services=st.data(), k=st.floats(min_value=1.0, max_value=10.0))
    def test_stretching_gaps_never_increases_queueing(self, gaps, services, k):
        """Lindley monotonicity: thinner traffic never queues longer.

        Scaling every arrival gap by ``k >= 1`` preserves the request
        order (hence the switch-cost sequence) while weakly increasing
        every inter-arrival distance, so each request's queueing delay
        can only shrink or stay.
        """
        arrivals, now = [], 0.0
        for gap in gaps:
            now += gap
            arrivals.append(now)
        pairs = [(a, services.draw(_services)) for a in arrivals]
        keys = [f"p{i % 3}" for i in range(len(pairs))]
        base = _schedule(pairs, keys=keys)
        stretched = _schedule([(a * k, s) for a, s in pairs], keys=keys)
        for before, after in zip(base, stretched):
            assert after.queue_ms <= before.queue_ms + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(gaps=_gaps, services=st.data())
    def test_merging_preserves_total_served_work(self, gaps, services):
        """Interleaving two schedules serves exactly the union of both."""
        arrivals, now = [], 0.0
        for gap in gaps:
            now += gap
            arrivals.append(now)
        pairs = [(a, services.draw(_services)) for a in arrivals]
        half = len(pairs) // 2
        first, second = pairs[:half], pairs[half:]
        merged = sorted(pairs, key=lambda p: p[0])
        total = sum(o.service_ms for o in _schedule(merged))
        parts = sum(o.service_ms for o in _schedule(sorted(first))) + sum(
            o.service_ms for o in _schedule(sorted(second))
        )
        assert total == pytest.approx(parts)
        assert len(_schedule(merged)) == len(first) + len(second)

    @settings(max_examples=60, deadline=None)
    @given(gaps=_gaps, services=st.data())
    def test_percentiles_ordered_and_utilisation_bounded(self, gaps, services):
        arrivals, now = [], 0.0
        for gap in gaps:
            now += gap
            arrivals.append(now)
        pairs = [(a, services.draw(_services)) for a in arrivals]
        keys = [f"p{i % 2}" for i in range(len(pairs))]
        metrics = compute_metrics(_schedule(pairs, keys=keys))
        assert metrics.latency_p50_ms <= metrics.latency_p99_ms
        assert 0.0 <= metrics.utilisation <= 1.0
        assert 0.0 <= metrics.switch_share <= 1.0
        assert metrics.served == len(pairs)

    def test_failed_requests_do_not_occupy_the_server(self):
        items = [
            ScheduledRequest("r0", "m", 0.0, 5.0, "p0"),
            ScheduledRequest("r1", "m", 1.0, None, "p1"),  # failed compile
            ScheduledRequest("r2", "m", 2.0, 5.0, "p0"),
        ]
        outcomes = replay_schedule(items, lambda prev, key: 0.0)
        assert [o.served for o in outcomes] == [True, False, True]
        # r2 starts when r0 finishes; the failed r1 added no delay and
        # did not perturb the array layout (no p1 -> p0 switch).
        assert outcomes[2].start_ms == outcomes[0].finish_ms
        failed = compute_metrics(outcomes)
        assert failed.failed == 1 and failed.served == 2

    def test_schedule_clock_only_moves_forward(self):
        # A request arriving long before the server frees up must not
        # rewind the clock (ManualClock would raise).
        items = [
            ScheduledRequest("r0", "m", 0.0, 10.0, "p0"),
            ScheduledRequest("r1", "m", 0.5, 1.0, "p0"),
        ]
        outcomes = replay_schedule(items, lambda prev, key: 0.0)
        assert outcomes[1].start_ms == outcomes[0].finish_ms
        assert outcomes[1].queue_ms == pytest.approx(9.5)


# ---------------------------------------------------------------------- #
# differential: the event loop against an in-test recurrence
# ---------------------------------------------------------------------- #
_PROGRAMS = ["p0", "p1", "p2", "p3"]

_request = st.tuples(
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False),  # gap to previous
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0, allow_nan=False)),
    st.sampled_from(_PROGRAMS),
)
_switch_table = st.dictionaries(
    st.tuples(st.sampled_from(_PROGRAMS), st.sampled_from(_PROGRAMS)),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)


def _items(requests):
    """ScheduledRequests from (gap, service-or-None, key) triples."""
    items, arrival = [], 0.0
    for index, (gap, service, key) in enumerate(requests):
        arrival += gap
        items.append(ScheduledRequest(f"r{index}", "m", arrival, service, key))
    return items


def _table_switch(table):
    def switch(previous, key):
        return 0.0 if previous is None else table.get((previous, key), 0.0)

    return switch


def _reference_schedule(items, switch, start=0.0):
    """The Lindley recurrence, written out: (start, switch, finish, served)."""
    rows, now, previous = [], start, None
    for item in items:
        if item.service_ms is None:  # dropped: occupies nothing, layout unchanged
            rows.append((item.arrival_ms, 0.0, item.arrival_ms, False))
            continue
        begin = now + (item.arrival_ms - now) if item.arrival_ms > now else now
        switch_ms = switch(previous, item.program_key)
        now = begin + (switch_ms + item.service_ms)
        rows.append((begin, switch_ms, now, True))
        previous = item.program_key
    return rows


class TestScheduleDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        requests=st.lists(_request, max_size=40),
        table=_switch_table,
        start=st.sampled_from([0.0, 5.0]),
    )
    def test_equals_the_recurrence_float_for_float(self, requests, table, start):
        items = _items(requests)
        switch = _table_switch(table)
        outcomes = replay_schedule(items, switch, clock=ManualClock(start=start))
        rows = [(o.start_ms, o.switch_ms, o.finish_ms, o.served) for o in outcomes]
        assert rows == _reference_schedule(items, switch, start=start)  # exact
        assert [o.request_id for o in outcomes] == [i.request_id for i in items]

    @settings(max_examples=60, deadline=None)
    @given(requests=st.lists(_request, max_size=25), table=_switch_table)
    def test_tracer_observes_without_perturbing(self, requests, table):
        items = _items(requests)
        switch = _table_switch(table)
        tracer = Tracer()
        traced = replay_schedule(items, switch, tracer=tracer)
        assert traced == replay_schedule(items, switch)
        spans = [s for s in tracer.spans() if s.name == "replay.request"]
        assert [s.attrs["request"] for s in spans] == [i.request_id for i in items]
        for span, outcome in zip(spans, traced):
            assert span.attrs["served"] == outcome.served
            assert span.attrs["arrival_ms"] == outcome.arrival_ms
            if outcome.served:
                for name in ("start_ms", "finish_ms", "switch_ms", "latency_ms"):
                    assert span.attrs[name] == getattr(outcome, name)
        switches = [s for s in tracer.spans() if s.name == "replay.switch"]
        assert len(switches) == sum(o.switch_ms > 0.0 for o in traced)

    def test_injected_clock_ends_at_the_last_finish(self):
        clock = ManualClock(start=5.0)
        items = [
            ScheduledRequest("r0", "m", 6.1, 0.3, "p0"),
            ScheduledRequest("r1", "m", 6.2, None, "p1"),
            ScheduledRequest("r2", "m", 6.3, 1.7, "p2"),
        ]
        outcomes = replay_schedule(items, lambda prev, key: 0.05, clock=clock)
        assert outcomes[0].start_ms == 5.0 + (6.1 - 5.0)
        assert clock.now() == outcomes[-1].finish_ms

    def test_negative_step_is_rejected_and_closes_its_span(self):
        tracer = Tracer()
        items = [ScheduledRequest("r0", "m", 0.0, -1.0, "p0")]
        with pytest.raises(ValueError, match="backwards"):
            replay_schedule(items, lambda prev, key: 0.0, tracer=tracer)
        (span,) = tracer.spans()
        assert span.name == "replay.request" and span.attrs["error"] == "ValueError"
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None  # nothing left open on the stack


class TestPercentile:
    def test_nearest_rank_basics(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 99.0) == 4.0
        assert percentile(values, 0.0) == 1.0
        assert math.isnan(percentile([], 50.0))

    def test_monotone_in_q(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        qs = [0, 10, 25, 50, 75, 90, 99, 100]
        results = [percentile(values, q) for q in qs]
        assert results == sorted(results)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_registry_histogram_reports_the_replay_percentiles(self):
        """One definition: what ``--profile`` shows for ``replay.latency_ms``
        is the report's ``latency_p50_ms`` / ``latency_p99_ms``, bit for bit
        (an index-rounding histogram differed on 6 of these 18 replays)."""
        histogram = MetricsRegistry().histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.percentile(50) == percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        session = Session(hardware="small-test-chip")
        for seed in range(6):
            for requests in (10, 20, 40):
                trace = poisson_trace(
                    ["tiny-mlp", "tiny-cnn"], num_requests=requests,
                    rate_rps=20000, seed=seed,
                )
                obs = Observability.create()
                report = ReplaySimulator(
                    "small-test-chip", service=session.service, obs=obs
                ).run(trace).metrics
                latency = obs.metrics.histogram("replay.latency_ms")
                assert latency.count == report.served == requests
                assert (latency.percentile(50), latency.percentile(99)) == (
                    report.latency_p50_ms, report.latency_p99_ms
                ), (seed, requests)


# ---------------------------------------------------------------------- #
# golden fixtures
# ---------------------------------------------------------------------- #
class TestGoldenTraces:
    @pytest.mark.parametrize("name", ["single", "mixed"])
    def test_frozen_metrics(self, name):
        trace = load_trace(DATA_DIR / f"trace_{name}.jsonl")
        result = ReplaySimulator("small-test-chip").run(trace)
        expected = json.loads(
            (DATA_DIR / f"trace_{name}.expected.json").read_text(encoding="utf-8")
        )
        assert result.metrics.to_dict() == expected

    def test_mixed_trace_actually_switches_modes(self):
        # The mixed fixture interleaves models precisely so consecutive
        # programs disagree on array layouts; a regression that stops
        # charging re-provisioning would zero this.
        trace = load_trace(DATA_DIR / "trace_mixed.jsonl")
        result = ReplaySimulator("small-test-chip").run(trace)
        assert result.metrics.switch_ms_total > 0.0


# ---------------------------------------------------------------------- #
# replay result / report shape
# ---------------------------------------------------------------------- #
class TestReplayResult:
    def test_json_report_shape(self, tmp_path):
        trace = poisson_trace(["tiny-mlp"], num_requests=4, seed=0)
        result = ReplaySimulator("small-test-chip").run(trace)
        payload = result.to_json_dict()
        assert payload["schema"] == "repro-replay-report/1"
        assert payload["hardware"]["preset"] == "small-test-chip"
        assert payload["trace"]["requests"] == 4
        assert payload["compile"]["distinct_programs"] >= 1
        assert payload["metrics"]["served"] == 4
        json.dumps(payload)  # strictly serialisable

    def test_warm_replay_solves_nothing(self, tmp_path):
        trace = poisson_trace(["tiny-mlp", "tiny-cnn"], num_requests=8, seed=2)
        cache_dir = tmp_path / "cache"
        cold = Session(hardware="small-test-chip", cache_dir=str(cache_dir)).replay(trace)
        warm = Session(hardware="small-test-chip", cache_dir=str(cache_dir)).replay(trace)
        assert cold.allocator_solves > 0
        assert warm.allocator_solves == 0
        assert warm.metrics.to_dict() == cold.metrics.to_dict()

    def test_failed_compile_is_isolated(self, small_chip):
        # An infeasible workload (huge model on the 8-array chip would
        # still plan; instead force failure with an unknown model name
        # routed around the registry check).
        trace = Trace(
            requests=[
                TraceRequest(
                    request_id="r0", arrival_ms=0.0, model="tiny-mlp",
                    workload=Workload(batch_size=1, seq_len=32),
                ),
                TraceRequest(
                    request_id="r1", arrival_ms=0.1, model="no-such-model",
                    workload=Workload(batch_size=1, seq_len=32),
                ),
            ]
        )
        result = ReplaySimulator(small_chip).run(trace)
        assert result.metrics.served == 1
        assert result.metrics.failed == 1
        assert result.compile_errors
        served = [o for o in result.outcomes if o.served]
        assert len(served) == 1


# ---------------------------------------------------------------------- #
# compile-side work is per program, not per request
# ---------------------------------------------------------------------- #
class TestProgramGranularity:
    def _trace(self):
        return bursty_trace(
            ["tiny-mlp", "tiny-cnn", "tiny-transformer"],
            num_requests=2_000,
            seed=5,
            seq_len_buckets=(16, 32),
        )

    def test_keys_and_switches_priced_once_per_program(self, monkeypatch):
        calls = {"render": 0, "price": 0}

        def count(name, counter):
            original = getattr(replay_module, name)

            def wrapper(*args, **kwargs):
                calls[counter] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(replay_module, name, wrapper)

        count("workload_to_payload", "render")
        count("mode_switch_cycles", "price")
        trace = self._trace()
        pairs = {(request.model, request.workload) for request in trace.requests}
        assert len(pairs) == 6

        result = ReplaySimulator("small-test-chip").run(trace)

        assert result.metrics.served == 2_000 and result.distinct_programs == 6
        assert 0 < calls["render"] <= len(pairs)
        switched = sum(o.switch_ms > 0.0 for o in result.outcomes)
        assert switched > len(pairs) * (len(pairs) - 1)  # far more switches ...
        assert 0 < calls["price"] <= len(pairs) * (len(pairs) - 1)  # ... than pricings

    def test_registry_counters_are_the_outcome_tallies(self):
        session = Session(hardware="small-test-chip", trace=True)
        result = session.replay(self._trace())
        counters = session.metrics.to_dict()["counters"]
        assert counters["replay.requests"] == 2_000
        assert counters["replay.switches"] == sum(
            o.switch_ms > 0.0 for o in result.outcomes
        )
        assert "replay.dropped" not in counters


# ---------------------------------------------------------------------- #
# CLI regression: bad trace files exit 2 with a usage message
# ---------------------------------------------------------------------- #
class TestCLITraceErrors:
    def test_replay_nonexistent_trace_exits_2(self, tmp_path, capsys):
        code = main(["replay", "--trace", str(tmp_path / "missing.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read trace file" in err
        assert "usage: repro replay" in err

    def test_replay_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not a trace\n", encoding="utf-8")
        code = main(["replay", "--trace", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid trace file" in err

    def test_replay_newer_version_exits_2(self, tmp_path, capsys):
        future = tmp_path / "future.jsonl"
        future.write_text(
            '{"format": "repro-trace", "version": 99}\n', encoding="utf-8"
        )
        code = main(["replay", "--trace", str(future)])
        err = capsys.readouterr().err
        assert code == 2
        assert "newer than the supported" in err

    def test_dse_nonexistent_trace_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "dse", "tiny-mlp", "--objective", "trace-p99",
                "--trace", str(tmp_path / "missing.jsonl"),
                "--run-dir", str(tmp_path / "run"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read trace file" in err
        assert "usage: repro dse" in err

    def test_dse_trace_objective_requires_trace(self, tmp_path, capsys):
        code = main(
            ["dse", "tiny-mlp", "--objective", "trace-p99",
             "--run-dir", str(tmp_path / "run")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "requires --trace" in err

    def test_dse_trace_objective_rejects_analytical_fidelity(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        from repro.sim.traces import save_trace

        save_trace(poisson_trace(["tiny-mlp"], num_requests=2, seed=0), trace_path)
        code = main(
            ["dse", "tiny-mlp", "--objective", "trace-p99", "--trace",
             str(trace_path), "--fidelity", "analytical",
             "--run-dir", str(tmp_path / "run")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "needs real compiled plans" in err

    def test_replay_unknown_synthetic_model_exits_2(self, capsys):
        code = main(["replay", "--models", "no-such-model"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown model name" in err


class TestCLIReplay:
    def test_replay_reports_machine_lines(self, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        code = main(
            [
                "replay", "--preset", "small-test-chip", "--synthetic", "poisson",
                "--models", "tiny-mlp", "--requests", "6", "--seed", "1",
                "--seq-lens", "16", "--json-out", str(json_out),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "replay throughput:" in out
        assert "replay p50:" in out
        assert "replay p99:" in out
        assert "total allocator solves:" in out
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert payload["metrics"]["served"] == 6

    def test_replay_same_seed_identical_metrics(self, tmp_path, capsys):
        args = [
            "replay", "--preset", "small-test-chip", "--models", "tiny-mlp",
            "--requests", "5", "--seed", "3", "--seq-lens", "16",
        ]
        assert main(args + ["--json-out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--json-out", str(tmp_path / "b.json")]) == 0
        capsys.readouterr()
        a = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
        b = json.loads((tmp_path / "b.json").read_text(encoding="utf-8"))
        assert a["metrics"] == b["metrics"]
