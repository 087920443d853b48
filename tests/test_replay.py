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
import warnings
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.replay as replay_module
import repro.sim.traces as traces_module
from repro.api import Session
from repro.core.clock import ManualClock
from repro.core.compiler import CMSwitchCompiler, CompilerOptions
from repro.models.registry import build_model
from repro.models.workload import Workload
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.service import ModelRecipe
from repro.obs.metrics import nearest_rank
from repro.sim.metrics import ReplayMetrics, compute_metrics, percentile
from repro.cost.switching import mode_switch_cycles
from repro.sim.replay import ReplaySimulator, replay_schedule
from repro.sim.timing import TimingSimulator
from repro.sim.traces import (
    Trace,
    TraceRequest,
    bursty_trace,
    load_trace,
    poisson_trace,
    save_trace,
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
def _replay(rows, switch, **kwargs):
    """Run the pure core over (arrival, service-or-None, key) rows.

    Request ``i`` is ``r{i}`` of model ``m``; each distinct (key,
    service) pair becomes one program, so programs repeat and the
    switch table is shared as in a real replay.
    """
    index, programs = [], {}
    for _, service, key in rows:
        index.append(programs.setdefault((key, service), len(programs)))
    return replay_schedule(
        [f"r{i}" for i in range(len(rows))],
        [arrival for arrival, _, _ in rows],
        index,
        [key for key, _ in programs],
        ["m"] * len(programs),
        [service for _, service in programs],
        switch,
        **kwargs,
    )


def _schedule(arrivals_services, keys=None, switch_ms=0.05):
    """Helper: run the pure core over (arrival, service) pairs."""
    rows = [
        (arrival, service, keys[i] if keys else "p0")
        for i, (arrival, service) in enumerate(arrivals_services)
    ]

    def switch(prev, key):
        return 0.0 if prev is None or prev == key else switch_ms

    return _replay(rows, switch)


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
        rows = [
            (0.0, 5.0, "p0"),
            (1.0, None, "p1"),  # failed compile
            (2.0, 5.0, "p0"),
        ]
        outcomes = _replay(rows, lambda prev, key: 0.0)
        assert [o.served for o in outcomes] == [True, False, True]
        # r2 starts when r0 finishes; the failed r1 added no delay and
        # did not perturb the array layout (no p1 -> p0 switch).
        assert outcomes[2].start_ms == outcomes[0].finish_ms
        failed = compute_metrics(outcomes)
        assert failed.failed == 1 and failed.served == 2

    def test_schedule_clock_only_moves_forward(self):
        # A request arriving long before the server frees up must not
        # rewind the clock (ManualClock would raise).
        rows = [(0.0, 10.0, "p0"), (0.5, 1.0, "p0")]
        outcomes = _replay(rows, lambda prev, key: 0.0)
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


def _rows(requests):
    """(arrival, service-or-None, key) rows from (gap, service, key) triples."""
    rows, arrival = [], 0.0
    for gap, service, key in requests:
        arrival += gap
        rows.append((arrival, service, key))
    return rows


def _table_switch(table):
    def switch(previous, key):
        return 0.0 if previous is None else table.get((previous, key), 0.0)

    return switch


def _reference_schedule(requests, switch, start=0.0):
    """The Lindley recurrence, written out: (start, switch, finish, served)."""
    rows, now, previous = [], start, None
    for arrival_ms, service_ms, key in requests:
        if service_ms is None:  # dropped: occupies nothing, layout unchanged
            rows.append((arrival_ms, 0.0, arrival_ms, False))
            continue
        begin = now + (arrival_ms - now) if arrival_ms > now else now
        switch_ms = switch(previous, key)
        now = begin + (switch_ms + service_ms)
        rows.append((begin, switch_ms, now, True))
        previous = key
    return rows


def _bits(rows):
    """Rows of floats and flags with every float as its ``float.hex``, so
    ``-0.0`` and ``0.0`` (equal under ``==``) differ."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def _outcome_rows(outcomes):
    return [(o.start_ms, o.switch_ms, o.finish_ms, o.served) for o in outcomes]


@st.composite
def _traffic(draw):
    """(arrival, service-or-None, key) rows of up to 600 requests, from
    light traffic to a saturated server: a share of the gaps are zero or
    short (bursts), the rest exponential; services are exponential at a
    drawn scale, some zero, some dropped.  Built from a drawn seed, so
    long schedules relax over many rounds, settle busy periods whole and
    walk heavy traffic."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, 600))
    bursty = draw(st.sampled_from([0.0, 0.3, 0.7, 0.95]))
    scale = draw(st.sampled_from([0.5, 2.0, 8.0, 30.0]))
    dropped = draw(st.sampled_from([0.0, 0.1]))
    short = rng.random(count) < bursty
    gaps = np.where(short, rng.uniform(0.0, 0.5, count) * (rng.random(count) < 0.5),
                    rng.exponential(10.0, count))
    services = rng.exponential(scale, count) * (rng.random(count) < 0.95)
    keys = rng.choice(_PROGRAMS, count)
    return [
        (arrival, None if drop else service, key)
        for arrival, service, key, drop in zip(
            np.cumsum(gaps).tolist(), services.tolist(), keys.tolist(),
            (rng.random(count) < dropped).tolist(),
        )
    ]


def _clock_after(expected, start):
    """Where a clock started at ``start`` ends: at the last served finish
    exactly (``start`` when nothing is served)."""
    finishes = [finish for _, _, finish, served in expected if served]
    return finishes[-1] if finishes else start


def _spied_paths(monkeypatch):
    """Record which of the schedule's hand-overs a replay takes: a busy
    period settled whole (``busy``) or a walk to the end (``walk``)."""
    taken = []
    for name, label in (("_serve_busy", "busy"), ("_walk", "walk")):
        original = getattr(replay_module, name)

        def spy(first, *args, original=original, label=label):
            taken.append((label, first))
            return original(first, *args)

        monkeypatch.setattr(replay_module, name, spy)
    return taken


class TestScheduleDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        requests=st.lists(_request, max_size=40),
        table=_switch_table,
        start=st.sampled_from([0.0, -0.0, 5.0]),
    )
    def test_equals_the_recurrence_float_for_float(self, requests, table, start):
        rows = _rows(requests)
        switch = _table_switch(table)
        outcomes = _replay(rows, switch, clock=ManualClock(start=start))
        expected = _reference_schedule(rows, switch, start=start)
        assert _bits(_outcome_rows(outcomes)) == _bits(expected)  # bit for bit
        assert [o.request_id for o in outcomes] == [f"r{i}" for i in range(len(rows))]

    @settings(max_examples=150, deadline=None)
    @given(rows=_traffic(), table=_switch_table, start=st.sampled_from([0.0, 3.0, 1e9]))
    def test_any_traffic_equals_the_recurrence_bit_for_bit(self, rows, table, start):
        switch = _table_switch(table)
        clock = ManualClock(start=start)
        outcomes = _replay(rows, switch, clock=clock)
        expected = _reference_schedule(rows, switch, start=start)
        assert _bits(_outcome_rows(outcomes)) == _bits(expected)
        assert clock.now().hex() == _clock_after(expected, start).hex()

    @pytest.mark.parametrize(
        "rows, paths",
        [
            pytest.param([], set(), id="empty"),
            pytest.param([(2.5, 1.0, "p0")], set(), id="single"),
            pytest.param(
                [(10.0 * i + 0.1, 1.0, f"p{i % 2}") for i in range(50)], set(), id="all-idle"
            ),
            pytest.param(  # three in a burst, three alone: a few rounds settle them
                [(10.0 * (i // 6) + (0.01 * (i % 6) if i % 6 < 3 else 2 * (i % 6) - 3), 0.5, "p0")
                 for i in range(60)],
                set(),
                id="light-bursts",
            ),
            pytest.param([(0.0, 1.0, f"p{i % 3}") for i in range(50)], {"busy"}, id="all-queued"),
            pytest.param(  # 30 queue behind one another, then every request idles
                [(0.0, 2.0, "p0")] * 30 + [(100.0 + 7.0 * i, 1.5, "p1") for i in range(30)],
                {"busy"},
                id="saturated-then-idle",
            ),
            pytest.param(
                [(float(i), 2.0 if i % 4 else None, f"p{i % 2}") for i in range(40)],
                {"busy"},
                id="dropped",
            ),
            pytest.param(  # idle after a busy period that ended before half its arrival
                [(0.0, 0.35, "p0"), (0.0, 0.35, "p0"), (2.9, 1.0, "p0")], set(), id="inexact-idle"
            ),
            # 0.7 + (2.9 - 0.7) is 2.9 plus an ulp, so an idle start is not
            # always its arrival: the fourth request's first-round start is
            # off until its busy predecessors settle.
            pytest.param(
                [(0.0, 0.7, "p0")] * 3 + [(2.9, 0.7, "p0")], {"busy"}, id="stale-idle"
            ),
            pytest.param(
                [(0.0, 0.7, "p0")] * 3 + [(2.9, 0.7, "p0")] + [(3.0, 0.7, "p0")] * 6,
                {"busy", "walk"},
                id="stale-idle-heavy",
            ),
            pytest.param(  # two of three queue: heavy traffic is walked
                [(10.0 * (i // 3) + 0.01 * (i % 3), 3.0, "p0") for i in range(60)],
                {"busy", "walk"},
                id="heavy",
            ),
            pytest.param(  # 60 bursts of 60 among idle requests: the rounds' budget runs out
                [(2000.0 * (i // 200) + (0.001 * (i % 200) if i % 200 < 60 else 10.0 * (i % 200)),
                  2.0, "p0") for i in range(12_000)],
                {"busy", "walk"},
                id="long-bursts",
            ),
        ],
    )
    def test_explicit_cases_equal_the_recurrence(self, monkeypatch, rows, paths):
        switch = _table_switch({("p0", "p1"): 0.25, ("p1", "p0"): 0.5, ("p2", "p0"): 0.125})
        for start in (4.0, 0.7, 0.0):
            taken = _spied_paths(monkeypatch)
            clock = ManualClock(start=start)
            outcomes = _replay(rows, switch, clock=clock)
            expected = _reference_schedule(rows, switch, start=start)
            assert _bits(_outcome_rows(outcomes)) == _bits(expected)
            assert clock.now().hex() == _clock_after(expected, start).hex()
        assert {label for label, _ in taken} == paths  # from a clock at 0

    def test_signed_zeros_keep_their_sign(self):
        """A server at -0.0 with -0.0 steps starts every request at -0.0,
        not 0.0; a start that moves only in its sign still moves."""
        rows = [(0.0, -0.0, "p0")] * 5

        def switch(previous, key):
            return -0.0

        outcomes = _replay(rows, switch, clock=ManualClock(start=-0.0))
        expected = _reference_schedule(rows, switch, start=-0.0)
        assert _bits(_outcome_rows(outcomes)) == _bits(expected)
        assert {start for start, *_ in _bits(expected)} == {(-0.0).hex()}

    def test_overflow_and_infinities_raise_no_numpy_warning(self):
        """IEEE results, as the loop's Python floats give them silently."""
        rows = [(0.0, 1e308, "p0"), (1e308, 1e308, "p1"), (math.inf, 1.0, "p0"),
                (math.inf, 2.0, "p1"), (math.inf, 0.0, "p0")]
        switch = _table_switch({("p0", "p1"): 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = _replay(rows, switch)
        assert _bits(_outcome_rows(outcomes)) == _bits(_reference_schedule(rows, switch))

    def test_a_later_clock_start_delays_the_first_requests(self):
        clock = ManualClock(start=7.0)
        rows = [(1.0, 2.0, "p0"), (2.0, 2.0, "p0"), (20.0, 1.0, "p0")]
        outcomes = _replay(rows, _table_switch({}), clock=clock)
        assert [o.start_ms for o in outcomes] == [7.0, 9.0, 20.0]
        assert clock.now() == 21.0

    def test_a_saturated_schedule_of_100k_requests_is_one_busy_period(self, monkeypatch):
        """Linear time: a server that never idles settles its one busy
        period after the first round; relaxing one request per round
        would take 100,000 rounds over a shrinking tail, minutes of numpy."""
        taken = _spied_paths(monkeypatch)
        rows = [(0.001 * i, 1.0 + (i % 7) / 8.0, f"p{i % 2}") for i in range(100_000)]
        switch = _table_switch({("p0", "p1"): 0.25, ("p1", "p0"): 0.5})
        outcomes = _replay(rows, switch)
        assert taken == [("busy", 2)]
        assert _bits(_outcome_rows(outcomes)) == _bits(_reference_schedule(rows, switch))

    @settings(max_examples=60, deadline=None)
    @given(requests=st.lists(_request, max_size=25), table=_switch_table)
    def test_tracer_observes_without_perturbing(self, requests, table):
        rows = _rows(requests)
        switch = _table_switch(table)
        tracer = Tracer()
        traced = _replay(rows, switch, tracer=tracer)
        assert traced == _replay(rows, switch)
        spans = [s for s in tracer.spans() if s.name == "replay.request"]
        ids = [f"r{i}" for i in range(len(rows))]
        assert [s.attrs["request"] for s in spans] == ids
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
        rows = [(6.1, 0.3, "p0"), (6.2, None, "p1"), (6.3, 1.7, "p2")]
        outcomes = _replay(rows, lambda prev, key: 0.05, clock=clock)
        assert outcomes[0].start_ms == 5.0 + (6.1 - 5.0)
        assert clock.now() == outcomes[-1].finish_ms

    def test_negative_step_is_rejected_and_closes_its_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="backwards"):
            _replay([(0.0, -1.0, "p0")], lambda prev, key: 0.0, tracer=tracer)
        (span,) = tracer.spans()
        assert span.name == "replay.request" and span.attrs["error"] == "ValueError"
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None  # nothing left open on the stack


def _reference_metrics(outcomes) -> dict:
    """:func:`compute_metrics` written out over the outcome records:
    ``sorted`` + ``nearest_rank``, ``sum`` in request order, ``Counter``."""
    served = [o for o in outcomes if o.served]
    metrics = ReplayMetrics(
        requests=len(outcomes), served=len(served), failed=len(outcomes) - len(served)
    )
    if served:
        latencies = [o.latency_ms for o in served]
        ordered = sorted(latencies)
        metrics.makespan_ms = (
            max(o.finish_ms for o in served) - min(o.arrival_ms for o in served)
        )
        if metrics.makespan_ms > 0:
            metrics.throughput_rps = len(served) / (metrics.makespan_ms / 1000.0)
        metrics.latency_p50_ms = nearest_rank(ordered, 50.0)
        metrics.latency_p99_ms = nearest_rank(ordered, 99.0)
        metrics.latency_max_ms = ordered[-1]
        metrics.latency_mean_ms = sum(latencies) / len(served)
        metrics.queue_ms_mean = sum(o.queue_ms for o in served) / len(served)
        metrics.queue_ms_max = max(o.queue_ms for o in served)
        metrics.service_ms_total = sum(o.service_ms for o in served)
        metrics.switch_ms_total = sum(o.switch_ms for o in served)
        busy = metrics.service_ms_total + metrics.switch_ms_total
        if busy > 0:
            metrics.switch_share = metrics.switch_ms_total / busy
        if metrics.makespan_ms > 0:
            metrics.utilisation = min(1.0, busy / metrics.makespan_ms)
        elif busy > 0:
            metrics.utilisation = 1.0
        metrics.per_model = dict(Counter(o.model for o in served))
    return metrics.to_dict()


#: Per-program service times: ``None`` (a failed compile), a few shared
#: values (latency ties) and arbitrary ones.
_program_services = st.lists(
    st.none()
    | st.sampled_from([0.25, 0.5, 1.0])
    | st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    min_size=1,
    max_size=4,
)


class TestMetricsDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        count=st.sampled_from([1, 2, 99, 100, 101]),  # nearest-rank edges
        services=_program_services,
    )
    def test_equals_the_written_out_reference_bit_for_bit(self, data, count, services):
        gaps = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.25])
                | st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                min_size=count, max_size=count,
            )
        )
        programs = data.draw(
            st.lists(
                st.integers(0, len(services) - 1), min_size=count, max_size=count
            )
        )
        keys = [f"p{index}" for index in range(len(services))]
        models = [("a", "b", "a", "c")[index] for index in range(len(services))]
        outcomes = replay_schedule(
            [f"r{index}" for index in range(count)], list(accumulate(gaps)), programs,
            keys, models, services,
            lambda previous, key: 0.0 if previous in (None, key) else 0.125,
        )
        expected = _reference_metrics(outcomes)
        assert repr(compute_metrics(outcomes).to_dict()) == repr(expected)
        listed = replay_module.ReplayOutcomes(
            outcomes.request_ids, outcomes.arrivals, outcomes.programs,
            keys, models, services,
            outcomes.starts.tolist(), outcomes.switches.tolist(),
            outcomes.finishes.tolist(),
        )
        assert repr(compute_metrics(listed).to_dict()) == repr(expected)
        for outcome in (outcomes[0], *outcomes, *listed):
            assert all(
                type(getattr(outcome, name)) is float
                for name in ("arrival_ms", "start_ms", "switch_ms", "service_ms", "finish_ms")
            )
            assert type(outcome.served) is bool


class TestQueueDepth:
    def test_a_dropped_request_is_not_waiting(self):
        """r1 starts at 10 ms with only r3 waiting: r2 was dropped at 2 ms."""
        outcomes = _replay(
            [(0.0, 10.0, "p0"), (1.0, 1.0, "p0"), (2.0, None, "p1"), (3.0, 1.0, "p0")],
            lambda prev, key: 0.0,
        )
        obs = Observability.create()
        ReplaySimulator("small-test-chip", obs=obs)._observe(outcomes)
        depth = obs.metrics.histogram("replay.queue_depth")
        # One sample per served request: [0, 1, 0].
        assert (depth.count, depth.total, depth.max) == (3, 1.0, 1.0)
        assert obs.metrics.to_dict()["counters"]["replay.dropped"] == 1


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

    def test_a_second_replay_builds_no_graph_and_solves_nothing(self, monkeypatch):
        builds = []
        real = ModelRecipe.build

        def build(recipe):
            builds.append(recipe.model)
            return real(recipe)

        monkeypatch.setattr(ModelRecipe, "build", build)
        trace = bursty_trace(
            ["tiny-mlp", "tiny-cnn"], num_requests=200, seed=4, seq_len_buckets=(16, 32)
        )
        session = Session(hardware="small-test-chip")
        cold = session.replay(trace)
        assert cold.allocator_solves > 0 and len(builds) == cold.distinct_programs
        del builds[:]
        warm = session.replay(trace)
        assert builds == [] and warm.allocator_solves == 0
        assert warm.metrics == cold.metrics
        assert warm.metrics.to_dict() == cold.metrics.to_dict()

    def test_metrics_read_the_columns_as_picking_the_served_would(self):
        """With every program compiled, ``compute_metrics`` reads the
        columns as they are; picking out the served requests (the path a
        failed program takes) gives the same metrics, bit for bit."""
        trace = bursty_trace(["tiny-mlp", "tiny-cnn"], num_requests=500, seed=6)
        outcomes = ReplaySimulator("small-test-chip").run(trace).outcomes
        assert None not in outcomes.service_ms
        # An extra program that failed to compile and that no request runs.
        picked = replay_module.ReplayOutcomes(
            outcomes.request_ids, outcomes.arrivals, outcomes.programs,
            [*outcomes.keys, "failed"], [*outcomes.models, "failed"],
            [*outcomes.service_ms, None],
            outcomes.starts, outcomes.switches, outcomes.finishes,
        )
        direct, slow = compute_metrics(outcomes), compute_metrics(picked)
        assert direct.served == slow.served == 500
        assert direct.to_dict() == slow.to_dict()
        assert direct.latency_max_ms == max(o.latency_ms for o in outcomes)

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

    def test_long_replay_is_the_recurrence_float_for_float(self, monkeypatch):
        """2,000 requests that queue and switch, against in-test references.

        Nothing here is a committed number: the rows are the ten-line
        recurrence over independently compiled service times and an
        independently priced Eq. 1, and the metrics are recomputed with
        the same ``sum`` order, so the check holds bit for bit on any
        Python version (``sum`` of floats is compensated from 3.12).
        """
        built = []

        def counting_outcome(**fields):
            built.append(fields["request_id"])
            return outcome_type(**fields)

        outcome_type = replay_module.RequestOutcome
        monkeypatch.setattr(replay_module, "RequestOutcome", counting_outcome)
        trace = self._trace()
        simulator = ReplaySimulator("small-test-chip")
        result = simulator.run(trace)
        assert built == []  # the replay itself builds no per-request record

        chip = simulator.hardware
        key = replay_module._program_key
        programs = {
            label: job.program for label, job in simulator.compile_pool(trace).items()
        }

        def switch(previous, current):
            if previous is None or previous == current:
                return 0.0
            return chip.cycles_to_ms(
                mode_switch_cycles(
                    programs[previous].segments[-1].resources,
                    programs[current].segments[0].resources,
                    chip,
                )
            )

        keys = [key(r.model, r.workload) for r in trace.requests]
        arrivals = [r.arrival_ms for r in trace.requests]
        services = [programs[k].end_to_end_ms for k in keys]
        expected = _reference_schedule(zip(arrivals, services, keys), switch)
        outcomes = list(result.outcomes)
        assert len(built) == len(trace) == 2_000
        got = [(o.start_ms, o.switch_ms, o.finish_ms, o.served) for o in outcomes]
        assert got == expected
        assert [o.service_ms for o in outcomes] == services

        starts, switches, finishes, _ = zip(*expected)
        latencies = [finish - arrival for arrival, finish in zip(arrivals, finishes)]
        queues = [start - arrival for arrival, start in zip(arrivals, starts)]
        service_total = sum(services)
        switch_total = sum(switches)
        makespan = finishes[-1] - arrivals[0]
        busy = service_total + switch_total
        models = [r.model for r in trace.requests]
        assert result.metrics.to_dict() == {
            "requests": 2_000,
            "served": 2_000,
            "failed": 0,
            "makespan_ms": makespan,
            "throughput_rps": 2_000 / (makespan / 1000.0),
            "latency_p50_ms": percentile(latencies, 50.0),
            "latency_p99_ms": percentile(latencies, 99.0),
            "latency_mean_ms": sum(latencies) / 2_000,
            "latency_max_ms": max(latencies),
            "queue_ms_mean": sum(queues) / 2_000,
            "queue_ms_max": max(queues),
            "service_ms_total": service_total,
            "switch_ms_total": switch_total,
            "switch_share": switch_total / busy,
            "utilisation": min(1.0, busy / makespan),
            "per_model": {model: models.count(model) for model in sorted(set(models))},
        }
        assert result.metrics.queue_ms_max > 0.0
        assert any(switch_ms > 0.0 for switch_ms in switches)

    def test_generating_and_replaying_builds_no_trace_request(self, monkeypatch):
        """The replay reads the trace's columns: no request record is
        built, as no ``RequestOutcome`` is (the view builds one per read)."""
        built = []

        class CountingRequest(TraceRequest):
            def __post_init__(self):
                built.append(self.request_id)
                super().__post_init__()

        monkeypatch.setattr(traces_module, "TraceRequest", CountingRequest)
        trace = self._trace()
        result = ReplaySimulator("small-test-chip").run(trace)
        assert result.metrics.served == 2_000 and built == []
        assert result.outcomes.request_ids is trace.request_ids
        assert result.outcomes.arrivals is trace.arrivals
        assert result.outcomes.programs is trace.programs
        trace.requests[0]
        assert built == [trace.request_ids[0]]

    def test_a_trace_rebuilt_from_its_requests_replays_identically(self):
        trace = self._trace()
        rebuilt = Trace(requests=list(trace.requests), metadata=trace.metadata)
        assert rebuilt == trace
        for column in ("request_ids", "arrivals", "programs", "table"):
            assert getattr(rebuilt, column) == getattr(trace, column), column
        simulator = ReplaySimulator("small-test-chip")
        original, again = simulator.run(trace), simulator.run(rebuilt)
        assert again.metrics == original.metrics
        assert again.outcomes == original.outcomes

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

    def test_replay_non_finite_arrival_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.jsonl"
        save_trace(poisson_trace(["tiny-mlp"], num_requests=2, seed=0), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        request = json.loads(lines[2])
        request["arrival_ms"] = math.nan
        lines[2] = json.dumps(request)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["replay", "--preset", "small-test-chip", "--trace", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid trace file" in captured.err
        assert "nan" not in captured.out

    def test_replay_truncated_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.jsonl"
        save_trace(poisson_trace(["tiny-mlp"], num_requests=5, seed=0), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
        code = main(["replay", "--preset", "small-test-chip", "--trace", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid trace file" in captured.err
        assert "promises 5 request(s) but the file holds 3" in captured.err
        assert "replay p99" not in captured.out

    def test_replay_repeated_request_id_exits_2(self, tmp_path, capsys):
        path = tmp_path / "repeat.jsonl"
        save_trace(poisson_trace(["tiny-mlp"], num_requests=2, seed=0), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["requests"] = 3
        path.write_text(
            "\n".join([json.dumps(header), *lines[1:], lines[1]]) + "\n", encoding="utf-8"
        )
        code = main(["replay", "--preset", "small-test-chip", "--trace", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert ":4: duplicate request id 'r0'" in err

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


#: A seeded bursty trace; with ``--requests 16 --rate 100`` its report is
#: ``PINNED_REPLAY``.
BURSTY = (
    "replay", "--preset", "small-test-chip", "--synthetic", "bursty",
    "--models", "tiny-mlp", "tiny-cnn", "--seed", "3", "--seq-lens", "16", "32",
)
#: The cold report of that replay, bit for bit (its ``compile`` block,
#: wall time and cache counters, is not pinned).  Reordering the float
#: arithmetic of the replay or a plan change fails it.
PINNED_REPLAY = {
    "hardware": {"fingerprint": "336833db682a747e", "preset": "small-test-chip"},
    "metrics": {
        "failed": 0,
        "latency_max_ms": 0.02083000000000368,
        "latency_mean_ms": 0.0173294062499986,
        "latency_p50_ms": 0.020799999999994156,
        "latency_p99_ms": 0.02083000000000368,
        "makespan_ms": 119.15990023891032,
        "per_model": {"tiny-cnn": 7, "tiny-mlp": 9},
        "queue_ms_max": 0.0,
        "queue_ms_mean": 0.0,
        "requests": 16,
        "served": 16,
        "service_ms_total": 0.27709049999999996,
        "switch_ms_total": 0.00017999999999999998,
        "switch_share": 0.0006491855426379654,
        "throughput_rps": 134.27335846975961,
        "utilisation": 0.0023268775774743424,
    },
    "trace": {
        "metadata": {
            "base_rate_rps": 100.0,
            "burst_probability": 0.2,
            "burst_rate_rps": 1000.0,
            "kind": "bursty",
            "mean_burst_length": 5.0,
            "models": ["tiny-mlp", "tiny-cnn"],
            "seed": 3,
            "seq_len_buckets": [16, 32],
        },
        "models": ["tiny-mlp", "tiny-cnn"],
        "requests": 16,
    },
}


def _report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class TestCLIReplayAcrossProcesses:
    """A seed is a replay: the same metrics from a second process, from a
    warm program store and from the trace saved to a file."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory, cli_process):
        """(scratch dir, replay args, cold report, warm process, warm report)."""
        root = tmp_path_factory.mktemp("replay")
        args = [*BURSTY, "--requests", "16", "--rate", "100", "--cache-dir", str(root / "cache")]
        assert main([*args, "--json-out", str(root / "cold.json")]) == 0
        warm = cli_process(*args, "--json-out", root / "warm.json")
        assert warm.returncode == 0, warm.stderr
        return root, args, _report(root / "cold.json"), warm, _report(root / "warm.json")

    def test_a_second_process_replays_the_seed_from_the_warm_store(self, runs):
        _, _, cold, warm_run, warm = runs
        assert cold["metrics"] == warm["metrics"], (cold["metrics"], warm["metrics"])
        assert warm["compile"]["allocator_solves"] == 0, warm["compile"]
        assert cold["compile"]["allocator_solves"] > 0, cold["compile"]
        assert not warm["compile"]["errors"], warm["compile"]
        assert warm["metrics"]["served"] == warm["metrics"]["requests"] == 16, warm["metrics"]
        assert "total allocator solves: 0" in warm_run.stdout

    def test_the_seeded_replay_is_the_pinned_report(self, runs):
        cold = runs[2]
        assert {block: cold[block] for block in PINNED_REPLAY} == PINNED_REPLAY

    def test_a_saved_trace_replays_identically(self, runs, capsys):
        root, args, _, _, warm = runs
        trace = root / "saved.jsonl"
        assert main([*args, "--save-trace", str(trace)]) == 0
        assert main(
            ["replay", "--preset", "small-test-chip", "--trace", str(trace),
             "--cache-dir", str(root / "cache"), "--json-out", str(root / "file.json")]
        ) == 0
        assert _report(root / "file.json")["metrics"] == warm["metrics"]
        # A NaN arrival in that file is a usage error.
        lines = trace.read_text(encoding="utf-8").splitlines()
        request = json.loads(lines[1])
        request["arrival_ms"] = float("nan")
        lines[1] = json.dumps(request)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(
            ["replay", "--preset", "small-test-chip", "--trace", str(trace),
             "--cache-dir", str(root / "cache")]
        ) == 2
        capsys.readouterr()

    def test_a_20000_request_replay_is_deterministic_across_processes(
        self, runs, cli_process, capsys
    ):
        root = runs[0]
        args = [*BURSTY, "--requests", "20000", "--cache-dir", str(root / "cache")]
        assert main([*args, "--json-out", str(root / "long_a.json")]) == 0
        capsys.readouterr()
        other = cli_process(*args, "--json-out", root / "long_b.json")
        assert other.returncode == 0, other.stderr
        a = _report(root / "long_a.json")["metrics"]
        b = _report(root / "long_b.json")["metrics"]
        assert a == b, (a, b)
        assert a["served"] == a["requests"] == 20000, a
