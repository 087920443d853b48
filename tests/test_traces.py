"""Trace format, generators and transforms (:mod:`repro.sim.traces`)."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import default_workload
from repro.models.workload import Phase, Workload
from repro.sim import traces as traces_module
from repro.sim.traces import (
    TRACE_FORMAT_VERSION,
    Trace,
    TraceFormatError,
    TraceRequest,
    TraceRequests,
    bursty_trace,
    diurnal_trace,
    load_trace,
    poisson_trace,
    save_trace,
    synthetic_trace,
)


def _request(i, arrival_ms, model="tiny-mlp", seq_len=32):
    return TraceRequest(
        request_id=f"r{i}",
        arrival_ms=arrival_ms,
        model=model,
        workload=Workload(batch_size=1, seq_len=seq_len),
    )


class TestTraceBasics:
    def test_requests_sorted_by_arrival(self):
        trace = Trace(requests=[_request(0, 5.0), _request(1, 1.0), _request(2, 3.0)])
        assert [r.arrival_ms for r in trace.requests] == [1.0, 3.0, 5.0]
        assert len(trace) == 3
        assert trace.duration_ms == 5.0

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            _request(0, -1.0)

    @pytest.mark.parametrize("arrival_ms", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, arrival_ms):
        with pytest.raises(ValueError, match="non-finite"):
            _request(0, arrival_ms)

    def test_non_finite_arrival_in_a_file_is_a_format_error(self, tmp_path):
        path = save_trace(Trace(requests=[_request(0, 0.0)]), tmp_path / "t.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        request = json.loads(lines[1])
        request["arrival_ms"] = math.nan
        lines[1] = json.dumps(request)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="non-finite"):
            load_trace(path)

    def test_models_in_first_appearance_order(self):
        trace = Trace(
            requests=[
                _request(0, 0.0, model="tiny-cnn"),
                _request(1, 1.0, model="tiny-mlp"),
                _request(2, 2.0, model="tiny-cnn"),
            ]
        )
        assert trace.models == ["tiny-cnn", "tiny-mlp"]

    def test_gap_scaling_scales_arrivals(self):
        trace = Trace(requests=[_request(0, 0.0), _request(1, 2.0), _request(2, 5.0)])
        scaled = trace.with_gaps_scaled(2.0)
        assert [r.arrival_ms for r in scaled.requests] == [0.0, 4.0, 10.0]
        assert scaled.metadata["gap_scale"] == 2.0
        # The original is untouched.
        assert [r.arrival_ms for r in trace.requests] == [0.0, 2.0, 5.0]

    def test_gap_scaling_rejects_nonpositive(self):
        trace = Trace(requests=[_request(0, 0.0)])
        with pytest.raises(ValueError, match="positive"):
            trace.with_gaps_scaled(0.0)

    def test_merged_preserves_every_request(self):
        a = Trace(requests=[_request(0, 0.0), _request(1, 4.0)])
        b = Trace(requests=[_request(0, 1.0, model="tiny-cnn")])
        merged = a.merged(b)
        assert len(merged) == 3
        assert [r.arrival_ms for r in merged.requests] == [0.0, 1.0, 4.0]
        # Ids are prefixed per source so a shared id never collapses.
        assert sorted(r.request_id for r in merged.requests) == ["a:r0", "a:r1", "b:r0"]


def _columns(trace):
    return (
        trace.request_ids, trace.arrivals, trace.programs, trace.table, trace.metadata,
    )


def _reference(requests, metadata=None):
    """The trace of request objects: Python's stable sort by arrival, and
    a table of the distinct (model, workload) pairs in that order."""
    ordered = sorted(requests, key=lambda r: r.arrival_ms)
    table = list(dict.fromkeys((r.model, r.workload) for r in ordered))
    return (
        tuple(r.request_id for r in ordered),
        tuple(float(r.arrival_ms) for r in ordered),
        tuple(table.index((r.model, r.workload)) for r in ordered),
        tuple(table),
        {} if metadata is None else metadata,
    )


_WORKLOADS = [Workload(batch_size=1, seq_len=16), Workload(batch_size=1, seq_len=32)]
_random_requests = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),  # few values: many ties
        st.sampled_from(["tiny-mlp", "tiny-cnn"]),
        st.sampled_from(_WORKLOADS),
    ),
    max_size=30,
).map(
    lambda rows: [
        TraceRequest(f"r{i}", arrival, model, workload)
        for i, (arrival, model, workload) in enumerate(rows)
    ]
)


class TestColumns:
    """A trace is columns; its request records are a view built on read."""

    @settings(max_examples=100, deadline=None)
    @given(requests=_random_requests)
    def test_the_view_is_the_stable_sort_of_the_input(self, requests):
        trace = Trace(requests=requests, metadata={"kind": "random"})
        assert list(trace.requests) == sorted(requests, key=lambda r: r.arrival_ms)
        assert trace.requests == sorted(requests, key=lambda r: r.arrival_ms)
        assert _columns(trace) == _reference(requests, {"kind": "random"})
        assert Trace(requests=list(trace.requests), metadata=trace.metadata) == trace

    @settings(max_examples=50, deadline=None)
    @given(first=_random_requests, second=_random_requests, factor=st.sampled_from([0.25, 1.0, 3.0]))
    def test_transforms_equal_their_request_object_references(self, first, second, factor):
        a, b = Trace(requests=first), Trace(requests=second)
        scaled = a.with_gaps_scaled(factor)
        assert _columns(scaled) == _reference(
            [dataclasses.replace(r, arrival_ms=r.arrival_ms * factor) for r in a.requests],
            {"gap_scale": factor},
        )
        assert _columns(a.merged(b)) == _reference(
            [dataclasses.replace(r, request_id=f"a:{r.request_id}") for r in a.requests]
            + [dataclasses.replace(r, request_id=f"b:{r.request_id}") for r in b.requests],
            {"kind": "merged"},
        )

    def test_a_file_round_trip_equals_the_request_object_reference(self, tmp_path):
        trace = bursty_trace(["tiny-mlp", "tiny-transformer"], num_requests=300, seed=4)
        loaded = load_trace(save_trace(trace, tmp_path / "t.jsonl"))
        assert loaded == trace
        assert _columns(loaded) == _reference(list(trace.requests), trace.metadata)
        # Lines written out of arrival order load sorted.
        lines = (tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines()
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n", encoding="utf-8")
        assert list(load_trace(shuffled).requests) == sorted(
            reversed(list(trace.requests)), key=lambda r: r.arrival_ms
        )

    def test_columns_are_read_only_and_shared_by_derived_traces(self):
        trace = poisson_trace(["tiny-mlp", "tiny-cnn"], num_requests=50, seed=2)
        for column in (trace.request_ids, trace.arrivals, trace.programs, trace.table):
            assert isinstance(column, tuple)
        assert all(type(arrival) is float for arrival in trace.arrivals)
        scaled = trace.with_gaps_scaled(2.0)
        assert scaled.request_ids is trace.request_ids
        assert scaled.programs is trace.programs and scaled.table is trace.table
        assert isinstance(trace.requests, TraceRequests)
        with pytest.raises(TypeError):
            trace.requests[0] = trace.requests[1]
        assert trace.arrival_array.tolist() == list(trace.arrivals)
        assert trace.program_array.tolist() == list(trace.programs)
        for array in (trace.arrival_array, trace.program_array):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_generating_builds_no_request_and_reading_one_builds_one(self, monkeypatch):
        built = []

        class CountingRequest(TraceRequest):
            def __post_init__(self):
                built.append(self.request_id)
                super().__post_init__()

        monkeypatch.setattr(traces_module, "TraceRequest", CountingRequest)
        trace = bursty_trace(["tiny-mlp", "tiny-cnn"], num_requests=2_000, seed=5)
        assert built == []
        first = trace.requests[0]
        assert built == [first.request_id] == [trace.request_ids[0]]
        assert trace.requests[-1].arrival_ms == trace.duration_ms

    @pytest.mark.parametrize("arrival_ms", [-1.0, math.nan, math.inf])
    def test_a_bad_arrival_in_a_column_is_rejected(self, arrival_ms):
        with pytest.raises(ValueError, match="negative|non-finite"):
            Trace._of_columns(
                ["r0", "r1"], [0.0, arrival_ms], [0, 0],
                [("tiny-mlp", _WORKLOADS[0])], {},
            )

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_gap_factors_are_rejected(self, factor):
        trace = Trace(requests=[_request(0, 0.0), _request(1, 1.0)])
        with pytest.raises(ValueError):
            trace.with_gaps_scaled(factor)

    def test_a_scaled_arrival_that_overflows_is_rejected(self):
        trace = Trace(requests=[_request(0, 0.0), _request(1, 1e300)])
        with pytest.raises(ValueError, match="non-finite"):
            trace.with_gaps_scaled(1e300)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        trace = Trace(
            requests=[_request(0, 0.0), _request(1, 2.5, model="tiny-cnn", seq_len=16)],
            metadata={"kind": "test"},
        )
        path = save_trace(trace, tmp_path / "t.jsonl")
        loaded = load_trace(path)
        assert loaded.metadata == {"kind": "test"}
        assert loaded.requests == trace.requests

    def test_workload_fields_survive_round_trip(self, tmp_path):
        workload = Workload(
            batch_size=2, seq_len=48, output_len=8, phase=Phase.ENCODE, kv_len=56
        )
        trace = Trace(
            requests=[
                TraceRequest(
                    request_id="r0", arrival_ms=0.0, model="tiny-transformer",
                    workload=workload,
                )
            ]
        )
        loaded = load_trace(save_trace(trace, tmp_path / "t.jsonl"))
        assert loaded.requests[0].workload == workload

    def test_newer_version_rejected_with_clear_error(self, tmp_path):
        path = tmp_path / "future.jsonl"
        header = {"format": "repro-trace", "version": TRACE_FORMAT_VERSION + 1}
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="newer than the supported"):
            load_trace(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(tmp_path / "nope.jsonl")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="empty"):
            load_trace(path)

    def test_non_trace_file_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError, match="not a 'repro-trace' file"):
            load_trace(path)

    def test_malformed_request_line_names_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1}\n{"id": "r0"}\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError, match=":2:"):
            load_trace(path)

    def test_truncated_file_is_rejected_with_both_counts(self, tmp_path):
        path = save_trace(poisson_trace(["tiny-mlp"], num_requests=5), tmp_path / "t.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="promises 5 request.*holds 3"):
            load_trace(path)

    @pytest.mark.parametrize("count", [True, "5", -1, 5.0])
    def test_a_header_count_that_is_not_a_count_is_rejected(self, tmp_path, count):
        path = save_trace(poisson_trace(["tiny-mlp"], num_requests=5), tmp_path / "t.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["requests"] = count
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="request count"):
            load_trace(path)

    def test_boolean_version_is_rejected(self, tmp_path):
        path = tmp_path / "bool.jsonl"
        path.write_text('{"format": "repro-trace", "version": true}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError, match="integer format version"):
            load_trace(path)

    def test_a_repeated_request_line_names_the_repeat(self, tmp_path):
        path = save_trace(poisson_trace(["tiny-mlp"], num_requests=5), tmp_path / "t.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["requests"] = 6
        lines = [json.dumps(header), *lines[1:4], lines[2], *lines[4:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(
            TraceFormatError, match=r":5: duplicate request id 'r1' \(first on line 3\)"
        ):
            load_trace(path)

    def test_non_json_line_rejected(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(TraceFormatError, match="not JSON"):
            load_trace(path)


#: What a mutated trace field becomes: wrong types, NaN, infinities, a
#: negative arrival, an integer no float holds, an id already in use.
_TRACE_MUTANTS = st.sampled_from(
    ["x", "r1", 0, -1, -5.0, 1.5, -0.0, 10**400, True, None, [], [1], {}, {"a": 1},
     math.nan, math.inf, -math.inf]
)


class TestFileFuzz:
    """``load_trace`` yields a ``Trace`` or raises ``TraceFormatError``,
    whatever one edit did to a saved trace."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        trace = poisson_trace(["tiny-mlp", "tiny-cnn"], num_requests=6, seed=1)
        path = save_trace(trace, tmp_path_factory.mktemp("fuzz") / "t.jsonl")
        return path, path.read_text(encoding="utf-8")

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        edit=st.sampled_from(["field", "field", "workload", "truncate", "repeat", "drop"]),
        mutant=_TRACE_MUTANTS,
    )
    def test_an_edited_trace_loads_or_is_a_format_error(self, saved, data, edit, mutant):
        path, text = saved
        lines = text.splitlines()
        index = data.draw(st.integers(0 if edit in ("field", "drop") else 1, len(lines) - 1))
        if edit == "repeat":  # a repeated id, and one line more than promised
            lines.insert(index, lines[index])
        elif edit == "drop":
            del lines[index]
        elif edit != "truncate":
            line = json.loads(lines[index])
            target = line["workload"] if edit == "workload" else line
            key = data.draw(st.sampled_from(sorted(target)))
            if data.draw(st.booleans()):
                target[key] = mutant
            else:
                del target[key]
            lines[index] = json.dumps(line)
        if edit == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            text = "\n".join(lines)
        path.write_text(text, encoding="utf-8")
        try:
            assert isinstance(load_trace(path), Trace)
        except TraceFormatError:
            pass

    def test_an_arrival_no_float_holds_is_a_format_error(self, saved):
        path, text = saved
        lines = text.splitlines()
        request = json.loads(lines[1])
        request["arrival_ms"] = 10**400  # JSON integers have no bound
        lines[1] = json.dumps(request)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(TraceFormatError, match="too large"):
            load_trace(path)


class TestGenerators:
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_same_seed_same_trace(self, kind):
        make = lambda: synthetic_trace(  # noqa: E731
            kind, ["tiny-mlp", "tiny-cnn"], num_requests=20, seed=11
        )
        first, second = make(), make()
        assert first.requests == second.requests

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_different_seed_different_arrivals(self, kind):
        a = synthetic_trace(kind, ["tiny-mlp"], num_requests=20, seed=0)
        b = synthetic_trace(kind, ["tiny-mlp"], num_requests=20, seed=1)
        assert [r.arrival_ms for r in a.requests] != [r.arrival_ms for r in b.requests]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace generator"):
            synthetic_trace("uniform", ["tiny-mlp"])

    def test_generator_argument_validation(self):
        with pytest.raises(ValueError):
            poisson_trace([], num_requests=4)
        with pytest.raises(ValueError):
            poisson_trace(["tiny-mlp"], num_requests=0)
        with pytest.raises(ValueError):
            poisson_trace(["tiny-mlp"], rate_rps=0.0)
        with pytest.raises(ValueError):
            poisson_trace(["tiny-mlp"], seq_len_buckets=())
        with pytest.raises(ValueError):
            poisson_trace(["tiny-mlp"], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            bursty_trace(["tiny-mlp"], burst_probability=1.5)
        with pytest.raises(ValueError):
            diurnal_trace(["tiny-mlp"], peak_rate_rps=1.0, trough_rate_rps=2.0)

    def test_buckets_and_models_respected(self):
        trace = poisson_trace(
            ["tiny-mlp", "tiny-cnn"], num_requests=40, seed=5,
            seq_len_buckets=(16, 48),
        )
        assert {r.workload.seq_len for r in trace.requests} <= {16, 48}
        assert set(trace.models) <= {"tiny-mlp", "tiny-cnn"}

    def test_one_workload_instance_per_model_and_bucket(self):
        trace = poisson_trace(
            ["tiny-mlp", "tiny-transformer"], num_requests=60, seed=5,
            seq_len_buckets=(16, 48), batch_size=2,
        )
        instances = {}
        for r in trace.requests:
            instances.setdefault((r.model, r.workload.seq_len), set()).add(id(r.workload))
            assert r.workload == default_workload(r.model, seq_len=r.workload.seq_len, batch_size=2)
        assert len(instances) == 4
        assert all(len(ids) == 1 for ids in instances.values())

    def test_first_arrival_at_zero_and_monotone(self):
        trace = bursty_trace(["tiny-mlp"], num_requests=25, seed=2)
        arrivals = [r.arrival_ms for r in trace.requests]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_default_workload_phase_rule(self):
        # Mirrors the CLI convention: encode for transformers, prefill
        # (ignored anyway) for CNN-shaped models.
        assert default_workload("tiny-transformer", seq_len=16).phase == Phase.ENCODE
        assert default_workload("tiny-cnn", seq_len=32).phase == Phase.PREFILL
