"""Trace format, generators and transforms (:mod:`repro.sim.traces`)."""

from __future__ import annotations

import json

import pytest

from repro.models.workload import Phase, Workload
from repro.sim.traces import (
    TRACE_FORMAT_VERSION,
    Trace,
    TraceFormatError,
    TraceRequest,
    bursty_trace,
    default_workload,
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


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        trace = Trace(
            requests=[_request(0, 0.0), _request(1, 2.5, model="tiny-cnn", seq_len=16)],
            metadata={"kind": "test"},
        )
        path = save_trace(trace, tmp_path / "t.jsonl")
        loaded = load_trace(path)
        assert loaded.metadata == {"kind": "test"}
        assert [r.to_payload() for r in loaded.requests] == [
            r.to_payload() for r in trace.requests
        ]

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

    def test_non_json_line_rejected(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(TraceFormatError, match="not JSON"):
            load_trace(path)


class TestGenerators:
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_same_seed_same_trace(self, kind):
        make = lambda: synthetic_trace(  # noqa: E731
            kind, ["tiny-mlp", "tiny-cnn"], num_requests=20, seed=11
        )
        first, second = make(), make()
        assert [r.to_payload() for r in first.requests] == [
            r.to_payload() for r in second.requests
        ]

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
            assert r.workload == default_workload(r.model, r.workload.seq_len, 2)
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
        assert default_workload("tiny-transformer", 16).phase == Phase.ENCODE
        assert default_workload("tiny-cnn", 32).phase == Phase.PREFILL
