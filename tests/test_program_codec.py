"""Tests for the compiled-program codec shared by the store and the wire.

Covered here: the payload's schema is pinned to ``FORMAT_VERSION`` and
``WIRE_VERSION``; entries written by format version 4 are refused as
they are, and decode to their recorded fingerprints and re-encode to the
same bytes once migrated to the version-7 shape (a profile table,
positional segments); every malformed program is a
``ProgramFormatError`` — a counted corrupt miss in the store, a
``WireFormatError`` on the wire — and so is any one-field mutation of a
program that would crash its readers (fuzzed through the decoder and
through a real store entry); a one-field mutation of a compile request
is a ``WireFormatError`` or a job that compiles; each field check the
decoder makes once across a program names its field, decode makes fewer
Python calls than the program has operators, and it builds the hardware
once per distinct hardware payload; and the one-pass
``_json_safe`` projects stats and metadata exactly as the two-walk
version did.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompilerOptions, DiskCacheStore
from repro.core.program import (
    ProgramFormatError,
    _json_safe,
    program_from_payload,
    program_to_payload,
)
from repro.core.store import FORMAT_VERSION, ProgramKey
from repro.cost.arithmetic import OperatorProfile
from repro.cost.energy import estimate_energy
from repro.cost.switching import SegmentResources
from repro.models.workload import Workload
from repro.serve.wire import (
    WIRE_VERSION,
    WireFormatError,
    job_from_wire,
    job_to_wire,
    program_from_wire,
    program_to_wire,
)
from repro.service import CompileJob, CompileService

#: Two programs (tiny-cnn, tiny-transformer on ``small-test-chip``, code
#: generation on) as format version 4 wrote them: each store entry with
#: its file digest, the SHA-256 of its exact text and the program's
#: fingerprint.  Version 5 changed no byte of the program encoding (it
#: marks plans that moved, and neither of these did), only the number;
#: version 6 dropped the ``name`` of every operator profile; version 7
#: stores each distinct profile once, in a table, and segments by position.
PINNED = Path(__file__).resolve().parent / "data" / "program_entry_v4.json"

PROFILE_FIELDS = [f.name for f in fields(OperatorProfile)]
RESOURCES_FIELDS = [f.name for f in fields(SegmentResources)]


def _pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))["programs"]


def _migrated(program):
    """A version-4/5 program payload as version 7 writes it: profiles
    without ``name``, one table row per distinct profile (first
    appearance in operator order), allocations, profile rows and
    resources by position."""
    rows = {}
    segments = []
    for segment in program["segments"]:
        names = segment["operator_names"]
        resources = segment["resources"]
        assert all(set(p) == {"name", *PROFILE_FIELDS} for p in segment["profiles"].values())
        segments.append(
            {
                **segment,
                "allocations": [segment["allocations"][name] for name in names],
                "profiles": [
                    rows.setdefault(
                        tuple(segment["profiles"][name][f] for f in PROFILE_FIELDS), len(rows)
                    )
                    for name in names
                ],
                "resources": (
                    None if resources is None else [resources[f] for f in RESOURCES_FIELDS]
                ),
            }
        )
    return {**program, "profiles": [list(row) for row in rows], "segments": segments}


def test_the_schema_is_pinned_to_the_versions(corpus):
    """The one pin of the program payload's shape.  A change to it — a
    profile or resources field, a program or segment key — changes what
    the store and the wire read, so it comes with a ``FORMAT_VERSION``
    and a ``WIRE_VERSION`` bump, made here together."""
    payload = program_to_payload(corpus.find("tiny-cnn", "small-test-chip").program)
    schema = {
        "profile": PROFILE_FIELDS,
        "resources": RESOURCES_FIELDS,
        "program": sorted(payload),
        "segment": sorted(payload["segments"][0]),
    }
    assert (FORMAT_VERSION, WIRE_VERSION, schema) == (7, 3, {
        "profile": [
            "op_type", "macs", "flops", "input_elements", "output_elements",
            "weight_elements", "stationary_elements", "streamed_input_elements",
            "extra_streamed_elements", "has_static_weight", "matmul_m", "matmul_k",
            "matmul_n",
        ],
        "resources": [
            "compute_arrays", "memory_arrays", "live_output_elements",
            "static_weight_elements", "idle_arrays",
        ],
        "program": [
            "block_repeat", "compile_seconds", "compiler_name", "graph_name", "hardware",
            "meta_program", "metadata", "profiles", "segments", "stats",
        ],
        "segment": [
            "allocations", "boundary_memory_arrays", "index", "inter_breakdown",
            "inter_cycles", "intra_cycles", "operator_names", "profiles", "resources",
        ],
    })


class TestFormatVersion4Pin:
    @pytest.mark.parametrize("record", _pinned(), ids=lambda record: record["model"])
    def test_pinned_entry_decodes_and_reencodes_byte_identically(self, record):
        entry = record["entry"]
        text = json.dumps(entry, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == record["entry_sha256"]
        with pytest.raises(ProgramFormatError, match="missing required field 'profiles'"):
            program_from_payload(entry["program"])
        migrated = _migrated(entry["program"])
        program = program_from_payload(migrated)
        assert program.fingerprint() == record["fingerprint"]
        assert json.dumps(program_to_payload(program), sort_keys=True) == json.dumps(
            migrated, sort_keys=True
        )
        wire = json.dumps(program_to_wire(program), sort_keys=True)
        assert wire == json.dumps({"wire_version": WIRE_VERSION, **migrated}, sort_keys=True)

    @pytest.mark.parametrize("record", _pinned(), ids=lambda record: record["model"])
    def test_store_reads_and_rewrites_the_pinned_entry(self, record, tmp_path):
        key = ProgramKey(record["entry"]["key"])
        assert key.digest == record["digest"]
        path = tmp_path / key.digest[:2] / f"{key.digest}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(record["entry"], sort_keys=True), encoding="utf-8")
        store = DiskCacheStore(tmp_path)
        # A version-4 entry is never served; rewritten, it is the same
        # entry, migrated, under the new version number (compact JSON).
        assert store.get(key) is None and store.stats.version_rejections == 1
        migrated = _migrated(record["entry"]["program"])
        store.put(key, program_from_payload(migrated))
        current = {**record["entry"], "format_version": FORMAT_VERSION, "program": migrated}
        assert path.read_text(encoding="utf-8") == json.dumps(
            current, sort_keys=True, separators=(",", ":")
        )
        assert store.get(key).fingerprint() == record["fingerprint"]


# ---------------------------------------------------------------------- #
# malformed programs
# ---------------------------------------------------------------------- #
def _first_segment(program, **fields):
    first = program["segments"][0]
    return {**program, "segments": [{**first, **fields}, *program["segments"][1:]]}


def _first_operator(program, field, value):
    """The first segment with its first operator's ``field`` entry replaced."""
    entries = list(program["segments"][0][field])
    entries[0] = value
    return _first_segment(program, **{field: entries})


def _hardware(program, **fields):
    return {**program, "hardware": {**program["hardware"], **fields}}


def _first_profile(program, **fields):
    """The table row of the first segment's first operator, fields replaced."""
    rows = list(program["profiles"])
    row = program["segments"][0]["profiles"][0]
    rows[row] = [fields.get(name, value) for name, value in zip(PROFILE_FIELDS, rows[row])]
    return {**program, "profiles": rows}


def _shortened(program, field):
    """The first segment with one entry fewer in ``field`` than operators."""
    return _first_segment(program, **{field: program["segments"][0][field][:-1]})


#: Mangles that used to leave the decoder as a raw ValueError, TypeError
#: or AttributeError, or decoded into a program whose ``end_to_end_ms``,
#: ``fingerprint`` or ``estimate_energy`` raised (version 6's per-operator
#: objects re-expressed on the version-7 shape, then the table's own).
MANGLES = {
    "negative-count": lambda program: _first_operator(program, "allocations", [-1, 0]),
    "non-integer-index": lambda program: _first_segment(program, index="first"),
    "non-integer-boundary": lambda program: _first_segment(
        program, boundary_memory_arrays=[1]
    ),
    "non-numeric-allocation": lambda program: _first_operator(
        program, "allocations", ["x", 1]
    ),
    "integer-operator-names": lambda program: _first_segment(program, operator_names=7),
    "object-profiles": lambda program: _first_segment(program, profiles={"a": 0}),
    "list-inter-breakdown": lambda program: _first_segment(program, inter_breakdown=[1]),
    "list-metadata": lambda program: {**program, "metadata": [1]},
    "string-frequency": lambda program: _hardware(program, frequency_mhz="x"),
    "zero-frequency": lambda program: _hardware(program, frequency_mhz=0),
    "string-profile-count": lambda program: _first_profile(program, macs="x"),
    "oversized-profile-count": lambda program: _first_profile(program, macs=10**400),
    "list-op-type": lambda program: _first_profile(program, op_type=[]),
    "object-static-weight": lambda program: _first_profile(program, has_static_weight={}),
    "unprofiled-operator": lambda program: _first_segment(
        program, operator_names=[*program["segments"][0]["operator_names"], "ghost"]
    ),
    "row-index-out-of-range": lambda program: _first_operator(
        program, "profiles", len(program["profiles"])
    ),
    "negative-row-index": lambda program: _first_operator(program, "profiles", -1),
    "bool-row-index": lambda program: _first_operator(program, "profiles", True),
    "short-profile-row": lambda program: {
        **program, "profiles": [program["profiles"][0][:-1], *program["profiles"][1:]]
    },
    "long-profile-row": lambda program: {
        **program, "profiles": [[*program["profiles"][0], 1], *program["profiles"][1:]]
    },
    "short-allocations": lambda program: _shortened(program, "allocations"),
    "short-profiles": lambda program: _shortened(program, "profiles"),
    "integer-operator-name": lambda program: _first_operator(program, "operator_names", 0),
    "object-profile-table": lambda program: {**program, "profiles": {}},
    "number-profile-table": lambda program: {**program, "profiles": 0},
    "short-resources": lambda program: _first_segment(
        program, resources=program["segments"][0]["resources"][:-1]
    ),
    "object-resources": lambda program: _first_segment(
        program, resources=dict(zip(RESOURCES_FIELDS, program["segments"][0]["resources"]))
    ),
}


@pytest.fixture
def wire_program(compiled_tiny_cnn):
    return json.loads(json.dumps(program_to_wire(compiled_tiny_cnn)))


@pytest.mark.parametrize("mangle", MANGLES.values(), ids=MANGLES.keys())
def test_mangled_wire_program_is_a_wire_format_error(wire_program, mangle):
    with pytest.raises(WireFormatError):
        program_from_wire(mangle(wire_program))
    with pytest.raises(ProgramFormatError):
        program_from_payload(mangle(wire_program))


@pytest.mark.parametrize("mangle", MANGLES.values(), ids=MANGLES.keys())
def test_mangled_store_entry_is_a_corrupt_miss_and_a_normal_compile(
    small_chip, tiny_cnn_graph, tmp_path, mangle
):
    options = CompilerOptions(generate_code=False)
    cold = CompileService(cache_dir=tmp_path).compile_graph(tiny_cnn_graph, small_chip, options)
    key = ProgramKey.build(tiny_cnn_graph.digest(), small_chip, options, "cmswitch")
    path = tmp_path / key.digest[:2] / f"{key.digest}.json"
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["program"] = mangle(entry["program"])
    path.write_text(json.dumps(entry), encoding="utf-8")

    fresh = CompileService(cache_dir=tmp_path)
    program = fresh.compile_graph(tiny_cnn_graph, small_chip, options)
    assert program.stats["allocator_solves"] > 0  # re-compiled, not crashed
    assert program.fingerprint() == cold.fingerprint()
    assert fresh.store.stats.corrupt_entries == 1
    assert fresh.store.stats.misses == 1 and fresh.store.stats.hits == 0


# ---------------------------------------------------------------------- #
# the checks the decoder makes once across a whole program
# ---------------------------------------------------------------------- #
def _second_segment(program, **fields):
    first, second, *rest = program["segments"]
    return {**program, "segments": [first, {**second, **fields}, *rest]}


#: One mangle per field check, and the field its message must name.
FIELD_CHECKS = {
    "bool-array-count": (
        lambda program: _first_operator(program, "allocations", [True, 0]), "'allocations'"
    ),
    "digit-string-array-count": (
        lambda program: _first_operator(program, "allocations", ["1", 0]), "'allocations'"
    ),
    "float-array-count": (
        lambda program: _first_operator(program, "allocations", [1.0, 0]), "'allocations'"
    ),
    "three-element-pair": (
        lambda program: _first_operator(program, "allocations", [1, 0, 0]), "'allocations'"
    ),
    "pair-not-an-array": (
        lambda program: _first_operator(program, "allocations", 1), "'allocations'"
    ),
    "negative-array-count": (
        lambda program: _first_operator(program, "allocations", [1, -1]), "'allocations'"
    ),
    "profile-index-out-of-range": (
        lambda program: _first_operator(program, "profiles", len(program["profiles"])),
        "'profiles'",
    ),
    "bool-profile-index": (
        lambda program: _first_operator(program, "profiles", False), "'profiles'"
    ),
    "number-in-inter-breakdown": (
        lambda program: _first_segment(
            program, inter_breakdown={**program["segments"][0]["inter_breakdown"], "writeback": 1.0}
        ),
        "inter_breakdown",
    ),
    "text-in-inter-breakdown": (
        lambda program: _first_segment(program, inter_breakdown={"writeback": "half"}),
        "inter_breakdown",
    ),
    "overflowing-hex-float": (
        lambda program: _first_segment(program, intra_cycles="0x1p99999"), "'intra_cycles'"
    ),
    "short-resources": (
        lambda program: _first_segment(
            program, resources=program["segments"][0]["resources"][:-1]
        ),
        "'resources'",
    ),
    "float-resources": (
        lambda program: _first_segment(
            program, resources=[float(v) for v in program["segments"][0]["resources"]]
        ),
        "'resources'",
    ),
    "segment-not-an-object": (
        lambda program: {**program, "segments": [[], *program["segments"][1:]]}, "'segments'"
    ),
    "operator-named-twice": (
        lambda program: _second_segment(
            program,
            operator_names=[
                program["segments"][0]["operator_names"][0],
                *program["segments"][1]["operator_names"][1:],
            ],
        ),
        "named twice",
    ),
}


@pytest.mark.parametrize(
    "mangle, field", FIELD_CHECKS.values(), ids=FIELD_CHECKS.keys()
)
def test_a_field_check_names_its_field(compiled_tiny_cnn, mangle, field):
    payload = json.loads(json.dumps(program_to_payload(compiled_tiny_cnn)))
    assert len(payload["segments"]) > 1
    with pytest.raises(ProgramFormatError, match=re.escape(field)):
        program_from_payload(mangle(payload))


def test_decoding_makes_no_python_call_per_operator(corpus):
    """Decode checks each field once across the program and builds each
    profile and pair without a Python-level call, so the calls one decode
    makes (``sys.setprofile`` ``call`` events: functions, comprehensions,
    generator resumes) are fewer than the program's operators."""
    program = corpus.find("mobilenet", "prime").program
    sizes = [len(segment.operator_names) for segment in program.segments]
    assert min(sizes) >= 3
    payload = json.loads(json.dumps(program_to_payload(program)))
    program_from_payload(payload)  # the hardware is built on the first decode only
    calls = []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        decoded = program_from_payload(payload)
    finally:
        sys.setprofile(None)
    assert decoded.fingerprint() == program.fingerprint()
    assert len(calls) < sum(sizes), Counter(calls)


class TestHardwareOncePerPayload:
    """Decode builds the hardware once per distinct hardware payload."""

    def test_programs_of_one_payload_share_one_object(self, compiled_tiny_cnn):
        payload = program_to_payload(compiled_tiny_cnn)
        first, second = (program_from_payload(json.loads(json.dumps(payload))) for _ in "ab")
        assert first.hardware is second.hardware
        assert first.hardware == compiled_tiny_cnn.hardware

    def test_a_re_encoded_program_is_byte_identical(self, compiled_tiny_cnn):
        text = json.dumps(program_to_payload(compiled_tiny_cnn))
        for _ in range(2):  # built, then served from the table
            decoded = program_from_payload(json.loads(text))
            assert json.dumps(program_to_payload(decoded)) == text

    def test_a_bool_count_is_refused_after_the_payload_was_kept(self, compiled_tiny_cnn):
        payload = program_to_payload(compiled_tiny_cnn)
        program_from_payload(payload)
        with pytest.raises(ProgramFormatError, match="hardware"):
            program_from_payload(_hardware(payload, num_arrays=True))

    def test_an_unhashable_value_is_refused(self, compiled_tiny_cnn):
        payload = program_to_payload(compiled_tiny_cnn)
        program_from_payload(payload)
        with pytest.raises(ProgramFormatError, match="hardware"):
            program_from_payload(_hardware(payload, num_arrays=[8]))

    @pytest.mark.parametrize(
        "field, kept, other",
        [("num_arrays", 8, 8.0), ("weight_update_overlap", 0.0, -0.0)],
    )
    def test_equal_values_of_another_type_or_sign_are_another_payload(
        self, compiled_tiny_cnn, field, kept, other
    ):
        payload = program_to_payload(compiled_tiny_cnn)
        program_from_payload(_hardware(payload, **{field: kept}))
        mangled = _hardware(payload, **{field: other})
        decoded = program_from_payload(mangled)
        assert json.dumps(program_to_payload(decoded)["hardware"]) == json.dumps(
            mangled["hardware"]
        )


# ---------------------------------------------------------------------- #
# one-field mutation fuzz: refused, or a program its readers can read
# ---------------------------------------------------------------------- #
def _json_paths(value, prefix=()):
    """The path (keys and indices) to every value nested in ``value``."""
    if isinstance(value, dict):
        entries = value.items()
    elif isinstance(value, list):
        entries = enumerate(value)
    else:
        return
    for key, entry in entries:
        yield prefix + (key,)
        yield from _json_paths(entry, prefix + (key,))


#: What a mutation writes: wrong types, non-finite and out-of-range
#: numbers (JSON carries ``NaN`` and arbitrarily long integers), zeros.
_MUTANTS = st.sampled_from(
    ["x", "0x1p+0", 0, -1, 1.5, -0.0, 2**63, 10**400, True, False, None,
     [], [1], {}, {"a": 1}, math.nan, math.inf, -math.inf]
)


def _mutated(payload, path, how, mutant):
    """``payload`` (a fresh copy) with the value at ``path`` replaced by
    ``mutant``, or its key deleted or renamed (inside an object)."""
    payload = json.loads(json.dumps(payload))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if how != "replace" and isinstance(parent, dict):
        value = parent.pop(path[-1])
        if how == "rename":
            parent["renamed"] = value
    else:
        parent[path[-1]] = mutant
    return payload


def _summaries(program) -> None:
    """What a reader of a decoded program calls first, and the re-encode
    a daemon runs to serve it."""
    program.end_to_end_ms
    program.fingerprint()
    estimate_energy(program)
    program_to_payload(program)


_MUTATION = st.tuples(st.sampled_from(["replace", "replace", "delete", "rename"]), _MUTANTS)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mutation=_MUTATION)
def test_a_mutated_program_is_refused_or_readable(compiled_tiny_cnn, data, mutation):
    payload = program_to_payload(compiled_tiny_cnn)
    path = data.draw(st.sampled_from(list(_json_paths(payload))))
    try:
        program = program_from_payload(_mutated(payload, path, *mutation))
    except ProgramFormatError:
        return
    _summaries(program)


@pytest.fixture(scope="module")
def stored_entry(small_chip, tiny_cnn_graph, tmp_path_factory):
    """A real store entry: its directory, key, file and text."""
    root = tmp_path_factory.mktemp("store")
    options = CompilerOptions(generate_code=False)
    CompileService(cache_dir=root).compile_graph(tiny_cnn_graph, small_chip, options)
    key = ProgramKey.build(tiny_cnn_graph.digest(), small_chip, options, "cmswitch")
    path = root / key.digest[:2] / f"{key.digest}.json"
    return root, key, path, path.read_text(encoding="utf-8")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), mutation=_MUTATION, truncate=st.booleans())
def test_a_mutated_or_truncated_store_entry_is_a_miss_or_readable(
    stored_entry, data, mutation, truncate
):
    root, key, path, text = stored_entry
    entry = json.loads(text)
    field = ()
    if truncate:
        path.write_text(text[: data.draw(st.integers(0, len(text) - 1))], encoding="utf-8")
    else:
        field = data.draw(st.sampled_from(list(_json_paths(entry))))
        path.write_text(json.dumps(_mutated(entry, field, *mutation)), encoding="utf-8")
    store = DiskCacheStore(root)
    program = store.get(key)
    stats = store.stats
    if program is None:
        assert stats.misses == 1 and stats.hits == 0
        if truncate or field[0] == "program":
            assert stats.corrupt_entries == 1
    else:
        _summaries(program)
    path.write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def wire_jobs(small_chip, tiny_mlp_graph):
    """Three compile requests as the wire carries them (a model and a
    preset name, a model on a hardware object, a serialised graph) and
    one in-memory service to compile them: a repeated job is a hit."""
    options = CompilerOptions(generate_code=False)
    payloads = [
        job_to_wire(
            CompileJob(
                "tiny-mlp", workload=Workload(batch_size=2), hardware="small-test-chip",
                options=options, label="probe",
            )
        ),
        job_to_wire(CompileJob("tiny-cnn", hardware=small_chip, options=options)),
        job_to_wire(CompileJob(tiny_mlp_graph, hardware="small-test-chip", options=options)),
    ]
    return SimpleNamespace(payloads=payloads, service=CompileService())


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mutation=_MUTATION)
def test_a_mutated_compile_request_is_refused_or_compiles(wire_jobs, data, mutation):
    service = wire_jobs.service
    payload = data.draw(st.sampled_from(wire_jobs.payloads))
    path = data.draw(st.sampled_from(list(_json_paths(payload))))
    try:
        job = job_from_wire(_mutated(payload, path, *mutation))
    except WireFormatError:
        return
    result = service.compile(job)
    assert result.ok, (path, mutation, result.error)


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("hardware",), "no-such-chip", "unknown hardware preset"),
        (("model",), "no-such-model", "unknown model"),
        (("workload",), [1], "'workload' must be an object"),
        (("workload", "batch_size"), 1.5, "'batch_size' must be an integer"),
        (("workload", "seq_len"), 2**53, "'seq_len' must be an integer"),
        (("workload", "image_size"), True, "'image_size' must be an integer"),
    ],
)
def test_a_request_is_refused_before_it_compiles(path, value, match):
    """What a compile would only fail on (or never fail on, for a preset
    or model name) is a ``WireFormatError``: a 400, not a 422 or a 500."""
    payload = job_to_wire(CompileJob("tiny-mlp", workload=Workload(batch_size=2)))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(WireFormatError, match=match):
        job_from_wire(payload)


@pytest.mark.parametrize("field", ["array_rows", "num_arrays", "buffer_bytes"])
@pytest.mark.parametrize("value", [1.5, 2**53, False])
def test_a_hardware_size_is_a_json_integer(small_chip, field, value):
    payload = job_to_wire(CompileJob("tiny-mlp", hardware=small_chip))
    payload["hardware"][field] = value
    with pytest.raises(WireFormatError, match=field):
        job_from_wire(payload)


@pytest.mark.parametrize("value", ["x", "", 0, 1, None, math.nan, [], {}])
@pytest.mark.parametrize(
    "option", [f.name for f in fields(CompilerOptions) if isinstance(f.default, bool)]
)
def test_a_flag_option_is_json_true_or_false(option, value):
    payload = job_to_wire(CompileJob("tiny-mlp", options=CompilerOptions()))
    payload["options"][option] = value
    with pytest.raises(WireFormatError, match=option):
        job_from_wire(payload)
    payload["options"][option] = False
    assert getattr(job_from_wire(payload).options, option) is False


# ---------------------------------------------------------------------- #
# _json_safe
# ---------------------------------------------------------------------- #
def _two_walk_json_safe(value, _depth=0):
    """The projection as it was: encode, filtering with a second walk."""
    if _depth > 8:
        return None
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if hasattr(value, "item") and not isinstance(value, Mapping):
        try:
            return _two_walk_json_safe(value.item(), _depth + 1)
        except (TypeError, ValueError):
            return None
    if isinstance(value, Mapping):
        return {
            str(key): _two_walk_json_safe(entry, _depth + 1)
            for key, entry in value.items()
            if _two_walk_is_json_safe(entry, _depth + 1)
        }
    if isinstance(value, (list, tuple)):
        return [
            _two_walk_json_safe(entry, _depth + 1)
            for entry in value
            if _two_walk_is_json_safe(entry, _depth + 1)
        ]
    return None


def _two_walk_is_json_safe(value, depth):
    if depth > 8:
        return False
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if hasattr(value, "item") and not isinstance(value, Mapping):
        return True
    if isinstance(value, Mapping):
        return all(_two_walk_is_json_safe(entry, depth + 1) for entry in value.values())
    if isinstance(value, (list, tuple)):
        return all(_two_walk_is_json_safe(entry, depth + 1) for entry in value)
    return False


class _Boxed:
    """A scalar wrapper whose ``item()`` returns anything, or raises."""

    def __init__(self, value):
        self.value = value

    def item(self):
        if isinstance(self.value, Exception):
            raise self.value
        return self.value


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.integers(-5, 5).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.lists(st.integers(0, 3), min_size=1, max_size=2).map(np.array),
    st.builds(object),
    st.sampled_from([TypeError("no"), ValueError("no")]).map(_Boxed),
)


def _nested(children):
    keys = st.one_of(st.text(max_size=2), st.integers(-2, 2))
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=3),
        children.map(_Boxed),
    )


def _deepen(value, depth):
    """``value`` wrapped in ``depth`` alternating single-entry containers."""
    for level in range(depth):
        value = [value] if level % 2 else {"k": value}
    return value


_VALUES = st.builds(
    _deepen, st.recursive(_LEAVES, _nested, max_leaves=12), st.integers(0, 10)
)


@settings(max_examples=300, deadline=None)
@given(value=_VALUES, top_level=st.booleans())
def test_one_pass_json_safe_matches_the_two_walk_version(value, top_level):
    value = {"entry": value, "other": 1} if top_level else value
    expected = _two_walk_json_safe(value)
    assert json.dumps(_json_safe(value)) == json.dumps(expected)
