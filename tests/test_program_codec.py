"""Tests for the compiled-program codec shared by the store and the wire.

Covered here: entries written by format version 4 decode to their
recorded fingerprints and re-encode to the same bytes (so the one-step
decoder needed no version bump), every malformed program is a
``ProgramFormatError`` — a counted corrupt miss in the store, a
``WireFormatError`` on the wire — and the one-pass ``_json_safe``
projects stats and metadata exactly as the two-walk version did.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from pathlib import Path

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
from repro.serve.wire import WIRE_VERSION, WireFormatError, program_from_wire, program_to_wire
from repro.service import CompileService

#: Two programs (tiny-cnn, tiny-transformer on ``small-test-chip``, code
#: generation on) as format version 4 wrote them: each store entry with
#: its file digest, the SHA-256 of its exact text and the program's
#: fingerprint.
PINNED = Path(__file__).resolve().parent / "data" / "program_entry_v4.json"


def _pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))["programs"]


class TestFormatVersion4Pin:
    def test_versions_are_unchanged(self):
        assert (FORMAT_VERSION, WIRE_VERSION) == (4, 1)

    @pytest.mark.parametrize("record", _pinned(), ids=lambda record: record["model"])
    def test_pinned_entry_decodes_and_reencodes_byte_identically(self, record):
        entry = record["entry"]
        text = json.dumps(entry, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == record["entry_sha256"]
        program = program_from_payload(entry["program"])
        assert program.fingerprint() == record["fingerprint"]
        assert json.dumps(program_to_payload(program), sort_keys=True) == json.dumps(
            entry["program"], sort_keys=True
        )
        wire = json.dumps(program_to_wire(program), sort_keys=True)
        assert wire == json.dumps({"wire_version": 1, **entry["program"]}, sort_keys=True)

    @pytest.mark.parametrize("record", _pinned(), ids=lambda record: record["model"])
    def test_store_reads_and_rewrites_the_pinned_entry(self, record, tmp_path):
        key = ProgramKey(record["entry"]["key"])
        assert key.digest == record["digest"]
        path = tmp_path / key.digest[:2] / f"{key.digest}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(record["entry"], sort_keys=True), encoding="utf-8")
        store = DiskCacheStore(tmp_path)
        program = store.get(key)
        assert program is not None and program.fingerprint() == record["fingerprint"]
        store.put(key, program)
        rewritten = path.read_bytes()
        assert hashlib.sha256(rewritten).hexdigest() == record["entry_sha256"]


# ---------------------------------------------------------------------- #
# malformed programs
# ---------------------------------------------------------------------- #
def _first_segment(program, **fields):
    first = program["segments"][0]
    return {**program, "segments": [{**first, **fields}, *program["segments"][1:]]}


def _first_allocation(program, pair):
    allocations = dict(program["segments"][0]["allocations"])
    allocations[next(iter(allocations))] = pair
    return _first_segment(program, allocations=allocations)


#: Mangles that used to leave the decoder as a raw ValueError, TypeError
#: or AttributeError.
MANGLES = {
    "negative-count": lambda program: _first_allocation(program, [-1, 0]),
    "non-integer-index": lambda program: _first_segment(program, index="first"),
    "non-integer-boundary": lambda program: _first_segment(
        program, boundary_memory_arrays=[1]
    ),
    "non-numeric-allocation": lambda program: _first_allocation(program, ["x", 1]),
    "integer-operator-names": lambda program: _first_segment(program, operator_names=7),
    "list-profiles": lambda program: _first_segment(program, profiles=[1]),
    "list-inter-breakdown": lambda program: _first_segment(program, inter_breakdown=[1]),
    "list-metadata": lambda program: {**program, "metadata": [1]},
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
