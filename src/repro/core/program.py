"""Compiled-program data structures and their bit-exact codec.

The result of compiling a graph for a dual-mode CIM chip is a sequence of
*segments* (the paper's ``S_{i,j}``), each with a per-operator allocation
of compute- and memory-mode arrays, the latency the cost model predicts
for it, and the overhead of transitioning from the previous segment.  The
code generator additionally lowers the schedule to a meta-operator flow
(:mod:`repro.core.metaop`).

:func:`program_to_payload` / :func:`program_from_payload` are the one
JSON rendering of a :class:`CompiledProgram`: the program store
(:mod:`repro.core.store`) persists it and the serving wire format
(:mod:`repro.serve.wire`) ships it.  Each decision is stored once: one
table row per distinct operator profile, segments by operator position.
Floats travel as IEEE-754 hex strings and the meta-operator flow as its
rendered text, so a decoded program's fingerprint equals the original's.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional

from ..cost.arithmetic import OperatorProfile, profile_signature
from ..cost.latency import OperatorAllocation
from ..cost.switching import SegmentResources
from ..hardware.deha import DualModeHardwareAbstraction

__all__ = [
    "CompiledProgram",
    "ProgramFormatError",
    "RenderedMetaProgram",
    "SegmentPlan",
    "program_from_payload",
    "program_to_payload",
]


@dataclass
class SegmentPlan:
    """One network segment with its resource allocation and costs.

    Attributes:
        index: Position of the segment in execution order.
        operator_names: Names of the CIM-mappable operators in the segment
            (topological order).
        allocations: Per-operator array allocation.
        profiles: Per-operator cost profiles (kept for reporting).
        intra_cycles: ``T_intra`` — pipelined execution latency.
        inter_cycles: ``T_inter`` — transition cost from the previous
            segment (write-back + mode switch + weight reload).
        inter_breakdown: Per-component breakdown of ``inter_cycles``.
        resources: Aggregate compute/memory array usage.
        boundary_memory_arrays: Idle arrays switched to memory mode to keep
            this segment's live outputs on chip across the boundary (only a
            dual-mode compiler sets this).
    """

    index: int
    operator_names: List[str]
    allocations: Dict[str, OperatorAllocation]
    profiles: Dict[str, OperatorProfile]
    intra_cycles: float
    inter_cycles: float
    inter_breakdown: Dict[str, float] = field(default_factory=dict)
    resources: Optional[SegmentResources] = None
    boundary_memory_arrays: int = 0

    @property
    def total_cycles(self) -> float:
        """Latency contributed by this segment including its transition."""
        return self.intra_cycles + self.inter_cycles

    @property
    def compute_arrays(self) -> int:
        """Total compute-mode arrays used by the segment."""
        return sum(alloc.compute_arrays for alloc in self.allocations.values())

    @property
    def memory_arrays(self) -> int:
        """Total memory-mode arrays used by the segment (incl. boundary buffers)."""
        operator_memory = sum(alloc.memory_arrays for alloc in self.allocations.values())
        return operator_memory + self.boundary_memory_arrays

    @property
    def memory_array_ratio(self) -> float:
        """Fraction of the segment's arrays operating in memory mode."""
        total = self.compute_arrays + self.memory_arrays
        return self.memory_arrays / total if total else 0.0

    def describe(self) -> str:
        """One-line summary used by reports (Fig. 15-style)."""
        ops = ", ".join(self.operator_names)
        return (
            f"segment {self.index}: [{ops}] compute={self.compute_arrays} "
            f"memory={self.memory_arrays} intra={self.intra_cycles:.0f}cyc "
            f"inter={self.inter_cycles:.0f}cyc"
        )


@dataclass
class CompiledProgram:
    """Full compilation result for one graph on one hardware target.

    Attributes:
        graph_name: Name of the compiled graph.
        compiler_name: Which compiler produced the result ("cmswitch",
            "cim-mlc", "puma", "occ").
        hardware: Hardware abstraction the program targets.
        segments: Segment plans in execution order.
        block_repeat: Multiplier applied to the compiled graph's latency to
            obtain the end-to-end model latency (transformer models are
            compiled per block and reused across layers).
        compile_seconds: Wall-clock compilation time.
        metadata: Free-form extra information (workload, options, ...).
        stats: Compilation statistics — allocator solve count, shared
            allocation-cache hits and hit rate, wall time.  Populated by
            :class:`~repro.core.compiler.CMSwitchCompiler` and surfaced
            per job by :class:`repro.service.CompileService`.
    """

    graph_name: str
    compiler_name: str
    hardware: DualModeHardwareAbstraction
    segments: List[SegmentPlan]
    block_repeat: float = 1.0
    compile_seconds: float = 0.0
    metadata: Dict = field(default_factory=dict)
    stats: Dict = field(default_factory=dict)
    #: Lowered meta-operator flow (set when code generation is enabled).
    meta_program: Optional[object] = None

    # ------------------------------------------------------------------ #
    # latency summaries
    # ------------------------------------------------------------------ #
    @property
    def graph_cycles(self) -> float:
        """Latency of one pass over the compiled graph."""
        return sum(segment.total_cycles for segment in self.segments)

    @property
    def end_to_end_cycles(self) -> float:
        """Latency of the whole model (graph latency times block repeat)."""
        return self.graph_cycles * self.block_repeat

    @property
    def end_to_end_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.hardware.cycles_to_ms(self.end_to_end_cycles)

    @property
    def intra_cycles(self) -> float:
        """Total intra-segment cycles (one graph pass)."""
        return sum(segment.intra_cycles for segment in self.segments)

    @property
    def inter_cycles(self) -> float:
        """Total inter-segment cycles (one graph pass)."""
        return sum(segment.inter_cycles for segment in self.segments)

    @property
    def switch_cycles(self) -> float:
        """Cycles spent purely on compute/memory mode switches."""
        return sum(segment.inter_breakdown.get("mode_switch", 0.0) for segment in self.segments)

    @property
    def switch_overhead_fraction(self) -> float:
        """Share of total time spent on mode switching (§5.5 metric)."""
        total = self.graph_cycles
        return self.switch_cycles / total if total else 0.0

    @property
    def num_segments(self) -> int:
        """Number of segments."""
        return len(self.segments)

    @property
    def mean_memory_array_ratio(self) -> float:
        """Average memory-mode array share across segments (Fig. 16 metric).

        Weighted by segment execution time so long-running segments
        dominate, matching "the average proportion of arrays operating in
        memory mode across all segments".
        """
        total_time = sum(s.intra_cycles for s in self.segments)
        # Fall back to the unweighted mean when any segment reports a
        # non-finite latency: `ratio * inf` (and 0 * inf in particular)
        # would otherwise leak a NaN into the report.
        if total_time <= 0 or not math.isfinite(total_time):
            segments = self.segments or []
            if not segments:
                return 0.0
            return sum(s.memory_array_ratio for s in segments) / len(segments)
        weighted = sum(s.memory_array_ratio * s.intra_cycles for s in self.segments)
        return weighted / total_time

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """SHA-256 digest of the program's *semantic* content.

        Covers everything that defines the compiled artifact — graph
        and compiler names, hardware fingerprint, block repeat, every
        segment's operators / allocations / latencies / transition
        breakdown / resources / boundary buffers, and the rendered
        meta-operator flow.  Deliberately excludes wall-clock material
        (``compile_seconds``, ``stats``, ``metadata``): two compiles of
        the same graph are *bit-identical* exactly when their
        fingerprints match, regardless of how long they took or which
        cache tier served the solves.  Floats are hex-encoded so the
        digest captures their exact bits, not a decimal rounding.
        """

        def _float(value: float) -> str:
            return float(value).hex()

        def _resources(resources) -> Optional[List]:
            if resources is None:
                return None
            return [
                resources.compute_arrays,
                resources.memory_arrays,
                resources.live_output_elements,
                resources.static_weight_elements,
                resources.idle_arrays,
            ]

        payload = {
            "graph_name": self.graph_name,
            "compiler_name": self.compiler_name,
            "hardware": self.hardware.fingerprint(),
            "block_repeat": _float(self.block_repeat),
            "segments": [
                {
                    "index": segment.index,
                    "operators": list(segment.operator_names),
                    "allocations": {
                        name: [alloc.compute_arrays, alloc.memory_arrays]
                        for name, alloc in segment.allocations.items()
                    },
                    "intra": _float(segment.intra_cycles),
                    "inter": _float(segment.inter_cycles),
                    "breakdown": {
                        key: _float(value)
                        for key, value in segment.inter_breakdown.items()
                    },
                    "resources": _resources(segment.resources),
                    "boundary_memory_arrays": segment.boundary_memory_arrays,
                }
                for segment in self.segments
            ],
            "meta_program": (
                self.meta_program.render() if self.meta_program is not None else None
            ),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Multi-line human-readable compilation summary."""
        lines = [
            f"{self.compiler_name} program for {self.graph_name!r} on {self.hardware.name}",
            f"  segments           : {self.num_segments}",
            f"  graph latency      : {self.graph_cycles:,.0f} cycles",
            f"  end-to-end latency : {self.end_to_end_cycles:,.0f} cycles "
            f"({self.end_to_end_ms:.3f} ms, block repeat {self.block_repeat:g})",
            f"  intra / inter      : {self.intra_cycles:,.0f} / {self.inter_cycles:,.0f} cycles",
            f"  mode-switch share  : {100.0 * self.switch_overhead_fraction:.2f} %",
            f"  memory-array ratio : {100.0 * self.mean_memory_array_ratio:.1f} %",
            f"  compile time       : {self.compile_seconds:.3f} s",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# bit-exact JSON codec (the program store and the serving wire share it)
# ---------------------------------------------------------------------- #
class ProgramFormatError(ValueError):
    """An encoded program is malformed or incomplete."""


class RenderedMetaProgram:
    """A meta-operator flow reconstructed from its rendered text.

    An encoded program carries the flow as the exact string
    ``meta_program.render()`` produced — which is also precisely what
    :meth:`CompiledProgram.fingerprint` hashes — so a decoded program
    keeps its fingerprint without shipping the object graph.  The flow
    is text only: the flow interpreter,
    :meth:`~repro.sim.timing.TimingSimulator.run`, refuses it.
    """

    def __init__(self, text: str) -> None:
        self._text = text

    def render(self) -> str:
        """The original rendering, verbatim."""
        return self._text


def _float_out(value: float) -> str:
    """IEEE-754 hex rendering — survives JSON with its exact bits."""
    return float(value).hex()


def _float_in(value, field_name: str) -> float:
    if isinstance(value, str):
        try:
            return float.fromhex(value)
        except ValueError as exc:
            raise ProgramFormatError(
                f"{field_name!r} is not a hex float: {value!r}"
            ) from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProgramFormatError(
            f"{field_name!r} must be a number, got {type(value).__name__}"
        )
    try:
        return float(value)
    except OverflowError as exc:
        raise ProgramFormatError(f"{field_name!r} is out of range: {value!r}") from exc


def _int_in(value, field_name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProgramFormatError(
            f"{field_name!r} must be an integer, got {value!r}"
        ) from exc


#: Field names of the two flat, frozen records a program carries, in
#: declaration order: a profile-table row and a segment's ``resources``
#: list hold their values in this order.
_PROFILE_FIELD_NAMES = tuple(f.name for f in fields(OperatorProfile))
_RESOURCES_FIELD_NAMES = tuple(f.name for f in fields(SegmentResources))
_resources_row = attrgetter(*_RESOURCES_FIELD_NAMES)
#: A profile row's element and MAC counts, read in one call.  The energy
#: model multiplies them by floats, so they must be integers a float can
#: hold: the sum of their magnitudes, one C-level pass, is an ``int``
#: below ``2**63`` (a string, ``null``, array or object makes the sum
#: raise, a float or NaN makes it a float; a ``bool`` adds as 0 or 1).
_PROFILE_COUNTS = itemgetter(
    *(i for i, f in enumerate(fields(OperatorProfile)) if f.type in (int, "int"))
)
_COUNT_LIMIT = 2**63
#: A row's two other fields must be a string and a bool: re-encoding a
#: decoded program hashes every row.
_OP_TYPE = _PROFILE_FIELD_NAMES.index("op_type")
_STATIC_WEIGHT = _PROFILE_FIELD_NAMES.index("has_static_weight")

#: The decoder builds each frozen record in one step: a bare instance
#: whose ``__dict__`` it fills, the way ``copy`` and ``pickle`` rebuild a
#: frozen dataclass.  Profiles and allocations are plain frozen
#: dataclasses (no slots); the one check an ``__init__`` would run —
#: non-negative allocation counts — is made explicitly.
_new = object.__new__

#: A decoded JSON object is a ``dict``: the exact check runs first, and
#: any other :class:`~collections.abc.Mapping` (an ABC check, a Python
#: call per record) is still accepted after it.
_OBJECT = (dict, Mapping)
_ARRAY = (list, tuple)


def _profile_from_row(row) -> OperatorProfile:
    if not isinstance(row, _ARRAY) or len(row) != len(_PROFILE_FIELD_NAMES):
        raise ProgramFormatError("a profile row must be an array of every profile field")
    try:
        total = sum(map(abs, _PROFILE_COUNTS(row)))
    except TypeError:
        total = None
    if type(total) is not int or total >= _COUNT_LIMIT:
        raise ProgramFormatError("operator profile counts must be integers below 2**63")
    if type(row[_OP_TYPE]) is not str or type(row[_STATIC_WEIGHT]) is not bool:
        raise ProgramFormatError("a profile's op_type must be a string, has_static_weight a bool")
    profile = _new(OperatorProfile)
    profile.__dict__.update(zip(_PROFILE_FIELD_NAMES, row))
    return profile


def _allocation_from_payload(name: str, pair) -> OperatorAllocation:
    try:
        compute, memory = pair
        compute, memory = int(compute), int(memory)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProgramFormatError(
            f"allocation for {name!r} must be a [compute, memory] pair of integers"
        ) from exc
    if compute < 0 or memory < 0:
        raise ProgramFormatError(f"allocation for {name!r} has a negative array count")
    allocation = _new(OperatorAllocation)
    allocation.__dict__.update(compute_arrays=compute, memory_arrays=memory)
    return allocation


def _segment_to_payload(segment: SegmentPlan, rows: Dict[tuple, int]) -> Dict:
    # Per operator, in name order; a profile is its row in ``rows`` (signature -> row).
    names = segment.operator_names
    return {
        "index": segment.index,
        "operator_names": list(names),
        "allocations": [
            [alloc.compute_arrays, alloc.memory_arrays]
            for alloc in map(segment.allocations.__getitem__, names)
        ],
        "profiles": [
            rows.setdefault(profile_signature(profile), len(rows))
            for profile in map(segment.profiles.__getitem__, names)
        ],
        "intra_cycles": _float_out(segment.intra_cycles),
        "inter_cycles": _float_out(segment.inter_cycles),
        "inter_breakdown": {
            key: _float_out(value) for key, value in segment.inter_breakdown.items()
        },
        "resources": (
            None if segment.resources is None else list(_resources_row(segment.resources))
        ),
        "boundary_memory_arrays": segment.boundary_memory_arrays,
    }


def _segment_from_payload(payload: Mapping, table: List[OperatorProfile]) -> SegmentPlan:
    if not isinstance(payload, _OBJECT):
        raise ProgramFormatError("segment must be an object")
    try:
        allocations = payload["allocations"]
        index = payload["index"]
        operator_names = payload["operator_names"]
        rows = payload["profiles"]
        intra_cycles = payload["intra_cycles"]
        inter_cycles = payload["inter_cycles"]
    except KeyError as exc:
        raise ProgramFormatError(
            f"segment is missing required field {exc.args[0]!r}"
        ) from None
    inter_breakdown = payload.get("inter_breakdown", {})
    resources = payload.get("resources")
    if not isinstance(inter_breakdown, _OBJECT):
        raise ProgramFormatError("'inter_breakdown' must be an object")
    if not (isinstance(operator_names, _ARRAY) and isinstance(allocations, _ARRAY)):
        raise ProgramFormatError("'operator_names' and 'allocations' must be arrays")
    if not isinstance(rows, _ARRAY) or not len(operator_names) == len(allocations) == len(rows):
        raise ProgramFormatError("every operator needs one allocation and one profile row")
    if not {*map(type, operator_names)} <= {str}:
        raise ProgramFormatError("operator names must be strings")
    if rows and not ({*map(type, rows)} <= {int} and 0 <= min(rows) <= max(rows) < len(table)):
        raise ProgramFormatError(f"a profile index is not a row of the {len(table)}-row table")
    if resources is not None:
        if not isinstance(resources, _ARRAY) or len(resources) != len(_RESOURCES_FIELD_NAMES):
            raise ProgramFormatError("'resources' must be null or an array of every field")
        resources = SegmentResources(*resources)
    # readers look every operator up in both tables, so build them by name
    return SegmentPlan(
        index=_int_in(index, "index"),
        operator_names=list(operator_names),
        allocations=dict(
            zip(operator_names, map(_allocation_from_payload, operator_names, allocations))
        ),
        profiles=dict(zip(operator_names, map(table.__getitem__, rows))),
        intra_cycles=_float_in(intra_cycles, "intra_cycles"),
        inter_cycles=_float_in(inter_cycles, "inter_cycles"),
        inter_breakdown={
            key: _float_in(value, f"inter_breakdown[{key}]")
            for key, value in inter_breakdown.items()
        },
        resources=resources,
        boundary_memory_arrays=_int_in(
            payload.get("boundary_memory_arrays", 0), "boundary_memory_arrays"
        ),
    )


def program_to_payload(program: CompiledProgram) -> Dict:
    """JSON-safe, bit-exact rendering of a complete compiled program.

    Carries everything :meth:`CompiledProgram.fingerprint` covers (so
    the round trip is fingerprint-bit-identical) *plus* the reporting
    payload — per-operator profiles, compile stats, metadata — so a
    decoded program is usable exactly like a local compile's.  Each
    distinct profile is one row of the ``profiles`` table, in order of
    first appearance; a segment lists its operators' allocations and
    rows by position.  Only JSON-safe metadata/stats entries survive.
    """
    rows: Dict[tuple, int] = {}
    segments = [_segment_to_payload(segment, rows) for segment in program.segments]
    return {
        "graph_name": program.graph_name,
        "compiler_name": program.compiler_name,
        "hardware": program.hardware.to_dict(),
        "profiles": [list(signature) for signature in rows],
        "segments": segments,
        "block_repeat": _float_out(program.block_repeat),
        "compile_seconds": _float_out(program.compile_seconds),
        "metadata": _json_safe(program.metadata),
        "stats": _json_safe(program.stats),
        "meta_program": (
            program.meta_program.render() if program.meta_program is not None else None
        ),
    }


def program_from_payload(payload: Mapping) -> CompiledProgram:
    """Rebuild a :class:`CompiledProgram` from :func:`program_to_payload`;
    operators of one table row share one :class:`OperatorProfile`.

    Raises:
        ProgramFormatError: Malformed or incomplete payload — the only
            exception a payload of JSON values can make it raise.
    """
    if not isinstance(payload, _OBJECT):
        raise ProgramFormatError("compiled program must be an object")
    try:
        hardware_payload = payload["hardware"]
        profile_rows = payload["profiles"]
        segments_payload = payload["segments"]
        graph_name = payload["graph_name"]
        compiler_name = payload["compiler_name"]
    except KeyError as exc:
        raise ProgramFormatError(
            f"compiled program is missing required field {exc.args[0]!r}"
        ) from None
    if not isinstance(hardware_payload, _OBJECT):
        raise ProgramFormatError("'hardware' must be an object")
    try:
        hardware = DualModeHardwareAbstraction.from_dict(dict(hardware_payload))
    except (TypeError, ValueError, KeyError) as exc:
        raise ProgramFormatError(f"invalid hardware description: {exc}") from exc
    if not isinstance(profile_rows, list) or not isinstance(segments_payload, list):
        raise ProgramFormatError("'profiles' and 'segments' must be arrays")
    meta_text = payload.get("meta_program")
    if meta_text is not None and not isinstance(meta_text, str):
        raise ProgramFormatError("'meta_program' must be a string or null")
    metadata = payload.get("metadata") or {}
    stats = payload.get("stats") or {}
    if not isinstance(metadata, _OBJECT):
        raise ProgramFormatError("'metadata' must be an object")
    if not isinstance(stats, _OBJECT):
        raise ProgramFormatError("'stats' must be an object")
    table = [_profile_from_row(row) for row in profile_rows]
    return CompiledProgram(
        graph_name=str(graph_name),
        compiler_name=str(compiler_name),
        hardware=hardware,
        segments=[_segment_from_payload(segment, table) for segment in segments_payload],
        block_repeat=_float_in(payload.get("block_repeat", 1.0), "block_repeat"),
        compile_seconds=_float_in(payload.get("compile_seconds", 0.0), "compile_seconds"),
        metadata=dict(metadata),
        stats=dict(stats),
        meta_program=RenderedMetaProgram(meta_text) if meta_text is not None else None,
    )


#: What :func:`_encoded` returns for a value that cannot travel.
_DROP = object()


def _json_safe(value, _depth: int = 0):
    """Best-effort projection onto JSON types (drops what cannot travel).

    Stats and metadata are open dictionaries — passes, experiments and
    callers may stash arbitrary objects in them.  The codec keeps every
    JSON-representable entry (including numpy scalars, via their
    ``item()``) and silently drops the rest rather than failing; the
    fingerprint never covers these fields, so dropping is lossless for
    identity.  The top-level mapping or list drops each entry that
    cannot travel; below it, a mapping or list holding such an entry is
    dropped whole (see :func:`_encoded`).  Anything nested deeper than 8
    levels is cut.
    """
    if _depth <= 8:
        if isinstance(value, Mapping):
            encoded = ((str(key), _encoded(entry, _depth + 1)) for key, entry in value.items())
            return {key: entry for key, entry in encoded if entry is not _DROP}
        if isinstance(value, (list, tuple)) and not hasattr(value, "item"):
            encoded = (_encoded(entry, _depth + 1) for entry in value)
            return [entry for entry in encoded if entry is not _DROP]
    encoded = _encoded(value, _depth)
    return None if encoded is _DROP else encoded


def _encoded(value, depth: int):
    """``value`` as JSON types, or :data:`_DROP` if any part cannot travel.

    One walk: a mapping or list is encoded entry by entry and abandoned
    at its first entry that cannot travel.  A scalar wrapper (anything
    with ``item()``, such as a numpy scalar) always travels — as
    ``None`` when its ``item()`` does not.
    """
    if depth > 8:
        return _DROP
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if hasattr(value, "item") and not isinstance(value, Mapping):
        try:
            return _json_safe(value.item(), depth + 1)
        except (TypeError, ValueError):
            return None
    if isinstance(value, Mapping):
        out = {}
        for key, entry in value.items():
            entry = _encoded(entry, depth + 1)
            if entry is _DROP:
                return _DROP
            out[str(key)] = entry
        return out
    if isinstance(value, (list, tuple)):
        items = []
        for entry in value:
            entry = _encoded(entry, depth + 1)
            if entry is _DROP:
                return _DROP
            items.append(entry)
        return items
    return _DROP
