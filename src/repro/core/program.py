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
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from itertools import chain, repeat
from typing import Dict, List, Optional, Sequence, Tuple

from ..cost.arithmetic import OperatorProfile, profile_signature
from ..cost.latency import OperatorAllocation
from ..cost.switching import SegmentResources
from ..hardware.deha import DualModeHardwareAbstraction
from .lru import BoundedLRU

__all__ = [
    "CompiledProgram",
    "ProgramFormatError",
    "RenderedMetaProgram",
    "SegmentPlan",
    "program_from_payload",
    "program_to_payload",
]

_compute = itemgetter(0)
_memory = itemgetter(1)


@dataclass
class SegmentPlan:
    """One network segment with its resource allocation and costs.

    The per-operator columns are aligned by position: operator ``i`` is
    ``operator_names[i]``, holds ``pairs[i]`` arrays and is priced by
    ``profiles[i]``.

    Attributes:
        index: Position of the segment in execution order.
        operator_names: Names of the CIM-mappable operators in the segment
            (topological order).
        pairs: ``(compute_arrays, memory_arrays)`` per operator, the shape
            of :attr:`~repro.core.allocation.AllocationResult.pairs`.
        profiles: Per-operator cost profiles; operators of one shape may
            share one object.
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
    pairs: Sequence[Tuple[int, int]]
    profiles: List[OperatorProfile]
    intra_cycles: float
    inter_cycles: float
    inter_breakdown: Dict[str, float] = field(default_factory=dict)
    resources: Optional[SegmentResources] = None
    boundary_memory_arrays: int = 0

    @property
    def allocations(self) -> Dict[str, OperatorAllocation]:
        """``pairs`` by operator name, built on each read (a read-only view).

        Nothing in the package reads it: it stays for the benchmark's
        structure check and goes with ROADMAP item 6(a).
        """
        return {
            name: OperatorAllocation(compute, memory)
            for name, (compute, memory) in zip(self.operator_names, self.pairs)
        }

    @property
    def total_cycles(self) -> float:
        """Latency contributed by this segment including its transition."""
        return self.intra_cycles + self.inter_cycles

    @property
    def compute_arrays(self) -> int:
        """Total compute-mode arrays used by the segment."""
        return sum(map(_compute, self.pairs))

    @property
    def memory_arrays(self) -> int:
        """Total memory-mode arrays used by the segment (incl. boundary buffers)."""
        return sum(map(_memory, self.pairs)) + self.boundary_memory_arrays

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
                        name: [compute, memory]
                        for name, (compute, memory) in zip(segment.operator_names, segment.pairs)
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
        except (ValueError, OverflowError) as exc:
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


#: Field names of the two flat, frozen records a program carries, in
#: declaration order: a profile-table row and a segment's ``resources``
#: list hold their values in this order.
_PROFILE_FIELD_NAMES = tuple(f.name for f in fields(OperatorProfile))
_RESOURCES_FIELD_NAMES = tuple(f.name for f in fields(SegmentResources))
_resources_row = attrgetter(*_RESOURCES_FIELD_NAMES)
#: A profile row's element and MAC counts, read in one call.  The energy
#: model multiplies them by floats, so they must be integers a float can
#: hold: the sum of every count's magnitude across the table, one C-level
#: pass, is an ``int`` below ``2**63`` (a string, ``null``, array or
#: object makes the sum raise, a float or NaN makes it a float; a
#: ``bool`` adds as 0 or 1).
_PROFILE_COUNTS = itemgetter(
    *(i for i, f in enumerate(fields(OperatorProfile)) if f.type in (int, "int"))
)
_COUNT_LIMIT = 2**63
#: A row's two other fields must be a string and a bool: re-encoding a
#: decoded program hashes every row.
_op_type = itemgetter(_PROFILE_FIELD_NAMES.index("op_type"))
_static_weight = itemgetter(_PROFILE_FIELD_NAMES.index("has_static_weight"))
#: A segment's required fields, read in one call.
_segment_fields = itemgetter(
    "index", "operator_names", "allocations", "profiles", "intra_cycles", "inter_cycles"
)

#: The decoder builds each frozen record in one step: a bare instance
#: whose ``__dict__`` it fills, the way ``copy`` and ``pickle`` rebuild a
#: frozen dataclass.  Profiles and resources are plain frozen dataclasses
#: (no slots) whose ``__init__`` checks nothing the decoder has not.
_new = object.__new__

#: A decoded JSON object is a ``dict``: the exact check runs first, and
#: any other :class:`~collections.abc.Mapping` is still accepted after it.
_OBJECT = (dict, Mapping)
_ARRAYS = {list, tuple}

#: Hardware decoded from a payload, under the payload's keys, values and
#: value types: the programs of one chip share one (frozen) abstraction.
_HARDWARE = BoundedLRU(8)


def _hardware_from_payload(payload: Mapping) -> DualModeHardwareAbstraction:
    """The abstraction ``payload`` describes, built once per distinct payload.

    The key holds each value's type, so ``1``, ``1.0`` and ``True`` are
    different payloads.  A payload with an unhashable value, or a float
    with its sign bit set (``-0.0`` equals ``0.0`` in a key), is built
    (or refused) by ``from_dict`` every time and never kept.
    """
    data = dict(payload)
    values = tuple(data.values())
    key = (tuple(data), values, tuple(map(type, values)))
    try:
        hash(key)
    except TypeError:
        key = None
    if key is not None and 0 in values:
        if any(math.copysign(1.0, value) < 0 for value in values if type(value) is float):
            key = None
    hardware = None if key is None else _HARDWARE.get(key)
    if hardware is None:
        try:
            hardware = DualModeHardwareAbstraction.from_dict(data)
        except (TypeError, ValueError, KeyError) as exc:
            raise ProgramFormatError(f"invalid hardware description: {exc}") from exc
        if key is not None:
            _HARDWARE.put(key, hardware)
    return hardware


def _objects(values: list, what: str) -> list:
    """``values`` as dicts: a decoded JSON object is one already, another
    :class:`~collections.abc.Mapping` is copied, anything else refused."""
    if {*map(type, values)} <= {dict}:
        return values
    if not all(isinstance(value, Mapping) for value in values):
        raise ProgramFormatError(f"{what} must be an object")
    return list(map(dict, values))


def _profile_table(rows: list) -> List[OperatorProfile]:
    """One :class:`OperatorProfile` per table row, each field checked
    once across the table."""
    if not ({*map(type, rows)} <= _ARRAYS and {*map(len, rows)} <= {len(_PROFILE_FIELD_NAMES)}):
        raise ProgramFormatError("a profile row must be an array of every profile field")
    try:
        total = sum(map(abs, chain.from_iterable(map(_PROFILE_COUNTS, rows))))
    except TypeError:
        total = None
    if type(total) is not int or total >= _COUNT_LIMIT:
        raise ProgramFormatError("operator profile counts must be integers below 2**63")
    if not (
        {*map(type, map(_op_type, rows))} <= {str}
        and {*map(type, map(_static_weight, rows))} <= {bool}
    ):
        raise ProgramFormatError("a profile's op_type must be a string, has_static_weight a bool")
    table = list(map(_new, repeat(OperatorProfile, len(rows))))
    for profile, row in zip(table, rows):
        profile.__dict__.update(zip(_PROFILE_FIELD_NAMES, row))
    return table


def _float_problem(intras, inters, breakdowns) -> str:
    """What :func:`_segments_from_payload` says when a float does not parse."""
    named = [
        *(("intra_cycles", value) for value in intras),
        *(("inter_cycles", value) for value in inters),
        *(
            (f"inter_breakdown[{key}]", value)
            for breakdown in breakdowns
            for key, value in breakdown.items()
        ),
    ]
    for field_name, value in named:
        try:
            float.fromhex(value)
        except (TypeError, ValueError, OverflowError):
            return f"{field_name!r} is not a hex float: {value!r}"
    return "'intra_cycles', 'inter_cycles' and 'inter_breakdown' must hold hex floats"


def _segments_from_payload(segments: list, table: List[OperatorProfile]) -> List[SegmentPlan]:
    """Every segment of a program.  Each field is checked once across the
    whole program — flattened, in one C-level pass — so the loop at the
    end only slices the flat columns and builds the plans."""
    if not segments:
        return []
    segments = _objects(segments, "every entry of 'segments'")
    try:
        columns = list(map(_segment_fields, segments))
    except KeyError as exc:
        raise ProgramFormatError(
            f"segment is missing required field {exc.args[0]!r}"
        ) from None
    indices, name_lists, pair_lists, row_lists, intras, inters = zip(*columns)
    breakdowns = _objects(
        [segment.get("inter_breakdown", {}) for segment in segments], "'inter_breakdown'"
    )
    resources = [segment.get("resources") for segment in segments]
    boundaries = [segment.get("boundary_memory_arrays", 0) for segment in segments]
    if not {*map(type, indices)} <= {int}:
        raise ProgramFormatError("a segment's 'index' must be an integer")
    if not {*map(type, boundaries)} <= {int}:
        raise ProgramFormatError("'boundary_memory_arrays' must be an integer")
    if not {*map(type, name_lists), *map(type, pair_lists), *map(type, row_lists)} <= _ARRAYS:
        raise ProgramFormatError("'operator_names', 'allocations' and 'profiles' must be arrays")
    sizes = list(map(len, name_lists))
    if sizes != list(map(len, pair_lists)) or sizes != list(map(len, row_lists)):
        raise ProgramFormatError("every operator needs one allocation and one profile row")

    names = list(chain.from_iterable(name_lists))
    if not {*map(type, names)} <= {str}:
        raise ProgramFormatError("'operator_names' must hold strings")
    if len({*names}) != len(names):
        repeated = Counter(names).most_common(1)[0][0]
        raise ProgramFormatError(f"operator {repeated!r} is named twice in 'operator_names'")
    rows = list(chain.from_iterable(row_lists))
    if rows and not ({*map(type, rows)} <= {int} and 0 <= min(rows) and max(rows) < len(table)):
        raise ProgramFormatError(f"a 'profiles' index is not a row of the {len(table)}-row table")
    pairs = list(chain.from_iterable(pair_lists))
    if not ({*map(type, pairs)} <= _ARRAYS and {*map(len, pairs)} <= {2}):
        raise ProgramFormatError("'allocations' must hold one [compute, memory] pair per operator")
    counts = list(chain.from_iterable(pairs))
    if counts and not ({*map(type, counts)} <= {int} and min(counts) >= 0):
        raise ProgramFormatError("'allocations' array counts must be non-negative integers")
    present = [row for row in resources if row is not None]
    if not (
        {*map(type, present)} <= _ARRAYS
        and {*map(len, present)} <= {len(_RESOURCES_FIELD_NAMES)}
        and {*map(type, chain.from_iterable(present))} <= {int}
    ):
        raise ProgramFormatError("'resources' must be null or an integer for every field")
    try:
        floats = list(
            map(float.fromhex, chain(intras, inters, *map(dict.values, breakdowns)))
        )
    except (TypeError, ValueError, OverflowError):
        raise ProgramFormatError(_float_problem(intras, inters, breakdowns)) from None

    pairs = tuple(map(tuple, pairs))
    profiles = list(map(table.__getitem__, rows))
    count = len(segments)
    # Each breakdown's keys, zipped with the floats that follow: zip stops
    # at the last key without taking a float from the shared iterator.
    breakdowns = list(map(dict, map(zip, breakdowns, repeat(iter(floats[2 * count :])))))
    plans = []
    start = 0
    for index, size, intra, inter, breakdown, row, boundary in zip(
        indices, sizes, floats, floats[count:], breakdowns, resources, boundaries
    ):
        stop = start + size
        segment_resources = None
        if row is not None:
            segment_resources = _new(SegmentResources)
            segment_resources.__dict__.update(zip(_RESOURCES_FIELD_NAMES, row))
        plans.append(
            SegmentPlan(
                index,
                names[start:stop],
                pairs[start:stop],
                profiles[start:stop],
                intra,
                inter,
                breakdown,
                segment_resources,
                boundary,
            )
        )
        start = stop
    return plans


def _segment_to_payload(segment: SegmentPlan, rows: Dict[tuple, int]) -> Dict:
    # A profile is its row in ``rows`` (signature -> row).
    return {
        "index": segment.index,
        "operator_names": list(segment.operator_names),
        "allocations": list(map(list, segment.pairs)),
        "profiles": [
            rows.setdefault(signature, len(rows))
            for signature in map(profile_signature, segment.profiles)
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
    operators of one table row share one :class:`OperatorProfile`, and
    programs of one hardware payload one hardware abstraction.

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
    hardware = _hardware_from_payload(hardware_payload)
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
    table = _profile_table(profile_rows)
    return CompiledProgram(
        graph_name=str(graph_name),
        compiler_name=str(compiler_name),
        hardware=hardware,
        segments=_segments_from_payload(segments_payload, table),
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
