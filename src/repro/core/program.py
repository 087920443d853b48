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
(:mod:`repro.serve.wire`) ships it.  Floats travel as IEEE-754 hex
strings and the meta-operator flow as its rendered text, so a decoded
program's :meth:`CompiledProgram.fingerprint` equals the original's.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..cost.arithmetic import OperatorProfile
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
    def allocation_table(self) -> List[Dict]:
        """Rows describing every operator's allocation (Fig. 15 data)."""
        rows: List[Dict] = []
        for segment in self.segments:
            for name in segment.operator_names:
                allocation = segment.allocations[name]
                rows.append(
                    {
                        "segment": segment.index,
                        "operator": name,
                        "compute_arrays": allocation.compute_arrays,
                        "memory_arrays": allocation.memory_arrays,
                    }
                )
        return rows

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
    is text only: it cannot be executed (see
    :class:`~repro.sim.functional.FunctionalSimulator`).
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
    return float(value)


def _require(payload: Mapping, field_name: str, what: str):
    if field_name not in payload:
        raise ProgramFormatError(f"{what} is missing required field {field_name!r}")
    return payload[field_name]


#: Field names of the two flat, frozen records a segment carries, in
#: declaration order (the order ``dataclasses.asdict`` would emit them —
#: without its recursive deep copy, which was half of the encode cost).
_PROFILE_FIELD_NAMES = tuple(f.name for f in fields(OperatorProfile))
_RESOURCES_FIELD_NAMES = tuple(f.name for f in fields(SegmentResources))
_PROFILE_FIELDS = frozenset(_PROFILE_FIELD_NAMES)


def _profile_from_payload(payload: Mapping) -> OperatorProfile:
    if not isinstance(payload, Mapping):
        raise ProgramFormatError("operator profile must be an object")
    unknown = sorted(set(payload) - _PROFILE_FIELDS)
    if unknown:
        raise ProgramFormatError(f"unknown profile field(s): {', '.join(unknown)}")
    try:
        return OperatorProfile(**payload)
    except TypeError as exc:
        raise ProgramFormatError(f"invalid operator profile: {exc}") from exc


def _segment_to_payload(segment: SegmentPlan) -> Dict:
    return {
        "index": segment.index,
        "operator_names": list(segment.operator_names),
        "allocations": {
            name: [alloc.compute_arrays, alloc.memory_arrays]
            for name, alloc in segment.allocations.items()
        },
        "profiles": {
            name: {f: getattr(profile, f) for f in _PROFILE_FIELD_NAMES}
            for name, profile in segment.profiles.items()
        },
        "intra_cycles": _float_out(segment.intra_cycles),
        "inter_cycles": _float_out(segment.inter_cycles),
        "inter_breakdown": {
            key: _float_out(value) for key, value in segment.inter_breakdown.items()
        },
        "resources": (
            None
            if segment.resources is None
            else {f: getattr(segment.resources, f) for f in _RESOURCES_FIELD_NAMES}
        ),
        "boundary_memory_arrays": segment.boundary_memory_arrays,
    }


def _segment_from_payload(payload: Mapping) -> SegmentPlan:
    if not isinstance(payload, Mapping):
        raise ProgramFormatError("segment must be an object")
    allocations_payload = _require(payload, "allocations", "segment")
    if not isinstance(allocations_payload, Mapping):
        raise ProgramFormatError("'allocations' must be an object")
    allocations = {}
    for name, pair in allocations_payload.items():
        try:
            compute, memory = pair
        except (TypeError, ValueError) as exc:
            raise ProgramFormatError(
                f"allocation for {name!r} must be a [compute, memory] pair"
            ) from exc
        allocations[name] = OperatorAllocation(
            compute_arrays=int(compute), memory_arrays=int(memory)
        )
    resources_payload = payload.get("resources")
    resources = None
    if resources_payload is not None:
        if not isinstance(resources_payload, Mapping):
            raise ProgramFormatError("'resources' must be an object or null")
        try:
            resources = SegmentResources(**resources_payload)
        except TypeError as exc:
            raise ProgramFormatError(f"invalid segment resources: {exc}") from exc
    return SegmentPlan(
        index=int(_require(payload, "index", "segment")),
        operator_names=list(_require(payload, "operator_names", "segment")),
        allocations=allocations,
        profiles={
            name: _profile_from_payload(profile)
            for name, profile in payload.get("profiles", {}).items()
        },
        intra_cycles=_float_in(_require(payload, "intra_cycles", "segment"), "intra_cycles"),
        inter_cycles=_float_in(_require(payload, "inter_cycles", "segment"), "inter_cycles"),
        inter_breakdown={
            key: _float_in(value, f"inter_breakdown[{key}]")
            for key, value in payload.get("inter_breakdown", {}).items()
        },
        resources=resources,
        boundary_memory_arrays=int(payload.get("boundary_memory_arrays", 0)),
    )


def program_to_payload(program: CompiledProgram) -> Dict:
    """JSON-safe, bit-exact rendering of a complete compiled program.

    Carries everything :meth:`CompiledProgram.fingerprint` covers (so
    the round trip is fingerprint-bit-identical) *plus* the reporting
    payload — per-operator profiles, compile stats, metadata — so a
    decoded program is usable exactly like a local compile's.  Only
    JSON-safe metadata/stats entries survive the trip.
    """
    return {
        "graph_name": program.graph_name,
        "compiler_name": program.compiler_name,
        "hardware": program.hardware.to_dict(),
        "segments": [_segment_to_payload(segment) for segment in program.segments],
        "block_repeat": _float_out(program.block_repeat),
        "compile_seconds": _float_out(program.compile_seconds),
        "metadata": _json_safe(program.metadata),
        "stats": _json_safe(program.stats),
        "meta_program": (
            program.meta_program.render() if program.meta_program is not None else None
        ),
    }


def program_from_payload(payload: Mapping) -> CompiledProgram:
    """Rebuild a :class:`CompiledProgram` from :func:`program_to_payload`.

    Raises:
        ProgramFormatError: Malformed or incomplete payload.
    """
    if not isinstance(payload, Mapping):
        raise ProgramFormatError("compiled program must be an object")
    hardware_payload = _require(payload, "hardware", "compiled program")
    if not isinstance(hardware_payload, Mapping):
        raise ProgramFormatError("'hardware' must be an object")
    try:
        hardware = DualModeHardwareAbstraction.from_dict(dict(hardware_payload))
    except (TypeError, ValueError, KeyError) as exc:
        raise ProgramFormatError(f"invalid hardware description: {exc}") from exc
    segments_payload = _require(payload, "segments", "compiled program")
    if not isinstance(segments_payload, list):
        raise ProgramFormatError("'segments' must be an array")
    meta_text = payload.get("meta_program")
    if meta_text is not None and not isinstance(meta_text, str):
        raise ProgramFormatError("'meta_program' must be a string or null")
    return CompiledProgram(
        graph_name=str(_require(payload, "graph_name", "compiled program")),
        compiler_name=str(_require(payload, "compiler_name", "compiled program")),
        hardware=hardware,
        segments=[_segment_from_payload(segment) for segment in segments_payload],
        block_repeat=_float_in(payload.get("block_repeat", 1.0), "block_repeat"),
        compile_seconds=_float_in(payload.get("compile_seconds", 0.0), "compile_seconds"),
        metadata=dict(payload.get("metadata") or {}),
        stats=dict(payload.get("stats") or {}),
        meta_program=RenderedMetaProgram(meta_text) if meta_text is not None else None,
    )


def _json_safe(value, _depth: int = 0):
    """Best-effort projection onto JSON types (drops what cannot travel).

    Stats and metadata are open dictionaries — passes, experiments and
    callers may stash arbitrary objects in them.  The codec keeps every
    JSON-representable entry (including numpy scalars, via their
    ``item()``) and silently drops the rest rather than failing; the
    fingerprint never covers these fields, so dropping is lossless for
    identity.
    """
    if _depth > 8:
        return None
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if hasattr(value, "item") and not isinstance(value, Mapping):
        try:
            return _json_safe(value.item(), _depth + 1)
        except (TypeError, ValueError):
            return None
    if isinstance(value, Mapping):
        return {
            str(key): _json_safe(entry, _depth + 1)
            for key, entry in value.items()
            if _is_json_safe(entry, _depth + 1)
        }
    if isinstance(value, (list, tuple)):
        return [
            _json_safe(entry, _depth + 1)
            for entry in value
            if _is_json_safe(entry, _depth + 1)
        ]
    return None


def _is_json_safe(value, depth: int) -> bool:
    if depth > 8:
        return False
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if hasattr(value, "item") and not isinstance(value, Mapping):
        return True
    if isinstance(value, Mapping):
        return all(_is_json_safe(entry, depth + 1) for entry in value.values())
    if isinstance(value, (list, tuple)):
        return all(_is_json_safe(entry, depth + 1) for entry in value)
    return False
