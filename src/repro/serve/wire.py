"""Versioned JSON wire format of the compile service.

The process backend already ships :class:`~repro.service.CompileJob`
between processes as a picklable spec (:meth:`CompileJob.to_spec`).
HTTP clients need the same information as *JSON*: this module is the
JSON-safe rendering of that spec — model graphs travel as their exact
JSON serialisation, workloads as :func:`workload_to_payload` payloads,
hardware as a preset name or a full DEHA dictionary, options as a plain
field mapping — plus the reverse direction for compiled programs, so a
daemon can hand a *complete* :class:`~repro.core.program.CompiledProgram`
back to a remote caller.

Rules (mirroring :class:`~repro.core.store.DiskCacheStore`'s discipline):

* Every document carries ``wire_version`` (:data:`WIRE_VERSION`).
  Readers refuse documents written by a **newer** version with a clear
  :class:`WireFormatError` — a rolling upgrade must fail loudly at the
  protocol boundary, not corrupt results silently.
* Malformed documents raise :class:`WireFormatError` naming the
  offending field; transport layers turn that into a structured 400.
* ``program_from_wire(program_to_wire(p))`` reproduces ``p`` exactly
  as far as :meth:`CompiledProgram.fingerprint` can see — the wire
  round-trip is *fingerprint-bit-identical* (floats are carried as
  IEEE-754 hex strings, never decimal roundings), so a client can prove
  the daemon compiled what a local session would have.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import Dict, List, Mapping, Optional

from ..core.compiler import CompilerOptions
from ..core.program import CompiledProgram, SegmentPlan
from ..cost.arithmetic import OperatorProfile
from ..cost.latency import OperatorAllocation
from ..cost.switching import SegmentResources
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import get_preset
from ..ir.graph import Graph
from ..ir.serialization import SerializationError, graph_from_json, graph_to_json
from ..models.workload import Workload, workload_from_payload, workload_to_payload
from ..service import CompileJob

__all__ = [
    "WIRE_VERSION",
    "WireFormatError",
    "error_payload",
    "job_from_wire",
    "job_to_wire",
    "program_from_wire",
    "program_to_wire",
    "request_fingerprint",
]

#: Version of the HTTP request/response schema.  Bump on any change to
#: the payload shapes below; readers reject newer documents.
WIRE_VERSION = 1


class WireFormatError(ValueError):
    """A wire document is malformed, incomplete or from a newer writer."""


def error_payload(code: str, message: str, **detail) -> Dict:
    """The one structured error shape every endpoint speaks.

    ``code`` is a stable machine-readable token (``"unknown_model"``,
    ``"queue_full"``, ``"compile_failed"``, ...); ``message`` is for
    humans; extra keyword detail rides along verbatim.
    """
    body = {"code": code, "message": message}
    if detail:
        body["detail"] = detail
    return {"wire_version": WIRE_VERSION, "error": body}


def check_version(payload: Mapping, what: str = "document") -> None:
    """Reject payloads without a version or from a newer writer."""
    if not isinstance(payload, Mapping):
        raise WireFormatError(f"{what} must be a JSON object")
    version = payload.get("wire_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise WireFormatError(f"{what} is missing an integer 'wire_version'")
    if version > WIRE_VERSION:
        raise WireFormatError(
            f"{what} has wire_version {version}, newer than this reader's "
            f"{WIRE_VERSION}; upgrade the client/server pair together"
        )


# ---------------------------------------------------------------------- #
# floats: exact bits on the wire
# ---------------------------------------------------------------------- #
def _float_out(value: float) -> str:
    """IEEE-754 hex rendering — survives JSON with its exact bits."""
    return float(value).hex()


def _float_in(value, field: str) -> float:
    if isinstance(value, str):
        try:
            return float.fromhex(value)
        except ValueError as exc:
            raise WireFormatError(f"{field!r} is not a hex float: {value!r}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError(f"{field!r} must be a number, got {type(value).__name__}")
    return float(value)


def _require(payload: Mapping, field: str, what: str):
    if field not in payload:
        raise WireFormatError(f"{what} is missing required field {field!r}")
    return payload[field]


# ---------------------------------------------------------------------- #
# jobs
# ---------------------------------------------------------------------- #
def _options_to_wire(options: Optional[CompilerOptions]) -> Optional[Dict]:
    return None if options is None else asdict(options)


def _options_from_wire(payload) -> Optional[CompilerOptions]:
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise WireFormatError("'options' must be an object or null")
    known = {field.name for field in fields(CompilerOptions)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise WireFormatError(f"unknown compiler option(s): {', '.join(unknown)}")
    try:
        return CompilerOptions(**payload)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"invalid compiler options: {exc}") from exc


def _hardware_to_wire(hardware) -> object:
    if isinstance(hardware, DualModeHardwareAbstraction):
        return hardware.to_dict()
    return hardware


def _hardware_from_wire(payload):
    if isinstance(payload, str):
        return payload  # preset name; resolved (and validated) job-side
    if isinstance(payload, Mapping):
        try:
            return DualModeHardwareAbstraction.from_dict(dict(payload))
        except (TypeError, ValueError, KeyError) as exc:
            raise WireFormatError(f"invalid hardware description: {exc}") from exc
    raise WireFormatError("'hardware' must be a preset name or a DEHA object")


def job_to_wire(job: CompileJob) -> Dict:
    """JSON-safe rendering of one compile request.

    The JSON sibling of :meth:`CompileJob.to_spec`: same field split
    (named model *or* serialised graph), but every value is a plain JSON
    type instead of a picklable Python object.
    """
    return {
        "wire_version": WIRE_VERSION,
        "model": job.model if isinstance(job.model, str) else None,
        "graph_json": (
            graph_to_json(job.model) if isinstance(job.model, Graph) else None
        ),
        "workload": (
            workload_to_payload(job.workload) if job.workload is not None else None
        ),
        "hardware": _hardware_to_wire(job.hardware),
        "options": _options_to_wire(job.options),
        "label": job.label,
    }


def job_from_wire(payload: Mapping) -> CompileJob:
    """Rebuild a :class:`CompileJob` from :func:`job_to_wire` output.

    Raises:
        WireFormatError: Missing/malformed fields or a newer writer.
    """
    check_version(payload, "compile job")
    model = payload.get("model")
    graph_json = payload.get("graph_json")
    if (model is None) == (graph_json is None):
        raise WireFormatError(
            "a compile job needs exactly one of 'model' (registered name) "
            "or 'graph_json' (serialised graph)"
        )
    if model is not None and not isinstance(model, str):
        raise WireFormatError("'model' must be a string")
    if graph_json is not None:
        if not isinstance(graph_json, str):
            raise WireFormatError("'graph_json' must be a string")
        try:
            model = graph_from_json(graph_json)
        except SerializationError as exc:
            raise WireFormatError(f"invalid 'graph_json': {exc}") from exc
    workload = payload.get("workload")
    if workload is not None:
        try:
            workload = workload_from_payload(workload)
        except (TypeError, ValueError, KeyError) as exc:
            raise WireFormatError(f"invalid 'workload': {exc}") from exc
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise WireFormatError("'label' must be a string or null")
    return CompileJob(
        model,
        workload=workload,
        hardware=_hardware_from_wire(payload.get("hardware", "dynaplasia")),
        options=_options_from_wire(payload.get("options")),
        label=label,
    )


# ---------------------------------------------------------------------- #
# request identity (the coalescing key)
# ---------------------------------------------------------------------- #
def request_fingerprint(job: CompileJob, default_options: Optional[CompilerOptions] = None) -> str:
    """Digest of everything that determines a job's compiled program.

    Two requests with equal fingerprints would produce bit-identical
    :meth:`CompiledProgram.fingerprint` results, so the daemon may run
    one compile and fan the answer out (:class:`~repro.serve.SingleFlight`).
    Covered: the graph identity (registered name + workload, or the
    exact serialised graph), the hardware fingerprint, and every
    option — including ``generate_code``, which changes the artifact
    even though it never changes a solve.  ``default_options`` is what
    the executing service will substitute for ``options=None`` (the
    daemon passes its batch default so explicit-default and omitted
    options coalesce together).
    """
    if isinstance(job.model, Graph):
        graph_id = [
            "graph",
            hashlib.sha256(graph_to_json(job.model).encode("utf-8")).hexdigest(),
        ]
    else:
        graph_id = [
            "model",
            job.model,
            workload_to_payload(job.workload or Workload()),
        ]
    options = job.options or default_options or CompilerOptions()
    payload = {
        "graph": graph_id,
        "hardware": job.resolve_hardware().fingerprint(),
        "options": asdict(options),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# compiled programs
# ---------------------------------------------------------------------- #
class RenderedMetaProgram:
    """A meta-operator flow reconstructed from its rendered text.

    The wire format ships the flow as the exact string
    ``meta_program.render()`` produced — which is also precisely what
    :meth:`CompiledProgram.fingerprint` hashes — so a round-tripped
    program keeps its fingerprint without shipping the object graph.
    """

    def __init__(self, text: str) -> None:
        self._text = text

    def render(self) -> str:
        """The original rendering, verbatim."""
        return self._text


def _profile_to_wire(profile: OperatorProfile) -> Dict:
    return asdict(profile)


def _profile_from_wire(payload: Mapping) -> OperatorProfile:
    if not isinstance(payload, Mapping):
        raise WireFormatError("operator profile must be an object")
    known = {field.name for field in fields(OperatorProfile)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise WireFormatError(f"unknown profile field(s): {', '.join(unknown)}")
    try:
        return OperatorProfile(**payload)
    except TypeError as exc:
        raise WireFormatError(f"invalid operator profile: {exc}") from exc


def _segment_to_wire(segment: SegmentPlan) -> Dict:
    return {
        "index": segment.index,
        "operator_names": list(segment.operator_names),
        "allocations": {
            name: [alloc.compute_arrays, alloc.memory_arrays]
            for name, alloc in segment.allocations.items()
        },
        "profiles": {
            name: _profile_to_wire(profile)
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
            else {
                "compute_arrays": segment.resources.compute_arrays,
                "memory_arrays": segment.resources.memory_arrays,
                "live_output_elements": segment.resources.live_output_elements,
                "static_weight_elements": segment.resources.static_weight_elements,
                "idle_arrays": segment.resources.idle_arrays,
            }
        ),
        "boundary_memory_arrays": segment.boundary_memory_arrays,
    }


def _segment_from_wire(payload: Mapping) -> SegmentPlan:
    if not isinstance(payload, Mapping):
        raise WireFormatError("segment must be an object")
    allocations_payload = _require(payload, "allocations", "segment")
    if not isinstance(allocations_payload, Mapping):
        raise WireFormatError("'allocations' must be an object")
    allocations = {}
    for name, pair in allocations_payload.items():
        try:
            compute, memory = pair
        except (TypeError, ValueError) as exc:
            raise WireFormatError(
                f"allocation for {name!r} must be a [compute, memory] pair"
            ) from exc
        allocations[name] = OperatorAllocation(
            compute_arrays=int(compute), memory_arrays=int(memory)
        )
    resources_payload = payload.get("resources")
    resources = None
    if resources_payload is not None:
        if not isinstance(resources_payload, Mapping):
            raise WireFormatError("'resources' must be an object or null")
        try:
            resources = SegmentResources(**resources_payload)
        except TypeError as exc:
            raise WireFormatError(f"invalid segment resources: {exc}") from exc
    return SegmentPlan(
        index=int(_require(payload, "index", "segment")),
        operator_names=list(_require(payload, "operator_names", "segment")),
        allocations=allocations,
        profiles={
            name: _profile_from_wire(profile)
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


def program_to_wire(program: CompiledProgram) -> Dict:
    """JSON-safe rendering of a complete compiled program.

    Ships everything :meth:`CompiledProgram.fingerprint` covers (so the
    round-trip is fingerprint-bit-identical) *plus* the reporting
    payload — per-operator profiles, compile stats, metadata — so a
    remote caller can use the program exactly like a local compile's.
    Only JSON-safe metadata/stats entries survive the trip; the daemon
    strips anything else before calling this.
    """
    return {
        "wire_version": WIRE_VERSION,
        "graph_name": program.graph_name,
        "compiler_name": program.compiler_name,
        "hardware": program.hardware.to_dict(),
        "segments": [_segment_to_wire(segment) for segment in program.segments],
        "block_repeat": _float_out(program.block_repeat),
        "compile_seconds": _float_out(program.compile_seconds),
        "metadata": _json_safe(program.metadata),
        "stats": _json_safe(program.stats),
        "meta_program": (
            program.meta_program.render() if program.meta_program is not None else None
        ),
    }


def program_from_wire(payload: Mapping) -> CompiledProgram:
    """Rebuild a :class:`CompiledProgram` from :func:`program_to_wire`.

    Raises:
        WireFormatError: Malformed document or a newer writer.
    """
    check_version(payload, "compiled program")
    hardware_payload = _require(payload, "hardware", "compiled program")
    if not isinstance(hardware_payload, Mapping):
        raise WireFormatError("'hardware' must be an object")
    try:
        hardware = DualModeHardwareAbstraction.from_dict(dict(hardware_payload))
    except (TypeError, ValueError, KeyError) as exc:
        raise WireFormatError(f"invalid hardware description: {exc}") from exc
    segments_payload = _require(payload, "segments", "compiled program")
    if not isinstance(segments_payload, List):
        raise WireFormatError("'segments' must be an array")
    meta_text = payload.get("meta_program")
    if meta_text is not None and not isinstance(meta_text, str):
        raise WireFormatError("'meta_program' must be a string or null")
    return CompiledProgram(
        graph_name=str(_require(payload, "graph_name", "compiled program")),
        compiler_name=str(_require(payload, "compiler_name", "compiled program")),
        hardware=hardware,
        segments=[_segment_from_wire(segment) for segment in segments_payload],
        block_repeat=_float_in(payload.get("block_repeat", 1.0), "block_repeat"),
        compile_seconds=_float_in(payload.get("compile_seconds", 0.0), "compile_seconds"),
        metadata=dict(payload.get("metadata") or {}),
        stats=dict(payload.get("stats") or {}),
        meta_program=RenderedMetaProgram(meta_text) if meta_text is not None else None,
    )


def _json_safe(value, _depth: int = 0):
    """Best-effort projection onto JSON types (drops what cannot travel).

    Stats and metadata are open dictionaries — passes, experiments and
    callers may stash arbitrary objects in them.  The wire keeps every
    JSON-representable entry (including numpy scalars, via their
    ``item()``) and silently drops the rest rather than failing the
    response; the fingerprint never covers these fields, so dropping is
    lossless for identity.
    """
    if _depth > 8:
        return None
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and value not in (float("inf"), float("-inf")) else str(value)
    if hasattr(value, "item") and not isinstance(value, Mapping):
        try:
            return _json_safe(value.item(), _depth + 1)
        except (TypeError, ValueError):
            return None
    if isinstance(value, Mapping):
        return {
            str(key): _json_safe(entry, _depth + 1)
            for key, entry in value.items()
            if _is_wireable(entry, _depth + 1)
        }
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry, _depth + 1) for entry in value if _is_wireable(entry, _depth + 1)]
    return None


def _is_wireable(value, depth: int) -> bool:
    if depth > 8:
        return False
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if hasattr(value, "item") and not isinstance(value, Mapping):
        return True
    if isinstance(value, Mapping):
        return all(_is_wireable(entry, depth + 1) for entry in value.values())
    if isinstance(value, (list, tuple)):
        return all(_is_wireable(entry, depth + 1) for entry in value)
    return False
