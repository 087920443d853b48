"""Versioned JSON wire format of the compile service.

HTTP clients hand the daemon a :class:`~repro.service.CompileJob` as
*JSON*: this module is the one serialisation of a job — model graphs
travel as their exact JSON serialisation, workloads as
:func:`workload_to_payload` payloads, hardware as a preset name or a
full DEHA dictionary, options as a plain field mapping — plus the
reverse direction for compiled programs, so a daemon can hand a
*complete* :class:`~repro.core.program.CompiledProgram` back to a
remote caller.

Rules (mirroring :class:`~repro.core.store.DiskCacheStore`'s discipline):

* Every document carries ``wire_version`` (:data:`WIRE_VERSION`).
  Readers refuse documents written by a **newer** version with a clear
  :class:`WireFormatError` — a rolling upgrade must fail loudly at the
  protocol boundary, not corrupt results silently.  A compiled program
  is refused from an older version too: its payload shape changed.
* Malformed documents raise :class:`WireFormatError` naming the
  offending field; transport layers turn that into a structured 400.
* ``program_from_wire(program_to_wire(p))`` reproduces ``p`` exactly
  as far as :meth:`CompiledProgram.fingerprint` can see — a wire
  program is the bit-exact codec of :mod:`repro.core.program` (floats as
  IEEE-754 hex strings, never decimal roundings; the same rendering the
  program store persists) plus ``wire_version``, so a client can prove
  the daemon compiled what a local session would have.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import Dict, Mapping, Optional, Tuple, get_type_hints

from ..core.compiler import CompilerOptions
from ..core.program import (
    CompiledProgram,
    ProgramFormatError,
    program_from_payload,
    program_to_payload,
)
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import PRESETS
from ..ir import serialization
from ..ir.graph import Graph
from ..models.registry import list_models
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
#: the payload shapes below; readers reject newer documents (and programs
#: of any other version).  Version 2 dropped the profiles' ``name``;
#: version 3 carries programs as a profile table and positional segments.
WIRE_VERSION = 3

#: Largest magnitude of an integer every JSON reader holds exactly
#: (I-JSON, RFC 7493); a size beyond it is refused, not compiled.
_SAFE_INTEGER = 2**53 - 1


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
# jobs
# ---------------------------------------------------------------------- #
def _options_to_wire(options: Optional[CompilerOptions]) -> Optional[Dict]:
    return None if options is None else asdict(options)


def _options_from_wire(payload) -> Optional[CompilerOptions]:
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise WireFormatError("'options' must be an object or null")
    unknown = sorted(set(payload) - set(_OPTION_DEFAULTS))
    if unknown:
        raise WireFormatError(f"unknown compiler option(s): {', '.join(unknown)}")
    for name, value in payload.items():
        # A flag is JSON true / false: a truthy string or a list would
        # compile, or fail to hash, under a fingerprint of its own.
        if isinstance(_OPTION_DEFAULTS[name], bool) and not isinstance(value, bool):
            raise WireFormatError(f"compiler option {name!r} must be true or false, got {value!r}")
    try:
        return CompilerOptions(**payload)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"invalid compiler options: {exc}") from exc


def _hardware_to_wire(hardware) -> object:
    if isinstance(hardware, DualModeHardwareAbstraction):
        return hardware.to_dict()
    return hardware


def _integer_fields(cls) -> Tuple[str, ...]:
    """Names of the ``int`` (or ``Optional[int]``) fields of dataclass ``cls``."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in fields(cls) if hints[f.name] in (int, Optional[int]))


_HARDWARE_INTEGERS = _integer_fields(DualModeHardwareAbstraction)
_WORKLOAD_INTEGERS = _integer_fields(Workload)
_OPTION_DEFAULTS = {field.name: field.default for field in fields(CompilerOptions)}


def _check_integers(what: str, payload: Mapping, names) -> None:
    """Each of ``names`` present in ``payload`` is a JSON integer (not a
    boolean, not a float) no larger in magnitude than ``_SAFE_INTEGER``;
    a missing or null one is left to the constructor."""
    for name in names:
        value = payload.get(name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or abs(value) > _SAFE_INTEGER:
            raise WireFormatError(
                f"{what} field {name!r} must be an integer within +-(2**53 - 1), got {value!r}"
            )


def _hardware_from_wire(payload):
    if isinstance(payload, str):
        if payload not in PRESETS:
            raise WireFormatError(
                f"unknown hardware preset {payload!r}; known: {', '.join(sorted(PRESETS))}"
            )
        return payload
    if isinstance(payload, Mapping):
        _check_integers("hardware", payload, _HARDWARE_INTEGERS)
        try:
            return DualModeHardwareAbstraction.from_dict(dict(payload))
        except (TypeError, ValueError, KeyError) as exc:
            raise WireFormatError(f"invalid hardware description: {exc}") from exc
    raise WireFormatError("'hardware' must be a preset name or a DEHA object")


def job_to_wire(job: CompileJob) -> Dict:
    """JSON-safe rendering of one compile request.

    A named model *or* a serialised graph; every value a plain JSON
    type.
    """
    return {
        "wire_version": WIRE_VERSION,
        "model": job.model if isinstance(job.model, str) else None,
        "graph_json": (
            serialization.graph_to_json(job.model)
            if isinstance(job.model, Graph)
            else None
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
    if model is not None and model not in list_models():
        raise WireFormatError(
            f"unknown model {model!r}; registered models: " + ", ".join(list_models())
        )
    if graph_json is not None:
        if not isinstance(graph_json, str):
            raise WireFormatError("'graph_json' must be a string")
        try:
            model = serialization.graph_from_json(graph_json)
        except serialization.SerializationError as exc:
            raise WireFormatError(f"invalid 'graph_json': {exc}") from exc
    workload = payload.get("workload")
    if workload is not None:
        if not isinstance(workload, Mapping):
            raise WireFormatError("'workload' must be an object or null")
        _check_integers("workload", workload, _WORKLOAD_INTEGERS)
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
    Covered: the graph identity (registered name + workload, or
    :meth:`~repro.ir.graph.Graph.digest` — the same digest the
    service's program key then reuses, so a graph request is serialised
    once), the hardware fingerprint, and every
    option — including ``generate_code``, which changes the artifact
    even though it never changes a solve.  ``default_options`` is what
    the executing service will substitute for ``options=None`` (the
    daemon passes its batch default so explicit-default and omitted
    options coalesce together).
    """
    if isinstance(job.model, Graph):
        graph_id = ["graph", job.model.digest()]
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
def program_to_wire(program: CompiledProgram) -> Dict:
    """A compiled program as a wire document.

    The bit-exact :func:`~repro.core.program.program_to_payload`
    rendering (everything :meth:`CompiledProgram.fingerprint` covers,
    plus profiles, stats and metadata) stamped with ``wire_version``.
    """
    return {"wire_version": WIRE_VERSION, **program_to_payload(program)}


def program_from_wire(payload: Mapping) -> CompiledProgram:
    """Rebuild a :class:`CompiledProgram` from :func:`program_to_wire`.

    Raises:
        WireFormatError: Malformed document or another version's writer.
    """
    check_version(payload, "compiled program")
    if payload["wire_version"] != WIRE_VERSION:
        raise WireFormatError(
            f"compiled program has wire_version {payload['wire_version']}, not this "
            f"reader's {WIRE_VERSION}; upgrade the client/server pair together"
        )
    try:
        return program_from_payload(payload)
    except ProgramFormatError as exc:
        raise WireFormatError(str(exc)) from exc
