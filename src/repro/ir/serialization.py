"""JSON serialisation of computation graphs.

The paper ingests networks in ONNX format.  We provide an equivalent
self-contained JSON representation ("ONNX-like") so graphs can be saved,
inspected and reloaded without a protobuf dependency.  The format is the
dictionary produced by :meth:`repro.ir.graph.Graph.to_dict`, wrapped with a
format version so future changes stay backwards compatible.
"""

from __future__ import annotations

import json

from .graph import Graph

FORMAT_NAME = "repro-graph"
FORMAT_VERSION = 1


class SerializationError(ValueError):
    """Raised when a serialised graph cannot be parsed."""


def graph_to_json(graph: Graph, indent: int = 2) -> str:
    """Serialise a graph to a JSON string."""
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "graph": graph.to_dict(),
    }
    return json.dumps(payload, indent=indent)


def graph_from_json(text: str) -> Graph:
    """Parse a graph from a JSON string produced by :func:`graph_to_json`.

    The payload is validated field by field so a bad document is rejected
    with a :class:`SerializationError` naming the offending field:
    ``format`` must be exactly :data:`FORMAT_NAME`, ``version`` must be a
    positive integer no newer than :data:`FORMAT_VERSION` (older versions
    remain readable), and ``graph`` must be the serialised graph mapping.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError("not a repro graph document (expected a JSON object)")
    fmt = payload.get("format")
    if fmt != FORMAT_NAME:
        raise SerializationError(
            f"unsupported 'format': {fmt!r} (expected {FORMAT_NAME!r})"
        )
    version = payload.get("version")
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise SerializationError(
            f"invalid 'version': {version!r} (expected a positive integer)"
        )
    if version > FORMAT_VERSION:
        raise SerializationError(
            f"unsupported 'version': {version} is newer than this library's "
            f"format version {FORMAT_VERSION}"
        )
    graph_data = payload.get("graph")
    if not isinstance(graph_data, dict):
        raise SerializationError("missing or malformed 'graph' section")
    return Graph.from_dict(graph_data)

