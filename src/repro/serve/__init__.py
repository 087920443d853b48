"""`repro.serve` — compile-as-a-service daemon and client.

The library's :class:`~repro.api.Session` shares allocation windows
within one process (in memory) and whole compiled programs across
processes sharing a filesystem (the ``cache_dir`` program store).  This
package promotes it to a *serving* tier so a whole fleet shares warmth
without a shared mount:

* :class:`CompileDaemon` — a stdlib-only threaded HTTP/JSON front door
  over :class:`~repro.service.CompileService`: versioned request and
  response schemas (:mod:`repro.serve.wire`), a bounded request queue
  with a configurable worker pool, in-flight request coalescing
  (:class:`SingleFlight`: same compile-determining inputs → one compile,
  many waiters) and a bounded result table that answers repeat requests
  with the stored, pre-encoded response.
* :class:`Client` — the Python client of the daemon, with jittered
  retry on connection errors (never on compile errors).

The CLI exposes the daemon as ``repro serve``; see ``docs/serving.md``.
"""

from .client import Client, ClientError, CompileRequestError, RemoteCompileResult
from .coalesce import CoalesceTimeout, SingleFlight
from .daemon import CompileDaemon
from .wire import (
    WIRE_VERSION,
    WireFormatError,
    job_from_wire,
    job_to_wire,
    program_from_wire,
    program_to_wire,
    request_fingerprint,
)

__all__ = [
    "Client",
    "ClientError",
    "CoalesceTimeout",
    "CompileDaemon",
    "CompileRequestError",
    "RemoteCompileResult",
    "SingleFlight",
    "WIRE_VERSION",
    "WireFormatError",
    "job_from_wire",
    "job_to_wire",
    "program_from_wire",
    "program_to_wire",
    "request_fingerprint",
]
