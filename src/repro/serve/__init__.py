"""`repro.serve` — compile-as-a-service daemon, client and remote cache.

The library's :class:`~repro.api.Session` amortises allocator solves
within one process (memory tier) and across processes sharing a
filesystem (disk tier).  This package promotes it to a *serving* tier so
a whole fleet shares warmth without a shared mount:

* :class:`CompileDaemon` — a stdlib-only threaded HTTP/JSON front door
  over :class:`~repro.service.CompileService`: versioned request and
  response schemas (:mod:`repro.serve.wire`), a bounded request queue
  with a configurable worker pool, in-flight request coalescing
  (:class:`SingleFlight`: same compile-determining inputs → one compile,
  many waiters) and a bounded result table that answers repeat requests
  with the stored, pre-encoded response.
* :class:`CacheServer` / :class:`RemoteCacheStore` — a thin cache server
  speaking the :class:`~repro.core.store.DiskCacheStore`
  content-addressed entry format over HTTP, and the client store that
  slots under :class:`~repro.core.cache.AllocationCache` as the third
  tier (memory → disk → remote).  Entries self-verify on the client, so
  a poisoned or stale server degrades to cache misses, never to wrong
  programs.
* :class:`Client` — the Python client of the daemon, with jittered
  retry on connection errors (never on compile errors).

The CLI exposes the two servers as ``repro serve`` and
``repro cache-server``; see ``docs/serving.md``.
"""

from .client import Client, ClientError, CompileRequestError, RemoteCompileResult
from .coalesce import CoalesceTimeout, SingleFlight
from .daemon import CompileDaemon
from .remote import CacheServer, RemoteCacheStore, RemoteStoreStats
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
    "CacheServer",
    "Client",
    "ClientError",
    "CoalesceTimeout",
    "CompileDaemon",
    "CompileRequestError",
    "RemoteCacheStore",
    "RemoteCompileResult",
    "RemoteStoreStats",
    "SingleFlight",
    "WIRE_VERSION",
    "WireFormatError",
    "job_from_wire",
    "job_to_wire",
    "program_from_wire",
    "program_to_wire",
    "request_fingerprint",
]
