"""The networked cache tier: cache server + remote store client.

:class:`~repro.core.store.DiskCacheStore` already made allocation-cache
entries transport-agnostic: content-addressed names (SHA-256 of the
canonical key), the full key payload stored *inside* each entry and
compared on read, versioned format, corruption degrading to a miss.
This module puts that format on the wire so worker fleets share one
warm cache **without a shared filesystem mount**:

* :class:`CacheServer` — a thin HTTP server over a ``DiskCacheStore``
  directory speaking ``GET/PUT/HEAD /entry/<digest>``.  It relays entry
  bytes verbatim and never interprets them; the only thing it enforces
  is the content-addressing invariant (a PUT whose key payload does not
  digest to its URL is refused), so no writer can poison somebody
  else's key.
* :class:`RemoteCacheStore` — the client, duck-typed to the parts of
  ``DiskCacheStore`` that :class:`~repro.core.cache.AllocationCache`
  consumes (``get`` / ``put`` / ``contains``), so it slots under the
  cache as the third tier: memory → disk → remote, miss fall-through,
  hit promotion, write-through.

**Trust model.**  Entries self-verify on the *client*: the key payload
inside a fetched entry must match the key being looked up, the format
version must match the client's, and the entry body must parse — the
same three checks the disk tier applies to its own files.  A corrupt,
stale-format or malicious server can therefore cause cache misses (cold
compiles), never wrong programs.  Network failures likewise degrade to
misses and are counted, never raised into a compile.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union
from urllib.parse import urlsplit

from ..core.store import (
    DiskCacheStore,
    FORMAT_VERSION,
    _key_payload,
    key_digest,
)
from ..obs.metrics import NULL_METRICS
from .httpbase import (
    QuietHandler,
    ServingHTTPServer,
    read_body,
    respond_bytes,
    respond_json,
    respond_text,
)

__all__ = ["CacheServer", "RemoteCacheStore", "RemoteStoreStats"]

LOGGER = logging.getLogger("repro")

#: Size bound for relayed entries (an allocation entry is a few KB; this
#: is a hygiene limit against abusive writers, not a tuning knob).
MAX_ENTRY_BYTES = 4 * 1024 * 1024


@dataclass
class RemoteStoreStats:
    """Counters of one :class:`RemoteCacheStore` client.

    Attributes:
        hits: Fetches that returned a verified entry.
        misses: Fetches that found no usable entry (404s, rejected
            payloads and network failures all end here).
        stores: Entries written to the server.
        corrupt_entries: Fetched payloads that failed self-verification
            (garbled JSON, key mismatch, bad entry body).
        version_rejections: Fetched entries written by a different
            format version.
        errors: Network-level failures (connect/timeout/protocol), on
            either direction.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_entries: int = 0
    version_rejections: int = 0
    errors: int = 0

    def snapshot(self) -> "RemoteStoreStats":
        """Independent copy of the counters."""
        return RemoteStoreStats(
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            corrupt_entries=self.corrupt_entries,
            version_rejections=self.version_rejections,
            errors=self.errors,
        )

    def to_dict(self) -> Dict[str, int]:
        """Plain-dictionary rendering for reports and ``/metrics``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_entries": self.corrupt_entries,
            "version_rejections": self.version_rejections,
            "errors": self.errors,
        }


class RemoteCacheStore:
    """HTTP client of a :class:`CacheServer`, usable as a cache tier.

    Duck-typed to the store protocol
    :class:`~repro.core.cache.AllocationCache` consumes (``get`` /
    ``put`` / ``contains``), so ``AllocationCache(remote=...)`` composes
    it as the third tier behind memory and disk.  All failure modes —
    server down, timeout, corrupt or foreign payloads, version skew —
    degrade to cache misses and counters; no method ever raises into a
    compile.

    Connections are kept alive per thread (the cache is probed from
    compile-pool threads concurrently) and reopened transparently after
    network errors.

    Args:
        url: Base URL of the cache server, e.g. ``"http://cache:9123"``
            (http only; the serving tier is an internal protocol).
        timeout: Per-request socket timeout in seconds.  Kept small by
            default: a slow cache server should cost a miss, not stall
            a compile.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; counters
            are mirrored under ``remote.<counter>``.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 5.0,
        metrics: Optional[object] = None,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"//{url}", scheme="http")
        if parts.scheme != "http":
            raise ValueError(
                f"unsupported cache-server scheme {parts.scheme!r} (http only)"
            )
        if not parts.hostname:
            raise ValueError(f"cache-server URL {url!r} has no host")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.url = f"http://{self.host}:{self.port}"
        self.timeout = timeout
        self.stats = RemoteStoreStats()
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._lock = threading.Lock()
        self._local = threading.local()
        self._connections: List[http.client.HTTPConnection] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            try:
                conn.close()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Optional[http.client.HTTPResponse]:
        """One request with a single transparent retry on a dead keep-alive.

        Returns the (fully read) response, or None on a network failure
        (counted in ``stats.errors``).  HTTP error *statuses* are not
        failures at this layer — callers interpret them.
        """
        if self._closed:
            return None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                # Read eagerly so the connection is reusable immediately.
                response._cached_body = response.read()  # type: ignore[attr-defined]
                return response
            except (OSError, http.client.HTTPException):
                # A keep-alive connection the server closed looks like a
                # send/recv failure; retry once on a fresh socket before
                # declaring a network error.
                self._drop_connection()
                if attempt:
                    self._count("errors")
                    return None
        return None  # pragma: no cover - loop always returns

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self.metrics.inc(f"remote.{counter}")

    def close(self) -> None:
        """Close every kept-alive connection (idempotent)."""
        self._closed = True
        with self._lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass

    # ------------------------------------------------------------------ #
    # store protocol (what AllocationCache consumes)
    # ------------------------------------------------------------------ #
    def get(self, key):
        """Fetch and self-verify the entry for ``key``, or None.

        Exactly the disk tier's read discipline, over HTTP: a missing
        entry, a garbled payload, a key mismatch (digest collision or a
        poisoned server) and a version mismatch are all misses with the
        corresponding counter bumped — never exceptions.
        """
        from ..core.cache import CacheEntry  # local import: cache imports store

        response = self._request("GET", f"/entry/{key_digest(key)}")
        if response is None:
            self._count("misses")
            return None
        data = response._cached_body  # type: ignore[attr-defined]
        if response.status == 404:
            self._count("misses")
            return None
        if response.status != 200:
            self._count("errors")
            self._count("misses")
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
            version = payload["format_version"]
            if version != FORMAT_VERSION:
                self._count("version_rejections")
                self._count("misses")
                return None
            if payload["key"] != _key_payload(key):
                # A poisoned/misaddressed server answer: reject, miss.
                self._count("corrupt_entries")
                self._count("misses")
                return None
            entry = CacheEntry.from_payload(payload["entry"])
        except (UnicodeDecodeError, KeyError, TypeError, ValueError):
            self._count("corrupt_entries")
            self._count("misses")
            return None
        self._count("hits")
        return entry

    def put(self, key, entry) -> None:
        """Write ``entry`` through to the server (failures swallowed)."""
        payload = {
            "format_version": FORMAT_VERSION,
            "key": _key_payload(key),
            "entry": entry.to_payload(),
        }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        response = self._request("PUT", f"/entry/{key_digest(key)}", body=body)
        if response is not None and response.status in (200, 201, 204):
            self._count("stores")

    def contains(self, key) -> bool:
        """Cheap existence probe (HEAD) — no stats side effects."""
        response = self._request("HEAD", f"/entry/{key_digest(key)}")
        return response is not None and response.status == 200

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def healthy(self) -> bool:
        """Whether the server answers its health endpoint."""
        response = self._request("GET", "/healthz")
        return response is not None and response.status == 200

    def describe(self) -> str:
        """One-line summary for logs."""
        return f"RemoteCacheStore({self.url})"


class CacheServer:
    """Thin HTTP server over one cache directory.

    Speaks three verbs on ``/entry/<digest>`` — GET (entry bytes or
    404), HEAD (existence), PUT (atomic publish; refused unless the
    payload's key digests to the URL) — plus ``/healthz``,
    ``/v1/cache/stats`` (JSON usage + counters) and ``/metrics``
    (text).  Storage *is* a :class:`~repro.core.store.DiskCacheStore`,
    so a cache directory can be served and mounted interchangeably, and
    ``repro cache`` maintenance (prune/clear) applies to served
    directories too.

    Args:
        cache_dir: Directory to serve (created on demand).
        host: Bind address (default loopback; bind 0.0.0.0 explicitly
            for fleet use).
        port: TCP port; 0 picks an ephemeral one (see ``bound_port``).
        max_bytes: Size budget of the underlying store.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        max_bytes: Optional[int] = None,
    ) -> None:
        store_kwargs = {} if max_bytes is None else {"max_bytes": max_bytes}
        self.store = DiskCacheStore(Path(cache_dir).expanduser(), **store_kwargs)
        self._served = {"get": 0, "put": 0, "head": 0, "rejected_puts": 0}
        self._served_lock = threading.Lock()
        server = self

        class Handler(QuietHandler):
            server_version = "repro-cache-server"

            def do_GET(self) -> None:  # noqa: N802 - stdlib casing
                server._handle_get(self, include_body=True)

            def do_HEAD(self) -> None:  # noqa: N802 - stdlib casing
                server._handle_get(self, include_body=False)

            def do_PUT(self) -> None:  # noqa: N802 - stdlib casing
                server._handle_put(self)

        self.httpd = ServingHTTPServer((host, port), Handler)
        self.host = host

    @property
    def bound_port(self) -> int:
        """The actual TCP port (meaningful when constructed with port 0)."""
        return self.httpd.bound_port

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.bound_port}"

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    def _bump(self, counter: str) -> None:
        with self._served_lock:
            self._served[counter] += 1

    @staticmethod
    def _entry_digest(path: str) -> Optional[str]:
        parts = path.strip("/").split("/")
        if len(parts) == 2 and parts[0] == "entry":
            return parts[1]
        return None

    def _handle_get(self, handler: QuietHandler, include_body: bool) -> None:
        digest = self._entry_digest(handler.path)
        if digest is not None:
            verb = "get" if include_body else "head"
            if include_body:
                data = self.store.get_raw(digest)
                found = data is not None
            else:
                data = b""
                found = self.store.has_entry(digest)
            self._bump(verb)
            if not found:
                respond_json(handler, 404, {"error": {"code": "not_found", "message": digest}})
                return
            respond_bytes(handler, 200, data)
            return
        if handler.path == "/healthz":
            respond_json(handler, 200, {"status": "ok", "role": "cache-server"})
            return
        if handler.path == "/v1/cache/stats":
            with self._served_lock:
                served = dict(self._served)
            respond_json(
                handler,
                200,
                {
                    "usage": self.store.usage(),
                    "store": self.store.stats.snapshot().to_dict(),
                    "served": served,
                },
            )
            return
        if handler.path == "/metrics":
            respond_text(handler, 200, self.render_metrics())
            return
        respond_json(
            handler, 404, {"error": {"code": "not_found", "message": handler.path}}
        )

    def _handle_put(self, handler: QuietHandler) -> None:
        digest = self._entry_digest(handler.path)
        if digest is None:
            respond_json(
                handler, 404, {"error": {"code": "not_found", "message": handler.path}}
            )
            return
        body, failure = read_body(handler, max_bytes=MAX_ENTRY_BYTES)
        if failure is not None:
            status, message = failure
            respond_json(
                handler, status, {"error": {"code": "bad_request", "message": message}}
            )
            return
        if self.store.put_raw(digest, body):
            self._bump("put")
            respond_json(handler, 200, {"stored": True})
        else:
            self._bump("rejected_puts")
            respond_json(
                handler,
                400,
                {
                    "error": {
                        "code": "rejected_entry",
                        "message": (
                            "entry refused: payload must be JSON whose 'key' "
                            "digests to the URL digest"
                        ),
                    }
                },
            )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def render_metrics(self) -> str:
        """Text exposition of the server's counters (one ``name value`` per line)."""
        stats = self.store.stats.snapshot().to_dict()
        with self._served_lock:
            served = dict(self._served)
        usage = self.store.usage()
        lines = [
            f"cache_server_entries {int(usage['files'])}",
            f"cache_server_bytes {int(usage['bytes'])}",
        ]
        lines += [f"cache_server_served_{name} {value}" for name, value in sorted(served.items())]
        lines += [f"cache_server_store_{name} {value}" for name, value in sorted(stats.items())]
        return "\n".join(lines) + "\n"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` is called."""
        LOGGER.info("cache server: %s serving %s", self.url, self.store.root)
        self.httpd.serve_forever()

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the accept loop and close the listening socket (idempotent)."""
        self.httpd.shutdown()
        self.httpd.server_close()
