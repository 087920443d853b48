"""HTTP client for the compile daemon.

:class:`Client` is the programmatic counterpart of ``repro serve`` — it
speaks the versioned JSON wire format of :mod:`repro.serve.wire` over one
kept-alive HTTP/1.1 socket and reconstructs real
:class:`~repro.core.program.CompiledProgram` objects on the way back
(``result.program.fingerprint()`` is bit-identical to what a local
``Session.compile`` of the same job produces).

Transport — the mirror of the daemon's
:func:`~repro.serve.httpbase.respond_bytes`: a request (request line,
headers, body) leaves in **one** ``sendall`` on a ``TCP_NODELAY``
socket, and a response is framed by its ``Content-Length`` alone.  The
reader keeps ``http.client``'s bounds (a 64 KiB line, 100 headers),
refuses a response without ``Content-Length`` and drops the socket after
``Connection: close`` or an ``HTTP/1.0`` status line.

Retry policy — deliberately asymmetric:

* **Connection-level and framing failures** (refused, reset, dead
  keep-alive socket, timeout, a garbled or truncated response) are
  retried on a fresh socket with jittered exponential backoff: the
  daemon may still be binding its port, or a load balancer may be
  failing over.  These retries are safe because a compile request is
  idempotent: the same job yields the same program.
* **Compile failures** (a structured ``ok: false`` answer) are *never*
  retried: the daemon already ran the pipeline deterministically, and
  the same inputs would fail the same way.  They surface as
  :class:`CompileRequestError` carrying the server's structured payload.
* **An unreadable answer** (another wire version, a malformed or
  incomplete document) is a :class:`ClientError`, never retried.
"""

from __future__ import annotations

import json
import random
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from ..core.program import CompiledProgram
from ..service import CompileJob
from .wire import WIRE_VERSION, WireFormatError, check_version, job_to_wire, program_from_wire

__all__ = ["Client", "ClientError", "CompileRequestError", "RemoteCompileResult"]


class ClientError(RuntimeError):
    """The daemon could not be reached (after retries) or spoke garbage."""


class CompileRequestError(ClientError):
    """The daemon answered with a structured error (never retried).

    Attributes:
        code: Machine-readable error code (``compile_failed``,
            ``bad_request``, ``queue_full``, ``timeout``...).
        status: HTTP status of the response.
        payload: The full structured error document.
    """

    def __init__(self, code: str, message: str, status: int, payload: Dict) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.status = status
        self.payload = payload


@dataclass
class RemoteCompileResult:
    """One remotely compiled job.

    Attributes:
        program: The reconstructed compiled program
            (fingerprint-bit-identical to a local compile).
        fingerprint: The server-side fingerprint — always equal to
            ``program.fingerprint()``; kept separately so callers can
            verify the wire round trip.
        coalesced: True when the daemon satisfied this request by
            joining an already-in-flight identical compile.
        cached: True when the daemon answered from its request table —
            the retained outcome of an earlier identical compile; no
            compile ran for this request.
        wall_seconds: Server-side wall time of the compile (a coalesced
            or cached request reports the producing compile's time).
        stats: The program's compile statistics as sent by the server.
    """

    program: CompiledProgram
    fingerprint: str
    coalesced: bool = False
    cached: bool = False
    wall_seconds: float = 0.0
    stats: Dict = field(default_factory=dict)

    def verify(self) -> bool:
        """Recompute the fingerprint locally and compare with the server's."""
        return self.program.fingerprint() == self.fingerprint


#: ``http.client``'s bounds on a response head, kept: a longer status or
#: header line, or more header lines, is a framing fault, not a wait.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100


class _FramingError(Exception):
    """The daemon's answer was not one well-framed HTTP/1.1 response."""


#: Connection-level failures (every socket error, timeouts included) and
#: framing faults — the only ones worth retrying.
_RETRYABLE = (OSError, _FramingError)


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise _FramingError(f"response line longer than {MAX_LINE_BYTES} bytes")
    return line


def _read_response(reader: BinaryIO) -> Tuple[int, bytes, bool]:
    """Read one response off ``reader``: ``(status, body, keep_alive)``.

    Only ``Content-Length`` and ``Connection`` are interpreted; the body
    is exactly ``Content-Length`` bytes.
    """
    status_line = _read_line(reader)
    if not status_line:
        raise ConnectionResetError("the daemon closed the connection without answering")
    parts = status_line.split(None, 2)
    if (
        len(parts) < 2
        or parts[0] not in (b"HTTP/1.1", b"HTTP/1.0")
        or len(parts[1]) != 3
        or not parts[1].isdigit()
    ):
        raise _FramingError(f"bad status line {status_line[:80]!r}")
    keep_alive = parts[0] == b"HTTP/1.1"
    length = None
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.partition(b":")
        if not colon:
            raise _FramingError(f"bad header line {line[:80]!r}")
        name = name.strip().lower()
        if name == b"content-length":
            value = value.strip()
            if not value.isdigit():
                raise _FramingError(f"bad Content-Length {value[:80]!r}")
            length = int(value)
        elif name == b"connection":
            tokens = [token.strip() for token in value.lower().split(b",")]
            keep_alive = keep_alive and b"close" not in tokens
    else:
        raise _FramingError(f"more than {MAX_HEADERS} response headers")
    if length is None:
        raise _FramingError("response without Content-Length")
    body = reader.read(length)
    if len(body) != length:
        raise _FramingError(f"response body of {len(body)} bytes, expected {length}")
    return int(parts[1]), body, keep_alive


class Client:
    """Blocking JSON client for one compile daemon.

    Args:
        url: Daemon base URL, e.g. ``http://127.0.0.1:8741``.
        timeout: Socket timeout per request in seconds.  Compiles can
            legitimately take a while cold, so the default is generous.
        retries: Connection-failure retry budget (compile errors are
            never retried regardless).
        backoff: Base of the jittered exponential backoff in seconds;
            attempt *n* sleeps ``backoff * 2**n * uniform(0.5, 1.0)``.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 600.0,
        retries: int = 3,
        backoff: float = 0.2,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme != "http":
            raise ValueError(
                f"compile daemon URL must be http:// (got {url!r}); the serving "
                "tier is designed for trusted networks — front it with a TLS "
                "proxy for anything else"
            )
        if not parts.hostname:
            raise ValueError(f"compile daemon URL has no host: {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.url = f"http://{self.host}:{self.port}"
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        host = f"[{self.host}]" if ":" in self.host else self.host
        self._host_header = f"Host: {host}:{self.port}\r\n"
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop the kept-alive connection (reopened on the next call)."""
        for stream in (self._reader, self._sock):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._sock = self._reader = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request_once(self, method: str, path: str, body: Optional[bytes]):
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self._sock.makefile("rb")
        head = f"{method} {path} HTTP/1.1\r\n{self._host_header}"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        # One write: a split request costs the daemon a second segment.
        self._sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))
        status, data, keep_alive = _read_response(self._reader)
        if not keep_alive:
            self.close()
        return status, data

    def _request_bytes(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        retries: Optional[int] = None,
    ):
        """One request with jittered-backoff retry on connection and framing errors only.

        The single retry loop of the client.  Returns ``(status, raw
        body)``; raises :class:`ClientError` once the retry budget
        (``self.retries`` unless overridden) is spent.
        """
        retries = self.retries if retries is None else retries
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except _RETRYABLE as exc:
                self.close()  # the socket is suspect; start fresh next time
                if attempt >= retries:
                    raise ClientError(
                        f"could not reach compile daemon at {self.url} "
                        f"after {attempt + 1} attempt(s): {exc}"
                    ) from exc
            # Jittered exponential backoff: desynchronises a fleet of
            # clients all retrying against a daemon that is still binding.
            time.sleep(self.backoff * (2**attempt) * random.uniform(0.5, 1.0))
            attempt += 1

    def _request(self, method: str, path: str, payload=None):
        """A JSON request through :meth:`_request_bytes`.

        Returns ``(status, parsed_json)``; raises :class:`ClientError`
        when the daemon stays unreachable or answers anything but a JSON
        object.
        """
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else None
        )
        status, data = self._request_bytes(method, path, body)
        try:
            document = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise ClientError(
                f"compile daemon at {self.url} answered non-JSON "
                f"(status {status}): {data[:200]!r}"
            ) from exc
        if not isinstance(document, dict):
            raise ClientError(
                f"compile daemon at {self.url} answered a JSON "
                f"{type(document).__name__}, not an object (status {status})"
            )
        return status, document

    @staticmethod
    def _raise_structured(status: int, document: Dict) -> None:
        error = document.get("error")
        if isinstance(error, dict):
            raise CompileRequestError(
                str(error.get("code", "error")),
                str(error.get("message", "request failed")),
                status,
                document,
            )
        raise ClientError(f"compile daemon answered status {status}: {document!r}")

    # ------------------------------------------------------------------ #
    # API surface
    # ------------------------------------------------------------------ #
    def compile(self, job: Union[CompileJob, str], **job_kwargs) -> RemoteCompileResult:
        """Compile one job on the daemon.

        Accepts a :class:`CompileJob` or a model name plus
        ``CompileJob`` keyword arguments (``workload=``, ``options=``...).

        Raises:
            CompileRequestError: The daemon refused or failed the job
                (never retried).
            ClientError: The daemon was unreachable after retries, or
                its answer unreadable (another wire version, malformed).
        """
        if not isinstance(job, CompileJob):
            job = CompileJob(job, **job_kwargs)
        request = {"wire_version": WIRE_VERSION, "job": job_to_wire(job)}
        status, document = self._request("POST", "/v1/compile", request)
        if status != 200 or not document.get("ok"):
            self._raise_structured(status, document)
        return self._parse_result(document)

    def compile_batch(
        self, jobs: Sequence[Union[CompileJob, str]]
    ) -> List[Union[RemoteCompileResult, CompileRequestError]]:
        """Compile many jobs in one round trip; outcomes keep input order.

        A failing job yields its :class:`CompileRequestError` *in the
        list* (mirroring :meth:`CompileService.compile_batch` isolation)
        rather than aborting the batch.
        """
        wire_jobs = [
            job_to_wire(job if isinstance(job, CompileJob) else CompileJob(job))
            for job in jobs
        ]
        request = {"wire_version": WIRE_VERSION, "jobs": wire_jobs}
        status, document = self._request("POST", "/v1/compile_batch", request)
        if status != 200:
            self._raise_structured(status, document)
        with self._readable_answer():
            check_version(document, "compile_batch response")
            results = document.get("results")
            if not isinstance(results, list) or not all(isinstance(r, dict) for r in results):
                raise WireFormatError("'results' must be an array of objects")
        outcomes: List[Union[RemoteCompileResult, CompileRequestError]] = []
        for entry in results:
            if entry.get("ok"):
                outcomes.append(self._parse_result(entry))
            else:
                error = entry.get("error")
                error = error if isinstance(error, dict) else {}
                outcomes.append(
                    CompileRequestError(
                        str(error.get("code", "error")),
                        str(error.get("message", "job failed")),
                        status,
                        entry,
                    )
                )
        return outcomes

    @contextmanager
    def _readable_answer(self):
        """An answer this client cannot read is a ClientError, not retried."""
        try:
            yield
        except WireFormatError as exc:
            raise ClientError(f"compile daemon at {self.url} answered: {exc}") from exc

    def _parse_result(self, document: Dict) -> RemoteCompileResult:
        with self._readable_answer():
            check_version(document, "compile response")
            program = program_from_wire(document.get("program"))
            wall_seconds = document.get("wall_seconds", 0.0)
            if isinstance(wall_seconds, bool) or not isinstance(wall_seconds, (int, float)):
                raise WireFormatError(f"'wall_seconds' must be a number, not {wall_seconds!r}")
            stats = document.get("stats")
            if stats is not None and not isinstance(stats, dict):
                raise WireFormatError(f"'stats' must be an object or null, not {stats!r}")
        return RemoteCompileResult(
            program=program,
            fingerprint=str(document.get("fingerprint", "")),
            coalesced=bool(document.get("coalesced", False)),
            cached=bool(document.get("cached", False)),
            wall_seconds=float(wall_seconds),
            stats=dict(stats or {}),
        )

    def cache_stats(self) -> Dict:
        """The daemon's ``/v1/cache/stats`` document."""
        status, document = self._request("GET", "/v1/cache/stats")
        if status != 200:
            self._raise_structured(status, document)
        return document

    def metrics_text(self) -> str:
        """The daemon's text ``/metrics`` exposition (raw)."""
        status, data = self._request_bytes("GET", "/metrics")
        if status != 200:
            raise ClientError(f"/metrics answered status {status}")
        return data.decode("utf-8")

    def healthy(self, wait_seconds: float = 0.0) -> bool:
        """True once ``/healthz`` answers, polling up to ``wait_seconds``.

        The poll makes "start the daemon, then point clients at it"
        scripts race-free without sleeps.
        """
        deadline = time.monotonic() + wait_seconds
        while True:
            try:
                status, _ = self._request_bytes("GET", "/healthz", retries=0)
                if status == 200:
                    return True
            except ClientError:
                pass
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)
