"""HTTP client for the compile daemon.

:class:`Client` is the programmatic counterpart of ``repro serve`` — it
speaks the versioned JSON wire format of :mod:`repro.serve.wire` over a
kept-alive ``http.client`` connection and reconstructs real
:class:`~repro.core.program.CompiledProgram` objects on the way back
(``result.program.fingerprint()`` is bit-identical to what a local
``Session.compile`` of the same job produces).

Retry policy — deliberately asymmetric:

* **Connection-level failures** (refused, reset, dead keep-alive socket)
  are retried with jittered exponential backoff: the daemon may still be
  binding its port, or a load balancer may be failing over.  These
  retries are safe because an unsent/unanswered request did no work.
* **Compile failures** (a structured ``ok: false`` answer) are *never*
  retried: the daemon already ran the pipeline deterministically, and
  the same inputs would fail the same way.  They surface as
  :class:`CompileRequestError` carrying the server's structured payload.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union
from urllib.parse import urlsplit

from ..core.program import CompiledProgram
from ..service import CompileJob
from .wire import WIRE_VERSION, check_version, job_to_wire, program_from_wire

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
        cached: True when the daemon answered from its result table —
            the stored response of an earlier identical compile; no
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


#: Errors that mean "the request may never have reached a worker" — the
#: only ones worth retrying.
_RETRYABLE = (
    ConnectionError,
    http.client.NotConnected,
    http.client.CannotSendRequest,
    http.client.RemoteDisconnected,
    http.client.ResponseNotReady,
    http.client.BadStatusLine,
    socket.timeout,
    socket.gaierror,
    OSError,
)


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
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Drop the kept-alive connection (reopened on the next call)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request_once(self, method: str, path: str, body: Optional[bytes]):
        conn = self._connection()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()  # drain so the connection can be reused
        return response.status, data

    def _request_bytes(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        retries: Optional[int] = None,
    ):
        """One request with jittered-backoff retry on connection errors only.

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
        when the daemon stays unreachable or answers non-JSON.
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
            ClientError: The daemon was unreachable after retries.
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
        if status != 200 or "results" not in document:
            self._raise_structured(status, document)
        check_version(document, "compile_batch response")
        outcomes: List[Union[RemoteCompileResult, CompileRequestError]] = []
        for entry in document["results"]:
            if entry.get("ok"):
                outcomes.append(self._parse_result(entry))
            else:
                error = entry.get("error") or {}
                outcomes.append(
                    CompileRequestError(
                        str(error.get("code", "error")),
                        str(error.get("message", "job failed")),
                        status,
                        entry,
                    )
                )
        return outcomes

    def _parse_result(self, document: Dict) -> RemoteCompileResult:
        check_version(document, "compile response")
        program = program_from_wire(document["program"])
        return RemoteCompileResult(
            program=program,
            fingerprint=str(document.get("fingerprint", "")),
            coalesced=bool(document.get("coalesced", False)),
            cached=bool(document.get("cached", False)),
            wall_seconds=float(document.get("wall_seconds", 0.0)),
            stats=dict(document.get("stats") or {}),
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
