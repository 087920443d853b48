"""Shared stdlib-only HTTP plumbing of the serving tier.

The compile daemon is built on ``http.server.ThreadingHTTPServer`` (one
thread per connection, no third-party dependencies) with these
conventions:

* HTTP/1.1 with explicit ``Content-Length`` on every response, so
  clients can keep connections alive;
* every response leaves in **one** socket write (:func:`respond_bytes`)
  on a ``TCP_NODELAY`` socket — a header/body split costs a keep-alive
  client one delayed-ACK timer (~40 ms) per round trip;
* JSON responses via :func:`respond_json`, structured errors via
  :func:`repro.serve.wire.error_payload`;
* request bodies are size-bounded (:func:`read_body`) — an oversized or
  length-less request is refused before any work happens — and every
  socket read is time-bounded (:data:`READ_TIMEOUT_SECONDS`);
* access logging goes to the ``repro`` logger at DEBUG (the CLI's
  ``-vv``), never to stderr on its own.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

__all__ = [
    "QuietHandler",
    "ServingHTTPServer",
    "read_body",
    "respond_bytes",
    "respond_json",
    "respond_text",
]

LOGGER = logging.getLogger("repro")

#: Request bodies above this are refused with 413 (a compile job — even
#: a large serialised graph — is far below it; this is a safety bound,
#: not a tuning knob).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds one socket read or write may block before the handler closes
#: the connection, so a silent peer cannot hold a handler thread forever
#: (an idle keep-alive client reconnects through its retry).  Fixed.
READ_TIMEOUT_SECONDS = 60.0

#: Seconds between the accept loop's checks for a shutdown request:
#: :meth:`ServingHTTPServer.shutdown` returns within one of them.
SHUTDOWN_POLL_SECONDS = 0.05


class ServingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server preconfigured for the serving tier.

    ``daemon_threads`` so a shutdown never hangs on a stuck connection
    thread; ``allow_reuse_address`` so restarts do not trip over
    TIME_WAIT sockets.

    :meth:`shutdown` is safe in every lifecycle state.  The stdlib's
    waits on an event only the serve loop sets, so calling it on a
    server that never served blocks forever; here it returns at once,
    and a :meth:`serve_forever` that starts after a shutdown (a SIGTERM
    landing between signal registration and the accept loop) returns
    immediately instead of serving a server nobody will stop again.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lifecycle_lock = threading.Lock()
        self._serving = False
        self._stopped = False

    @property
    def bound_port(self) -> int:
        """The actual port (meaningful after binding with port 0)."""
        return self.server_address[1]

    def serve_forever(self, poll_interval: float = SHUTDOWN_POLL_SECONDS) -> None:
        with self._lifecycle_lock:
            if self._stopped:
                return
            self._serving = True
        super().serve_forever(poll_interval)

    def shutdown(self) -> None:
        with self._lifecycle_lock:
            self._stopped = True
            serving = self._serving
        if serving:
            super().shutdown()


class QuietHandler(BaseHTTPRequestHandler):
    """Request handler base: HTTP/1.1, logging routed to the repro logger."""

    protocol_version = "HTTP/1.1"
    #: Overridden by servers to show up in the Server response header.
    server_version = "repro-serve"
    #: TCP_NODELAY on every accepted socket: a response is one segment
    #: train the kernel may send at once, never a tail held back for the
    #: peer's delayed ACK.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = READ_TIMEOUT_SECONDS  # read per connection
        super().setup()

    def read_timed_out(self) -> None:
        """Hook: a socket read or write timed out; the connection closes next."""

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        LOGGER.debug("%s - %s", self.address_string(), format % args)

    def log_error(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        # The stdlib reports a socket timeout here, with the exception.
        if args and isinstance(args[0], TimeoutError):
            self.read_timed_out()
        LOGGER.debug("%s - error - %s", self.address_string(), format % args)


def respond_bytes(
    handler: BaseHTTPRequestHandler,
    status: int,
    body: bytes,
    content_type: str = "application/json",
) -> None:
    """Send one complete response — status line, headers, body — in one write.

    Every response of the serving tier leaves through here.  The stdlib
    sequence (``send_response`` … ``end_headers`` then ``wfile.write``)
    puts headers and body on an unbuffered socket as two sends; with
    Nagle's algorithm the second waits for the client's delayed ACK of
    the first, a fixed ~40 ms stall on every keep-alive round trip.
    """
    handler.log_request(status, len(body))
    phrase = handler.responses.get(status, ("",))[0]
    head = (
        f"{handler.protocol_version} {status} {phrase}\r\n"
        f"Server: {handler.version_string()}\r\n"
        f"Date: {handler.date_time_string()}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1")
    try:
        handler.wfile.write(head + body)
    except (BrokenPipeError, ConnectionResetError):
        pass  # the client hung up; nothing to clean up server-side


def respond_json(handler: BaseHTTPRequestHandler, status: int, payload) -> None:
    """Send ``payload`` as a JSON response with an exact Content-Length."""
    respond_bytes(handler, status, json.dumps(payload, sort_keys=True).encode("utf-8"))


def respond_text(
    handler: BaseHTTPRequestHandler,
    status: int,
    text: str,
    content_type: str = "text/plain; charset=utf-8",
) -> None:
    """Send a plain-text response (the ``/metrics`` endpoint uses this)."""
    respond_bytes(handler, status, text.encode("utf-8"), content_type)


def read_body(
    handler: BaseHTTPRequestHandler,
) -> Tuple[Optional[bytes], Optional[Tuple[int, str]]]:
    """Read the request body, enforcing presence and size of Content-Length.

    Returns:
        ``(body, None)`` on success, ``(None, (status, message))`` when
        the request must be refused (411 without a length, 413 over the
        bound, 400 on a short read).
    """
    length_header = handler.headers.get("Content-Length")
    if length_header is None:
        return None, (411, "Content-Length is required")
    try:
        length = int(length_header)
    except ValueError:
        return None, (400, f"invalid Content-Length {length_header!r}")
    if length < 0:
        return None, (400, f"invalid Content-Length {length}")
    if length > MAX_BODY_BYTES:
        return None, (413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = handler.rfile.read(length)
    if len(body) != length:
        return None, (400, "request body shorter than Content-Length")
    return body, None
