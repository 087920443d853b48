#!/usr/bin/env python3
"""CI gate for the serving layer (``repro serve``).

Boots the daemon as a real subprocess on an ephemeral port (discovered
via ``--port-file``) and asserts the serving contract end to end:

1. a keep-alive ``GET /healthz`` round trip is not stalled: the median
   of 20 is under 10 ms (0.2 ms healthy; a response split over two
   sends costs a 40 ms delayed ACK, so the margin is noise-proof);
2. N concurrent clients submitting the *identical* job share exactly
   one compile — ``/metrics`` reports ``serve_compiles_executed 1`` and
   N-1 followers (coalesced onto the flight, or — arriving after it
   retired — answered from the result table), and the number of
   allocator solves the daemon performed matches one local cold
   compile's;
3. every remote result is fingerprint-bit-identical to a local
   ``Session.compile`` of the same job;
4. a repeat request after completion is answered from the result table
   (``cached: true``) and leaves ``serve_compiles_executed`` at 1;
5. a *fresh client process* submitting the same job to the running
   daemon is answered from the result table too (``cached: true``, the
   local compile's fingerprint, ``serve_compiles_executed`` still 1) —
   the daemon is the tier machines share;
6. SIGTERM drains the daemon cleanly: it runs admitted work to
   completion, prints its "drained cleanly" line and exits 0;

and every ``/metrics`` read prints each line name once (one fact, one
line: the exposition is the daemon's metrics registry).

Run from the repository root::

    PYTHONPATH=src python scripts/check_serve.py
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

CLIENTS = 4
PINGS = 20
STALL_MS = 10.0
MODEL = "tiny-mlp"
HARDWARE = "small-test-chip"

_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = "src" + os.pathsep + _ENV.get("PYTHONPATH", "")

FRESH_CLIENT_SCRIPT = """
import sys
from repro.serve import Client

with Client(sys.argv[1]) as client:
    result = client.compile("%(model)s", hardware="%(hardware)s")
assert result.cached and not result.coalesced, result
assert result.verify()
print(result.fingerprint)
""" % {"hardware": HARDWARE, "model": MODEL}


#: Every server started, so a failed assertion does not orphan them.
_SERVERS = []


def start_server(args, port_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli"] + args + ["--port-file", port_file],
        env=_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    _SERVERS.append(proc)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read() if proc.stdout else ""
            raise AssertionError(f"server {args[0]} died on startup:\n{out}")
        if os.path.exists(port_file) and os.path.getsize(port_file) > 0:
            with open(port_file, "r", encoding="utf-8") as handle:
                return proc, f"http://127.0.0.1:{int(handle.read().strip())}"
        time.sleep(0.05)
    raise AssertionError(f"server {args[0]} never published its port")


def drain(proc, role):
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, f"{role} exited {proc.returncode}:\n{out}"
    assert "drained cleanly" in out, f"{role} did not report a drain:\n{out}"
    print(f"{role}: SIGTERM drained cleanly, exit 0")


def read_metrics(client):
    """``GET /metrics``, asserting that no line name repeats."""
    text = client.metrics_text()
    names = [line.split(" ", 1)[0] for line in text.splitlines()]
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert not repeated, f"/metrics repeats {repeated}:\n{text}"
    return text


def metric(text, name):
    match = re.search(rf"^{re.escape(name)} (\d+)$", text, re.MULTILINE)
    assert match, f"metric {name} missing from /metrics exposition:\n{text}"
    return int(match.group(1))


def main() -> int:
    from repro.api import Session
    from repro.core import CompilerOptions
    from repro.serve import Client

    work = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    serve_proc, serve_url = start_server(
        ["serve", "--cache-dir", os.path.join(work, "daemon-cache"), "--workers", "2"],
        os.path.join(work, "serve.port"),
    )
    print(f"compile daemon at {serve_url}")

    with Client(serve_url) as probe:
        assert probe.healthy(wait_seconds=10), "daemon never became healthy"
        # 1. Stall tripwire on the warmed keep-alive connection.
        pings = []
        for _ in range(PINGS):
            start = time.perf_counter()
            assert probe.healthy()
            pings.append((time.perf_counter() - start) * 1000.0)
    ping_ms = statistics.median(pings)
    assert ping_ms < STALL_MS, (
        f"median /healthz round trip {ping_ms:.1f} ms >= {STALL_MS:g} ms: a response "
        "is leaving in more than one send (Nagle x delayed ACK)"
    )
    print(f"transport ok: median /healthz round trip {ping_ms:.2f} ms over {PINGS}")

    # 2. N truly concurrent identical requests -> exactly one compile.
    barrier = threading.Barrier(CLIENTS)
    results, errors = [], []

    def one_client():
        try:
            with Client(serve_url) as client:
                barrier.wait(timeout=30)
                results.append(client.compile(MODEL, hardware=HARDWARE))
        except Exception as exc:  # surfaced below, not swallowed
            errors.append(exc)

    threads = [threading.Thread(target=one_client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, f"concurrent clients failed: {errors!r}"
    assert len(results) == CLIENTS

    fingerprints = {result.fingerprint for result in results}
    assert len(fingerprints) == 1, f"divergent fingerprints: {fingerprints}"
    assert all(result.verify() for result in results)
    coalesced = sum(1 for result in results if result.coalesced)
    cached = sum(1 for result in results if result.cached)
    assert coalesced + cached == CLIENTS - 1, (
        f"expected {CLIENTS - 1} followers, saw {coalesced} coalesced + {cached} cached"
    )

    # 3. Bit-identical to a local compile; the daemon solved exactly once.
    local = Session(hardware=HARDWARE).compile(
        MODEL, options=CompilerOptions(generate_code=False)
    )
    assert local.fingerprint() == fingerprints.pop(), "remote != local compile"

    with Client(serve_url) as client:
        metrics = read_metrics(client)
    assert metric(metrics, "serve_compiles_executed") == 1, metrics
    assert (
        metric(metrics, "serve_coalesced_hits") + metric(metrics, "serve_result_hits")
        == CLIENTS - 1
    ), metrics
    solves = metric(metrics, "serve_solves_executed")
    assert solves == local.stats["allocator_solves"] > 0, (
        f"daemon solves {solves} != local cold compile's "
        f"{local.stats['allocator_solves']}"
    )
    print(
        f"coalescing ok: {CLIENTS} clients, 1 compile, "
        f"{coalesced} coalesced + {cached} cached, {solves} solves"
    )

    # 4. A repeat after completion is a result-table hit, not a compile.
    with Client(serve_url) as client:
        repeat = client.compile(MODEL, hardware=HARDWARE)
        metrics = read_metrics(client)
    assert repeat.cached and not repeat.coalesced, repeat
    assert repeat.verify() and repeat.fingerprint == local.fingerprint()
    assert metric(metrics, "serve_compiles_executed") == 1, metrics
    assert metric(metrics, "serve_solves_executed") == solves, metrics
    assert metric(metrics, "serve_result_hits") == cached + 1, metrics
    print("result table ok: repeat request cached, still 1 compile")

    # 5. A fresh client process shares the daemon's result table.
    fresh = subprocess.run(
        [sys.executable, "-", serve_url],
        input=FRESH_CLIENT_SCRIPT,
        env=_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert fresh.returncode == 0, (
        f"fresh-process client failed:\n{fresh.stdout}\n{fresh.stderr}"
    )
    fresh_fingerprint = fresh.stdout.strip().splitlines()[-1]
    assert fresh_fingerprint == local.fingerprint(), (
        f"fresh-client fingerprint {fresh_fingerprint} != local {local.fingerprint()}"
    )
    with Client(serve_url) as client:
        metrics = read_metrics(client)
    assert metric(metrics, "serve_compiles_executed") == 1, metrics
    print("fresh client process ok: cached, fingerprint bit-identical, still 1 compile")

    # 6. Graceful SIGTERM drain, exit 0.
    drain(serve_proc, "compile daemon")
    print("serve smoke ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        for server in _SERVERS:
            if server.poll() is None:
                server.kill()
