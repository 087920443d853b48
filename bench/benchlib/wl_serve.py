"""Serving workload: a real ``repro serve`` daemon under closed-loop load."""

from __future__ import annotations

import gc
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Session
from repro.core.compiler import CompilerOptions
from repro.serve import Client, program_from_wire, program_to_wire, request_fingerprint
from repro.service import CompileJob

from . import checks
from .base import (
    CIMMLC_OPTIONS,
    PAPER_CHIP,
    PAPER_SET,
    TINY_CHIP,
    TINY_SET,
    Workload,
    build_graphs_timed,
    segmentation_shape,
)
from .harness import BLOCKS, SRC_DIR, Timings, calibrate
from .tracing import Tracer

#: Closed loop: the callers are build and DSE clients that wait for a
#: reply before asking again.  Two of them, one per core.
CLIENTS = 2

_COUNTER = re.compile(r"^serve_(\w+) (\d+)$", re.MULTILINE)


class ServeWarm(Workload):
    name = "serve_warm"
    items = "requests"

    # set-up ------------------------------------------------------------ #
    def setup(self) -> None:
        pool = [(name, wl, TINY_CHIP) for name, wl in TINY_SET]
        if not self.run.smoke:
            # Small (bert) to large (mobilenet) response bodies on the
            # paper's chip separate transport stalls from encode cost.
            pool += [(name, wl, PAPER_CHIP) for name, wl in PAPER_SET]
        self.graphs = build_graphs_timed(self, [(name, wl) for name, wl, _ in pool])
        self.jobs = [CompileJob(name, workload=wl, hardware=chip) for name, wl, chip in pool]
        self._cache_dir = self.run.subdir("cache")
        # The reference every served program must equal, compiled here;
        # the daemon then starts over the same disk tier, so its own
        # pre-warm costs reads, not solves.
        self.local = Session(cache_dir=self._cache_dir)
        self.expected = []
        for job in self.jobs:
            self.expected.append(self._local_compile(job).fingerprint())
            self.run.lap()

        self.proc, self.url = self._spawn_daemon()
        self.clients = [Client(self.url, timeout=60.0) for _ in range(CLIENTS)]
        if not self.clients[0].healthy(wait_seconds=20.0):
            raise RuntimeError("compile daemon never became healthy")
        self.run.lap()
        self.results = [self.clients[0].compile(job) for job in self.jobs]
        self.rngs = [random.Random(f"{self.run.seed}/{i}") for i in range(CLIENTS)]
        self.deltas: List[Dict[str, int]] = []
        self.p50s: List[float] = []

    def _local_compile(self, job: CompileJob):
        result = self.local.service.compile(job)
        if not result.ok:
            raise RuntimeError(f"local compile of {job.name} failed: {result.error}")
        return result.program

    def _spawn_daemon(self) -> Tuple[subprocess.Popen, str]:
        port_file = os.path.join(self.run.workdir, "serve.port")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        log = open(os.path.join(self.run.workdir, "serve.log"), "w")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
             "--cache-dir", self._cache_dir, "--port-file", port_file],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        log.close()
        self.run.adopt(proc)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"compile daemon exited {proc.returncode} on start-up")
            if os.path.exists(port_file) and os.path.getsize(port_file) > 0:
                with open(port_file, "r", encoding="utf-8") as handle:
                    return proc, f"http://127.0.0.1:{int(handle.read().strip())}"
            time.sleep(0.02)
        raise RuntimeError("compile daemon never published its port")

    # timed section ----------------------------------------------------- #
    def _counters(self) -> Dict[str, int]:
        return {k: int(v) for k, v in _COUNTER.findall(self.clients[0].metrics_text())}

    def _request(self, index: int, walls: List[float], bad: List[str]) -> None:
        """One round trip of client ``index``: compile remotely, verify locally."""
        client, rng = self.clients[index], self.rngs[index]
        pick = rng.randrange(len(self.jobs))
        start = time.perf_counter()
        try:
            result = client.compile(self.jobs[pick])
            verified = result.verify()
        except Exception as exc:  # noqa: BLE001 - a failed request is a failed operation
            walls.append(time.perf_counter() - start)
            bad.append(f"request {self.jobs[pick].name}: {type(exc).__name__}: {exc}")
            return
        walls.append(time.perf_counter() - start)
        if not verified or result.fingerprint != self.expected[pick]:
            bad.append(f"request {self.jobs[pick].name}: program differs from local compile")
        self.results[pick] = result

    def _client_loop(self, index: int, deadline: float, walls: List[float], bad: List[str]) -> None:
        while True:
            self._request(index, walls, bad)
            if time.perf_counter() >= deadline:
                return

    def op(self, lap: Callable[[], None]) -> int:
        """A single request from the first client (the call-count pass uses it)."""
        bad: List[str] = []
        self._request(0, [], bad)
        for failure in bad:
            self.run.fail(failure)
        return 1

    def measure(self, seconds: float, blocks: int = BLOCKS) -> Timings:
        timings = Timings()
        before = self._counters()
        for _ in range(blocks):
            gc.collect()
            timings.calibrations.append(calibrate())
            walls: List[List[float]] = [[] for _ in range(CLIENTS)]
            bad: List[List[str]] = [[] for _ in range(CLIENTS)]
            start = time.perf_counter()
            deadline = start + seconds / blocks
            threads = [
                threading.Thread(
                    target=self._client_loop, args=(i, deadline, walls[i], bad[i]), daemon=True
                )
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            merged = [wall for per_client in walls for wall in per_client]
            # Not machine-normalised: a request is mostly a timer stall
            # (see client.healthz_roundtrip_ms), which a slower machine
            # does not stretch.
            timings.blocks.append(merged)
            timings.raw_blocks.append(merged)
            timings.block_walls.append(time.perf_counter() - start)
            timings.block_items.append(len(merged))
            self.run.attempt(len(merged))
            for failures in bad:
                for failure in failures:
                    self.run.fail(failure)
        after = self._counters()
        self.deltas.append({name: after[name] - before.get(name, 0) for name in after})
        self.p50s.append(timings.p50_ms)
        return timings

    # untimed ----------------------------------------------------------- #
    def check(self) -> None:
        programs = [result.program for result in self.results]
        checks.check_programs(self.run, self.name, programs, self.graphs)
        tiny = len(TINY_SET)
        self.layer.update(
            checks.functional_check(
                self.run, self.name, list(zip(programs[:tiny], self.graphs[:tiny]))
            )
        )
        solves = sum(delta["solves_executed"] for delta in self.deltas)
        self.run.check("serve_warm: daemon solved nothing while timed", solves == 0)

    def quality(self) -> Dict[str, float]:
        fixed = [
            self._local_compile(
                CompileJob(job.model, workload=job.workload, hardware=job.hardware,
                           options=CIMMLC_OPTIONS)
            )
            for job in self.jobs
        ]
        return checks.plan_quality(
            [result.program.end_to_end_cycles for result in self.results],
            [program.end_to_end_cycles for program in fixed],
        )

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        metrics = segmentation_shape([result.program for result in self.results])
        delta = self.deltas[-1]
        requests = delta.get("requests", 0)
        metrics.update(
            {
                "daemon.requests": float(requests),
                "daemon.compiles_executed": float(delta.get("compiles_executed", 0)),
                "daemon.coalesced_hits": float(delta.get("coalesced_hits", 0)),
                "daemon.solves_executed": float(delta.get("solves_executed", 0)),
                "daemon.executed_per_request": (
                    delta.get("compiles_executed", 0) / requests if requests else 0.0
                ),
            }
        )
        metrics.update(self._direct_wire_costs())
        # The same request mix without HTTP, wire or daemon in the way.
        rng = random.Random(f"{self.run.seed}/inprocess")
        walls = []
        for _ in range(10 if self.run.smoke else 120):
            job = self.jobs[rng.randrange(len(self.jobs))]
            start = time.perf_counter()
            self._local_compile(job)
            walls.append(time.perf_counter() - start)
        inprocess = statistics.median(walls) * 1000.0
        metrics["daemon.inprocess_p50_ms"] = inprocess
        metrics["daemon.overhead_p50_ms"] = self.p50s[0] - inprocess
        return metrics

    def _direct_wire_costs(self) -> Dict[str, float]:
        """Each wire step called directly on every pool job's program (means)."""
        defaults = CompilerOptions(generate_code=False)
        encode, decode, fingerprint, verify, sizes = [], [], [], [], []
        for job, result in zip(self.jobs, self.results):
            start = time.perf_counter()
            document = program_to_wire(result.program)
            encode.append(time.perf_counter() - start)
            sizes.append(len(json.dumps(document, sort_keys=True).encode("utf-8")))
            start = time.perf_counter()
            program_from_wire(document)
            decode.append(time.perf_counter() - start)
            start = time.perf_counter()
            request_fingerprint(job, default_options=defaults)
            fingerprint.append(time.perf_counter() - start)
            start = time.perf_counter()
            result.verify()
            verify.append(time.perf_counter() - start)
        pings = []
        for _ in range(30):
            start = time.perf_counter()
            self.clients[0].healthy()
            pings.append(time.perf_counter() - start)
        return {
            "wire.encode_ms": statistics.mean(encode) * 1000.0,
            "wire.decode_ms": statistics.mean(decode) * 1000.0,
            "wire.response_bytes": statistics.mean(sizes),
            "wire.request_fingerprint_ms": statistics.mean(fingerprint) * 1000.0,
            "client.verify_ms": statistics.mean(verify) * 1000.0,
            "client.healthz_roundtrip_ms": statistics.median(pings) * 1000.0,
        }

    def cache_dir(self) -> Optional[str]:
        return self._cache_dir

    def close(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        self.run.reap()
        if getattr(self, "local", None) is not None:
            self.local.close()
