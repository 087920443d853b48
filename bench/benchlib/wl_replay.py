"""Trace replay: the serving simulator's event loop, compiler idle."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro.api import Session
from repro.service import CompileJob
from repro.sim import ReplaySimulator
from repro.sim.traces import bursty_trace

from . import checks
from .base import (
    CIMMLC_OPTIONS,
    PAPER_CHIP,
    TINY_CHIP,
    TINY_SET,
    Workload,
    build_graphs_timed,
)
from .tracing import Tracer

#: CNNs with short and long plans plus one transformer: consecutive
#: requests disagree on array modes, so re-provisioning is charged.
MODELS = ("mobilenet", "bert", "vgg16")
REQUESTS = 40_000


class ReplaySim(Workload):
    name = "replay_sim"
    items = "requests"

    def setup(self) -> None:
        smoke = self.run.smoke
        self.chip = TINY_CHIP if smoke else PAPER_CHIP
        start = time.perf_counter()
        self.trace = bursty_trace(
            [name for name, _ in TINY_SET] if smoke else list(MODELS),
            num_requests=400 if smoke else REQUESTS,
            seed=self.run.seed,
        )
        self.layer["traces.generate_ms"] = (time.perf_counter() - start) * 1000.0
        self.run.lap()
        self.pairs: List[Tuple[str, object]] = []
        for request in self.trace.requests:
            if (request.model, request.workload) not in self.pairs:
                self.pairs.append((request.model, request.workload))
        self.graphs = build_graphs_timed(self, self.pairs)
        # Solve the trace's distinct programs now, one per set-up stage;
        # the pool compile and every replay then find each window in the
        # session's cache.
        self.session = Session(hardware=self.chip)
        for graph in self.graphs:
            self.session.compile(graph)
            self.run.lap()
        simulator = ReplaySimulator(self.chip, service=self.session.service)
        pool = simulator.compile_pool(self.trace)
        self.programs = [result.program for result in pool.values()]
        self.result = None
        self.reference = None

    def op(self, lap: Callable[[], None]) -> int:
        self.result = self.session.replay(self.trace)
        return len(self.trace)

    def after_op(self) -> None:
        metrics = self.result.metrics.to_dict()
        if self.reference is None:
            self.reference = metrics
        self.run.check(
            "replay_sim: every request served, metrics equal the first replay's",
            metrics == self.reference and metrics["served"] == len(self.trace)
            and self.result.allocator_solves == 0,
        )

    def check(self) -> None:
        checks.check_programs(self.run, self.name, self.programs, self.graphs)

    def quality(self) -> Dict[str, float]:
        fixed = [
            self.session.service.compile(
                CompileJob(model, workload=workload, hardware=self.chip, options=CIMMLC_OPTIONS)
            ).program
            for model, workload in self.pairs
        ]
        return checks.plan_quality(
            [program.end_to_end_cycles for program in self.programs],
            [program.end_to_end_cycles for program in fixed],
        )

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        metrics = self.result.metrics
        return {
            "replay.requests": float(metrics.requests),
            "replay.p99_ms": metrics.latency_p99_ms,
            "replay.switch_share": metrics.switch_share,
        }

    def close(self) -> None:
        if getattr(self, "session", None) is not None:
            self.session.close()
