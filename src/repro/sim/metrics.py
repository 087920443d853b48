"""Serving metrics computed from a replayed request trace.

The replay simulator (:mod:`repro.sim.replay`) turns a trace into
per-request outcome columns (:class:`~repro.sim.replay.ReplayOutcomes`);
this module turns those into the aggregate numbers a serving evaluation
reports — throughput, latency percentiles, queueing delay, utilisation
and the share of busy time spent re-provisioning arrays between dual
modes.

Percentiles use the *nearest-rank* definition (no interpolation): the
reported p99 is an actually-observed latency, the definition is monotone
in the percentile (so ``p50 <= p99`` holds by construction), and the
result is bit-reproducible across platforms — which the determinism
tests and the CI ``replay-smoke`` job rely on.  It is the one
definition in the package (:func:`repro.obs.metrics.percentile`), so
the registry's ``replay.latency_ms`` histogram reports the same p50 /
p99 as this module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import sub
from typing import Dict, Optional

from ..obs.metrics import nearest_rank, percentile

__all__ = ["ReplayMetrics", "compute_metrics", "percentile"]


@dataclass
class ReplayMetrics:
    """Aggregate serving metrics for one replayed trace.

    Attributes:
        requests: Total requests in the trace.
        served: Requests that compiled and ran to completion.
        failed: Requests dropped because their program failed to compile.
        makespan_ms: Virtual time from the first arrival to the last
            completion (0 when nothing was served).
        throughput_rps: Served requests per second of makespan.
        latency_*: Arrival-to-completion latency statistics over served
            requests (queueing + re-provisioning + service).
        queue_ms_*: Time spent waiting for the chip to free up.
        service_ms_total: Total time the chip spent executing programs.
        switch_ms_total: Total time spent re-provisioning arrays between
            consecutive programs that disagree on array modes.
        switch_share: Fraction of busy time that was re-provisioning.
        utilisation: Busy time (service + switching) over makespan;
            in [0, 1] because the single chip serves one request at a
            time inside the same span.
        per_model: Served-request count per model name.
    """

    requests: int = 0
    served: int = 0
    failed: int = 0
    makespan_ms: float = 0.0
    throughput_rps: float = 0.0
    latency_p50_ms: float = math.nan
    latency_p99_ms: float = math.nan
    latency_mean_ms: float = math.nan
    latency_max_ms: float = math.nan
    queue_ms_mean: float = math.nan
    queue_ms_max: float = math.nan
    service_ms_total: float = 0.0
    switch_ms_total: float = 0.0
    switch_share: float = 0.0
    utilisation: float = 0.0
    per_model: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-ready rendering; non-finite floats become ``None``."""

        def _clean(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        return {
            "requests": self.requests,
            "served": self.served,
            "failed": self.failed,
            "makespan_ms": _clean(self.makespan_ms),
            "throughput_rps": _clean(self.throughput_rps),
            "latency_p50_ms": _clean(self.latency_p50_ms),
            "latency_p99_ms": _clean(self.latency_p99_ms),
            "latency_mean_ms": _clean(self.latency_mean_ms),
            "latency_max_ms": _clean(self.latency_max_ms),
            "queue_ms_mean": _clean(self.queue_ms_mean),
            "queue_ms_max": _clean(self.queue_ms_max),
            "service_ms_total": _clean(self.service_ms_total),
            "switch_ms_total": _clean(self.switch_ms_total),
            "switch_share": _clean(self.switch_share),
            "utilisation": _clean(self.utilisation),
            "per_model": dict(sorted(self.per_model.items())),
        }


def compute_metrics(outcomes) -> ReplayMetrics:
    """Aggregate one replay's outcome columns into :class:`ReplayMetrics`.

    ``outcomes`` is a :class:`repro.sim.replay.ReplayOutcomes`: the
    per-request ``arrivals`` / ``starts`` / ``switches`` / ``finishes``
    columns, the per-request ``programs`` index and the per-program
    ``models`` / ``service_ms`` columns.  Unserved requests (their
    program's service time is ``None``) count toward ``failed`` and the
    totals but contribute no latency samples.

    When every program compiled, every request was served and the
    columns are the samples; otherwise the served requests' columns are
    picked out once.  Each sample list is one pass, one sort serves both
    percentiles and the maximum, and no per-request record is built.
    The totals are still ``sum()`` over the samples in request order:
    ``sum`` of floats is compensated on Python >= 3.12, so a hand-rolled
    running total would not reproduce its last bit.
    """
    metrics = ReplayMetrics(requests=len(outcomes))
    programs, arrivals, starts, switches, finishes = (
        outcomes.programs, outcomes.arrivals, outcomes.starts,
        outcomes.switches, outcomes.finishes,
    )
    if None in outcomes.service_ms:
        served = outcomes.served
        programs, arrivals, starts, switches, finishes = (
            list(compress(column, served))
            for column in (programs, arrivals, starts, switches, finishes)
        )
    metrics.served = len(programs)
    metrics.failed = metrics.requests - metrics.served
    if not programs:
        return metrics

    latencies = list(map(sub, finishes, arrivals))
    queues = list(map(sub, starts, arrivals))
    services = list(map(outcomes.service_ms.__getitem__, programs))
    per_model = metrics.per_model
    for program, count in Counter(programs).items():
        model = outcomes.models[program]
        per_model[model] = per_model.get(model, 0) + count

    metrics.makespan_ms = max(finishes) - min(arrivals)
    if metrics.makespan_ms > 0:
        metrics.throughput_rps = metrics.served / (metrics.makespan_ms / 1000.0)
    ordered = sorted(latencies)
    metrics.latency_p50_ms = nearest_rank(ordered, 50.0)
    metrics.latency_p99_ms = nearest_rank(ordered, 99.0)
    metrics.latency_mean_ms = sum(latencies) / len(latencies)
    metrics.latency_max_ms = ordered[-1]
    metrics.queue_ms_mean = sum(queues) / len(queues)
    metrics.queue_ms_max = max(queues)
    metrics.service_ms_total = sum(services)
    metrics.switch_ms_total = sum(switches)
    busy = metrics.service_ms_total + metrics.switch_ms_total
    if busy > 0:
        metrics.switch_share = metrics.switch_ms_total / busy
    if metrics.makespan_ms > 0:
        metrics.utilisation = min(1.0, busy / metrics.makespan_ms)
    elif busy > 0:
        # Degenerate single-instant trace: the chip was busy the whole
        # (zero-length) span.
        metrics.utilisation = 1.0
    return metrics
