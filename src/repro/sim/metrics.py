"""Serving metrics computed from a replayed request trace.

The replay simulator (:mod:`repro.sim.replay`) turns a trace into a list
of per-request :class:`RequestOutcome`-shaped records; this module turns
those into the aggregate numbers a serving evaluation reports —
throughput, latency percentiles, queueing delay, utilisation and the
share of busy time spent re-provisioning arrays between dual modes.

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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


def compute_metrics(outcomes: Sequence) -> ReplayMetrics:
    """Aggregate per-request outcomes into :class:`ReplayMetrics`.

    ``outcomes`` are :class:`repro.sim.replay.RequestOutcome` records (or
    anything with the same attributes).  Unserved requests count toward
    ``failed`` and the totals but contribute no latency samples.

    One walk over the outcomes gathers every sample and one sort serves
    both percentiles.  The totals are still ``sum()`` over the samples
    in request order: ``sum`` of floats is compensated on Python >= 3.12,
    so a hand-rolled running total would not reproduce its last bit.
    """
    metrics = ReplayMetrics(requests=len(outcomes))
    latencies: List[float] = []
    queues: List[float] = []
    services: List[float] = []
    switches: List[float] = []
    first_arrival = math.inf
    last_finish = -math.inf
    per_model = metrics.per_model
    for outcome in outcomes:
        if not outcome.served:
            continue
        arrival_ms = outcome.arrival_ms
        finish_ms = outcome.finish_ms
        # RequestOutcome.latency_ms / .queue_ms, without two property
        # calls per request (they were half of this function's time).
        latencies.append(finish_ms - arrival_ms)
        queues.append(outcome.start_ms - arrival_ms)
        services.append(outcome.service_ms)
        switches.append(outcome.switch_ms)
        if arrival_ms < first_arrival:
            first_arrival = arrival_ms
        if finish_ms > last_finish:
            last_finish = finish_ms
        per_model[outcome.model] = per_model.get(outcome.model, 0) + 1
    metrics.served = len(latencies)
    metrics.failed = metrics.requests - metrics.served
    if not latencies:
        return metrics

    metrics.makespan_ms = last_finish - first_arrival
    if metrics.makespan_ms > 0:
        metrics.throughput_rps = metrics.served / (metrics.makespan_ms / 1000.0)
    ordered = sorted(latencies)
    metrics.latency_p50_ms = nearest_rank(ordered, 50.0)
    metrics.latency_p99_ms = nearest_rank(ordered, 99.0)
    metrics.latency_mean_ms = sum(latencies) / len(latencies)
    metrics.latency_max_ms = max(latencies)
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
