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
tests and ``tests/test_replay.py::TestCLIReplayAcrossProcesses`` (it
greps the CLI's summary lines) rely on.  It is the one
definition in the package (:func:`repro.obs.metrics.percentile`), so
the registry's ``replay.latency_ms`` histogram reports the same p50 /
p99 as this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..obs.metrics import percentile, rank_index

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


#: ``sum()`` of floats adds Neumaier's compensation from Python 3.12 on.
_COMPENSATED_SUM = sys.version_info >= (3, 12)

#: Elements per block of the compensation pass: two reused rows of
#: scratch stay in cache, where column-length temporaries would not.
_BLOCK = 8192


def _total(column: np.ndarray) -> float:
    """Builtin ``sum()`` of a column's floats in order, to the last bit.

    ``sum()`` starts from the integer 0, so its running totals are one
    ``cumsum`` seeded with +0.0 (a column of ``-0.0`` totals ``+0.0``).
    Up to Python 3.11 the last of them is the result.  From 3.12 the
    result also takes :func:`_compensation`, but only when that is
    non-zero and finite.  Every ``cumsum`` adds in order, never pairwise.
    """
    values = np.asarray(column, dtype=np.float64)
    running = np.empty(len(values) + 1)
    running[0] = 0.0
    running[1:] = values
    with np.errstate(all="ignore"):
        np.cumsum(running, out=running)
        total = float(running[-1])
        compensation = _compensation(running, values) if _COMPENSATED_SUM else 0.0
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _compensation(running: np.ndarray, values: np.ndarray) -> float:
    """Python 3.12's compensation of ``sum(values)``, added in order.

    Each element ``x`` after the first leaves a term that depends only on
    ``x``, its running total ``t`` and the previous one ``prev``:
    ``(prev - t) + x`` where ``|prev| >= |x|``, else ``(x - t) + prev``.
    A block's ``cumsum`` adds its terms in order, its first term carrying
    the blocks before it.
    """
    scratch = np.empty((2, _BLOCK))
    mask = np.empty(_BLOCK, dtype=bool)
    compensation = 0.0
    for start in range(1, len(values), _BLOCK):
        stop = min(start + _BLOCK, len(values))
        prev, t, x = running[start:stop], running[start + 1 : stop + 1], values[start:stop]
        size = stop - start
        terms, other, larger = scratch[0, :size], scratch[1, :size], mask[:size]
        np.greater_equal(np.abs(prev, out=terms), np.abs(x, out=other), out=larger)
        # terms: the larger of prev and x by magnitude (prev on a tie); other: the rest
        np.copyto(terms, x)
        np.copyto(terms, prev, where=larger)
        np.copyto(other, prev)
        np.copyto(other, x, where=larger)
        terms -= t
        terms += other
        terms[0] += compensation  # the blocks before: every add stays in order
        compensation = float(np.cumsum(terms, out=terms)[-1])
    return compensation


def compute_metrics(outcomes) -> ReplayMetrics:
    """Aggregate one replay's outcome columns into :class:`ReplayMetrics`.

    ``outcomes`` is a :class:`repro.sim.replay.ReplayOutcomes`.  Its
    unserved requests (program service time ``None``) count toward
    ``failed`` and the totals but contribute no latency samples.

    Latencies and queueing delays are array subtractions over the
    served requests' columns, ``per_model`` one ``bincount``, and p50,
    p99 and the maximum one ``partition`` at their nearest ranks — the
    entries ``sorted(latencies)`` holds there.  Totals and means are
    :func:`_total`: builtin ``sum()`` over the same floats in request
    order, bit for bit on every Python, from ``np.cumsum`` rather than
    one Python add per request.
    """
    metrics = ReplayMetrics(requests=len(outcomes))
    arrivals, programs, starts, switches, finishes = outcomes.served_columns()
    count = metrics.served = len(programs)
    metrics.failed = metrics.requests - count
    if not count:
        return metrics

    latencies = finishes - arrivals
    queues = starts - arrivals
    services = np.array([0.0 if s is None else s for s in outcomes.service_ms])[programs]
    per_model = metrics.per_model
    for model, served in zip(outcomes.models, np.bincount(programs).tolist()):
        if served:
            per_model[model] = per_model.get(model, 0) + served

    metrics.makespan_ms = float(finishes.max() - arrivals.min())
    # A positive subnormal makespan is 0.0 in seconds: test what divides.
    seconds = metrics.makespan_ms / 1000.0
    if seconds > 0:
        metrics.throughput_rps = count / seconds
    ranks = [rank_index(count, 50.0), rank_index(count, 99.0), count - 1]
    p50, p99, top = np.partition(latencies, ranks)[ranks].tolist()
    metrics.latency_p50_ms, metrics.latency_p99_ms, metrics.latency_max_ms = p50, p99, top
    metrics.latency_mean_ms = _total(latencies) / count
    metrics.queue_ms_mean = _total(queues) / count
    metrics.queue_ms_max = float(queues.max())
    metrics.service_ms_total = _total(services)
    metrics.switch_ms_total = _total(switches)
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
