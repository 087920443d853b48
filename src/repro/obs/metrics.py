"""Counters, gauges and histograms behind one registry.

The registry replaces nothing by force: the hand-rolled stats objects
(`CacheStats`, `DiskStoreStats`, the pipeline's
`stats_payload`) stay bit-compatible, and when an enabled
:class:`MetricsRegistry` is threaded through, the same increments are
*mirrored* into named metrics so one report can answer "how many
allocator solves, split by tier, did this whole run do?" across
subsystems that never see each other's stats dicts.

Naming convention — dotted, lowercase, subsystem first::

    allocator.solves            allocator.solves.exact
    cache.memory.hits           store.hits
    replay.queue_depth (histogram)

Disabled path: :data:`NULL_METRICS` hands out shared no-op instruments,
so call sites never branch.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]

_HISTOGRAM_SAMPLE_CAP = 65536


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-set value (queue depth now, cache entries now)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Distribution summary with bounded raw-sample retention.

    Keeps count/total/min/max always; raw samples up to a cap so small
    runs (a replay trace, a DSE sweep) get exact percentiles without an
    unbounded-memory hazard on long-lived services.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            if len(self._samples) < _HISTOGRAM_SAMPLE_CAP:
                self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile over retained samples (0 when empty)."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        index = min(len(samples) - 1, max(0, round(q / 100.0 * (len(samples) - 1))))
        return samples[index]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Create-on-demand, thread-safe home for named instruments.

    One lock per registry (not per instrument): contention is trivial at
    the repo's scale and a single lock keeps ``to_dict`` snapshots
    consistent.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors ------------------------------------------ #
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name, self._lock)
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, self._lock)
        return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, self._lock)
        return instrument

    # -- one-shot conveniences ----------------------------------------- #
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reading ------------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible snapshot of every instrument."""
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histogram_objs = dict(self._histograms)
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                name: histogram_objs[name].summary() for name in sorted(histogram_objs)
            },
        }

    def render_table(self) -> str:
        """Fixed-width counter/gauge/histogram table for the profile report."""
        snapshot = self.to_dict()
        lines: List[str] = []
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        histograms = snapshot["histograms"]
        if counters:
            width = max(len(name) for name in counters)
            lines.append("counters:")
            for name, value in counters.items():
                lines.append(f"  {name:<{width}}  {value}")
        if gauges:
            width = max(len(name) for name in gauges)
            lines.append("gauges:")
            for name, value in gauges.items():
                lines.append(f"  {name:<{width}}  {value:g}")
        if histograms:
            width = max(len(name) for name in histograms)
            lines.append("histograms:")
            for name, summary in histograms.items():
                lines.append(
                    f"  {name:<{width}}  n={summary['count']}"
                    f" mean={summary['mean']:.3f} min={summary['min']:g}"
                    f" max={summary['max']:g} p50={summary['p50']:g}"
                    f" p99={summary['p99']:g}"
                )
        if not lines:
            lines.append("(no metrics recorded)")
        return "\n".join(lines)


class _NullInstrument:
    """Shared sink for every disabled counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p99": 0.0}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: hands out one shared no-op instrument."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def inc(self, name: str, amount: int = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def to_dict(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render_table(self) -> str:
        return "(metrics disabled)"


NULL_METRICS = NullMetrics()
