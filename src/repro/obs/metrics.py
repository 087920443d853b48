"""Counters, gauges and histograms behind one registry.

The registry is where a running count lives.  An owner whose counts are
read back — :class:`~repro.core.cache.AllocationCache`,
:class:`~repro.core.store.DiskCacheStore`, the compile daemon — looks up
its instruments once, at construction, in the registry it is given (a
private one when it is given none, see :func:`registry_for`); its
``stats`` objects and the daemon's ``/metrics`` are read from those
instruments, never kept beside them.  One registry threaded through a
session can therefore answer "how many allocator solves, window hits
and program-store reads did this whole run do?" across subsystems that
never see each other.  ``CompiledProgram.stats`` is different in kind:
the record of one compile, not a running total.

Naming convention — dotted, lowercase, subsystem first::

    allocator.solves            allocator.solves.exact
    cache.hits                  store.hits
    replay.queue_depth (histogram)

Disabled path: :data:`NULL_METRICS` hands out shared no-op instruments,
so call sites never branch.
"""

from __future__ import annotations

import math
import threading
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "nearest_rank",
    "percentile",
    "rank_index",
    "registry_for",
]

_HISTOGRAM_SAMPLE_CAP = 65536


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]).

    Nearest rank (no interpolation): the result is an observed value,
    monotone in ``q`` and bit-reproducible across platforms.  Returns
    ``nan`` for an empty sequence.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return math.nan
    return nearest_rank(sorted(values), q)


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of a non-empty, already sorted sequence."""
    return ordered[rank_index(len(ordered), q)]


def rank_index(count: int, q: float) -> int:
    """Index of the nearest-rank ``q`` percentile among ``count`` sorted values."""
    return max(1, math.ceil(q / 100.0 * count)) - 1


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
    """A level that moves both ways (entries held now, bytes held now)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        """Move the level by ``amount`` (either sign).

        Concurrent owners that each report the change they made under
        their own lock sum to the exact level in any order, where
        :meth:`set` of a level read earlier could publish a stale one.
        """
        with self._lock:
            self.value += amount


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

    def observe_many(self, values: Iterable[float]) -> None:
        """:meth:`observe` every value in order, under one lock.

        Leaves ``count``, ``total`` (one ``cumsum`` seeded with the old
        total: the same in-order adds), ``min`` / ``max`` and the
        retained samples exactly as that many :meth:`observe` calls
        would.  A one-dimensional memoryview of doubles (format ``"d"``)
        is read as the array it holds, without a conversion per value.
        """
        if isinstance(values, memoryview) and values.format == "d" and values.ndim == 1:
            column = np.asarray(values)
        else:
            column = np.fromiter(map(float, values), np.float64)
        if not len(column):
            return
        values = column.tolist()
        with self._lock:
            self.count += len(values)
            with np.errstate(all="ignore"):  # inf - inf is NaN, as in observe
                self.total = float(np.cumsum(np.concatenate(([self.total], column)))[-1])
            self.min = min(chain(() if self.min is None else (self.min,), values))
            self.max = max(chain(() if self.max is None else (self.max,), values))
            room = _HISTOGRAM_SAMPLE_CAP - len(self._samples)
            if room > 0:
                self._samples.extend(values[:room])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over retained samples (0 when empty).

        The definition the replay report uses (:func:`nearest_rank`), so
        a replay's ``replay.latency_ms`` p50 / p99 equal its
        ``latency_p50_ms`` / ``latency_p99_ms``.
        """
        return _rank_or_zero(self._sorted_samples(), q)

    def summary(self) -> Dict[str, float]:
        """Count, mean, extremes and p50 / p99, from one sorted copy."""
        ordered = self._sorted_samples()
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": _rank_or_zero(ordered, 50),
            "p99": _rank_or_zero(ordered, 99),
        }

    def _sorted_samples(self) -> List[float]:
        with self._lock:
            return sorted(self._samples)


def _rank_or_zero(ordered: Sequence[float], q: float) -> float:
    return nearest_rank(ordered, q) if ordered else 0.0


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

    def observe_many(self, values: Iterable[float]) -> None:
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

    def observe(self, name: str, value: float) -> None:
        return None

    def to_dict(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render_table(self) -> str:
        return "(metrics disabled)"


NULL_METRICS = NullMetrics()


def registry_for(metrics: Optional[object]) -> MetricsRegistry:
    """``metrics`` when it records, else a private :class:`MetricsRegistry`.

    What an owner whose counts are read back (a cache's ``stats``, the
    daemon's ``/metrics``) keeps its instruments in: the caller's
    registry, or — given none, or :data:`NULL_METRICS` — one of its own.
    """
    return metrics if getattr(metrics, "enabled", False) else MetricsRegistry()
