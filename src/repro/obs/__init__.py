"""`repro.obs` — unified tracing, metrics and profiling.

One bundle, :class:`Observability`, carries a span :class:`Tracer` and
a :class:`MetricsRegistry` through every subsystem (pipeline, caches,
`CompileService`, DSE, replay).  The default everywhere is
:data:`NULL_OBS`, whose members are constant-time no-ops — code is
instrumented unconditionally and pays (measured) <2% when telemetry is
off.  See ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.clock import Clock, SYSTEM_CLOCK
from .export import (
    chrome_trace_events,
    profile_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_span_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
)
from .tracer import NullTracer, NULL_TRACER, Span, SpanHandle, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "NullTracer",
    "NULL_TRACER",
    "Observability",
    "NULL_OBS",
    "Span",
    "SpanHandle",
    "Tracer",
    "chrome_trace_events",
    "profile_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_span_jsonl",
]


@dataclass(frozen=True)
class Observability:
    """A tracer + metrics registry travelling together.

    Frozen so one bundle can be shared across threads and stored on
    option objects without aliasing surprises; the members themselves
    are the mutable collectors.
    """

    tracer: object = NULL_TRACER
    metrics: object = NULL_METRICS

    @property
    def enabled(self) -> bool:
        """True when either member actually records."""
        return bool(getattr(self.tracer, "enabled", False)) or bool(
            getattr(self.metrics, "enabled", False)
        )

    @classmethod
    def create(
        cls, clock: Clock = SYSTEM_CLOCK, max_spans: Optional[int] = None
    ) -> "Observability":
        """Fresh enabled bundle on ``clock``.

        ``max_spans`` bounds the tracer (drop-oldest ring) for servers
        that live longer than anyone flushes them; see :class:`Tracer`.
        """
        return cls(
            tracer=Tracer(clock=clock, max_spans=max_spans), metrics=MetricsRegistry()
        )


NULL_OBS = Observability()
