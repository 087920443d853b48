"""Hierarchical span tracing (zero-dependency, thread-safe).

A :class:`Tracer` records *spans* — named, attributed intervals on an
injectable :class:`~repro.core.clock.Clock` — nested through ordinary
``with`` blocks::

    with tracer.span("segment", graph="bert"):
        with tracer.span("allocate", segment=3) as handle:
            ...
            handle.set(solver="exact")

Nesting is per-thread: each thread keeps its own stack of active spans,
so the ``repro serve`` daemon's worker threads produce independent
well-formed sub-forests that merge on :meth:`Tracer.spans`.

The disabled path is the null-object :data:`NULL_TRACER`: every call is
a constant-time no-op returning shared singletons, so instrumented code
never branches on "is tracing on?" and an untraced cold compile costs
what it did before telemetry was compiled in.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..core.clock import Clock, SYSTEM_CLOCK

__all__ = ["Span", "SpanHandle", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class Span:
    """One finished (or instant) interval on a tracer's clock.

    Plain data, no behaviour beyond serialisation (:meth:`to_dict` /
    :meth:`from_dict` are the JSONL exporter's row).

    Attributes:
        name: What the interval covers (``"segment"``, ``"compile"``).
        start: Start time in seconds on the recording tracer's clock.
        end: End time; equals ``start`` for instant events.
        span_id: Id unique within the recording tracer.
        parent_id: Enclosing span's id, or None for a root.
        thread: Label of the recording thread (name + ident).
        process: Label of the recording process (``pid-<n>``).
        attrs: Small JSON-compatible annotation dict.
        instant: True for point events (:meth:`Tracer.event`).
    """

    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    thread: str
    process: str
    attrs: Dict[str, object] = field(default_factory=dict)
    instant: bool = False

    @property
    def duration(self) -> float:
        """Length in seconds (0.0 for instants)."""
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form (the JSONL exporter's row)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "process": self.process,
            "attrs": dict(self.attrs),
            "instant": self.instant,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            start=payload["start"],
            end=payload["end"],
            span_id=payload["span_id"],
            parent_id=payload["parent_id"],
            thread=payload["thread"],
            process=payload["process"],
            attrs=dict(payload.get("attrs", {})),
            instant=bool(payload.get("instant", False)),
        )


class SpanHandle:
    """Context manager for one active span.

    Returned by :meth:`Tracer.span`; entering starts the clock and
    pushes the span onto the calling thread's stack, exiting records the
    finished :class:`Span`.  :meth:`set` attaches attributes discovered
    mid-flight (the solver that won, the cache tier that hit).
    """

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0  # allocated on __enter__
        self.parent_id: Optional[int] = None  # the thread stack's top, on __enter__
        self.start = 0.0

    def set(self, **attrs: object) -> "SpanHandle":
        """Merge attributes into the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "SpanHandle":
        self._tracer._begin(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False


class _SpanRing:
    """Drop-oldest span buffer shared by every thread of a bounded tracer.

    Offers the slice of the list interface :class:`Tracer` uses on its
    per-thread buffers (``append`` / iteration / ``clear``).
    Iteration yields a snapshot, so readers never race writers.
    """

    def __init__(self, capacity: int) -> None:
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0

    def append(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)

    def __iter__(self):
        with self._lock:
            return iter(list(self._spans))

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


class Tracer:
    """Collects spans from any number of threads.

    Each thread appends to its own buffer (registered once under the
    tracer lock, then appended to lock-free — list.append is atomic
    under the GIL); :meth:`spans` / :meth:`flush` merge the buffers
    into one start-ordered list.

    That default is *unbounded*, which suits one-shot runs that export
    and exit (``--trace-out`` / ``--profile``).  A long-lived server
    nobody flushes passes ``max_spans``: every thread then shares one
    ring that keeps the newest ``max_spans`` spans and counts the rest
    in :attr:`spans_dropped`, so memory stops growing with request (and
    connection-thread) count.

    Args:
        clock: Time source; spans use ``clock.perf`` (monotonic).  Tests
            inject :class:`~repro.core.clock.ManualClock` to make
            durations deterministic.
        process: Label stamped on every span; defaults to ``pid-<os pid>``.
        max_spans: Retain at most this many spans, dropping the oldest
            (None, the default, retains everything).
    """

    enabled = True

    def __init__(
        self,
        clock: Clock = SYSTEM_CLOCK,
        process: Optional[str] = None,
        max_spans: Optional[int] = None,
    ) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be at least 1")
        self.clock = clock
        self.process = process if process is not None else f"pid-{os.getpid()}"
        self._lock = threading.Lock()
        self._ring = _SpanRing(max_spans) if max_spans is not None else None
        # A list, not an ident-keyed dict: the OS reuses thread idents
        # after a thread exits, and keying by ident would silently
        # overwrite (and lose) a finished thread's buffer.
        self._buffers: List[Union[List[Span], _SpanRing]] = (
            [] if self._ring is None else [self._ring]
        )
        self._local = threading.local()
        self._next_id = 1

    @property
    def spans_dropped(self) -> int:
        """Spans a bounded tracer has discarded to stay within ``max_spans``."""
        return 0 if self._ring is None else self._ring.dropped

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: object) -> SpanHandle:
        """Open a span; use as a context manager."""
        return SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs: object) -> Span:
        """Record an instant (zero-duration) event at the current time."""
        now = self.clock.perf()
        span = Span(
            name=name,
            start=now,
            end=now,
            span_id=self._allocate_id(),
            parent_id=self._stack_top(),
            thread=_thread_label(),
            process=self.process,
            attrs=dict(attrs),
            instant=True,
        )
        self._buffer().append(span)
        return span

    def _begin(self, handle: SpanHandle) -> None:
        handle.span_id = self._allocate_id()
        stack = self._stack()
        if stack:
            handle.parent_id = stack[-1]
        stack.append(handle.span_id)
        handle.start = self.clock.perf()

    def _finish(self, handle: SpanHandle) -> None:
        end = self.clock.perf()
        stack = self._stack()
        if stack and stack[-1] == handle.span_id:
            stack.pop()
        elif handle.span_id in stack:  # tolerate mis-nested exits
            stack.remove(handle.span_id)
        self._buffer().append(
            Span(
                name=handle.name,
                start=handle.start,
                end=end,
                span_id=handle.span_id,
                parent_id=handle.parent_id,
                thread=_thread_label(),
                process=self.process,
                attrs=handle.attrs,
                instant=False,
            )
        )

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def spans(self) -> List[Span]:
        """Merged snapshot of every thread's buffer, start-ordered."""
        with self._lock:
            merged = [span for buffer in self._buffers for span in buffer]
        merged.sort(key=lambda s: (s.start, s.span_id))
        return merged

    def flush(self) -> List[Span]:
        """Merged snapshot, clearing all buffers."""
        with self._lock:
            merged = [span for buffer in self._buffers for span in buffer]
            for buffer in self._buffers:
                buffer.clear()
        merged.sort(key=lambda s: (s.start, s.span_id))
        return merged

    def clear(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            for buffer in self._buffers:
                buffer.clear()

    # ------------------------------------------------------------------ #
    # per-thread state
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stack_top(self) -> Optional[int]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _buffer(self) -> Union[List[Span], _SpanRing]:
        if self._ring is not None:
            return self._ring
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = []
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def _allocate_id(self) -> int:
        with self._lock:
            allocated = self._next_id
            self._next_id += 1
        return allocated


def _thread_label() -> str:
    thread = threading.current_thread()
    return f"{thread.name}@{thread.ident}"


class _NullHandle:
    """Shared no-op span handle — the whole disabled-tracer hot path."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullHandle":
        return self

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """Disabled tracer: every call a constant-time no-op.

    Instrumentation sites call straight through without checking a
    flag; the only cost of a disabled span is one method call and the
    kwargs dict the call site builds (measured <2% on the cold bench).
    A hot loop whose iteration is cheaper than that call (the replay
    event loop: two float additions per request) reads ``enabled`` once
    before the loop and skips the tracer entirely when it is false.
    """

    enabled = False
    process = "null"
    spans_dropped = 0

    def span(self, name: str, **attrs: object) -> _NullHandle:
        return _NULL_HANDLE

    def event(self, name: str, **attrs: object) -> None:
        return None

    def spans(self) -> List[Span]:
        return []

    def flush(self) -> List[Span]:
        return []

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()
