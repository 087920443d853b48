"""Span/metric exporters: Chrome trace, JSONL log, text profile.

Chrome/Perfetto format notes (``about:tracing`` / https://ui.perfetto.dev):

* top level is ``{"traceEvents": [...], "displayTimeUnit": "ms"}``;
* duration events are ``B``/``E`` pairs per ``(pid, tid)`` lane with
  ``ts`` in *microseconds*; instants are ``ph: "i"``;
* this exporter emits each lane as a depth-first walk of the span
  forest, so within a lane timestamps are non-decreasing and every
  ``E`` closes the most recent open ``B`` — the property
  :func:`validate_chrome_trace` checks and CI's obs-smoke job relies on.

Process/thread labels (strings on :class:`~repro.obs.tracer.Span`) are
mapped to small integer pids/tids here, with ``process_name`` /
``thread_name`` metadata events so the UI shows the labels.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .tracer import Span

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "write_span_jsonl",
    "profile_report",
    "validate_chrome_trace",
]


def chrome_trace_events(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Spans → Chrome ``traceEvents`` list (metadata + B/E/i events)."""
    if not spans:
        return []
    epoch = min(span.start for span in spans)
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    lanes: Dict[Tuple[str, str], List[Span]] = defaultdict(list)
    for span in spans:
        if span.process not in pids:
            pids[span.process] = len(pids) + 1
        lane = (span.process, span.thread)
        if lane not in tids:
            tids[lane] = len(tids) + 1
        lanes[lane].append(span)

    events: List[Dict[str, object]] = []
    for process, pid in pids.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
    for (process, thread), tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pids[process],
                "tid": tid,
                "args": {"name": thread},
            }
        )

    for lane, lane_spans in lanes.items():
        pid = pids[lane[0]]
        tid = tids[lane]
        events.extend(_lane_events(lane_spans, epoch, pid, tid))
    return events


def _lane_events(
    lane_spans: Sequence[Span], epoch: float, pid: int, tid: int
) -> List[Dict[str, object]]:
    """Depth-first B/E/i emission of one (process, thread) lane.

    Spans whose parent is not in the lane (dropped by a bounded
    tracer's ring, or hand-assembled input) are roots here; parent
    links within the lane drive the nesting, so emission order is valid
    by construction rather than by timestamp heuristics.
    """
    by_id = {span.span_id: span for span in lane_spans}
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    roots: List[Span] = []
    for span in lane_spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children[span.parent_id].append(span)
        else:
            roots.append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.start, s.span_id))
    roots.sort(key=lambda s: (s.start, s.span_id))

    events: List[Dict[str, object]] = []

    def emit(span: Span) -> None:
        ts = (span.start - epoch) * 1e6
        args = {str(k): v for k, v in span.attrs.items()}
        if span.instant:
            events.append(
                {"ph": "i", "name": span.name, "pid": pid, "tid": tid, "ts": ts, "s": "t", "args": args}
            )
            return
        events.append({"ph": "B", "name": span.name, "pid": pid, "tid": tid, "ts": ts, "args": args})
        for child in children.get(span.span_id, ()):  # children nest inside
            emit(child)
        events.append(
            {"ph": "E", "name": span.name, "pid": pid, "tid": tid, "ts": (span.end - epoch) * 1e6}
        )

    for root in roots:
        emit(root)
    return events


def write_chrome_trace(path: Union[str, Path], spans: Sequence[Span]) -> Path:
    """Write a Perfetto-loadable JSON trace; returns the path."""
    path = Path(path)
    payload = {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def write_span_jsonl(path: Union[str, Path], spans: Sequence[Span]) -> Path:
    """Write one JSON object per span (the machine-greppable log form)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True))
            handle.write("\n")
    return path


def profile_report(spans: Sequence[Span], metrics=None, top: int = 15) -> str:
    """Text report: top spans by total self-explanatory wall, + metrics.

    Aggregates by span name (count, total, mean, max); instants are
    listed by count only.  ``metrics`` is a registry (or None) whose
    ``render_table`` is appended.
    """
    durations: Dict[str, List[float]] = defaultdict(list)
    instants: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span.instant:
            instants[span.name] += 1
        else:
            durations[span.name].append(span.duration)
    lines: List[str] = ["== profile: top spans =="]
    if durations:
        rows = sorted(
            ((name, values) for name, values in durations.items()),
            key=lambda item: -sum(item[1]),
        )[:top]
        name_width = max(len(name) for name, _ in rows)
        header = f"{'span':<{name_width}}  {'count':>6}  {'total_s':>9}  {'mean_ms':>9}  {'max_ms':>9}"
        lines.append(header)
        for name, values in rows:
            total = sum(values)
            lines.append(
                f"{name:<{name_width}}  {len(values):>6}  {total:>9.4f}"
                f"  {1e3 * total / len(values):>9.3f}  {1e3 * max(values):>9.3f}"
            )
    else:
        lines.append("(no spans recorded)")
    if instants:
        lines.append("instant events:")
        for name in sorted(instants):
            lines.append(f"  {name}  x{instants[name]}")
    lines.append("")
    lines.append("== profile: metrics ==")
    lines.append(metrics.render_table() if metrics is not None else "(no metrics)")
    return "\n".join(lines)


def validate_chrome_trace(payload: Union[Dict[str, object], str, Path]) -> Dict[str, float]:
    """Check a Chrome trace for well-formedness; return per-name seconds.

    Accepts the parsed payload, a JSON string, or a file path.  Raises
    ``ValueError`` when the trace is malformed:

    * top level must carry a ``traceEvents`` list;
    * per ``(pid, tid)`` lane, timestamps must be non-decreasing and
      every ``E`` must close the most recently opened ``B`` (monotonic
      nesting — what Perfetto needs to build a flame graph);
    * no ``B`` may be left open at the end.

    The return value maps span name → total duration in *seconds*
    summed across lanes, which obs-smoke cross-checks against
    ``stats["pass_seconds"]``.
    """
    if isinstance(payload, Path):
        payload = json.loads(payload.read_text(encoding="utf-8"))
    elif isinstance(payload, str):
        payload = json.loads(payload)
    if not isinstance(payload, dict) or not isinstance(payload.get("traceEvents"), list):
        raise ValueError("trace must be an object with a traceEvents list")

    stacks: Dict[Tuple[int, int], List[Tuple[str, float]]] = defaultdict(list)
    last_ts: Dict[Tuple[int, int], float] = {}
    totals: Dict[str, float] = defaultdict(float)
    for event in payload["traceEvents"]:
        phase = event.get("ph")
        if phase == "M":
            continue
        lane = (event.get("pid"), event.get("tid"))
        ts = float(event["ts"])
        if lane in last_ts and ts < last_ts[lane] - 1e-6:
            raise ValueError(f"timestamps regress on lane {lane}: {ts} < {last_ts[lane]}")
        last_ts[lane] = ts
        if phase == "B":
            stacks[lane].append((event["name"], ts))
        elif phase == "E":
            if not stacks[lane]:
                raise ValueError(f"E without open B on lane {lane} at ts={ts}")
            name, began = stacks[lane].pop()
            if "name" in event and event["name"] != name:
                raise ValueError(
                    f"mis-nested E on lane {lane}: closes {event['name']!r}, open is {name!r}"
                )
            totals[name] += (ts - began) / 1e6
        elif phase == "i":
            continue
        else:
            raise ValueError(f"unexpected phase {phase!r}")
    for lane, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed B events on lane {lane}: {[name for name, _ in stack]}")
    return dict(totals)
