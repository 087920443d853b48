"""Request traces: the serving simulator's workload description.

A :class:`Trace` is an arrival-ordered sequence of inference requests —
which model, which workload (batch / sequence-length bucket), and when
it arrives on the *virtual* clock — plus free-form metadata about where
the trace came from.  It is stored as read-only columns: request ids,
float arrivals, and one program code per request indexing a table of
the trace's distinct (model, workload) pairs, so a replay reads plain
columns and never walks request objects.  Traces come from two places:

* **Files** — a versioned JSONL format (:func:`load_trace` /
  :func:`save_trace`): one header line carrying the format name,
  version and request count, then one request per line.  The reader
  follows the same versioning discipline as
  :class:`~repro.core.store.DiskCacheStore`: a trace written by a
  *newer* format version is refused with a clear error instead of
  being misread, and a malformed line, a repeated request id or a
  request count that disagrees with the header raises
  :class:`TraceFormatError`.
* **Seeded generators** — :func:`poisson_trace` (memoryless arrivals),
  :func:`bursty_trace` (a two-state Markov-modulated Poisson process:
  quiet baseline punctuated by high-rate bursts) and
  :func:`diurnal_trace` (sinusoidal rate modulation), all driven by one
  ``random.Random(seed)`` so the same seed reproduces the same trace
  bit-for-bit on any platform.

Sequence lengths are drawn from a small *bucket* list rather than a
continuum: every request then maps onto one of a handful of distinct
(model, workload) pairs, so the compile cache makes the whole bucket
family nearly free after the first request of each kind.

Workloads serialise through
:func:`repro.models.workload.workload_to_payload` — the exact format
DSE run directories use — so a workload written into a trace reads
back identical to one recorded by any other subsystem.
"""

from __future__ import annotations

import json
import math
import operator
from collections import abc
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..models.registry import default_workload
from ..models.workload import (
    Workload,
    workload_from_payload,
    workload_to_payload,
)

__all__ = [
    "TRACE_FORMAT",
    "TRACE_FORMAT_VERSION",
    "Trace",
    "TraceFormatError",
    "TraceRequest",
    "TraceRequests",
    "bursty_trace",
    "diurnal_trace",
    "load_trace",
    "poisson_trace",
    "save_trace",
    "synthetic_trace",
]

#: Format name carried by the header line of every trace file.
TRACE_FORMAT = "repro-trace"

#: Version of the JSONL trace format.  Bump it whenever the header or
#: request schema changes meaning; readers refuse *newer* versions (the
#: file belongs to a newer writer and misreading it would silently
#: replay the wrong traffic) and accept older ones they still understand.
TRACE_FORMAT_VERSION = 1

#: Synthetic generator kinds accepted by :func:`synthetic_trace`.
GENERATOR_KINDS = ("poisson", "bursty", "diurnal")

#: One program of a trace: the (model, workload) pair its requests run.
ProgramPair = Tuple[str, Workload]


class TraceFormatError(ValueError):
    """A trace file (or payload) violates the trace format."""


def _check_arrival(request_id: str, arrival_ms: float) -> None:
    """Raise ``ValueError`` unless ``arrival_ms`` is finite and non-negative."""
    if not math.isfinite(arrival_ms):
        raise ValueError(
            f"request {request_id!r} arrives at non-finite time {arrival_ms}"
        )
    if arrival_ms < 0:
        raise ValueError(
            f"request {request_id!r} arrives at negative time {arrival_ms}"
        )


def _request_fields(payload: Dict) -> Tuple[str, float, str, Workload]:
    """``(id, arrival_ms, model, workload)`` of one JSONL request payload."""
    try:
        request_id = str(payload["id"])
        arrival_ms = float(payload["arrival_ms"])
        _check_arrival(request_id, arrival_ms)
        return (
            request_id,
            arrival_ms,
            str(payload["model"]),
            workload_from_payload(payload["workload"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"invalid trace request {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class TraceRequest:
    """One inference request of a trace.

    Attributes:
        request_id: Stable identifier, unique within the trace.
        arrival_ms: Arrival time on the virtual clock, in milliseconds.
        model: Registered model name.
        workload: Workload the request asks for (its sequence-length
            bucket, batch size and phase).
    """

    request_id: str
    arrival_ms: float
    model: str
    workload: Workload

    def __post_init__(self) -> None:
        _check_arrival(self.request_id, self.arrival_ms)


def _by_arrival(
    request_ids: Sequence[str],
    arrivals: Sequence[float],
    programs: Sequence[int],
    table: Sequence[ProgramPair],
) -> Tuple[List[str], List[float], List[int], List[ProgramPair]]:
    """The columns of a trace, stably sorted by (valid) arrival.

    Arrival order is the contract every consumer relies on (the replay
    serves FIFO in this order); the sort is stable, so ties keep their
    input order.  One walk then renumbers the table into
    first-appearance order, dropping entries no request runs.
    """
    order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
    renumbered: List[Optional[int]] = [None] * len(table)
    first_seen: List[ProgramPair] = []
    codes: List[int] = []
    for index in order:
        code = renumbered[programs[index]]
        if code is None:
            code = renumbered[programs[index]] = len(first_seen)
            first_seen.append(table[programs[index]])
        codes.append(code)
    return (
        [request_ids[index] for index in order],
        [arrivals[index] for index in order],
        codes,
        first_seen,
    )


class TraceRequests(abc.Sequence):
    """Read-only view of a trace's requests over its columns.

    Read as a sequence (``len``, indexing, iteration, ``==`` against
    another view or a list) it yields :class:`TraceRequest` records,
    each built only when it is read; nothing is stored besides the
    trace it views.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def _request(self, request_id: str, arrival_ms: float, program: int) -> TraceRequest:
        model, workload = self._trace.table[program]
        return TraceRequest(
            request_id=request_id, arrival_ms=arrival_ms, model=model, workload=workload
        )

    def __len__(self) -> int:
        return len(self._trace.arrivals)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        trace = self._trace
        return self._request(
            trace.request_ids[index], trace.arrivals[index], trace.programs[index]
        )

    def __iter__(self) -> Iterator[TraceRequest]:
        trace = self._trace
        for row in zip(trace.request_ids, trace.arrivals, trace.programs):
            yield self._request(*row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TraceRequests, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TraceRequests({len(self)} requests)"


class Trace:
    """An arrival-ordered request sequence plus provenance metadata.

    Request ``i`` is ``request_ids[i]``, arrives at ``arrivals[i]`` (a
    finite, non-negative float; the column is sorted) and runs
    ``table[programs[i]]``, one of the trace's distinct ``(model,
    workload)`` pairs, listed in first-appearance order.  The columns
    are tuples: read-only, and shared (never copied) by the replay
    outcomes and the traces derived from this one, as are their
    read-only numpy forms ``arrival_array`` and ``program_array``.

    ``Trace(requests=[...], metadata=...)`` builds the columns from
    :class:`TraceRequest` records (one stable sort by arrival — ties
    keep their input order); :attr:`requests` reads them back as
    records.
    """

    __slots__ = (
        "request_ids", "arrivals", "programs", "table", "metadata",
        "arrival_array", "program_array",
    )

    def __init__(
        self, requests: Iterable[TraceRequest] = (), metadata: Optional[Dict] = None
    ) -> None:
        requests = list(requests)
        codes: Dict[ProgramPair, int] = {}
        programs = [
            codes.setdefault((request.model, request.workload), len(codes))
            for request in requests
        ]
        self._fill(
            *_by_arrival(
                [request.request_id for request in requests],
                [float(request.arrival_ms) for request in requests],
                programs,
                list(codes),
            ),
            {} if metadata is None else metadata,
        )

    def _fill(
        self,
        request_ids: Sequence[str],
        arrivals: Sequence[float],
        programs: Sequence[int],
        table: Sequence[ProgramPair],
        metadata: Dict,
    ) -> None:
        """Set the columns (already arrival-sorted), checking every arrival."""
        self.arrival_array = np.array(arrivals, dtype=np.float64)
        if not np.isfinite(self.arrival_array).all() or (self.arrival_array < 0).any():
            for request_id, arrival_ms in zip(request_ids, arrivals):
                _check_arrival(request_id, arrival_ms)
        self.request_ids: Tuple[str, ...] = tuple(request_ids)
        self.arrivals: Tuple[float, ...] = tuple(arrivals)
        self.programs: Tuple[int, ...] = tuple(programs)
        self.table: Tuple[ProgramPair, ...] = tuple(table)
        self.metadata: Dict = metadata
        self.program_array = np.array(programs, dtype=np.intp)
        for array in (self.arrival_array, self.program_array):
            array.flags.writeable = False  # shared, as the tuples are

    @classmethod
    def _of_columns(
        cls,
        request_ids: Sequence[str],
        arrivals: Sequence[float],
        programs: Sequence[int],
        table: Sequence[ProgramPair],
        metadata: Dict,
    ) -> "Trace":
        """A trace of columns already sorted by arrival, the table in
        first-appearance order."""
        trace = cls.__new__(cls)
        trace._fill(request_ids, arrivals, programs, table, metadata)
        return trace

    @property
    def requests(self) -> TraceRequests:
        """The requests in arrival order, as a read-only sequence view."""
        return TraceRequests(self)

    def __len__(self) -> int:
        return len(self.arrivals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.request_ids == other.request_ids
            and self.arrivals == other.arrivals
            and self.programs == other.programs
            and self.table == other.table
            and self.metadata == other.metadata
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace({len(self)} requests, metadata={self.metadata!r})"

    @property
    def models(self) -> List[str]:
        """Distinct model names, in first-appearance order."""
        return list(dict.fromkeys(model for model, _ in self.table))

    @property
    def duration_ms(self) -> float:
        """Arrival span of the trace (last arrival; 0 when empty)."""
        return self.arrivals[-1] if self.arrivals else 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        kind = self.metadata.get("kind", "file")
        return (
            f"{len(self)} request(s), {len(self.models)} model(s), "
            f"{self.duration_ms:.1f} ms span ({kind})"
        )

    # ------------------------------------------------------------------ #
    # metamorphic transforms (library-level so tests and sweeps share them)
    # ------------------------------------------------------------------ #
    def with_gaps_scaled(self, factor: float) -> "Trace":
        """Copy with every arrival time scaled by ``factor``.

        Scaling arrivals from the origin scales every inter-arrival gap
        by the same factor; ``factor > 1`` thins the traffic (offered
        load drops), ``factor < 1`` intensifies it.  The request order
        (a positive factor keeps the column sorted), the ids and the
        program columns are unchanged and shared with this trace.
        """
        if not (factor > 0 and math.isfinite(factor)):
            raise ValueError(f"gap scale factor must be positive and finite, got {factor}")
        return Trace._of_columns(
            self.request_ids,
            [arrival_ms * factor for arrival_ms in self.arrivals],
            self.programs,
            self.table,
            {**self.metadata, "gap_scale": factor},
        )

    def merged(self, other: "Trace") -> "Trace":
        """The interleaving of two traces (requests re-sorted by arrival).

        Request ids are prefixed per source (``a:``/``b:``) so the merge
        never silently collapses two requests that happened to share an
        id.  Total work is preserved: every request of both inputs
        appears exactly once; on an arrival tie this trace's request
        comes first.
        """
        codes = {pair: code for code, pair in enumerate(self.table)}
        table = list(self.table)
        for pair in other.table:
            if pair not in codes:
                codes[pair] = len(table)
                table.append(pair)
        remap = [codes[pair] for pair in other.table]
        return Trace._of_columns(
            *_by_arrival(
                [f"a:{request_id}" for request_id in self.request_ids]
                + [f"b:{request_id}" for request_id in other.request_ids],
                self.arrivals + other.arrivals,
                self.programs + tuple(map(remap.__getitem__, other.programs)),
                table,
            ),
            {"kind": "merged"},
        )


# ---------------------------------------------------------------------- #
# file format
# ---------------------------------------------------------------------- #
def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace as versioned JSONL (header line + one request/line)."""
    path = Path(path).expanduser()
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_FORMAT_VERSION,
        "requests": len(trace),
        "metadata": trace.metadata,
    }
    programs = [
        (model, workload_to_payload(workload)) for model, workload in trace.table
    ]
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(
            {
                "id": request_id,
                "arrival_ms": arrival_ms,
                "model": programs[program][0],
                "workload": programs[program][1],
            },
            sort_keys=True,
        )
        for request_id, arrival_ms, program in zip(
            trace.request_ids, trace.arrivals, trace.programs
        )
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _is_int(value) -> bool:
    """A JSON integer (``bool`` is an ``int`` to Python, not to the format)."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace file written by :func:`save_trace`.

    Raises:
        OSError: The file does not exist or cannot be read (callers —
            the CLI in particular — turn this into a usage error).
        TraceFormatError: Not a trace file, a newer format version, a
            request count that disagrees with the header's
            ``"requests"``, a malformed header/request line, or a
            request id that repeats an earlier line's.
    """
    path = Path(path).expanduser()
    text = path.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceFormatError(f"{path}: empty file is not a trace")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: header line is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            f"{path}: not a {TRACE_FORMAT!r} file (header {str(lines[0])[:80]!r})"
        )
    version = header.get("version")
    if not _is_int(version):
        raise TraceFormatError(f"{path}: missing integer format version in header")
    if version > TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: trace format version {version} is newer than the "
            f"supported version {TRACE_FORMAT_VERSION}; upgrade repro to read it"
        )
    if "requests" in header:
        expected = header["requests"]
        if not _is_int(expected) or expected < 0:
            raise TraceFormatError(
                f"{path}: header request count {expected!r} is not a "
                "non-negative integer"
            )
        if expected != len(lines) - 1:
            raise TraceFormatError(
                f"{path}: header promises {expected} request(s) but the file "
                f"holds {len(lines) - 1} (truncated or appended to?)"
            )
    request_ids: List[str] = []
    arrivals: List[float] = []
    programs: List[int] = []
    codes: Dict[ProgramPair, int] = {}
    first_line: Dict[str, int] = {}
    for number, line in enumerate(lines[1:], start=2):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}:{number}: not JSON: {exc}") from exc
        try:
            request_id, arrival_ms, model, workload = _request_fields(payload)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}:{number}: {exc}") from exc
        if request_id in first_line:
            raise TraceFormatError(
                f"{path}:{number}: duplicate request id {request_id!r} "
                f"(first on line {first_line[request_id]})"
            )
        first_line[request_id] = number
        code = codes.setdefault((model, workload), len(codes))
        request_ids.append(request_id)
        arrivals.append(arrival_ms)
        programs.append(code)
    metadata = header.get("metadata")
    return Trace._of_columns(
        *_by_arrival(request_ids, arrivals, programs, list(codes)),
        dict(metadata) if isinstance(metadata, dict) else {},
    )


# ---------------------------------------------------------------------- #
# seeded synthetic generators
# ---------------------------------------------------------------------- #
def _draw_requests(
    rng,
    models: Sequence[str],
    num_requests: int,
    gap_ms,
    seq_len_buckets: Sequence[int],
    batch_size: int,
    weights: Optional[Sequence[float]],
) -> Tuple[List[str], List[float], List[int], List[ProgramPair]]:
    """Shared generator core: draw arrivals, models and buckets.

    ``gap_ms`` is a callable producing the next inter-arrival gap — the
    only thing the three traffic shapes differ in.  Returns the columns
    of :class:`Trace` (ids, arrivals, program codes, program table):
    arrivals only grow, and a (model, bucket) pair gets its code and
    its one ``Workload`` the first time it is drawn.
    """
    if not models:
        raise ValueError("trace generation requires at least one model")
    if num_requests <= 0:
        raise ValueError(f"num_requests must be positive, got {num_requests}")
    if not seq_len_buckets:
        raise ValueError("trace generation requires at least one seq-len bucket")
    if weights is not None and len(weights) != len(models):
        raise ValueError(
            f"got {len(weights)} weights for {len(models)} models"
        )
    models = list(models)
    buckets = list(seq_len_buckets)
    width = len(str(num_requests - 1))
    codes: Dict[Tuple[str, int], int] = {}
    table: List[ProgramPair] = []
    arrivals: List[float] = []
    programs: List[int] = []
    now = 0.0
    for index in range(num_requests):
        if index > 0:
            now += gap_ms()
        model = rng.choices(models, weights=weights, k=1)[0]
        seq_len = rng.choice(buckets)
        code = codes.get((model, seq_len))
        if code is None:
            code = codes[model, seq_len] = len(table)
            table.append(
                (model, default_workload(model, seq_len=seq_len, batch_size=batch_size))
            )
        arrivals.append(now)
        programs.append(code)
    request_ids = [f"r{index:0{width}d}" for index in range(num_requests)]
    return request_ids, arrivals, programs, table


def poisson_trace(
    models: Sequence[str],
    num_requests: int = 32,
    rate_rps: float = 50.0,
    seed: int = 0,
    seq_len_buckets: Sequence[int] = (32, 64),
    batch_size: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> Trace:
    """Memoryless traffic: exponential inter-arrival gaps at ``rate_rps``."""
    import random

    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    rng = random.Random(seed)
    rate_per_ms = rate_rps / 1000.0
    columns = _draw_requests(
        rng,
        models,
        num_requests,
        lambda: rng.expovariate(rate_per_ms),
        seq_len_buckets,
        batch_size,
        weights,
    )
    return Trace._of_columns(
        *columns,
        metadata={
            "kind": "poisson",
            "seed": seed,
            "rate_rps": rate_rps,
            "models": list(models),
            "seq_len_buckets": list(seq_len_buckets),
        },
    )


def bursty_trace(
    models: Sequence[str],
    num_requests: int = 32,
    base_rate_rps: float = 20.0,
    burst_rate_rps: float = 200.0,
    burst_probability: float = 0.2,
    mean_burst_length: float = 5.0,
    seed: int = 0,
    seq_len_buckets: Sequence[int] = (32, 64),
    batch_size: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> Trace:
    """Bursty traffic: a two-state Markov-modulated Poisson process.

    The generator alternates between a quiet state (``base_rate_rps``)
    and a burst state (``burst_rate_rps``); each gap draws from the
    current state's exponential, then the state flips with probability
    ``burst_probability`` (quiet -> burst) or ``1/mean_burst_length``
    (burst -> quiet).  This is the classic MMPP(2) shape serving
    papers use for flash crowds.
    """
    import random

    if base_rate_rps <= 0 or burst_rate_rps <= 0:
        raise ValueError("arrival rates must be positive")
    if not 0.0 <= burst_probability <= 1.0:
        raise ValueError(f"burst_probability must be in [0, 1], got {burst_probability}")
    if mean_burst_length < 1.0:
        raise ValueError(f"mean_burst_length must be >= 1, got {mean_burst_length}")
    rng = random.Random(seed)
    state = {"bursting": False}

    def gap_ms() -> float:
        rate = burst_rate_rps if state["bursting"] else base_rate_rps
        gap = rng.expovariate(rate / 1000.0)
        if state["bursting"]:
            if rng.random() < 1.0 / mean_burst_length:
                state["bursting"] = False
        elif rng.random() < burst_probability:
            state["bursting"] = True
        return gap

    columns = _draw_requests(
        rng, models, num_requests, gap_ms, seq_len_buckets, batch_size, weights
    )
    return Trace._of_columns(
        *columns,
        metadata={
            "kind": "bursty",
            "seed": seed,
            "base_rate_rps": base_rate_rps,
            "burst_rate_rps": burst_rate_rps,
            "burst_probability": burst_probability,
            "mean_burst_length": mean_burst_length,
            "models": list(models),
            "seq_len_buckets": list(seq_len_buckets),
        },
    )


def diurnal_trace(
    models: Sequence[str],
    num_requests: int = 32,
    peak_rate_rps: float = 100.0,
    trough_rate_rps: float = 10.0,
    period_ms: float = 1000.0,
    seed: int = 0,
    seq_len_buckets: Sequence[int] = (32, 64),
    batch_size: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> Trace:
    """Diurnal traffic: sinusoidal rate between trough and peak.

    The instantaneous rate follows one sine cycle per ``period_ms`` of
    virtual time — a compressed day — so a trace spanning a few periods
    exercises both the saturated peak and the idle trough.
    """
    import math
    import random

    if trough_rate_rps <= 0 or peak_rate_rps < trough_rate_rps:
        raise ValueError(
            "need 0 < trough_rate_rps <= peak_rate_rps "
            f"(got trough={trough_rate_rps}, peak={peak_rate_rps})"
        )
    if period_ms <= 0:
        raise ValueError(f"period_ms must be positive, got {period_ms}")
    rng = random.Random(seed)
    mean = (peak_rate_rps + trough_rate_rps) / 2.0
    swing = (peak_rate_rps - trough_rate_rps) / 2.0
    clock = {"now": 0.0}

    def gap_ms() -> float:
        phase = 2.0 * math.pi * (clock["now"] % period_ms) / period_ms
        rate = mean + swing * math.sin(phase)
        gap = rng.expovariate(rate / 1000.0)
        clock["now"] += gap
        return gap

    columns = _draw_requests(
        rng, models, num_requests, gap_ms, seq_len_buckets, batch_size, weights
    )
    return Trace._of_columns(
        *columns,
        metadata={
            "kind": "diurnal",
            "seed": seed,
            "peak_rate_rps": peak_rate_rps,
            "trough_rate_rps": trough_rate_rps,
            "period_ms": period_ms,
            "models": list(models),
            "seq_len_buckets": list(seq_len_buckets),
        },
    )


def synthetic_trace(kind: str, models: Sequence[str], **kwargs) -> Trace:
    """Build a synthetic trace by generator name (CLI entry point).

    Args:
        kind: ``"poisson"`` / ``"bursty"`` / ``"diurnal"``.
        models: Registered model names the traffic mixes.
        **kwargs: Forwarded to the chosen generator.

    Raises:
        ValueError: Unknown generator kind.
    """
    if kind == "poisson":
        return poisson_trace(models, **kwargs)
    if kind == "bursty":
        return bursty_trace(models, **kwargs)
    if kind == "diurnal":
        return diurnal_trace(models, **kwargs)
    raise ValueError(
        f"unknown trace generator {kind!r}; known: {', '.join(GENERATOR_KINDS)}"
    )
