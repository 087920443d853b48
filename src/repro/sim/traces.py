"""Request traces: the serving simulator's workload description.

A :class:`Trace` is an arrival-ordered list of inference requests —
which model, which workload (batch / sequence-length bucket), and when
it arrives on the *virtual* clock — plus free-form metadata about where
the trace came from.  Traces come from two places:

* **Files** — a versioned JSONL format (:func:`load_trace` /
  :func:`save_trace`): one header line carrying the format name and
  version, then one request per line.  The reader follows the same
  versioning discipline as :class:`~repro.core.store.DiskCacheStore`:
  a trace written by a *newer* format version is refused with a clear
  error instead of being misread, and malformed lines raise
  :class:`TraceFormatError` naming the offending line.
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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

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


class TraceFormatError(ValueError):
    """A trace file (or payload) violates the trace format."""


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
        if not math.isfinite(self.arrival_ms):
            raise ValueError(
                f"request {self.request_id!r} arrives at non-finite time "
                f"{self.arrival_ms}"
            )
        if self.arrival_ms < 0:
            raise ValueError(
                f"request {self.request_id!r} arrives at negative time "
                f"{self.arrival_ms}"
            )

    def to_payload(self) -> Dict:
        """JSONL line payload of the request."""
        return {
            "id": self.request_id,
            "arrival_ms": self.arrival_ms,
            "model": self.model,
            "workload": workload_to_payload(self.workload),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "TraceRequest":
        """Rebuild a request from :meth:`to_payload` output."""
        try:
            return cls(
                request_id=str(payload["id"]),
                arrival_ms=float(payload["arrival_ms"]),
                model=str(payload["model"]),
                workload=workload_from_payload(payload["workload"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"invalid trace request {payload!r}: {exc}") from exc


@dataclass
class Trace:
    """An arrival-ordered request sequence plus provenance metadata."""

    requests: List[TraceRequest] = field(default_factory=list)
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Arrival order is the contract every consumer relies on (the
        # replay scheduler serves FIFO in this order); ties keep the
        # original position so sorting is deterministic.
        self.requests = sorted(
            self.requests, key=lambda r: r.arrival_ms
        )

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def models(self) -> List[str]:
        """Distinct model names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for request in self.requests:
            seen.setdefault(request.model, None)
        return list(seen)

    @property
    def duration_ms(self) -> float:
        """Arrival span of the trace (last arrival; 0 when empty)."""
        return self.requests[-1].arrival_ms if self.requests else 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        kind = self.metadata.get("kind", "file")
        return (
            f"{len(self.requests)} request(s), {len(self.models)} model(s), "
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
        and everything else are unchanged.
        """
        if factor <= 0:
            raise ValueError(f"gap scale factor must be positive, got {factor}")
        return Trace(
            requests=[
                replace(request, arrival_ms=request.arrival_ms * factor)
                for request in self.requests
            ],
            metadata={**self.metadata, "gap_scale": factor},
        )

    def merged(self, other: "Trace") -> "Trace":
        """The interleaving of two traces (requests re-sorted by arrival).

        Request ids are prefixed per source (``a:``/``b:``) so the merge
        never silently collapses two requests that happened to share an
        id.  Total work is preserved: every request of both inputs
        appears exactly once.
        """
        combined = [
            replace(request, request_id=f"a:{request.request_id}")
            for request in self.requests
        ] + [
            replace(request, request_id=f"b:{request.request_id}")
            for request in other.requests
        ]
        return Trace(requests=combined, metadata={"kind": "merged"})


# ---------------------------------------------------------------------- #
# file format
# ---------------------------------------------------------------------- #
def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace as versioned JSONL (header line + one request/line)."""
    path = Path(path).expanduser()
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_FORMAT_VERSION,
        "requests": len(trace.requests),
        "metadata": trace.metadata,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(request.to_payload(), sort_keys=True) for request in trace.requests
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace file written by :func:`save_trace`.

    Raises:
        OSError: The file does not exist or cannot be read (callers —
            the CLI in particular — turn this into a usage error).
        TraceFormatError: Not a trace file, a newer format version, or
            a malformed header/request line.
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
    if not isinstance(version, int):
        raise TraceFormatError(f"{path}: missing integer format version in header")
    if version > TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: trace format version {version} is newer than the "
            f"supported version {TRACE_FORMAT_VERSION}; upgrade repro to read it"
        )
    requests: List[TraceRequest] = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}:{number}: not JSON: {exc}") from exc
        try:
            requests.append(TraceRequest.from_payload(payload))
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}:{number}: {exc}") from exc
    metadata = header.get("metadata")
    return Trace(
        requests=requests,
        metadata=dict(metadata) if isinstance(metadata, dict) else {},
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
) -> List[TraceRequest]:
    """Shared generator core: draw arrivals, models and buckets.

    ``gap_ms`` is a callable producing the next inter-arrival gap — the
    only thing the three traffic shapes differ in.
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
    # One Workload per (model, bucket): every request of a pair shares
    # the instance, so consumers keyed on (model, workload) hit on identity.
    workloads: Dict[tuple, Workload] = {}
    requests: List[TraceRequest] = []
    now = 0.0
    for index in range(num_requests):
        if index > 0:
            now += gap_ms()
        model = rng.choices(models, weights=weights, k=1)[0]
        seq_len = rng.choice(buckets)
        workload = workloads.get((model, seq_len))
        if workload is None:
            workload = workloads[model, seq_len] = default_workload(
                model, seq_len=seq_len, batch_size=batch_size
            )
        requests.append(
            TraceRequest(
                request_id=f"r{index:0{width}d}",
                arrival_ms=now,
                model=model,
                workload=workload,
            )
        )
    return requests


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
    requests = _draw_requests(
        rng,
        models,
        num_requests,
        lambda: rng.expovariate(rate_per_ms),
        seq_len_buckets,
        batch_size,
        weights,
    )
    return Trace(
        requests=requests,
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

    requests = _draw_requests(
        rng, models, num_requests, gap_ms, seq_len_buckets, batch_size, weights
    )
    return Trace(
        requests=requests,
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

    requests = _draw_requests(
        rng, models, num_requests, gap_ms, seq_len_buckets, batch_size, weights
    )
    return Trace(
        requests=requests,
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
