"""SLO curves: tail latency versus offered load, per hardware preset.

The paper's figures score one inference at a time; this experiment asks
the serving question the replay simulator (:mod:`repro.sim.replay`)
exists for: *how does each chip's p99 latency degrade as a multi-model
request stream approaches its capacity, and how much of its time goes
into CIM<->memory re-provisioning?*

For each hardware preset one seeded synthetic trace is generated, then
replayed at several *load factors* by scaling the trace's inter-arrival
gaps around the chip's measured capacity (the load-1.0 point offers
requests exactly as fast as the chip can serve them, switching
included).  Scaling gaps instead of redrawing arrivals keeps the
request mix and order identical across the whole curve — every row of a
preset differs *only* in offered load, which is what makes the curve
interpretable (and is the same metamorphic transform the replay test
suite exercises).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import Session
from ..sim.traces import synthetic_trace
from .common import format_table

__all__ = ["run_slo_curve", "render_report"]

#: Default traffic mix: the tiny zoo keeps the sweep seconds-fast while
#: still mixing CNN- and transformer-shaped programs (so consecutive
#: requests genuinely disagree on array modes).
DEFAULT_MODELS: Sequence[str] = ("tiny-mlp", "tiny-cnn", "tiny-transformer")

#: Offered load as a fraction of the chip's measured capacity.
DEFAULT_LOAD_FACTORS: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.25)


def run_slo_curve(
    presets: Sequence[str] = ("dynaplasia", "prime"),
    models: Sequence[str] = DEFAULT_MODELS,
    kind: str = "bursty",
    num_requests: int = 24,
    seed: int = 0,
    load_factors: Sequence[float] = DEFAULT_LOAD_FACTORS,
    seq_len_buckets: Sequence[int] = (16, 32),
    session: Optional[Session] = None,
) -> List[Dict]:
    """Sweep offered load against each preset and collect SLO rows.

    Args:
        presets: Hardware preset names to sweep.
        models: Traffic mix (registered model names).
        kind: Synthetic generator (``poisson`` / ``bursty`` / ``diurnal``).
        num_requests: Requests per trace.
        seed: Generator seed — every preset replays the *same* request
            sequence, so rows are comparable across chips too.
        load_factors: Offered load as a fraction of measured capacity.
        seq_len_buckets: Sequence-length buckets of the traffic.
        session: Session every replay compiles through (a fresh one when
            omitted): each program is compiled once, then looked up for
            every other load factor.

    Returns:
        One row dict per (preset, load factor) with offered/served
        throughput, p50/p99 latency, utilisation and switch share.
    """
    base = synthetic_trace(
        kind,
        list(models),
        num_requests=num_requests,
        seed=seed,
        seq_len_buckets=tuple(seq_len_buckets),
    )
    session = Session() if session is None else session
    rows: List[Dict] = []
    for preset in presets:
        # Capacity probe: arrivals collapsed to t=0 make the replay
        # back-to-back, so served/makespan is the chip's max sustainable
        # rate for this exact request sequence (switching included).
        saturated = session.replay(base.with_gaps_scaled(1e-9), hardware=preset)
        capacity_rps = saturated.metrics.throughput_rps
        base_rate = len(base) / (base.duration_ms / 1000.0) if base.duration_ms else 0.0
        for load in load_factors:
            if load <= 0 or capacity_rps <= 0 or base_rate <= 0:
                continue
            # Scale gaps so the offered rate is load x capacity.
            offered_rps = load * capacity_rps
            scaled = base.with_gaps_scaled(base_rate / offered_rps)
            result = session.replay(scaled, hardware=preset)
            metrics = result.metrics
            rows.append(
                {
                    "preset": preset,
                    "load": load,
                    "offered_rps": offered_rps,
                    "throughput_rps": metrics.throughput_rps,
                    "p50_ms": metrics.latency_p50_ms,
                    "p99_ms": metrics.latency_p99_ms,
                    "queue_ms_max": metrics.queue_ms_max,
                    "utilisation": metrics.utilisation,
                    "switch_share": metrics.switch_share,
                    "served": metrics.served,
                    "requests": metrics.requests,
                }
            )
    return rows


def render_report(rows: Sequence[Dict]) -> str:
    """Text report of :func:`run_slo_curve` output."""
    columns = (
        "preset",
        "load",
        "offered_rps",
        "throughput_rps",
        "p50_ms",
        "p99_ms",
        "queue_ms_max",
        "utilisation",
        "switch_share",
    )
    lines = [
        "SLO curve: tail latency vs offered load (seeded synthetic trace)",
        format_table(list(rows), columns),
    ]
    return "\n".join(lines)
