"""Pareto-frontier computation and reporting for DSE results.

A design-space exploration rarely has a single winner: a bigger chip is
faster but costs more arrays, a memory-heavy split saves energy but adds
latency.  The useful output is the *Pareto frontier* — the set of
evaluated points no other point beats on every axis simultaneously.  The
default axes are the three the paper's trade-off lives on:

* ``latency_ms`` — predicted end-to-end latency,
* ``energy_mj`` — first-order energy estimate
  (:func:`repro.cost.energy.estimate_energy`),
* ``num_arrays`` — the hardware cost of the candidate chip.

All axes are minimised.  Infeasible or non-finite records never reach
the frontier.  Reports come in two shapes: a text table
(:func:`render_report`) for terminals and logs, and a CSV of every
record with a ``pareto`` flag column (:func:`write_csv`) for notebooks
and downstream tooling.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_AXES",
    "dominates",
    "full_fidelity_records",
    "pareto_frontier",
    "render_report",
    "write_csv",
]

#: Default minimised axes of the frontier.
DEFAULT_AXES: Tuple[str, ...] = ("latency_ms", "energy_mj", "num_arrays")

#: Columns of the CSV report, in order.
CSV_FIELDS = (
    "point_key",
    "model",
    "workload",
    "hardware",
    "num_arrays",
    "allow_memory_mode",
    "feasible",
    "latency_ms",
    "cycles",
    "energy_mj",
    "num_segments",
    "peak_arrays",
    "objective",
    "objective_value",
    "allocator_solves",
    "cache_hits",
    "disk_hits",
    "wall_seconds",
    "status",
    "fidelity",
    "lower_bound",
    "pareto",
)


def _axis_vector(record, axes: Sequence[str]) -> Tuple[float, ...]:
    return tuple(float(getattr(record, axis)) for axis in axes)


def full_fidelity_records(records: Sequence) -> List:
    """The records whose metrics describe a real plan, not a lower bound.

    Mixed-fidelity results must rank, crown and dominate only on these —
    an optimistic analytical bound would otherwise beat every plan it
    merely approximates.  A pure analytical screening (no full-fidelity
    record at all) falls back to every record: comparing bounds against
    each other is exactly what a screening is for.  Records without a
    ``lower_bound`` attribute (pre-fidelity data) count as full fidelity.
    """
    full = [
        record for record in records if not getattr(record, "lower_bound", False)
    ]
    return full if full else list(records)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether axis vector ``a`` Pareto-dominates ``b`` (all <=, one <)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_frontier(records: Sequence, axes: Sequence[str] = DEFAULT_AXES) -> List:
    """Non-dominated feasible records, sorted by the first axis.

    A record participates only when it is feasible and finite on every
    axis.  Records with identical axis vectors are all kept (they are
    mutually non-dominating — distinct designs achieving the same
    trade-off are each worth reporting).

    The scan is the plain O(n²) dominance check — fine for the
    thousands-of-points scale DSE runs reach; consumers that need the
    frontier more than once should compute it once and pass it to
    :func:`render_report` / :func:`write_csv` (which
    :meth:`repro.dse.runner.DSEResult.frontier` does via its cache).
    """
    candidates = [
        record
        for record in records
        if getattr(record, "feasible", False)
        and all(math.isfinite(v) for v in _axis_vector(record, axes))
    ]
    vectors = [_axis_vector(record, axes) for record in candidates]
    frontier = [
        record
        for index, record in enumerate(candidates)
        if not any(
            dominates(other, vectors[index])
            for j, other in enumerate(vectors)
            if j != index
        )
    ]
    # Point key breaks axis-vector ties so equal trade-offs render (and
    # serialise) in the same order regardless of evaluation order.
    frontier.sort(
        key=lambda record: (_axis_vector(record, axes), record.point_key)
    )
    return frontier


def render_report(
    records: Sequence,
    axes: Sequence[str] = DEFAULT_AXES,
    objective: str = "latency",
    frontier: Optional[Sequence] = None,
) -> str:
    """Text report: the frontier table plus evaluation totals.

    ``frontier`` lets callers reuse an already-computed frontier.  The
    "best" line and the dominated count rank only full-fidelity records
    (see :func:`full_fidelity_records`) — in a mixed run an analytical
    lower bound must not be crowned best over the real plans.
    """
    pool = full_fidelity_records(records)
    if frontier is None:
        frontier = pareto_frontier(pool, axes)
    frontier_keys = {record.point_key for record in frontier}
    feasible = sum(1 for record in records if getattr(record, "feasible", False))
    lines = [
        f"pareto frontier over ({', '.join(axes)}) — "
        f"{len(frontier)} of {len(records)} points "
        f"({feasible} feasible), objective: {objective}",
        f"{'model':16s} {'workload':36s} {'arrays':>6s} {'mode':>5s} "
        f"{'latency (ms)':>13s} {'energy (mJ)':>12s} {'segments':>9s}",
    ]
    for record in frontier:
        mode = "dual" if record.allow_memory_mode else "fixed"
        lines.append(
            f"{record.model:16s} {record.workload:36s} {record.num_arrays:6d} "
            f"{mode:>5s} {record.latency_ms:13.3f} {record.energy_mj:12.3f} "
            f"{record.num_segments:9d}"
        )
    best = min(
        (record for record in pool if getattr(record, "feasible", False)),
        key=lambda record: record.objective_value,
        default=None,
    )
    if best is not None:
        lines.append(
            f"best ({best.objective}): {best.model} @ {best.num_arrays} arrays "
            f"-> {best.objective_value:.3f}"
        )
    dominated = [
        record
        for record in pool
        if getattr(record, "feasible", False) and record.point_key not in frontier_keys
    ]
    totals = f"dominated: {len(dominated)}, failed: {len(records) - feasible}"
    screened = len(records) - len(pool)
    if screened:
        totals += f", lower-bound screened: {screened}"
    lines.append(totals)
    return "\n".join(lines)


def write_csv(
    path: Union[str, Path],
    records: Sequence,
    axes: Sequence[str] = DEFAULT_AXES,
    frontier: Optional[Sequence] = None,
) -> Path:
    """Write every record (with a ``pareto`` flag column) as CSV.

    ``frontier`` lets callers reuse an already-computed frontier.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if frontier is None:
        frontier = pareto_frontier(records, axes)
    frontier_keys = {record.point_key for record in frontier}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for record in records:
            row = {name: getattr(record, name, "") for name in CSV_FIELDS if name != "pareto"}
            row["pareto"] = int(record.point_key in frontier_keys)
            writer.writerow(row)
    return path
