"""Compute/memory mode-ratio sweeps (Fig. 1(b) and Fig. 5(a)(b)).

These analyses answer the motivating question of the paper: *if a chip has
a fixed number of dual-mode arrays, what fraction should be in compute
mode for a given network?*  The sweep evaluates the analytical latency of
a model when the chip is statically split into ``r x N`` compute arrays
and ``(1 - r) x N`` memory arrays, and reports performance normalised to
the best split — the quantity plotted in Fig. 1(b); the 2-D variant over
(compute, memory) counts produces the Fig. 5(a)(b) heatmaps.

:func:`compiled_array_sweep` complements the analytical sweeps with a
full-compiler design-space exploration: the same graph is compiled for a
family of hardware variants with one shared allocation cache, so repeated
structural sub-problems are solved once across the whole sweep.  It is a
compatibility façade over :mod:`repro.dse` — the first-class DSE engine
with search strategies, resumable run directories and Pareto reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.compiler import CompilerOptions
from ..cost.arithmetic import OperatorProfile, profile_graph
from ..cost.latency import OperatorAllocation, operator_latency_cycles  # noqa: F401  (re-exported for users)
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph



def _static_split_latency(
    profiles: Dict[str, OperatorProfile],
    compute_arrays: int,
    memory_arrays: int,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """Steady-state latency of all operators under a static mode split.

    Every operator sees the full compute partition (weight duplication
    included) and the full memory partition as its on-chip buffer.  When an
    operator's stationary operand does not fit in the compute partition,
    the non-resident weights must stream from off-chip each invocation —
    unless the memory partition is large enough to cache them.  This is the
    quantity behind the paper's Fig. 1(b) / Fig. 5(a)(b) motivation plots:
    compute-heavy splits favour high-intensity CNNs, memory-heavy splits
    favour weight- and activation-bound generative transformers.
    """
    if compute_arrays <= 0:
        return float("inf")
    total = 0.0
    for profile in profiles.values():
        required = max(1, profile.min_compute_arrays(hardware))
        compute_time = (
            profile.macs / (compute_arrays * hardware.op_cim) if profile.macs else 0.0
        )
        nonresident_weights = profile.weight_elements if required > compute_arrays else 0
        onchip_capacity = (
            hardware.buffer_elements + memory_arrays * hardware.array_capacity_elements
        )
        input_side = profile.streamed_input_elements + profile.extra_streamed_elements
        offchip_elements = max(0, input_side + nonresident_weights - onchip_capacity)
        offchip_time = offchip_elements / hardware.d_extern
        onchip_rate = hardware.d_main + memory_arrays * hardware.d_cim
        onchip_time = profile.streamed_elements / onchip_rate
        total += max(compute_time, offchip_time, onchip_time)
    return total


@dataclass
class ModeRatioSweep:
    """Result of a compute-ratio sweep for one model.

    Attributes:
        model: Graph name.
        ratios: Fraction of arrays in compute mode for each sample.
        latencies: Total latency (cycles) at each ratio.
    """

    model: str
    ratios: List[float]
    latencies: List[float]

    @property
    def normalized_performance(self) -> List[float]:
        """Performance (1/latency) normalised to the best ratio (Fig. 1(b)).

        Raises:
            ValueError: If no sampled ratio has a finite latency.
        """
        finite = [lat for lat in self.latencies if np.isfinite(lat)]
        if not finite:
            raise ValueError(
                f"mode-ratio sweep of {self.model!r} has no feasible sample "
                "(every latency is non-finite)"
            )
        best = min(finite)
        return [best / lat if np.isfinite(lat) and lat > 0 else 0.0 for lat in self.latencies]

    @property
    def best_ratio(self) -> float:
        """Compute-mode ratio achieving the best performance.

        Non-finite samples (infeasible splits, NaN guards) are ignored.
        Ties break toward the *lowest* compute ratio: the same
        performance for fewer compute-mode arrays, mirroring
        :func:`repro.core.compiler.choose_plan`'s fewer-arrays tie rule.

        Raises:
            ValueError: If no sampled ratio has a finite latency.
        """
        best_ratio = None
        best_latency = np.inf
        for ratio, latency in zip(self.ratios, self.latencies):
            if not np.isfinite(latency):
                continue
            if latency < best_latency or (
                latency == best_latency and best_ratio is not None and ratio < best_ratio
            ):
                best_latency = latency
                best_ratio = ratio
        if best_ratio is None:
            raise ValueError(
                f"mode-ratio sweep of {self.model!r} has no feasible sample "
                "(every latency is non-finite)"
            )
        return best_ratio


def mode_ratio_sweep(
    graph: Graph,
    hardware: DualModeHardwareAbstraction,
    ratios: Sequence[float] | None = None,
) -> ModeRatioSweep:
    """Sweep the fraction of arrays in compute mode (Fig. 1(b) curve)."""
    if ratios is None:
        ratios = [round(0.05 * i, 2) for i in range(1, 20)]
    profiles = profile_graph(graph)
    latencies = []
    for ratio in ratios:
        compute = max(1, int(round(ratio * hardware.num_arrays)))
        memory = hardware.num_arrays - compute
        latencies.append(_static_split_latency(profiles, compute, memory, hardware))
    repeat = float(graph.metadata.get("block_repeat", 1.0))
    return ModeRatioSweep(
        model=graph.name, ratios=list(ratios), latencies=[lat * repeat for lat in latencies]
    )


def mode_allocation_heatmap(
    graph: Graph,
    hardware: DualModeHardwareAbstraction,
    grid_points: int = 11,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised-performance heatmap over (compute, memory) array counts.

    Reproduces the Fig. 5(a)(b) heatmaps: the axes are the number of
    arrays in compute and memory mode (not necessarily summing to the chip
    total), the value is performance normalised to the best cell.

    Returns:
        ``(compute_counts, memory_counts, heatmap)`` where ``heatmap[i, j]``
        corresponds to ``compute_counts[i]`` and ``memory_counts[j]``.
    """
    profiles = profile_graph(graph)
    compute_counts = np.unique(
        np.linspace(1, hardware.num_arrays, grid_points).round().astype(int)
    )
    memory_counts = np.unique(
        np.linspace(0, hardware.num_arrays, grid_points).round().astype(int)
    )
    latency = np.full((len(compute_counts), len(memory_counts)), np.inf)
    for i, compute in enumerate(compute_counts):
        for j, memory in enumerate(memory_counts):
            if compute + memory > hardware.num_arrays:
                continue
            latency[i, j] = _static_split_latency(profiles, int(compute), int(memory), hardware)
    best = np.nanmin(latency[np.isfinite(latency)]) if np.isfinite(latency).any() else 1.0
    heatmap = np.where(np.isfinite(latency), best / latency, 0.0)
    return compute_counts, memory_counts, heatmap


def compiled_array_sweep(
    graph: Graph,
    base_hardware: DualModeHardwareAbstraction,
    array_counts: Sequence[int],
    options: Optional[CompilerOptions] = None,
    session=None,
) -> List[Dict]:
    """Compile ``graph`` for a family of array counts (DSE with a cache).

    This is the legacy array-count sweep, now a thin façade over
    :mod:`repro.dse`: the array counts become a one-axis
    :class:`~repro.dse.space.DesignSpace`, the ``session`` explores it
    with the grid strategy (:meth:`repro.api.Session.explore`; a
    repeated array count is a program-table hit), and the records are
    rendered back into the historical row format.  A session with a
    ``cache_dir`` lets a restarted sweep read back every design point an
    earlier run already compiled.  For new code prefer
    :meth:`repro.api.Session.explore` directly, which adds strategies,
    resumable run directories and Pareto reporting on top.

    Args:
        session: The :class:`~repro.api.Session` to compile through (a
            fresh in-memory one when omitted).

    Returns:
        One row per array count (input order) with ``num_arrays``,
        ``feasible``, ``cycles``, ``ms``, ``num_segments``,
        ``allocator_solves`` and ``cache_hit_rate``.  A design point too
        small for the workload (the boundary a DSE sweep exists to find)
        is reported as an infeasible row (``cycles == inf``) rather than
        aborting the sweep.
    """
    from ..api import Session
    from ..dse import DesignSpace

    space = DesignSpace(
        models=[graph],
        base_hardware=base_hardware,
        hardware_axes={"num_arrays": [int(count) for count in array_counts]},
        base_options=options or CompilerOptions(generate_code=False),
    )
    session = Session(base_hardware) if session is None else session
    result = session.explore(space, strategy="grid", objective="latency")
    by_coords = {record.coords: record for record in result.records}
    rows: List[Dict] = []
    for coords in space.coordinates():
        record = by_coords[coords]
        if record.failed and not (record.error or "").startswith("RuntimeError:"):
            # Historical contract: only NoFeasiblePlanError/RuntimeError
            # become infeasible rows; genuine bugs (TypeError from bad
            # options, a crashed worker) must propagate, not masquerade
            # as a too-small chip.
            raise RuntimeError(
                f"compiled_array_sweep failed at num_arrays="
                f"{record.num_arrays}: {record.error}"
            )
        solve_attempts = record.allocator_solves + record.cache_hits
        rows.append(
            {
                "num_arrays": record.num_arrays,
                "feasible": record.feasible,
                "cycles": record.cycles if record.feasible else float("inf"),
                "ms": record.latency_ms if record.feasible else float("inf"),
                "num_segments": record.num_segments,
                "allocator_solves": record.allocator_solves,
                "cache_hit_rate": (
                    record.cache_hits / solve_attempts if solve_attempts else 0.0
                ),
            }
        )
    return rows
