"""Segment-free analytical cost bounds (the rung-0 evaluation model).

Design-space exploration at scale needs to score a candidate (hardware,
option) point far more cheaply than running the full compile pipeline —
the same tiering CIM-Explorer and CIMFlow put in front of their flows.
This module is that cheap tier's cost model: closed-form *lower bounds*
on latency and energy computed directly from the flattened operator
profiles, with **zero allocator solves**, no segmentation DP and no
:class:`~repro.cost.latency.OperatorAllocation` bookkeeping beyond the
single-operator sweeps already exposed by :mod:`repro.cost.latency`.

The latency bound is the maximum of two quantities, each provably a
lower bound on the compiled plan's graph latency:

* **compute roofline** — ``total MACs / (num_arrays * OP_cim)``: within
  any pipelined segment, operators occupy disjoint array sets whose
  compute counts sum to at most the chip, so the segment's bottleneck
  latency is at least the segment's MACs at the whole chip's peak rate
  (mediant inequality ``max(a_i/b_i) >= sum(a_i)/sum(b_i)``); summing
  over segments telescopes to the whole graph.  Serial scheduling only
  increases the left-hand side.
* **operator bound** — for every unit, the best latency any allocation
  within the chip budget can achieve
  (:func:`~repro.cost.latency.best_split_latency`, or
  :func:`~repro.cost.latency.minimum_latency_all_compute` when memory
  mode is off, where all-compute is optimal because supply is fixed and
  the compute rate is monotone in arrays).  The compiled plan gives each
  unit *some* allocation within the budget, so its segment latency is at
  least this bound.

Inter-segment transition costs (write-back, mode switches, weight
reloads) and pipeline-fill cycles are all non-negative and deliberately
excluded — excluding them keeps the bound valid for every segmentation
the DP could choose.

The energy bound charges only activity every plan must perform, each at
the cheapest coefficient the detailed model
(:func:`repro.cost.energy.estimate_energy`) could possibly charge it:
exact MAC energy, one write + one off-chip fetch per static weight
element (weights are programmed at least once), every streamed element
at the cheapest on-chip access energy, and leakage over the latency
lower bound.

The calibration suite (``tests/test_eval.py``) ratchets both guarantees
against the registered model zoo: the analytical latency never exceeds
the compiled latency, and the feasibility verdicts of
:func:`repro.dse.bound.analytical_bound` always agree with the
compiler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from ..hardware.deha import DualModeHardwareAbstraction
from .arithmetic import OperatorProfile
from .energy import EnergyParameters
from .latency import (
    INFEASIBLE_LATENCY,
    best_split_latency,
    minimum_latency_all_compute,
)

__all__ = [
    "AnalyticalEstimate",
    "analytical_energy_bound",
    "analytical_graph_estimate",
    "analytical_latency_bound",
    "compute_roofline_cycles",
    "operator_latency_bound",
]


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Closed-form lower-bound estimate for one graph on one chip.

    Attributes:
        graph_cycles: Latency lower bound of one graph pass.
        end_to_end_cycles: ``graph_cycles`` times the block repeat.
        energy_pj: Energy lower bound of one graph pass (picojoules).
        end_to_end_mj: End-to-end energy lower bound (millijoules).
        min_peak_arrays: Fewest arrays any feasible plan occupies at its
            busiest operator (the largest single-unit footprint) — a
            lower bound on the compiled plan's peak array usage.
        bottleneck: Which bound is active: ``"compute-roofline"`` (the
            chip-wide MAC rate limits the graph) or ``"operator"`` (one
            operator's best achievable latency does).
        block_repeat: The multiplier applied for end-to-end figures.
    """

    graph_cycles: float
    end_to_end_cycles: float
    energy_pj: float
    end_to_end_mj: float
    min_peak_arrays: int
    bottleneck: str
    block_repeat: float = 1.0


def compute_roofline_cycles(
    profiles: Iterable[OperatorProfile], hardware: DualModeHardwareAbstraction
) -> float:
    """Graph MACs at the whole chip's peak compute rate (cycles)."""
    total_macs = sum(profile.macs for profile in profiles)
    if total_macs <= 0:
        return 0.0
    peak_rate = hardware.num_arrays * hardware.op_cim
    if peak_rate <= 0:
        return INFEASIBLE_LATENCY
    return total_macs / peak_rate


def operator_latency_bound(
    profile: OperatorProfile,
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
) -> float:
    """Best latency any within-budget allocation achieves for one unit.

    With memory mode allowed this sweeps every compute/memory split of
    the whole chip; without it, all-compute is optimal (supply does not
    depend on compute arrays, and the compute rate is monotone), so the
    closed-form all-compute latency is used directly.
    """
    if allow_memory_mode:
        latency, _ = best_split_latency(profile, hardware.num_arrays, hardware)
        return latency
    return minimum_latency_all_compute(profile, hardware.num_arrays, hardware)


def analytical_latency_bound(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
) -> Tuple[float, str]:
    """Latency lower bound of one graph pass, with the active bound.

    Returns:
        ``(cycles, bottleneck)`` where ``bottleneck`` is
        ``"compute-roofline"`` or ``"operator"`` (see module docstring
        for why each is a true lower bound).
    """
    roofline = compute_roofline_cycles(profiles, hardware)
    slowest_operator = max(
        (
            operator_latency_bound(profile, hardware, allow_memory_mode)
            for profile in profiles
        ),
        default=0.0,
    )
    if slowest_operator > roofline:
        return slowest_operator, "operator"
    return roofline, "compute-roofline"


def analytical_energy_bound(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    cycles_lower_bound: float,
) -> float:
    """Energy lower bound of one graph pass (picojoules).

    Every term charges activity the detailed model charges for any
    compiled plan, at the cheapest coefficient that model could apply:
    MAC energy is exact; static weights are written (and fetched across
    the off-chip link) at least once; streamed data moves at least once
    at the cheapest on-chip access energy; leakage accrues over at least
    the latency lower bound.  Mode-switch and inter-segment write-back
    energy are non-negative extras and are excluded.
    """
    parameters = EnergyParameters().scaled_for(hardware)
    cheapest_access = min(
        parameters.array_read_pj_per_element, parameters.buffer_pj_per_element
    )
    energy = 0.0
    for profile in profiles:
        energy += profile.macs * parameters.mac_pj
        energy += profile.streamed_elements * cheapest_access
        if profile.has_static_weight:
            energy += profile.weight_elements * (
                parameters.array_write_pj_per_element
                + parameters.offchip_pj_per_element
            )
    if math.isfinite(cycles_lower_bound):
        energy += cycles_lower_bound * parameters.leakage_pj_per_cycle
    return energy


def analytical_graph_estimate(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
    block_repeat: float = 1.0,
) -> AnalyticalEstimate:
    """Assemble the full rung-0 estimate for a flattened profile list.

    Feasibility is deliberately *not* decided here —
    :func:`repro.dse.bound.analytical_bound` reads it off the same
    compute floors the segmentation DP uses, so the two tiers cannot
    drift apart.  On an infeasible candidate the bounds are still
    well-defined (and still lower bounds) but meaningless.
    """
    cycles, bottleneck = analytical_latency_bound(
        profiles, hardware, allow_memory_mode
    )
    energy_pj = analytical_energy_bound(profiles, hardware, cycles)
    min_peak_arrays = max(
        (profile.compute_floor(hardware) for profile in profiles), default=0
    )
    return AnalyticalEstimate(
        graph_cycles=cycles,
        end_to_end_cycles=cycles * block_repeat,
        energy_pj=energy_pj,
        end_to_end_mj=energy_pj * block_repeat * 1e-9,
        min_peak_arrays=min_peak_arrays,
        bottleneck=bottleneck,
        block_repeat=block_repeat,
    )
