"""Cost models: per-operator profiles, Eq. 10 latency, Eq. 1/2/4 overheads.

:mod:`repro.cost.analytical` adds the segment-free rung-0 bounds a
design-space sweep scores candidates with (:mod:`repro.dse.bound`).
"""

from .analytical import (
    AnalyticalEstimate,
    analytical_energy_bound,
    analytical_graph_estimate,
    analytical_latency_bound,
    compute_roofline_cycles,
    operator_latency_bound,
)
from .arithmetic import (
    OperatorProfile,
    mean_arithmetic_intensity,
    profile_graph,
    profile_operator,
    total_macs,
    total_weight_elements,
)
from .energy import EnergyParameters, EnergyReport, estimate_energy
from .latency import (
    data_supply_times,
    INFEASIBLE_LATENCY,
    OperatorAllocation,
    best_split_latency,
    compute_rate,
    minimum_latency_all_compute,
    operator_latency_cycles,
    pipeline_fill_cycles,
    segment_latency_cycles,
)
from .switching import (
    SegmentResources,
    aggregate_resources,
    mode_switch_cycles,
    switch_counts,
    weight_reload_cycles,
    writeback_cycles,
)

__all__ = [
    "AnalyticalEstimate",
    "EnergyParameters",
    "EnergyReport",
    "INFEASIBLE_LATENCY",
    "OperatorAllocation",
    "OperatorProfile",
    "SegmentResources",
    "aggregate_resources",
    "analytical_energy_bound",
    "analytical_graph_estimate",
    "analytical_latency_bound",
    "best_split_latency",
    "compute_roofline_cycles",
    "operator_latency_bound",
    "data_supply_times",
    "compute_rate",
    "estimate_energy",
    "mean_arithmetic_intensity",
    "minimum_latency_all_compute",
    "mode_switch_cycles",
    "operator_latency_cycles",
    "pipeline_fill_cycles",
    "profile_graph",
    "profile_operator",
    "segment_latency_cycles",
    "switch_counts",
    "total_macs",
    "total_weight_elements",
    "weight_reload_cycles",
    "writeback_cycles",
]
