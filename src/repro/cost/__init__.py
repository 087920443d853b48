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
from .energy import EnergyParameters, EnergyReport, compare_energy, estimate_energy
from .latency import (
    data_supply_times,
    INFEASIBLE_LATENCY,
    OperatorAllocation,
    best_split_latency,
    compute_rate,
    minimum_latency_all_compute,
    operator_bound,
    operator_latency_cycles,
    pipeline_fill_cycles,
    segment_latency_cycles,
    supply_rate,
)
from .switching import (
    SegmentResources,
    aggregate_resources,
    inter_segment_breakdown,
    inter_segment_cycles,
    mode_switch_counts,
    mode_switch_cycles,
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
    "compare_energy",
    "compute_rate",
    "estimate_energy",
    "inter_segment_breakdown",
    "inter_segment_cycles",
    "mean_arithmetic_intensity",
    "minimum_latency_all_compute",
    "mode_switch_counts",
    "mode_switch_cycles",
    "operator_bound",
    "operator_latency_cycles",
    "pipeline_fill_cycles",
    "profile_graph",
    "profile_operator",
    "segment_latency_cycles",
    "supply_rate",
    "total_macs",
    "total_weight_elements",
    "weight_reload_cycles",
    "writeback_cycles",
]
