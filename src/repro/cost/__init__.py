"""Cost models: per-operator profiles, Eq. 10 latency, Eq. 1/2/4 overheads.

:mod:`repro.cost.analytical` adds the segment-free analytical bounds a
design-space sweep scores candidates with (:mod:`repro.dse.bound`).
"""

from .analytical import (
    AnalyticalEstimate,
    analytical_energy_bound,
    analytical_graph_estimate,
    analytical_latency_bound,
    compute_roofline_cycles,
    operator_latency_bounds,
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
    INFEASIBLE_LATENCY,
    OperatorAllocation,
    pipeline_fill_cycles,
)
from .switching import (
    SegmentResources,
    mode_switch_cycles,
    switch_counts,
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
    "analytical_energy_bound",
    "analytical_graph_estimate",
    "analytical_latency_bound",
    "compute_roofline_cycles",
    "estimate_energy",
    "mean_arithmetic_intensity",
    "mode_switch_cycles",
    "operator_latency_bounds",
    "pipeline_fill_cycles",
    "profile_graph",
    "profile_operator",
    "switch_counts",
    "total_macs",
    "total_weight_elements",
    "writeback_cycles",
]
