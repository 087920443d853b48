"""Motivation analyses: arithmetic intensity and mode-ratio sweeps."""

from .intensity import (
    LayerIntensity,
    intensity_vs_sequence_length,
    layerwise_intensity,
    model_arithmetic_intensity,
    model_intensity_comparison,
    stage_of,
    transformer_stage_intensity,
)
from .sweep import (
    ModeRatioSweep,
    mode_allocation_heatmap,
    mode_ratio_sweep,
)

__all__ = [
    "LayerIntensity",
    "ModeRatioSweep",
    "intensity_vs_sequence_length",
    "layerwise_intensity",
    "mode_allocation_heatmap",
    "mode_ratio_sweep",
    "model_arithmetic_intensity",
    "model_intensity_comparison",
    "stage_of",
    "transformer_stage_intensity",
]
