"""Experiment harness: one module per paper table/figure.

==================  ==========================================
Paper artefact      Module
==================  ==========================================
Fig. 1(b), 5, 6     :mod:`repro.experiments.motivation`
Fig. 14             :mod:`repro.experiments.end_to_end`
Fig. 15             :mod:`repro.experiments.allocation_report`
Fig. 16             :mod:`repro.experiments.workload_scale`
Fig. 17             :mod:`repro.experiments.generative`
Fig. 18             :mod:`repro.experiments.compile_time`
§5.5 analyses       :mod:`repro.experiments.overheads`
Sensitivity (ext.)  :mod:`repro.experiments.sensitivity`
SLO curves (ext.)   :mod:`repro.experiments.serving`
==================  ==========================================
"""

from .allocation_report import allocation_report
from .common import (
    COMPILER_NAMES,
    FIG14_MODELS,
    FIG16_MODELS,
    FIG17_MODELS,
    encode_workload,
    generative_cycles,
    geometric_mean,
    run_model,
    speedup,
)
from .compile_time import measure_compile_time
from .end_to_end import run_end_to_end, summarize
from .generative import run_generative
from .motivation import (
    allocation_heatmaps,
    bert_intensity_vs_sequence,
    intensity_comparison,
    mode_ratio_curves,
    resnet_layer_intensity,
)
from .overheads import prime_scalability, switch_overhead
from .sensitivity import run_sensitivity
from .serving import run_slo_curve
from .workload_scale import memory_ratio_trend, run_workload_scale

__all__ = [
    "COMPILER_NAMES",
    "FIG14_MODELS",
    "FIG16_MODELS",
    "FIG17_MODELS",
    "allocation_heatmaps",
    "allocation_report",
    "bert_intensity_vs_sequence",
    "encode_workload",
    "generative_cycles",
    "geometric_mean",
    "intensity_comparison",
    "measure_compile_time",
    "memory_ratio_trend",
    "mode_ratio_curves",
    "prime_scalability",
    "resnet_layer_intensity",
    "run_end_to_end",
    "run_sensitivity",
    "run_generative",
    "run_model",
    "run_slo_curve",
    "run_workload_scale",
    "speedup",
    "summarize",
    "switch_overhead",
]
