"""Arithmetic-intensity analyses (Figs. 5(c), 6(a) and 6(b) of the paper).

Arithmetic intensity — operations per element of data moved — is what
decides whether a workload wants compute-mode or memory-mode arrays.  The
paper motivates the dual-mode compiler with three observations that these
functions reproduce:

* different networks have very different average intensities (Fig. 5(c)),
* layers within one network differ wildly (Fig. 6(a), ResNet-50),
* the same transformer's intensity scales with sequence length and differs
  between its computation stages (Fig. 6(b), BERT-large).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..cost.arithmetic import mean_arithmetic_intensity, profile_graph
from ..ir.graph import Graph
from ..models.registry import build_model
from ..models.workload import Phase, Workload


@dataclass(frozen=True)
class LayerIntensity:
    """Arithmetic intensity of one CIM-mappable operator."""

    operator: str
    op_type: str
    macs: int
    moved_elements: int
    intensity: float


def model_arithmetic_intensity(graph: Graph) -> float:
    """Average arithmetic intensity of a model (FLOPs per element moved).

    This is the Fig. 5(c) metric: total FLOPs over total data movement
    including weights — large-language-model weights dominate the
    denominator, which is why their intensity is around 2 while CNNs reach
    the hundreds.
    """
    return mean_arithmetic_intensity(profile_graph(graph).values())


def layerwise_intensity(graph: Graph) -> List[LayerIntensity]:
    """Per-operator arithmetic intensity (Fig. 6(a) style)."""
    profiles = profile_graph(graph)
    rows: List[LayerIntensity] = []
    for name, profile in profiles.items():
        moved = profile.streamed_elements + profile.weight_elements
        rows.append(
            LayerIntensity(
                operator=name,
                op_type=profile.op_type,
                macs=profile.macs,
                moved_elements=moved,
                intensity=profile.flops / moved if moved else 0.0,
            )
        )
    return rows


#: Operator-name fragments mapping transformer operators onto the stage
#: categories of Fig. 6(b).
_STAGE_PATTERNS = {
    "MHA (QKV)": ("_q_proj", "_k_proj", "_v_proj", "_qk", "_sv"),
    "MHA (FC)": ("_o_proj",),
    "FFN (FC)": ("_ffn_",),
}


def stage_of(operator_name: str) -> str:
    """Fig. 6(b) stage category of a transformer operator."""
    for stage, patterns in _STAGE_PATTERNS.items():
        if any(pattern in operator_name for pattern in patterns):
            return stage
    return "Other"


def transformer_stage_intensity(graph: Graph) -> Dict[str, float]:
    """Arithmetic intensity per computation stage of a transformer block."""
    profiles = profile_graph(graph)
    flops: Dict[str, float] = {}
    moved: Dict[str, float] = {}
    for name, profile in profiles.items():
        stage = stage_of(name)
        flops[stage] = flops.get(stage, 0.0) + profile.flops
        moved[stage] = moved.get(stage, 0.0) + profile.streamed_elements + profile.weight_elements
    return {stage: (flops[stage] / moved[stage] if moved[stage] else 0.0) for stage in flops}


def intensity_vs_sequence_length(
    model: str,
    sequence_lengths: Sequence[int],
    batch_size: int = 1,
    phase: Phase = Phase.ENCODE,
) -> Dict[int, Dict[str, float]]:
    """Stage intensity of a transformer across sequence lengths (Fig. 6(b)).

    Returns:
        Mapping ``seq_len -> {stage -> intensity, "model" -> average}``.
    """
    results: Dict[int, Dict[str, float]] = {}
    for seq_len in sequence_lengths:
        workload = Workload(batch_size=batch_size, seq_len=seq_len, phase=phase)
        graph = build_model(model, workload)
        stages = transformer_stage_intensity(graph)
        stages["model"] = model_arithmetic_intensity(graph)
        results[seq_len] = stages
    return results


def model_intensity_comparison(
    models: Sequence[str], workload: Workload | None = None
) -> Dict[str, float]:
    """Average arithmetic intensity of several models (Fig. 5(c)).

    Raises:
        ValueError: If ``models`` is empty — an empty comparison is
            always a caller bug (a mistyped flag, an empty sweep list)
            and silently returning ``{}`` hides it.
    """
    if not models:
        raise ValueError("model_intensity_comparison requires at least one model name")
    workload = workload or Workload(batch_size=1, seq_len=64)
    comparison: Dict[str, float] = {}
    for name in models:
        phase = Phase.DECODE if name.startswith(("llama", "opt", "gpt")) else Phase.ENCODE
        graph = build_model(name, Workload(
            batch_size=workload.batch_size, seq_len=workload.seq_len, phase=phase
        ))
        comparison[name] = model_arithmetic_intensity(graph)
    return comparison
