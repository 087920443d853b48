"""Shared infrastructure of the experiment harness.

Every evaluation artefact of the paper (Figs. 14–18, the §5.5 analyses)
is regenerated by a function in :mod:`repro.experiments`.  This module
holds what they share: the benchmark model lists, the one compile call
(:func:`run_model`), workload-to-phase mapping, end-to-end latency
integration for generative models (prefill + decode steps) and small
table-formatting helpers.

Every runner compiles through one :class:`~repro.api.Session`
(``session=``, a fresh one by default) — the path the CLI, the daemon,
DSE and replay take — so the runners of one session share its program
table: a (model, workload, chip, compiler) one figure compiled is a
lookup for the next.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..api import Session
from ..core.compiler import CompilerOptions
from ..core.program import CompiledProgram
from ..hardware.deha import DualModeHardwareAbstraction
from ..models.registry import build_model
from ..models.workload import Workload

#: The Fig. 14 benchmark set (names as the paper uses them).
FIG14_MODELS: Sequence[str] = ("bert", "llama2-7b", "opt-13b", "mobilenet", "resnet18", "vgg16")

#: Transformer benchmarks of the workload-scale study (Fig. 16).
FIG16_MODELS: Sequence[str] = ("bert", "llama2-7b", "opt-6.7b", "opt-13b")

#: Decoder-only models used in the generative study (Fig. 17).
FIG17_MODELS: Sequence[str] = ("llama2-7b", "opt-13b")

#: Compiler names in the order the paper plots them.
COMPILER_NAMES: Sequence[str] = ("puma", "occ", "cim-mlc", "cmswitch")

#: Options of every figure compile: the paper's defaults, no code generation.
FIGURE_OPTIONS = CompilerOptions(generate_code=False)


def run_model(
    model: str,
    workload: Workload,
    hardware: DualModeHardwareAbstraction,
    compiler_name: str,
    session: Optional[Session] = None,
) -> CompiledProgram:
    """Compile one model with one registered compiler through ``session``."""
    session = Session(hardware) if session is None else session
    return session.compile(
        build_model(model, workload),
        options=FIGURE_OPTIONS,
        hardware=hardware,
        compiler=compiler_name,
    )


def generative_cycles(
    model: str,
    workload: Workload,
    hardware: DualModeHardwareAbstraction,
    compiler_name: str,
    session: Optional[Session] = None,
) -> Dict[str, float]:
    """End-to-end latency of a full generation (prefill + decode steps).

    The prompt is processed in one prefill pass; every generated token is a
    decode step at the representative KV length (input length plus half the
    output length).  Both graphs are compiled per block and scaled by the
    layer count, exactly as the per-phase evaluation of Figs. 16/17.

    Returns:
        ``{"cycles", "prefill_cycles", "decode_cycles_per_token",
        "memory_array_ratio"}``.
    """
    session = Session(hardware) if session is None else session
    prefill = run_model(model, workload.prefill(), hardware, compiler_name, session)
    decode = run_model(
        model,
        workload.decode(kv_len=workload.effective_kv_len),
        hardware,
        compiler_name,
        session,
    )
    total = prefill.end_to_end_cycles + workload.output_len * decode.end_to_end_cycles
    # Guard the inf/inf -> NaN weight when a phase reports infinite cycles.
    prefill_weight = (
        prefill.end_to_end_cycles / total if total > 0 and math.isfinite(total) else 0.0
    )
    memory_ratio = (
        prefill.mean_memory_array_ratio * prefill_weight
        + decode.mean_memory_array_ratio * (1.0 - prefill_weight)
    )
    return {
        "cycles": total,
        "prefill_cycles": prefill.end_to_end_cycles,
        "decode_cycles_per_token": decode.end_to_end_cycles,
        "memory_array_ratio": memory_ratio,
    }


def speedup(baseline_cycles: float, cycles: float) -> float:
    """Speedup of ``cycles`` relative to ``baseline_cycles``."""
    if cycles <= 0:
        return math.inf
    return baseline_cycles / cycles


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, ignoring non-positive values."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Render rows as a fixed-width text table."""
    widths = {col: len(col) for col in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for col in columns:
            value = row.get(col, "")
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            widths[col] = max(widths[col], len(text))
            rendered.append(text)
        rendered_rows.append(rendered)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    body = [
        "  ".join(text.ljust(widths[col]) for text, col in zip(rendered, columns))
        for rendered in rendered_rows
    ]
    return "\n".join([header, separator, *body])
