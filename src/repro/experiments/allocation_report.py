"""Per-segment allocation visualisation — Fig. 15 of the paper.

The paper illustrates the compiled compute/memory split for VGG-16 and one
OPT-6.7B layer: early VGG convolutions share segments and receive mostly
compute arrays, the final convolutions receive more memory arrays for
input bandwidth, and within a transformer layer the QKV/FFN projections
receive a substantial memory share while the attention products are mostly
compute.  This experiment prints the same information as a table: one row
per segment with its operators and array split.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import Session
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import dynaplasia
from ..models.workload import Workload
from .common import encode_workload, format_table, run_model


def allocation_report(
    model: str,
    hardware: Optional[DualModeHardwareAbstraction] = None,
    workload: Optional[Workload] = None,
    session: Optional[Session] = None,
) -> List[Dict]:
    """Compile ``model`` through ``session`` and report the per-segment split.

    The default workload is the Fig. 14 one at batch 1, sequence 64
    (:func:`~repro.experiments.common.encode_workload`), so the report
    shows the very program Fig. 14 scores.

    Returns one row per segment: the operators it contains, the number of
    compute and memory arrays and the memory share (the pie charts of
    Fig. 15).
    """
    hardware = hardware or dynaplasia()
    workload = encode_workload(model, 1, 64) if workload is None else workload
    program = run_model(model, workload, hardware, "cmswitch", session)
    rows: List[Dict] = []
    for segment in program.segments:
        total = segment.compute_arrays + segment.memory_arrays
        rows.append(
            {
                "segment": segment.index,
                "operators": ", ".join(_short_name(n) for n in segment.operator_names),
                "num_operators": len(segment.operator_names),
                "compute_arrays": segment.compute_arrays,
                "memory_arrays": segment.memory_arrays,
                "memory_share": segment.memory_arrays / total if total else 0.0,
                "intra_cycles": segment.intra_cycles,
                "inter_cycles": segment.inter_cycles,
            }
        )
    return rows


def _short_name(name: str) -> str:
    """Shorten partitioned shard names for display."""
    return name.replace("::part", "#")


def render_report(model: str, rows: Sequence[Dict]) -> str:
    """Text rendering of the Fig. 15 allocation table."""
    columns = [
        "segment",
        "num_operators",
        "compute_arrays",
        "memory_arrays",
        "memory_share",
        "operators",
    ]
    return f"allocation for {model}\n" + format_table(rows, columns)


def main() -> None:  # pragma: no cover - convenience CLI
    """Print the Fig. 15 allocation tables for VGG-16 and OPT-6.7B."""
    for model in ("vgg16", "opt-6.7b"):
        rows = allocation_report(model)
        print(render_report(model, rows))
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
