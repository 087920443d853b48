"""End-to-end speedup comparison — Fig. 14 of the paper.

For every benchmark network and batch size, all four compilers (PUMA, OCC,
CIM-MLC, CMSwitch) compile the same workload for the same chip, and the
performance of each is reported normalised to CIM-MLC (the paper's main
baseline).  The paper reports CMSwitch speedups between 1.02x and 2.03x
with a 1.31x geometric mean, the largest gains on the big decoder models
and the smallest on the high-intensity CNNs.  Each claim is a row of the
ledger in ``tests/test_paper_claims.py``: CMSwitch is never slower than
CIM-MLC (``fig14.not-slower``, ``agrees``); the geomean, the range and the
family order deviate (mobilenet gains the most).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import Session
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import dynaplasia
from ..models.registry import default_workload
from .common import (
    COMPILER_NAMES,
    FIG14_MODELS,
    format_table,
    geometric_mean,
    run_model,
    speedup,
)


def run_end_to_end(
    hardware: Optional[DualModeHardwareAbstraction] = None,
    models: Sequence[str] = FIG14_MODELS,
    batch_sizes: Sequence[int] = (1, 2, 4, 8),
    seq_len: int = 64,
    compilers: Sequence[str] = COMPILER_NAMES,
    session: Optional[Session] = None,
) -> List[Dict]:
    """Run the Fig. 14 grid and return one row per (model, batch size).

    Each row contains the end-to-end cycles of every compiler, the speedup
    of CMSwitch over each baseline and CMSwitch's memory-array ratio.
    Every compile goes through ``session`` (a fresh one when omitted).
    """
    hardware = hardware or dynaplasia()
    session = Session(hardware) if session is None else session
    rows: List[Dict] = []
    for batch_size in batch_sizes:
        for model in models:
            workload = default_workload(model, batch_size=batch_size, seq_len=seq_len)
            programs = {
                name: run_model(model, workload, hardware, name, session)
                for name in compilers
            }
            row: Dict = {
                "model": model,
                "batch_size": batch_size,
                "seq_len": seq_len,
            }
            for name, program in programs.items():
                row[f"{name}_cycles"] = program.end_to_end_cycles
            cms = programs["cmswitch"].end_to_end_cycles
            for name in compilers:
                if name == "cmswitch":
                    continue
                row[f"speedup_vs_{name}"] = speedup(programs[name].end_to_end_cycles, cms)
            row["memory_array_ratio"] = programs["cmswitch"].mean_memory_array_ratio
            rows.append(row)
    return rows


def summarize(rows: Sequence[Dict]) -> Dict[str, float]:
    """Geometric-mean speedups over the whole grid (the red line of Fig. 14)."""
    summary: Dict[str, float] = {}
    for key in ("speedup_vs_cim-mlc", "speedup_vs_puma", "speedup_vs_occ"):
        values = [row[key] for row in rows if key in row]
        if values:
            summary[key] = geometric_mean(values)
            summary[key.replace("speedup", "max_speedup")] = max(values)
    return summary


def render_report(rows: Sequence[Dict]) -> str:
    """Text rendering of the Fig. 14 table plus the geomean summary."""
    columns = [
        "model",
        "batch_size",
        "speedup_vs_puma",
        "speedup_vs_occ",
        "speedup_vs_cim-mlc",
        "memory_array_ratio",
    ]
    table = format_table(rows, columns)
    summary = summarize(rows)
    lines = [table, ""]
    for key, value in sorted(summary.items()):
        lines.append(f"{key}: {value:.3f}")
    return "\n".join(lines)
