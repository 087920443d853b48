"""Workload-scale study — Fig. 16 of the paper.

Transformer benchmarks are evaluated across batch sizes and input/output
sequence lengths.  The paper reports two trends that this experiment
reproduces:

* the speedup of CMSwitch over CIM-MLC is largest at short sequence
  lengths and shrinks (towards parity for BERT) as the sequence grows,
  because arithmetic intensity rises and the workload becomes compute
  bound;
* the average fraction of arrays placed in memory mode falls with the
  sequence length (bottom row of Fig. 16).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.cache import AllocationCache
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import dynaplasia
from ..models.registry import is_transformer
from ..models.workload import Phase, Workload
from .common import FIG16_MODELS, format_table, generative_cycles, run_model, speedup

#: Sequence lengths of the Fig. 16 sweep.
FIG16_SEQUENCE_LENGTHS: Sequence[int] = (32, 64, 128, 256, 512, 1024, 2048)


def _is_decoder(model: str) -> bool:
    """Whether the benchmark generates tokens (BERT is encode-only)."""
    return is_transformer(model) and not model.startswith("bert")


def run_workload_scale(
    hardware: Optional[DualModeHardwareAbstraction] = None,
    models: Sequence[str] = FIG16_MODELS,
    batch_sizes: Sequence[int] = (4, 8, 16),
    sequence_lengths: Sequence[int] = FIG16_SEQUENCE_LENGTHS,
    cache: Optional[AllocationCache] = None,
) -> List[Dict]:
    """Run the Fig. 16 grid.

    Decoder models process the prompt and generate the same number of
    tokens (input length == output length, as in the paper's sweep);
    encoder models run a single pass at the given length.

    Args:
        cache: Optional shared allocation cache (honoured by the CMSwitch
            compiles).  The grid repeats many structurally identical
            blocks across its cells, so a shared cache collapses most of
            the sweep's solver work.

    Returns one row per (model, batch size, sequence length) with the
    CIM-MLC and CMSwitch cycles, the speedup and the memory-array ratio.
    """
    hardware = hardware or dynaplasia()
    rows: List[Dict] = []
    for model in models:
        for batch_size in batch_sizes:
            for seq_len in sequence_lengths:
                row: Dict = {"model": model, "batch_size": batch_size, "seq_len": seq_len}
                if _is_decoder(model):
                    workload = Workload(
                        batch_size=batch_size, seq_len=seq_len, output_len=seq_len
                    )
                    cms = generative_cycles(model, workload, hardware, "cmswitch", cache=cache)
                    mlc = generative_cycles(model, workload, hardware, "cim-mlc")
                    row["cmswitch_cycles"] = cms["cycles"]
                    row["cim-mlc_cycles"] = mlc["cycles"]
                    row["memory_array_ratio"] = cms["memory_array_ratio"]
                else:
                    workload = Workload(
                        batch_size=batch_size, seq_len=seq_len, phase=Phase.ENCODE
                    )
                    cms_run = run_model(model, workload, hardware, "cmswitch", cache=cache)
                    mlc_run = run_model(model, workload, hardware, "cim-mlc")
                    row["cmswitch_cycles"] = cms_run.cycles
                    row["cim-mlc_cycles"] = mlc_run.cycles
                    row["memory_array_ratio"] = cms_run.memory_array_ratio
                row["speedup_vs_cim-mlc"] = speedup(
                    row["cim-mlc_cycles"], row["cmswitch_cycles"]
                )
                rows.append(row)
    return rows


def memory_ratio_trend(rows: Sequence[Dict], model: str, batch_size: int) -> List[float]:
    """Memory-array ratio across sequence lengths for one (model, batch)."""
    filtered = [
        row
        for row in rows
        if row["model"] == model and row["batch_size"] == batch_size
    ]
    filtered.sort(key=lambda row: row["seq_len"])
    return [row["memory_array_ratio"] for row in filtered]


def render_report(rows: Sequence[Dict]) -> str:
    """Text rendering of the Fig. 16 grid."""
    columns = ["model", "batch_size", "seq_len", "speedup_vs_cim-mlc", "memory_array_ratio"]
    return format_table(rows, columns)


def main() -> None:  # pragma: no cover - convenience CLI
    """Print a reduced Fig. 16 reproduction."""
    rows = run_workload_scale(
        models=("bert", "llama2-7b"), batch_sizes=(4,), sequence_lengths=(32, 128, 512, 2048)
    )
    print(render_report(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
