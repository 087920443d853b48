"""Generative-model phase study — Fig. 17 of the paper.

Two sweeps over LLaMA2-7B and OPT-13B:

* fixed input length (128 tokens), output length varied 32–2048 — the
  paper observes a nearly constant speedup because the decode phase
  processes tokens incrementally and its arithmetic intensity does not
  change with the output length;
* fixed output length (128 tokens), input length varied 32–2048 — the
  speedup shrinks as the prompt grows because prefill arithmetic
  intensity rises and the workload becomes compute bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import Session
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import dynaplasia
from ..models.workload import Workload
from .common import FIG17_MODELS, format_table, generative_cycles, speedup

#: Sequence lengths swept on the varying axis.
FIG17_LENGTHS: Sequence[int] = (32, 64, 128, 256, 512, 1024, 2048)


def run_generative(
    hardware: Optional[DualModeHardwareAbstraction] = None,
    models: Sequence[str] = FIG17_MODELS,
    lengths: Sequence[int] = FIG17_LENGTHS,
    fixed_length: int = 128,
    batch_size: int = 1,
    session: Optional[Session] = None,
) -> List[Dict]:
    """Run both Fig. 17 sweeps.

    Every compile goes through ``session`` (a fresh one when omitted), so
    a program the sweeps share — every ``vary_output`` row has the same
    prefill — is compiled once.

    Returns one row per (model, sweep direction, varied length) with the
    CMSwitch and CIM-MLC cycles and the speedup.
    """
    hardware = hardware or dynaplasia()
    session = Session(hardware) if session is None else session
    rows: List[Dict] = []
    for model in models:
        for mode in ("vary_output", "vary_input"):
            for length in lengths:
                if mode == "vary_output":
                    workload = Workload(
                        batch_size=batch_size, seq_len=fixed_length, output_len=length
                    )
                else:
                    workload = Workload(
                        batch_size=batch_size, seq_len=length, output_len=fixed_length
                    )
                cms = generative_cycles(model, workload, hardware, "cmswitch", session)
                mlc = generative_cycles(model, workload, hardware, "cim-mlc", session)
                rows.append(
                    {
                        "model": model,
                        "sweep": mode,
                        "length": length,
                        "input_len": workload.seq_len,
                        "output_len": workload.output_len,
                        "cmswitch_cycles": cms["cycles"],
                        "cim-mlc_cycles": mlc["cycles"],
                        "speedup_vs_cim-mlc": speedup(mlc["cycles"], cms["cycles"]),
                        "memory_array_ratio": cms["memory_array_ratio"],
                    }
                )
    return rows


def render_report(rows: Sequence[Dict]) -> str:
    """Text rendering of the Fig. 17 sweeps."""
    columns = ["model", "sweep", "input_len", "output_len", "speedup_vs_cim-mlc"]
    return format_table(rows, columns)


def main() -> None:  # pragma: no cover - convenience CLI
    """Print a reduced Fig. 17 reproduction."""
    rows = run_generative(models=("llama2-7b",), lengths=(32, 256, 2048))
    print(render_report(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
