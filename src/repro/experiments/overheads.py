"""Cost and scalability analyses — §5.5 of the paper.

Two studies:

* **Dual-mode switch overhead** — the share of total execution time spent
  on the mode-switch process itself (configuring the array drivers plus
  the associated data staging).  Whether the paper's figure for it is
  3–5 % or < 1 % is unsettled (ledger row ``sec5.5.paper-value``,
  ``untested``); ours keeps the driver share at most ~1 %
  (``sec5.5.switch-share``).
* **PRIME scalability** — re-running the transformer benchmarks on a
  PRIME-like ReRAM chip (larger arrays, far more expensive writes) to show
  the approach is not specific to DynaPlasia.  The paper reports 1.48x
  (BERT), 1.09x (LLaMA-7B) and 1.10x (OPT-13B) over CIM-MLC; ours
  misses BERT's (``sec5.5.prime-values``, ``deviates``).

Each claim is a row of the ledger in ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import Session
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import dynaplasia, prime
from ..models.registry import default_workload
from .common import FIG14_MODELS, format_table, run_model, speedup


def switch_overhead(
    hardware: Optional[DualModeHardwareAbstraction] = None,
    models: Sequence[str] = FIG14_MODELS,
    batch_size: int = 1,
    seq_len: int = 64,
    session: Optional[Session] = None,
) -> List[Dict]:
    """Share of execution time spent on the dual-mode switch process.

    Two measures are reported per benchmark: the pure Eq. 1 driver
    reconfiguration time, and the full switch *process* (driver
    reconfiguration plus the data staging of Fig. 10's steps 1 and 3 that
    accompanies a mode change).  The programs are Fig. 14's at the same
    (batch, sequence), so on a shared ``session`` they are lookups.
    """
    hardware = hardware or dynaplasia()
    session = Session(hardware) if session is None else session
    rows: List[Dict] = []
    for model in models:
        workload = default_workload(model, batch_size=batch_size, seq_len=seq_len)
        program = run_model(model, workload, hardware, "cmswitch", session)
        total = program.graph_cycles
        switch_only = program.switch_cycles
        process = sum(segment.inter_cycles for segment in program.segments)
        rows.append(
            {
                "model": model,
                "total_cycles": total,
                "switch_cycles": switch_only,
                "switch_share": switch_only / total if total else 0.0,
                "switch_process_share": process / total if total else 0.0,
            }
        )
    return rows


def prime_scalability(
    models: Sequence[str] = ("bert", "llama2-7b", "opt-13b"),
    batch_size: int = 1,
    seq_len: int = 64,
    hardware: Optional[DualModeHardwareAbstraction] = None,
    session: Optional[Session] = None,
) -> List[Dict]:
    """CMSwitch vs CIM-MLC on the PRIME-like ReRAM target (§5.5).

    Note: the default target here is the PRIME preset, not the CLI's
    ``--hardware`` choice — a session warmed on another chip contributes
    nothing (different hardware fingerprint), but sharing one is always
    safe.
    """
    hardware = hardware or prime()
    session = Session(hardware) if session is None else session
    rows: List[Dict] = []
    for model in models:
        workload = default_workload(model, batch_size=batch_size, seq_len=seq_len)
        cms = run_model(model, workload, hardware, "cmswitch", session)
        mlc = run_model(model, workload, hardware, "cim-mlc", session)
        rows.append(
            {
                "model": model,
                "hardware": hardware.name,
                "cmswitch_cycles": cms.end_to_end_cycles,
                "cim-mlc_cycles": mlc.end_to_end_cycles,
                "speedup_vs_cim-mlc": speedup(mlc.end_to_end_cycles, cms.end_to_end_cycles),
                "memory_array_ratio": cms.mean_memory_array_ratio,
            }
        )
    return rows


def render_switch_report(rows: Sequence[Dict]) -> str:
    """Text rendering of the switch-overhead table."""
    columns = ["model", "switch_share", "switch_process_share"]
    return format_table(rows, columns)


def render_prime_report(rows: Sequence[Dict]) -> str:
    """Text rendering of the PRIME scalability table."""
    columns = ["model", "hardware", "speedup_vs_cim-mlc", "memory_array_ratio"]
    return format_table(rows, columns)
